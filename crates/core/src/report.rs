//! The outcome of running an algorithm on a profile: the adaptivity report.
//!
//! The central scalar is the **adaptivity ratio**
//!
//! ```text
//!     R(n) = Σ_i min(n, |□_i|)^{log_b a}  /  n^{log_b a},
//! ```
//!
//! the left-hand side of Eq. 2 divided by its right-hand side. An execution
//! is efficiently cache-adaptive iff R(n) = O(1) over all n; the worst-case
//! gap of Theorem 2 appears as R(n) = Θ(log_b n). A single run cannot decide
//! asymptotics — `cadapt-analysis::fit` classifies growth across an n-sweep —
//! but [`AdaptivityReport::verdict`] gives the per-run threshold check that
//! the experiment harness aggregates.

use crate::{Blocks, Io, Leaves};

/// Aggregated outcome of one execution on one square profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivityReport {
    /// Branching factor a of the algorithm.
    pub a: u64,
    /// Shrink factor b of the algorithm.
    pub b: u64,
    /// The potential exponent log_b a.
    pub exponent: f64,
    /// Problem size in blocks.
    pub n: Blocks,
    /// Number of boxes consumed to complete the problem.
    pub boxes_used: u64,
    /// Σ min(n, |□_i|)^{log_b a} over consumed boxes (Eq. 2 LHS).
    pub bounded_potential_sum: f64,
    /// Σ ρ(|□_i|) over consumed boxes (Eq. 1 LHS).
    pub raw_potential_sum: f64,
    /// n^{log_b a}: the total progress the problem requires (Eq. 2 RHS).
    pub required_progress: f64,
    /// Total progress actually recorded across boxes. Box progress counts
    /// base cases *at least partly* inside the box, so consecutive boxes may
    /// double-count a boundary leaf; this is ≥ the number of leaves.
    pub total_progress: Leaves,
    /// Total I/Os the algorithm performed.
    pub total_io: Io,
    /// Largest box consumed (0 if none).
    pub max_box: Blocks,
    /// Smallest box consumed (0 if none).
    pub min_box: Blocks,
}

impl AdaptivityReport {
    /// The adaptivity ratio R(n) (Eq. 2 LHS / RHS). 0 for an empty run.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        // cadapt-lint: allow(float-eq) -- sentinel: required_progress is exactly 0.0 only for an empty run (ρ(0)); division guard
        if self.required_progress == 0.0 {
            return 0.0;
        }
        self.bounded_potential_sum / self.required_progress
    }

    /// The ratio using *unbounded* potential (Eq. 1). Equal to
    /// [`AdaptivityReport::ratio`] when every box is ≤ n.
    #[must_use]
    pub fn raw_ratio(&self) -> f64 {
        // cadapt-lint: allow(float-eq) -- sentinel: required_progress is exactly 0.0 only for an empty run (ρ(0)); division guard
        if self.required_progress == 0.0 {
            return 0.0;
        }
        self.raw_potential_sum / self.required_progress
    }

    /// Threshold verdict: is this single execution within a factor
    /// `threshold` of the progress bound?
    #[must_use]
    pub fn verdict(&self, threshold: f64) -> Verdict {
        let r = self.ratio();
        if r <= threshold {
            Verdict::Efficient
        } else {
            Verdict::Gap {
                factor: r / threshold,
            }
        }
    }

    /// log_b n — the natural x-axis for gap plots (the worst-case ratio
    /// grows linearly in this quantity).
    #[must_use]
    pub fn log_b_n(&self) -> f64 {
        (self.n as f64).ln() / (self.b as f64).ln()
    }
}

/// Per-run threshold check; see [`AdaptivityReport::verdict`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The ratio was within the threshold.
    Efficient,
    /// The ratio exceeded the threshold by `factor`.
    Gap {
        /// How far above the threshold the ratio landed.
        factor: f64,
    },
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    fn report(bounded: f64, required: f64) -> AdaptivityReport {
        AdaptivityReport {
            a: 8,
            b: 4,
            exponent: 1.5,
            n: 256,
            boxes_used: 10,
            bounded_potential_sum: bounded,
            raw_potential_sum: bounded,
            required_progress: required,
            total_progress: 0,
            total_io: 0,
            max_box: 256,
            min_box: 1,
        }
    }

    #[test]
    fn ratio_is_lhs_over_rhs() {
        let r = report(4096.0, 4096.0);
        assert_eq!(r.ratio(), 1.0);
        let r = report(8192.0, 4096.0);
        assert_eq!(r.ratio(), 2.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(report(4096.0, 4096.0).verdict(2.0), Verdict::Efficient);
        match report(16384.0, 4096.0).verdict(2.0) {
            Verdict::Gap { factor } => assert!((factor - 2.0).abs() < 1e-12),
            Verdict::Efficient => panic!("expected a gap"),
        }
    }

    #[test]
    fn log_axis() {
        let r = report(1.0, 1.0);
        assert!((r.log_b_n() - 4.0).abs() < 1e-12); // log_4 256 = 4
    }

    #[test]
    fn empty_run_has_zero_ratio() {
        let mut r = report(0.0, 0.0);
        r.required_progress = 0.0;
        assert_eq!(r.ratio(), 0.0);
        assert_eq!(r.raw_ratio(), 0.0);
    }
}
