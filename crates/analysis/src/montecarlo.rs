//! Deterministic, parallel Monte-Carlo estimation of cache-adaptivity in
//! expectation (Definition 3).
//!
//! Each trial draws an independent infinite profile (via a caller-supplied
//! source factory), runs the execution to completion, and records the
//! bounded-potential sum, box count, and adaptivity ratio. Trials fan out
//! over the [`parallel`](crate::parallel) engine's work-stealing workers
//! (each worker claims the next unclaimed trial index), so a straggler
//! trial never idles the other cores. Every trial's randomness comes from
//! a `ChaCha8Rng` seeded by (experiment seed, trial index), and the
//! per-trial outcomes are reduced into the summary statistics *in trial
//! order* on the main thread, so results are bit-identical regardless of
//! thread count or scheduling — the reproducibility rule the HPC guides
//! insist on.

use crate::parallel::{try_run_trials, SweepError, TrialPanic};
use crate::stats::Stats;
use cadapt_core::counters::{CounterSnapshot, Recording};
use cadapt_core::{Blocks, BoxSource};
use cadapt_recursion::{run_cursor_on_profile, AbcParams, RunConfig, RunError};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Why a Monte-Carlo estimate failed, keyed by the offending trial.
#[derive(Debug, Clone, PartialEq)]
pub enum McError {
    /// A trial's execution returned a [`RunError`] (bad problem size, box
    /// budget exhausted, …).
    Run {
        /// Index of the failing trial (smallest among the failures).
        trial: u64,
        /// The execution error.
        error: RunError,
    },
    /// A trial panicked; the engine caught it at the trial boundary.
    Panic(TrialPanic),
}

impl From<SweepError<RunError>> for McError {
    fn from(e: SweepError<RunError>) -> McError {
        match e {
            SweepError::Job { trial, error } => McError::Run { trial, error },
            SweepError::Panic(p) => McError::Panic(p),
        }
    }
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::Run { trial, error } => write!(f, "trial {trial} failed: {error}"),
            McError::Panic(p) => write!(f, "{p}"),
        }
    }
}

impl std::error::Error for McError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McError::Run { error, .. } => Some(error),
            McError::Panic(p) => Some(p),
        }
    }
}

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Number of independent trials.
    pub trials: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Base seed; trial i uses stream i of this seed.
    pub seed: u64,
    /// Execution/run settings shared by all trials.
    pub run: RunConfig,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            trials: 64,
            threads: 0,
            seed: 0x00CA_DA97,
            run: RunConfig::default(),
        }
    }
}

/// Aggregated Monte-Carlo outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSummary {
    /// Problem size.
    pub n: Blocks,
    /// Adaptivity ratio R(n) across trials.
    pub ratio: Stats,
    /// Boxes used across trials (the stopping time S_n; its mean estimates
    /// f(n)).
    pub boxes: Stats,
    /// Bounded-potential sum across trials (Definition 3's expectation).
    pub bounded_potential: Stats,
    /// Execution counters summed over all trials (boxes advanced, I/Os
    /// charged, cursor steps, …) — the observability layer's per-call
    /// totals. Independent of thread count: every trial records into its
    /// worker's thread-local counters and the snapshots are summed.
    pub counters: CounterSnapshot,
}

// The deterministic per-trial RNG constructor lives in the engine module
// (`rng-discipline` confines RNG stream minting there); re-exported here
// because every experiment driver historically imports it from this path.
pub use crate::parallel::trial_rng;

/// Estimate cache-adaptivity in expectation: run `config.trials`
/// independent executions of `params` on problems of size `n`, drawing each
/// trial's profile from `make_source(trial_rng)`.
///
/// This is the one ratio-over-trials estimator: every experiment that
/// averages adaptivity ratios over random profiles passes its source
/// factory here. The factory may borrow shared state (a memoised profile
/// every trial cycles over) or build an owned source per trial.
///
/// ```
/// use cadapt_analysis::{monte_carlo_ratio, McConfig};
/// use cadapt_profiles::dist::{DistSource, PowerOfB};
/// use cadapt_recursion::AbcParams;
///
/// // Theorem 1 in one call: MM-Scan under i.i.d. power-of-4 boxes.
/// let summary = monte_carlo_ratio(
///     AbcParams::mm_scan(),
///     1024,
///     &McConfig { trials: 32, ..McConfig::default() },
///     |rng| DistSource::new(PowerOfB::new(4, 0, 5), rng),
/// )?;
/// assert!(summary.ratio.mean < 3.0); // adaptive in expectation
/// # Ok::<(), cadapt_analysis::McError>(())
/// ```
///
/// # Errors
///
/// Returns the failure with the smallest trial index: a [`RunError`] from
/// a trial's execution (bad problem size, box budget exhausted), or a
/// caught trial panic — the pool survives either way.
pub fn monte_carlo_ratio<S, F>(
    params: AbcParams,
    n: Blocks,
    config: &McConfig,
    make_source: F,
) -> Result<McSummary, McError>
where
    S: BoxSource,
    F: Fn(ChaCha8Rng) -> S + Sync,
{
    // The engine hands outcomes back in trial order, so the f64 Welford
    // update sequence below — and hence every summary bit — is independent
    // of which worker ran which trial. The engine also folds the workers'
    // counter totals into this thread's recording; the local Recording
    // wrapper measures exactly that fold so the summary can report it
    // (outer recordings keep counting through it).
    let recording = Recording::start();
    let outcomes = try_run_trials(config.trials, config.threads, |trial| {
        let mut pipeline = make_source(trial_rng(config.seed, trial)).into_cursor();
        run_cursor_on_profile(params, n, &mut pipeline, &config.run).map(|report| {
            (
                report.ratio(),
                report.boxes_used as f64,
                report.bounded_potential_sum,
            )
        })
    })
    .map_err(McError::from)?;
    let counters = recording.finish();
    let mut ratio = Stats::new();
    let mut boxes = Stats::new();
    let mut potential = Stats::new();
    for (r, b, p) in outcomes {
        ratio.push(r);
        boxes.push(b);
        potential.push(p);
    }
    Ok(McSummary {
        n,
        ratio,
        boxes,
        bounded_potential: potential,
        counters,
    })
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_profiles::dist::{DistSource, PointMass, PowerOfB};

    #[test]
    fn point_mass_is_deterministic_across_trials() {
        let params = AbcParams::mm_scan();
        let config = McConfig {
            trials: 8,
            ..McConfig::default()
        };
        let summary = monte_carlo_ratio(params, 64, &config, |rng| {
            DistSource::new(PointMass { size: 16 }, rng)
        })
        .unwrap();
        assert_eq!(summary.ratio.count, 8);
        // All trials identical: zero variance, known ratio 1.5 (see the
        // recursion crate's constant-box test).
        assert!(summary.ratio.std_dev() < 1e-12);
        assert!((summary.ratio.mean - 1.5).abs() < 1e-9);
        assert!((summary.boxes.mean - 12.0).abs() < 1e-9);
    }

    #[test]
    fn reproducible_regardless_of_thread_count() {
        let params = AbcParams::mm_scan();
        let run = |threads| {
            let config = McConfig {
                trials: 16,
                threads,
                seed: 42,
                ..McConfig::default()
            };
            monte_carlo_ratio(params, 256, &config, |rng| {
                DistSource::new(PowerOfB::new(4, 0, 5), rng)
            })
            .unwrap()
        };
        let single = run(1);
        let multi = run(4);
        assert_eq!(single.ratio.count, multi.ratio.count);
        // Trial-ordered reduction: not just close — bit-identical.
        assert_eq!(single.ratio.mean.to_bits(), multi.ratio.mean.to_bits());
        assert_eq!(single.boxes.mean.to_bits(), multi.boxes.mean.to_bits());
        assert_eq!(
            single.bounded_potential.mean.to_bits(),
            multi.bounded_potential.mean.to_bits()
        );
        assert_eq!(single.ratio.min, multi.ratio.min);
        assert_eq!(single.ratio.max, multi.ratio.max);
        // The counter totals are per-trial sums, so they are exactly
        // thread-count independent too.
        assert_eq!(single.counters, multi.counters);
        assert!(single.counters.boxes_advanced > 0);
        assert!(single.counters.ios_charged > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let params = AbcParams::mm_scan();
        let run = |seed| {
            let config = McConfig {
                trials: 8,
                seed,
                ..McConfig::default()
            };
            monte_carlo_ratio(params, 256, &config, |rng| {
                DistSource::new(PowerOfB::new(4, 0, 5), rng)
            })
            .unwrap()
        };
        assert_ne!(run(1).ratio.mean, run(2).ratio.mean);
    }

    #[test]
    fn wald_identity_holds() {
        // E[Σ min(n,|□_i|)^e] = E[S_n] · m_n (optional stopping): the MC
        // estimates of both sides must agree within CI noise.
        let params = AbcParams::mm_scan();
        let dist = PowerOfB::new(4, 0, 4);
        let config = McConfig {
            trials: 256,
            seed: 7,
            ..McConfig::default()
        };
        let summary =
            monte_carlo_ratio(params, 256, &config, |rng| DistSource::new(dist, rng)).unwrap();
        let sigma = crate::recurrence::DiscreteSigma::from_dist(&dist).unwrap();
        let m_n = sigma.average_bounded_potential(&params.potential(), 256);
        let lhs = summary.bounded_potential.mean;
        let rhs = summary.boxes.mean * m_n;
        // Both sides estimate the same expectation; their difference is
        // sampling noise bounded by the (correlated) standard errors.
        let tolerance = 5.0 * (summary.bounded_potential.std_err() + summary.boxes.std_err() * m_n);
        assert!(
            (lhs - rhs).abs() < tolerance,
            "Wald identity violated: {lhs} vs {rhs} (tolerance {tolerance})"
        );
    }

    #[test]
    fn error_propagates() {
        let params = AbcParams::mm_scan();
        let config = McConfig {
            trials: 4,
            run: RunConfig {
                max_boxes: 2,
                ..RunConfig::default()
            },
            ..McConfig::default()
        };
        let err = monte_carlo_ratio(params, 64, &config, |rng| {
            DistSource::new(PointMass { size: 1 }, rng)
        })
        .unwrap_err();
        // Fail-fast with the smallest trial index: trial 0 loses first.
        assert!(matches!(
            err,
            McError::Run {
                trial: 0,
                error: RunError::BoxBudgetExhausted { .. }
            }
        ));
        assert!(err.to_string().contains("trial 0"));
    }
}
