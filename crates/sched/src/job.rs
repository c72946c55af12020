//! A job: one (a, b, c)-regular execution in flight.

use cadapt_core::{Blocks, CoreError, Io, Leaves, Potential};
use cadapt_recursion::{cursor_for, AbcParams, ExecCursor, ExecModel};

/// What to run: algorithm parameters and problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// The algorithm.
    pub params: AbcParams,
    /// Problem size in blocks (must be canonical for `params`).
    pub n: Blocks,
}

impl JobSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(params: AbcParams, n: Blocks) -> Self {
        JobSpec { params, n }
    }
}

/// A live job in the scheduler.
#[derive(Debug, Clone)]
pub struct Job {
    spec: JobSpec,
    cursor: ExecCursor,
    model: ExecModel,
    /// Boxes (rounds with a non-zero share) this job has received.
    boxes_received: u64,
    /// Σ min(n, share)^{log_b a} over received boxes — the Eq. 2 charge.
    bounded_potential: f64,
    /// I/Os actually consumed on the shared bus.
    io_used: Io,
    /// Base cases completed.
    progress: Leaves,
}

impl Job {
    /// Start a job.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `spec.n` is not canonical.
    pub fn start(spec: JobSpec, model: ExecModel) -> Result<Self, CoreError> {
        Ok(Job {
            spec,
            // Shared closed-form tables from the process-wide cache — k
            // co-scheduled jobs of one mix build them once, not k times.
            cursor: cursor_for(spec.params, spec.n)?,
            model,
            boxes_received: 0,
            bounded_potential: 0.0,
            io_used: 0,
            progress: 0,
        })
    }

    /// The job's specification.
    #[must_use]
    pub fn spec(&self) -> JobSpec {
        self.spec
    }

    /// Has the job completed?
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.cursor.is_done()
    }

    /// Fraction of the serial execution completed, in [0, 1].
    #[must_use]
    pub fn completion(&self) -> f64 {
        let total = self.cursor.closed_forms().total_time();
        if total == 0 {
            return 1.0;
        }
        self.cursor.serial_position() as f64 / total as f64
    }

    /// Give the job one box of `share` blocks (a share of 0 skips the
    /// round). Returns the I/Os it consumed.
    pub fn grant(&mut self, share: Blocks) -> Io {
        if share == 0 || self.is_done() {
            return 0;
        }
        let rho = Potential::new(self.spec.params.a(), self.spec.params.b());
        self.bounded_potential += rho.bounded(self.spec.n, share);
        self.boxes_received += 1;
        let out = self.model.advance(&mut self.cursor, share);
        self.io_used += out.used;
        self.progress += out.progress;
        out.used
    }

    /// Finish-line summary of the job so far.
    #[must_use]
    pub fn outcome(&self) -> JobOutcome {
        let rho = Potential::new(self.spec.params.a(), self.spec.params.b());
        JobOutcome {
            spec: self.spec,
            done: self.is_done(),
            boxes_received: self.boxes_received,
            io_used: self.io_used,
            progress: self.progress,
            bounded_potential: self.bounded_potential,
            required_progress: rho.required_progress(self.spec.n),
        }
    }
}

/// Summary of one job's run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// What ran.
    pub spec: JobSpec,
    /// Whether it completed.
    pub done: bool,
    /// Boxes (rounds with cache) received.
    pub boxes_received: u64,
    /// I/Os consumed on the bus.
    pub io_used: Io,
    /// Base cases completed.
    pub progress: Leaves,
    /// Σ min(n, share)^{log_b a} over received boxes.
    pub bounded_potential: f64,
    /// n^{log_b a} — the progress obligation.
    pub required_progress: f64,
}

impl JobOutcome {
    /// The job's Eq. 2 adaptivity ratio (only meaningful once done).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        // cadapt-lint: allow(float-eq) -- sentinel: required_progress is exactly 0.0 only for an empty job; division guard
        if self.required_progress == 0.0 {
            return 0.0;
        }
        self.bounded_potential / self.required_progress
    }
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    fn job(n: Blocks) -> Job {
        Job::start(JobSpec::new(AbcParams::mm_scan(), n), ExecModel::capacity()).unwrap()
    }

    #[test]
    fn lifecycle() {
        let mut j = job(64);
        assert!(!j.is_done());
        assert_eq!(j.completion(), 0.0);
        // One huge grant completes it.
        let used = j.grant(1 << 20);
        assert!(used > 0);
        assert!(j.is_done());
        assert_eq!(j.completion(), 1.0);
        let outcome = j.outcome();
        assert!(outcome.done);
        assert_eq!(outcome.progress, 512);
        assert_eq!(outcome.boxes_received, 1);
    }

    #[test]
    fn zero_share_skips() {
        let mut j = job(64);
        assert_eq!(j.grant(0), 0);
        assert_eq!(j.outcome().boxes_received, 0);
    }

    #[test]
    fn grants_accumulate_potential() {
        let mut j = job(64);
        while !j.is_done() {
            let _ = j.grant(16);
        }
        let outcome = j.outcome();
        // Same trajectory as the single-run driver: ratio 1.5 (see the
        // recursion crate's constant-box test).
        assert!((outcome.ratio() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn grants_after_done_are_ignored() {
        let mut j = job(16);
        let _ = j.grant(1 << 20);
        assert!(j.is_done());
        assert_eq!(j.grant(64), 0);
        assert_eq!(j.outcome().boxes_received, 1);
    }

    #[test]
    fn bad_size_rejected() {
        assert!(Job::start(
            JobSpec::new(AbcParams::mm_scan(), 63),
            ExecModel::capacity()
        )
        .is_err());
    }
}
