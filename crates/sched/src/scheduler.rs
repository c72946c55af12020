//! The round-based co-scheduler.

use crate::job::{Job, JobOutcome, JobSpec};
use crate::policy::AllocationPolicy;
use cadapt_core::{Blocks, CoreError, Io};
use cadapt_recursion::ExecModel;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Total cache blocks shared by the jobs.
    pub total_cache: Blocks,
    /// Execution model for the jobs.
    pub model: ExecModel,
    /// Abort after this many rounds (safety net).
    pub max_rounds: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            total_cache: 1024,
            model: ExecModel::capacity(),
            max_rounds: 50_000_000,
        }
    }
}

/// A batch of jobs sharing one cache under one policy.
pub struct Scheduler<P> {
    jobs: Vec<Job>,
    policy: P,
    config: SchedulerConfig,
}

impl<P> std::fmt::Debug for Scheduler<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("jobs", &self.jobs)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Outcome of a completed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Per-job summaries, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Rounds executed.
    pub rounds: u64,
    /// Total I/Os across the (serialising) bus.
    pub bus_io: Io,
}

impl ScheduleResult {
    /// Aggregate base-case throughput: total progress per bus I/O.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.bus_io == 0 {
            return 0.0;
        }
        let progress: f64 = self.jobs.iter().map(|j| j.progress as f64).sum();
        progress / self.bus_io as f64
    }

    /// Makespan-style metric: bus I/Os until every job finished.
    #[must_use]
    pub fn total_io(&self) -> Io {
        self.bus_io
    }

    /// The worst per-job Eq. 2 ratio — the job the schedule hurt the most.
    #[must_use]
    pub fn worst_ratio(&self) -> f64 {
        self.jobs.iter().map(JobOutcome::ratio).fold(0.0, f64::max)
    }

    /// Jain's fairness index over per-job progress rates (1 = perfectly
    /// fair, 1/k = one job got everything).
    #[must_use]
    pub fn fairness(&self) -> f64 {
        let rates: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| {
                if j.io_used == 0 {
                    0.0
                } else {
                    j.progress as f64 / j.io_used as f64
                }
            })
            .collect();
        let sum: f64 = rates.iter().sum();
        let sum_sq: f64 = rates.iter().map(|r| r * r).sum();
        // cadapt-lint: allow(float-eq) -- sentinel: sum_sq is exactly 0.0 only when every rate is zero; division guard for the fairness index
        if sum_sq == 0.0 {
            return 1.0;
        }
        sum * sum / (rates.len() as f64 * sum_sq)
    }
}

impl<P: AllocationPolicy> Scheduler<P> {
    /// Admit `specs` as jobs under `policy`.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] for non-canonical problem sizes.
    pub fn new(specs: &[JobSpec], policy: P, config: SchedulerConfig) -> Result<Self, CoreError> {
        let jobs = specs
            .iter()
            .map(|&spec| Job::start(spec, config.model))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Scheduler {
            jobs,
            policy,
            config,
        })
    }

    /// Run every job to completion.
    ///
    /// Each round: the policy splits the cache among the *live* jobs, each
    /// live job consumes its share as one box, and the bus time advances by
    /// the sum of consumed I/Os (a single shared memory channel).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `max_rounds` is exceeded.
    pub fn run(mut self) -> Result<ScheduleResult, CoreError> {
        let mut rounds: u64 = 0;
        let mut bus_io: Io = 0;
        loop {
            let live: Vec<usize> = (0..self.jobs.len())
                .filter(|&i| !self.jobs[i].is_done())
                .collect();
            if live.is_empty() {
                break;
            }
            if rounds >= self.config.max_rounds {
                return Err(CoreError::InvalidParameter {
                    name: "max_rounds",
                    message: format!(
                        "schedule did not finish within {} rounds",
                        self.config.max_rounds
                    ),
                });
            }
            let shares = self
                .policy
                .allocate(live.len(), self.config.total_cache, rounds);
            debug_assert_eq!(shares.len(), live.len());
            for (&job_idx, &share) in live.iter().zip(&shares) {
                bus_io += self.jobs[job_idx].grant(share);
            }
            rounds += 1;
        }
        Ok(ScheduleResult {
            jobs: self.jobs.iter().map(Job::outcome).collect(),
            rounds,
            bus_io,
        })
    }
}

/// The single-tenant baseline: run one spec alone with the whole cache;
/// its bus I/O is the denominator for utilisation comparisons.
///
/// # Errors
///
/// Propagates [`CoreError`] for non-canonical sizes or exhausted rounds.
pub fn run_alone(spec: JobSpec, config: SchedulerConfig) -> Result<ScheduleResult, CoreError> {
    Scheduler::new(&[spec], crate::policy::EqualShares, config)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ChurnShares, EqualShares, WinnerTakeAll};
    use cadapt_recursion::AbcParams;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn specs(params: AbcParams, n: u64, count: usize) -> Vec<JobSpec> {
        vec![JobSpec::new(params, n); count]
    }

    #[test]
    fn all_jobs_finish_under_equal_shares() {
        let result = Scheduler::new(
            &specs(AbcParams::mm_scan(), 256, 4),
            EqualShares,
            SchedulerConfig {
                total_cache: 128,
                ..SchedulerConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(result.jobs.iter().all(|j| j.done));
        assert_eq!(result.jobs.len(), 4);
        let total_progress: u128 = result.jobs.iter().map(|j| j.progress).sum();
        assert_eq!(total_progress, 4 * 4096); // 4 jobs × 256^1.5 leaves
    }

    #[test]
    fn departures_grow_survivor_shares() {
        // One small job departs early; the big job must then receive
        // larger boxes. Detect via the big job's final ratio being better
        // than an always-half-cache run.
        let mixed = vec![
            JobSpec::new(AbcParams::mm_scan(), 1024),
            JobSpec::new(AbcParams::mm_scan(), 16),
        ];
        let config = SchedulerConfig {
            total_cache: 512,
            ..SchedulerConfig::default()
        };
        let result = Scheduler::new(&mixed, EqualShares, config)
            .unwrap()
            .run()
            .unwrap();
        assert!(result.jobs.iter().all(|j| j.done));
        // The big job eventually ran with the full cache: it received at
        // least one box bigger than the half-cache share.
        let big = &result.jobs[0];
        assert!(big.bounded_potential > 0.0);
        assert!(result.rounds >= 2);
    }

    #[test]
    fn winner_take_all_hurts_fairness() {
        let config = SchedulerConfig {
            total_cache: 256,
            ..SchedulerConfig::default()
        };
        let equal = Scheduler::new(&specs(AbcParams::mm_inplace(), 256, 4), EqualShares, config)
            .unwrap()
            .run()
            .unwrap();
        let wta = Scheduler::new(
            &specs(AbcParams::mm_inplace(), 256, 4),
            WinnerTakeAll { reign: 4 },
            config,
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(
            wta.fairness() <= equal.fairness() + 1e-9,
            "wta {} vs equal {}",
            wta.fairness(),
            equal.fairness()
        );
    }

    #[test]
    fn churn_completes_and_is_deterministic_per_seed() {
        let config = SchedulerConfig {
            total_cache: 512,
            ..SchedulerConfig::default()
        };
        let run = |seed| {
            Scheduler::new(
                &specs(AbcParams::strassen(), 256, 3),
                ChurnShares::new(ChaCha8Rng::seed_from_u64(seed)),
                config,
            )
            .unwrap()
            .run()
            .unwrap()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).bus_io, run(4).bus_io);
    }

    #[test]
    fn run_alone_is_the_best_case() {
        let spec = JobSpec::new(AbcParams::mm_scan(), 256);
        let config = SchedulerConfig {
            total_cache: 512,
            ..SchedulerConfig::default()
        };
        let alone = run_alone(spec, config).unwrap();
        assert!(alone.jobs[0].done);
        // Alone with cache ≥ n: one box, optimal ratio.
        assert_eq!(alone.jobs[0].boxes_received, 1);
        assert!((alone.jobs[0].ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn round_cap_errors() {
        let config = SchedulerConfig {
            total_cache: 8,
            max_rounds: 2,
            ..SchedulerConfig::default()
        };
        let err = Scheduler::new(&specs(AbcParams::mm_scan(), 1024, 2), EqualShares, config)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("2 rounds"));
    }

    #[test]
    fn throughput_and_fairness_are_sane() {
        let config = SchedulerConfig {
            total_cache: 256,
            ..SchedulerConfig::default()
        };
        let result = Scheduler::new(&specs(AbcParams::mm_inplace(), 256, 2), EqualShares, config)
            .unwrap()
            .run()
            .unwrap();
        assert!(result.throughput() > 0.0);
        let f = result.fairness();
        assert!((0.5..=1.0 + 1e-9).contains(&f), "fairness {f}");
    }
}
