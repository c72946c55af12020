//! # cadapt-sched — the system the paper's introduction imagines
//!
//! The paper motivates cache-adaptivity with a systems story: *"If
//! algorithms could gracefully handle changes in their cache allocation,
//! then the system could always fully utilize the cache. Whenever a new
//! task arrives, the system could reclaim some cache from the running
//! tasks… When a task ends, its memory could be distributed among the
//! other tasks."* This crate builds that system as a simulator and
//! quantifies the story (experiment E13):
//!
//! * a [`Job`] is an (a, b, c)-regular execution in flight (driven by the
//!   `cadapt-recursion` cursor);
//! * an [`AllocationPolicy`] splits the machine's cache among the live
//!   jobs each round — equal shares, churning shares, winner-take-all
//!   (the cache-residency-imbalance pathology of Dice et al., cited in
//!   the paper's intro), or a tailored adversary;
//! * the [`Scheduler`] runs rounds: each job receives its allocation as
//!   one box (height = share, width = share I/Os — the square-profile
//!   discipline), the bus serialises the I/Os, and finished jobs release
//!   their share to the survivors.
//!
//! The punchline mirrors the paper: mixes of *adaptive* jobs (MM-Inplace)
//! sustain near-ideal aggregate throughput under any policy, while
//! *non-adaptive* jobs (MM-Scan) lose a logarithmic factor exactly when
//! the allocation pattern happens to resonate with their recursion — and
//! almost never otherwise.
//!
//! This crate is an **extension beyond the paper** (clearly marked as such
//! in DESIGN.md): the paper proves theorems about single jobs on given
//! profiles; here the profiles *emerge* from co-scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod policy;
pub mod scheduler;

pub use job::{Job, JobOutcome, JobSpec};
pub use policy::{AllocationPolicy, ChurnShares, EqualShares, WinnerTakeAll};
pub use scheduler::{ScheduleResult, Scheduler, SchedulerConfig};
