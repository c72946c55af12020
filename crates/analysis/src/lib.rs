//! # cadapt-analysis — the paper's theory, coded
//!
//! The machinery that turns executions into the paper's quantities:
//!
//! * [`stats`] — streaming mean/variance/confidence intervals for
//!   Monte-Carlo summaries.
//! * [`recurrence`] — the Lemma 3 stopping-time recurrence: given a
//!   discrete box distribution Σ, compute m_n (average n-bounded
//!   potential), p = Pr[|□| ≥ n] · f(n/b), and rigorous lower/upper bounds
//!   on f(n), the expected number of boxes to complete a problem of size n.
//!   Eq. 3 then predicts the expected adaptivity ratio as f(n) · m_n / n^e.
//! * [`parallel`] — the deterministic parallel execution engine: a
//!   work-stealing trial/job fan-out whose trial-ordered reduction makes
//!   every result bit-identical at any thread count, with one fail-fast
//!   sweep that isolates panics per trial (a poisoned trial is a typed
//!   failure with its index, not a dead pool).
//! * [`montecarlo`] — the one Monte-Carlo ratio estimator
//!   ([`monte_carlo_ratio`], on top of [`parallel`]): every experiment
//!   that averages adaptivity ratios over random profiles calls it with a
//!   source factory, estimating the same quantities empirically.
//! * [`fit`] — growth-law classification for ratio-vs-log n sweeps: is the
//!   adaptivity ratio Θ(1) (cache-adaptive) or Θ(log_b n) (the gap)?
//! * [`table`] — plain-text / JSON experiment tables shared by the harness
//!   binaries, benches, and integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod montecarlo;
pub mod parallel;
pub mod recurrence;
pub mod stats;
pub mod table;

pub use fit::{classify_growth, GrowthClass, LineFit};
pub use montecarlo::{monte_carlo_ratio, McConfig, McError, McSummary};
pub use parallel::{
    resolve_threads, run_indexed, run_trials, try_run_trials, SweepError, TrialPanic,
};
pub use recurrence::{
    equation6_checks, equation7_checks, equation8_products, DiscreteSigma, Equation6Check,
    RecurrenceBounds,
};
pub use stats::{Quantiles, Stats};
pub use table::Table;
