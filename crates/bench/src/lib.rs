//! # cadapt-bench — the experiment harness
//!
//! One module per experiment in DESIGN.md's per-experiment index, each
//! exposing a `run(scale) -> …Result` function used three ways:
//!
//! * the `cadapt-bench` CLI runs them through the registry, prints the
//!   tables (EXPERIMENTS.md embeds them) and writes run records;
//! * the workspace integration tests assert the qualitative shape
//!   (who wins, which growth law);
//! * the `perfbench/` package at the repository root times the
//!   underlying kernels, each call checked against an oracle.
//!
//! [`Scale`] keeps the same code usable from debug-mode tests (`Quick`) and
//! release-mode harness runs (`Full`).

// `deny`, not `forbid`: the optional `count-alloc` peak-memory meter is
// the one `unsafe` island (a `GlobalAlloc` impl must be), scoped by a
// targeted allow inside `alloc_meter`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_meter;
pub mod error;
pub mod experiments;
pub mod faults;
pub mod harness;

pub use error::BenchError;

/// Execution context handed to every registered experiment: the scale
/// and the worker-thread budget for the experiment's internal trial
/// fan-out (0 = available parallelism). Results are bit-identical at any
/// thread count — see the determinism contract in
/// `cadapt_analysis::parallel` — so the budget only moves wall time.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// How big to run.
    pub scale: Scale,
    /// Worker threads for trial fan-out (0 = available parallelism).
    pub threads: usize,
}

impl ExpCtx {
    /// Context at `scale` with the default thread budget (all cores).
    #[must_use]
    pub fn new(scale: Scale) -> ExpCtx {
        ExpCtx::with_threads(scale, 0)
    }

    /// Context with an explicit worker budget.
    #[must_use]
    pub fn with_threads(scale: Scale, threads: usize) -> ExpCtx {
        ExpCtx { scale, threads }
    }
}

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes / few trials — fast enough for debug-mode tests.
    Quick,
    /// Paper-scale sizes and trial counts (use release builds).
    Full,
}

impl Scale {
    /// Parse a `--size` value (`quick` / `full`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The canonical lowercase name (`"quick"` / `"full"`), as stored in
    /// run records.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.pick("quick", "full")
    }

    /// Pick between the two variants.
    #[must_use]
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
