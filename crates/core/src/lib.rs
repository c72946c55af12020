//! # cadapt-core — primitives of the cache-adaptive model
//!
//! This crate formalises the *cache-adaptive (CA) model* of Bender et al.
//! (SODA '14, SPAA '16) as used by "Closing the Gap Between Cache-oblivious
//! and Cache-adaptive Analysis" (SPAA '20):
//!
//! * [`MemoryProfile`] — an arbitrary profile `m(t)` giving the cache size in
//!   blocks after the `t`-th I/O, together with the CA-model well-formedness
//!   rule (grow by at most one block per I/O, shrink arbitrarily).
//! * [`SquareProfile`] — a profile decomposed into *boxes* (squares): steps
//!   that are exactly as long as they are tall. Prior work shows analysing
//!   algorithms on square profiles loses only constant factors, so all of the
//!   paper's machinery — and all of this workspace — runs on boxes.
//! * [`Potential`] — the box potential ρ(x) = Θ(x^{log_b a}) of Lemma 1, and
//!   the *n-bounded* potential min(n, x)^{log_b a} used by the optimality
//!   condition (Eq. 2 of the paper).
//! * [`ProgressLedger`] / [`AdaptivityReport`] — per-box progress accounting
//!   and the efficiently-cache-adaptive verdict.
//!
//! Everything downstream (`cadapt-recursion`, `cadapt-profiles`,
//! `cadapt-paging`, `cadapt-analysis`) builds on these types.
//!
//! ## Units
//!
//! Following Remark 1 of the paper, the default unit everywhere is **blocks**
//! (not machine words); block size `B` only becomes visible in the
//! trace-level crates. Times are measured in I/Os.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod checksum;
pub mod counters;
pub mod cursor;
pub mod error;
pub mod memory_profile;
pub mod potential;
pub mod profile;
pub mod progress;
pub mod report;

pub use counters::CounterSnapshot;
pub use cursor::{CancelToken, Cancelled, RunCursor, RunCursorExt, SourceCursor};
pub use error::CoreError;
pub use memory_profile::{MemoryProfile, ProfileCursor};
pub use potential::Potential;
pub use profile::{BoxRun, BoxSource, SquareProfile};
pub use progress::{BoxRecord, ProgressLedger};
pub use report::{AdaptivityReport, Verdict};

/// A size or capacity measured in cache blocks.
pub type Blocks = u64;

/// A duration or timestamp measured in I/O operations.
///
/// `u128` because total serial time of an (a,b,c)-regular execution is
/// Θ(n^{log_b a}) and overflows `u64` for the largest benchmark sizes.
pub type Io = u128;

/// A count of completed base-case subproblems ("progress" in the paper).
pub type Leaves = u128;
