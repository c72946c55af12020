//! # cadapt-recursion — (a, b, c)-regular algorithms as executable objects
//!
//! An *(a, b, c)-regular* algorithm (Definition 2 of the paper) recursively
//! splits a problem of size n blocks into `a` subproblems of size n/b, plus a
//! linear scan of size n^c; the base case is O(1) blocks. This crate turns
//! that definition into something that can be *run* against a square profile:
//!
//! * [`AbcParams`] — the parameters (a, b, c), the base-case size, and the
//!   placement of scan work around the recursive calls, with named presets
//!   for the classical algorithms the paper discusses (MM-Scan, MM-Inplace,
//!   Strassen, cache-oblivious DP, the Gaussian-elimination paradigm).
//! * [`ClosedForms`] — exact per-level leaf counts, scan lengths, and serial
//!   times T(n) = a·T(n/b) + scan(n).
//! * [`ExecCursor`] — a lazy cursor into the (enormous) execution: it
//!   advances *per box* in O(depth) per jump or scan step, reading every
//!   subtree remainder in O(1) from per-frame prefixes — or a whole *run*
//!   of equal boxes in closed form (bit-identical totals) — never
//!   materialising the recursion tree.
//! * [`ExecModel`] — the two box-consumption semantics: the paper's §4
//!   *simplified caching model* (used by the theory) and a *block-capacity*
//!   charging model (the faithful constant-factor generalisation).
//! * [`run_on_profile`] — the driver: feed boxes from a
//!   [`BoxSource`](cadapt_core::BoxSource), collect an
//!   [`AdaptivityReport`](cadapt_core::AdaptivityReport).
//! * [`probe`] — empirical potential measurement (Lemma 1 validation).
//! * [`no_catchup`] — the No-Catch-up Lemma (Lemma 2) as an executable
//!   predicate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod closed_form;
pub mod cursor;
pub mod model;
pub mod no_catchup;
pub mod params;
pub mod probe;
pub mod run;
pub mod walk;

pub use cache::{closed_forms_for, cursor_for};
pub use closed_form::ClosedForms;
pub use cursor::{BatchOutcome, BoxOutcome, ExecCursor};
pub use model::ExecModel;
pub use params::{AbcParams, ScanLayout};
pub use run::{run_cursor_on_profile, run_on_profile, RunConfig, RunError};
