//! # cadapt-paging — the machine under the model
//!
//! A two-level memory-hierarchy simulator in the DAM tradition: a cache of
//! m(t) blocks in front of an infinite disk, time measured in I/Os (block
//! transfers), hits free. Three replay modes over the block traces produced
//! by `cadapt-trace`:
//!
//! * [`replay::replay_fixed`] — classical DAM: constant cache of M blocks
//!   with LRU replacement (the ideal-cache baseline).
//! * [`replay::replay_square_profile`] — the cache-adaptive model on square
//!   profiles: each box of size x grants x I/Os and x blocks of (cleared)
//!   cache; the per-box progress ledger feeds the same
//!   [`AdaptivityReport`](cadapt_core::AdaptivityReport) the abstract
//!   cursor produces, making the two layers directly comparable (E8).
//!   [`replay::replay_square_cursor`] is the streaming variant: the same
//!   replay fed from any [`RunCursor`](cadapt_core::RunCursor) pipeline,
//!   with cooperative cancellation at run boundaries.
//! * [`replay::replay_memory_profile`] — the general CA model: an arbitrary
//!   m(t), evicting down to the new size whenever it shrinks. m(t) is read
//!   through a forward [`ProfileCursor`](cadapt_core::ProfileCursor), so
//!   the replay is one O(A) pass however many segments the profile has.
//!
//! The LRU structure itself is [`lru::LruCache`], an O(1) recency ring
//! with a sentinel node, threaded through a node table indexed by block
//! id: a [`PageDirectory`](cadapt_trace::block_map::PageDirectory) gives
//! each id a dense slot, and a block is resident exactly when its node is
//! in the ring, so a probe is a flat page-table load and an index, not a
//! hash lookup. The table covers every id on a page the cache has inserted
//! from, so its memory is O(ids on touched pages), 8 bytes per id,
//! whatever the capacity. The fixed-cache and m(t) replays use it.
//! Square-profile replay keeps no LRU: a box of x blocks admits at most x
//! misses into a cache cleared at its start, so it never evicts, and a
//! block is resident exactly when the open box admitted it. A per-slot
//! stamp holding the number of the box that admitted the block answers
//! that, and a box boundary opens a new number. [`opt::replay_opt`]
//! provides Belady's offline-optimal replacement as the baseline the
//! ideal-cache model assumes, with the Sleator–Tarjan LRU-vs-OPT
//! inequality checked in its tests.
//!
//! Each simulated replay mode has an analytic twin in [`analytic`] that
//! computes the identical numbers in closed form from a
//! [`TraceSummary`](cadapt_trace::TraceSummary) — no cache state, no
//! per-reference replay. Experiments call the side they need directly:
//! `replay_fixed`/`analytic_fixed`, `replay_square_profile`/
//! `analytic_square_profile` (and their `_history` variants), and
//! `replay_memory_profile`/`analytic_memory_profile`, each `replay_*`
//! taking the trace (any `TraceStream`) and each `analytic_*` its summary.
//! The equivalence is exact and enforced by proptest
//! (`tests/props_analytic_equivalence.rs`) and the corpus integration
//! suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod lru;
pub mod opt;
pub mod replay;

pub use analytic::{
    analytic_fixed, analytic_memory_profile, analytic_square_profile,
    analytic_square_profile_history,
};
pub use lru::LruCache;
pub use opt::replay_opt;
pub use replay::{
    replay_fixed, replay_memory_profile, replay_square_cursor, replay_square_profile,
    replay_square_profile_history, ReplayError,
};
