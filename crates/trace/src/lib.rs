//! # cadapt-trace — real algorithms, really traced
//!
//! The abstract (a, b, c)-regular cursor of `cadapt-recursion` is a model.
//! This crate grounds it: genuine cache-oblivious algorithms run on real
//! data and record every memory access as a block-level trace, which
//! `cadapt-paging` then replays under arbitrary memory profiles. Experiment
//! E8 compares the two layers.
//!
//! Implemented algorithms (all verified against naive references in their
//! tests):
//!
//! * [`mm::mm_scan`] — divide-and-conquer matrix multiplication that merges
//!   subresults with linear scans; the paper's canonical non-adaptive
//!   (8, 4, 1)-regular algorithm.
//! * [`mm::mm_inplace`] — the in-place accumulating variant; (8, 4, 0) and
//!   optimally cache-adaptive.
//! * [`strassen::strassen`] — Strassen's seven-multiplication scheme,
//!   (7, 4, 1)-regular with genuine add/subtract scans.
//! * [`edit::edit_distance`] — cache-oblivious edit distance via the
//!   boundary method: four half-size quadrant solves stitched with
//!   linear boundary scans, (4, 2, 1)-regular.
//! * [`gep::floyd_warshall`] — the Gaussian Elimination Paradigm family:
//!   recursive blocked Kleene APSP over the (min, +) semiring, the
//!   (8, 4, 1)-regular GEP kernel the paper cites.
//! * [`transpose::transpose`] — the classic FLPR quadrant transpose, an
//!   a = b linear-work control case outside the gap regime.
//! * [`veb::veb_search`] — static binary search over a van Emde Boas tree
//!   layout (Barratt & Zhang's cache-friendly search trees), the corpus's
//!   search-tree workload; born compiled rather than materialised.
//!
//! Matrices use the Z-Morton (bit-interleaved) layout so that quadrants are
//! contiguous — the layout that makes these algorithms cache-oblivious.
//!
//! Beyond the algorithms themselves, [`summary`] condenses a trace into
//! its reuse-distance structure once (stack-distance histogram, warm/cold
//! positions, leaf prefix sums) so `cadapt-paging`'s analytic cache model
//! can answer capacity and box queries in closed form instead of replaying
//! references, and [`corpus`] memoizes the summarised traces process-wide
//! (the same pattern as `cadapt_profiles::cache`).
//!
//! Traces come in two interchangeable representations behind the
//! [`stream::TraceStream`] trait: the recorded [`BlockTrace`] event
//! vector, and the compiled [`bytecode::TraceProgram`] — a compact
//! delta/run/loop bytecode that a small decoder VM streams back out.
//! Every instrumented kernel is generic over [`tracer::TraceSink`], so it
//! can record events or emit bytecode directly (the `*_compiled` entry
//! points) without ever materialising the vector.
//!
//! Per-access lookups keyed by block id — here and in `cadapt-paging` —
//! go through [`BlockMap`]/[`BlockSet`] ([`block_map`]): std collections
//! with a fixed multiplicative hasher, since every block id is generated
//! by the program's own kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block_map;
pub mod bytecode;
pub mod corpus;
pub mod edit;
pub mod gep;
pub mod matrix;
pub mod mm;
pub mod strassen;
pub mod stream;
pub mod summary;
pub mod tracer;
pub mod transpose;
pub mod veb;

pub use block_map::{BlockMap, BlockSet};
pub use bytecode::{compile, TraceCompiler, TraceProgram};
pub use corpus::{compiled, summarized, SummarizedTrace, TraceAlgo};
pub use matrix::ZMatrix;
pub use stream::TraceStream;
pub use summary::TraceSummary;
pub use tracer::{AddressSpace, BlockTrace, TraceEvent, TraceSink, TracedBuf, Tracer};
