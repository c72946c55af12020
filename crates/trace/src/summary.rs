//! Reuse-distance summaries of block traces.
//!
//! A [`TraceSummary`] is computed **once** per trace in O(A log A) (A =
//! number of accesses) and then answers, in closed form, the questions the
//! LRU simulator in `cadapt-paging` answers by replaying every reference:
//!
//! * **Fixed caches** — by the classical stack-distance theorem
//!   (Mattson et al. 1970), an access hits a capacity-C LRU cache iff its
//!   *stack distance* (distinct blocks touched since the previous access
//!   to the same block, the block itself included) is at most C. The
//!   fault count of *every* capacity is therefore a suffix sum of one
//!   stack-distance histogram: [`TraceSummary::faults_fixed`] answers a
//!   capacity query in O(log A) after the one-time build.
//! * **Square-profile boxes** — a box of size x grants x blocks of cache
//!   *cleared at the box start* and a budget of x I/Os. Inside such a box
//!   inserts never exceed capacity, so nothing is ever evicted, and an
//!   access hits iff its previous access lies inside the same box. Per-box
//!   fault counts reduce to counting "cold" accesses (previous access
//!   before the box start) against the [`prev1`](TraceSummary::prev1)
//!   array — pure arithmetic on two integer arrays, no cache state.
//! * **Arbitrary m(t) profiles** — under LRU the resident set at any
//!   instant is exactly the top-k of the global recency stack, where k
//!   evolves as min-with-m(t) on shrinks and +1 on insertions. An access
//!   hits iff its global stack distance is at most the current k, so the
//!   whole replay is one pass over the precomputed
//!   [`depths`](TraceSummary::depths) array.
//!
//! The closed forms are **exact**, not approximations — the analytic
//! replayers in `cadapt-paging::analytic` are proven equal to the
//! simulator fault-for-fault (see `tests/integration_analytic_equivalence`
//! and the proptest suite in `crates/paging`).
//!
//! Leaf marks (progress) attach to the preceding access:
//! [`leaves_before`](TraceSummary::leaves_before) turns per-box progress
//! counting into two prefix-sum lookups.

use crate::block_map::{BlockMap, BuildBlockHasher};
use crate::stream::TraceStream;
use crate::tracer::TraceEvent;
use cadapt_core::{cast, Blocks, Io, Leaves};

/// Fenwick tree over access positions, used to count "latest occurrence"
/// flags inside a position range while building stack distances.
///
/// Counts are stored modulo 2⁶⁴ (the classic wrapping trick): every prefix
/// sum of the true flag multiset is non-negative, so the wrapped value is
/// the exact value.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
        }
    }

    /// Add `delta` (possibly the wrapped −1) at 0-based position `i`.
    fn add(&mut self, i: usize, delta: u64) {
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] = self.tree[idx].wrapping_add(delta);
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based, inclusive).
    fn prefix(&self, i: usize) -> u64 {
        let mut idx = i + 1;
        let mut sum = 0u64;
        while idx > 0 {
            sum = sum.wrapping_add(self.tree[idx]);
            idx -= idx & idx.wrapping_neg();
        }
        sum
    }
}

/// Positional and reuse-distance structure of one trace stream,
/// computed once and queried per capacity / per box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    accesses: u64,
    distinct_blocks: Blocks,
    total_leaves: Leaves,
    /// `prev1[j]` = 1 + access index of the previous access to the same
    /// block, or 0 when access `j` touches its block for the first time.
    /// An access `j` inside a box starting at access `s` is *warm* iff
    /// `prev1[j] > s`.
    prev1: Vec<u64>,
    /// `depth[j]` = LRU stack distance of access `j` (distinct blocks
    /// touched since the previous access to the same block, inclusive of
    /// the block itself), or 0 for a first access (infinite distance).
    depth: Vec<u64>,
    /// The finite entries of `depth`, sorted ascending — the
    /// stack-distance histogram in cumulative form.
    depth_sorted: Vec<u64>,
    /// `leaf_before[j]` = leaf marks occurring before access `j` in event
    /// order; the final entry (index `accesses`) is the total leaf count.
    leaf_before: Vec<Leaves>,
}

impl TraceSummary {
    /// Build the summary in O(A log A) time and O(A) space from any
    /// [`TraceStream`] — a recorded [`crate::tracer::BlockTrace`] or a
    /// compiled [`crate::bytecode::TraceProgram`] decoded on the fly; the
    /// result is identical either way because the stream contract fixes
    /// the event sequence.
    #[must_use]
    pub fn new<T: TraceStream + ?Sized>(trace: &T) -> Self {
        let events = trace.events();
        let access_count = trace.accesses();
        let a = cast::usize_from_u64(access_count);
        let mut prev1 = Vec::with_capacity(a);
        let mut depth = Vec::with_capacity(a);
        let mut leaf_before = Vec::with_capacity(a + 1);
        let mut depth_sorted = Vec::new();
        let mut last_pos: BlockMap<u64> = BlockMap::with_capacity_and_hasher(
            cast::usize_from_u64(trace.distinct_blocks()),
            BuildBlockHasher::default(),
        );
        let mut flags = Fenwick::new(a);
        let mut leaves: Leaves = 0;
        let mut j: u64 = 0;
        // `for_each` drains through the decoder's `fold` fast path.
        events.for_each(|event| match event {
            TraceEvent::Leaf => leaves += 1,
            TraceEvent::Access(block) => {
                leaf_before.push(leaves);
                let ju = cast::usize_from_u64(j);
                match last_pos.insert(block, j) {
                    None => {
                        prev1.push(0);
                        depth.push(0);
                    }
                    Some(p) => {
                        let pu = cast::usize_from_u64(p);
                        prev1.push(p + 1);
                        // Distinct blocks strictly between p and j are
                        // the "latest occurrence" flags in (p, j); the
                        // block itself adds 1.
                        let between = if ju > pu + 1 {
                            flags.prefix(ju - 1).wrapping_sub(flags.prefix(pu))
                        } else {
                            0
                        };
                        let d = between + 1;
                        depth.push(d);
                        depth_sorted.push(d);
                        // The block's latest occurrence moves to j.
                        flags.add(pu, 1u64.wrapping_neg());
                    }
                }
                flags.add(ju, 1);
                j += 1;
            }
        });
        leaf_before.push(leaves);
        depth_sorted.sort_unstable();
        TraceSummary {
            accesses: access_count,
            distinct_blocks: trace.distinct_blocks(),
            total_leaves: leaves,
            prev1,
            depth,
            depth_sorted,
            leaf_before,
        }
    }

    /// Total accesses A (leaf marks excluded).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Distinct blocks touched — the trace's working-set size.
    #[must_use]
    pub fn distinct_blocks(&self) -> Blocks {
        self.distinct_blocks
    }

    /// Total leaf marks.
    #[must_use]
    pub fn leaves(&self) -> Leaves {
        self.total_leaves
    }

    /// The `prev1` array: previous-access index + 1 per access, 0 for
    /// first touches. Length [`accesses`](Self::accesses).
    #[must_use]
    pub fn prev1(&self) -> &[u64] {
        &self.prev1
    }

    /// The LRU stack distances per access, 0 meaning infinite (first
    /// touch). Length [`accesses`](Self::accesses).
    #[must_use]
    pub fn depths(&self) -> &[u64] {
        &self.depth
    }

    /// Leaf marks before each access in event order; the trailing entry is
    /// the total. Length [`accesses`](Self::accesses) + 1.
    #[must_use]
    pub fn leaves_before(&self) -> &[Leaves] {
        &self.leaf_before
    }

    /// Exact fault count of a constant LRU cache of `cache_blocks` blocks
    /// on this trace, by the stack-distance theorem — equal, access for
    /// access, to `replay_fixed` in `cadapt-paging`. O(log A).
    #[must_use]
    pub fn faults_fixed(&self, cache_blocks: Blocks) -> Io {
        let warm_hits = self.depth_sorted.partition_point(|&d| d <= cache_blocks);
        let warm_misses = self.depth_sorted.len() - warm_hits;
        Io::from(self.distinct_blocks) + Io::from(cast::u64_from_usize(warm_misses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{BlockTrace, Tracer};

    fn trace_of(blocks: &[u64]) -> BlockTrace {
        let mut t = Tracer::new(1);
        for &b in blocks {
            t.touch(b);
        }
        t.into_trace()
    }

    #[test]
    fn prev1_and_depths_on_a_hand_trace() {
        // Blocks: a b a c b a
        let s = TraceSummary::new(&trace_of(&[1, 2, 1, 3, 2, 1]));
        assert_eq!(s.accesses(), 6);
        assert_eq!(s.distinct_blocks(), 3);
        assert_eq!(s.prev1(), &[0, 0, 1, 0, 2, 3]);
        // Stack distances: a(∞) b(∞) a(2: b,a) c(∞) b(3: a,c,b) a(3: c,b,a)
        assert_eq!(s.depths(), &[0, 0, 2, 0, 3, 3]);
    }

    #[test]
    fn faults_match_the_stack_distance_theorem() {
        let s = TraceSummary::new(&trace_of(&[1, 2, 1, 3, 2, 1]));
        // C=0: everything misses. C=1: only immediate re-accesses hit
        // (none here). C=2: the depth-2 access hits. C≥3: all repeats hit.
        assert_eq!(s.faults_fixed(0), 6);
        assert_eq!(s.faults_fixed(1), 6);
        assert_eq!(s.faults_fixed(2), 5);
        assert_eq!(s.faults_fixed(3), 3);
        assert_eq!(s.faults_fixed(1 << 40), 3);
    }

    #[test]
    fn immediate_reuse_has_depth_one() {
        let s = TraceSummary::new(&trace_of(&[5, 5, 5]));
        assert_eq!(s.depths(), &[0, 1, 1]);
        assert_eq!(s.faults_fixed(1), 1);
    }

    #[test]
    fn leaf_prefixes_attach_to_the_following_access() {
        let mut t = Tracer::new(1);
        t.leaf();
        t.touch(1);
        t.leaf();
        t.leaf();
        t.touch(2);
        t.leaf();
        let s = TraceSummary::new(&t.into_trace());
        assert_eq!(s.leaves_before(), &[1, 3, 4]);
        assert_eq!(s.leaves(), 4);
    }

    #[test]
    fn empty_and_leaf_only_traces() {
        let s = TraceSummary::new(&trace_of(&[]));
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.leaves_before(), &[0]);
        assert_eq!(s.faults_fixed(16), 0);

        let mut t = Tracer::new(1);
        t.leaf();
        t.leaf();
        let s = TraceSummary::new(&t.into_trace());
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.leaves(), 2);
        assert_eq!(s.leaves_before(), &[2]);
    }

    #[test]
    fn scan_has_no_finite_depths() {
        let s = TraceSummary::new(&trace_of(&[1, 2, 3, 4, 5]));
        assert!(s.depths().iter().all(|&d| d == 0));
        assert_eq!(s.faults_fixed(1 << 20), 5);
    }
}
