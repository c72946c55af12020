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
//!   capacity query in O(1) from the histogram's cumulative form.
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
//!
//! **The build.** One pass over the stream. A [`PageDirectory`] gives
//! each block id a dense slot, so each block's latest position is a vector
//! entry, not a hash-map value. The stack distance of a re-access at j whose previous
//! access was at p is one plus the blocks whose latest access lies in
//! (p, j): with one flag bit per position marking the latest access of
//! every block seen so far, that is `distinct_so_far − flags(0..=p)`, one
//! prefix count on a Fenwick tree over the 64-bit flag words (A/4 bytes
//! for A accesses). Depths are at most the distinct blocks seen, so the
//! histogram is a vector indexed by depth, turned cumulative at the end.

use crate::block_map::PageDirectory;
use crate::stream::TraceStream;
use crate::tracer::TraceEvent;
use cadapt_core::{cast, Blocks, Io, Leaves};

/// The positions of the latest occurrence of every block seen so far, as
/// one flag bit per access, with a Fenwick tree over the 64-bit flag
/// words for prefix counts.
///
/// Accesses are appended in order, and only the word holding the newest
/// position (the *open* word) changes by more than a cleared bit, so the
/// tree holds the closed words only: a word's count enters the tree once,
/// when the next word opens, and clearing a flag in a closed word is one
/// tree update. Two bits per access (the flag and, amortised, one word of
/// tree per 64 accesses) instead of one 64-bit tree node per access.
///
/// Counts are stored modulo 2⁶⁴ (the classic wrapping trick): every prefix
/// sum of the true flag multiset is non-negative, so the wrapped value is
/// the exact value.
#[derive(Debug)]
struct LatestFlags {
    /// Bit `j % 64` of word `j / 64` is set iff access `j` is the latest
    /// occurrence of its block.
    words: Vec<u64>,
    /// Fenwick tree over the closed words' popcounts; `tree[k]` (1-based)
    /// covers words `k − lowbit(k) .. k`.
    tree: Vec<u64>,
    /// Words below this index are closed and counted in `tree`.
    closed: usize,
}

impl LatestFlags {
    fn new(positions: usize) -> Self {
        let words = positions.div_ceil(64);
        LatestFlags {
            words: vec![0; words],
            tree: vec![0; words + 1],
            closed: 0,
        }
    }

    /// Add `delta` (possibly the wrapped −1) to closed word `w`'s count.
    fn tree_add(&mut self, w: usize, delta: u64) {
        let mut k = w + 1;
        while let Some(node) = self.tree.get_mut(k) {
            *node = node.wrapping_add(delta);
            k += k & k.wrapping_neg();
        }
    }

    /// Flag position `j`, the newest so far: closes every word below
    /// `j / 64` that is still open.
    fn push(&mut self, j: usize) {
        let w = j / 64;
        while self.closed < w {
            let closed = self.closed;
            let count = self
                .words
                .get(closed)
                .map_or(0, |x| u64::from(x.count_ones()));
            self.tree_add(closed, count);
            self.closed += 1;
        }
        if let Some(word) = self.words.get_mut(w) {
            *word |= 1 << (j % 64);
        }
    }

    /// Clear the flag at position `p`.
    fn clear(&mut self, p: usize) {
        let w = p / 64;
        if let Some(word) = self.words.get_mut(w) {
            *word &= !(1 << (p % 64));
        }
        if w < self.closed {
            self.tree_add(w, 1u64.wrapping_neg());
        }
    }

    /// Flags at positions `0..=p`.
    fn prefix(&self, p: usize) -> u64 {
        let w = p / 64;
        let below = (2u64 << (p % 64)).wrapping_sub(1);
        let mut sum = self
            .words
            .get(w)
            .map_or(0, |x| u64::from((x & below).count_ones()));
        // Words below `w` are closed: `p` precedes the newest position,
        // so `w` is at most the open word.
        let mut k = w;
        while k > 0 {
            sum = sum.wrapping_add(self.tree.get(k).copied().unwrap_or(0));
            k -= k & k.wrapping_neg();
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
    /// `warm_at_most[d]` = finite entries of `depth` that are at most `d`
    /// — the stack-distance histogram in cumulative form, indexed by
    /// depth. A depth never exceeds the distinct blocks seen before it, so
    /// the last index is the distinct-block count and the last entry is
    /// the number of re-accesses.
    warm_at_most: Vec<u64>,
    /// `leaf_before[j]` = leaf marks occurring before access `j` in event
    /// order; the final entry (index `accesses`) is the total leaf count.
    leaf_before: Vec<Leaves>,
}

impl TraceSummary {
    /// Build the summary in O(A log A) time from any [`TraceStream`] — a
    /// recorded [`crate::tracer::BlockTrace`] or a compiled
    /// [`crate::bytecode::TraceProgram`] decoded on the fly; the result is
    /// identical either way because the stream contract fixes the event
    /// sequence.
    ///
    /// Besides its three output arrays (24 bytes per access), the build
    /// holds the latest-occurrence flags (A/4 bytes), one last position
    /// per id on a touched page (8 bytes each) and the depth histogram
    /// (8 bytes per distinct block).
    #[must_use]
    pub fn new<T: TraceStream + ?Sized>(trace: &T) -> Self {
        let events = trace.events();
        let access_count = trace.accesses();
        let a = cast::usize_from_u64(access_count);
        let mut prev1 = Vec::with_capacity(a);
        let mut depth = Vec::with_capacity(a);
        let mut leaf_before = Vec::with_capacity(a + 1);
        // Slot → 1 + position of the block's latest access, 0 if unseen:
        // the `prev1` entry of the block's next access.
        let mut dir = PageDirectory::default();
        let mut last1: Vec<u64> = Vec::new();
        // `hist[d]` = accesses at depth d, for d in 1..=distinct; grows by
        // one entry per first access, so every depth has its entry even if
        // the stream's ids disagree with its `distinct_blocks()`.
        let mut hist: Vec<u64> =
            Vec::with_capacity(cast::usize_from_u64(trace.distinct_blocks().min(access_count)) + 1);
        hist.push(0);
        let mut flags = LatestFlags::new(a);
        let mut distinct: u64 = 0;
        let mut leaves: Leaves = 0;
        let mut j: u64 = 0;
        // `for_each` drains through the decoder's `fold` fast path.
        events.for_each(|event| match event {
            TraceEvent::Leaf => leaves += 1,
            TraceEvent::Access(block) => {
                leaf_before.push(leaves);
                let slot = dir.slot(block);
                if slot >= last1.len() {
                    last1.resize(dir.slots(), 0);
                }
                let p1 = last1
                    .get_mut(slot)
                    .map_or(0, |x| std::mem::replace(x, j + 1));
                prev1.push(p1);
                if p1 == 0 {
                    depth.push(0);
                    distinct += 1;
                    hist.push(0);
                } else {
                    let p = cast::usize_from_u64(p1 - 1);
                    // Every flag marks the latest access of one of the
                    // `distinct` blocks seen so far; those after p belong
                    // to the blocks touched strictly between p and j, and
                    // the block itself adds 1.
                    let d = distinct.wrapping_sub(flags.prefix(p)) + 1;
                    depth.push(d);
                    if let Some(h) = hist.get_mut(cast::usize_from_u64(d)) {
                        *h += 1;
                    }
                    // The block's latest occurrence moves to j.
                    flags.clear(p);
                }
                flags.push(cast::usize_from_u64(j));
                j += 1;
            }
        });
        leaf_before.push(leaves);
        let mut warm_at_most = hist;
        let mut running = 0u64;
        for count in &mut warm_at_most {
            running += *count;
            *count = running;
        }
        TraceSummary {
            accesses: access_count,
            distinct_blocks: trace.distinct_blocks(),
            total_leaves: leaves,
            prev1,
            depth,
            warm_at_most,
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
    /// access, to `replay_fixed` in `cadapt-paging`. O(1): one lookup in
    /// the cumulative depth histogram.
    #[must_use]
    pub fn faults_fixed(&self, cache_blocks: Blocks) -> Io {
        let warm = self.warm_at_most.last().copied().unwrap_or(0);
        let warm_hits = usize::try_from(cache_blocks)
            .ok()
            .and_then(|c| self.warm_at_most.get(c))
            .copied()
            .unwrap_or(warm);
        Io::from(self.distinct_blocks) + Io::from(warm - warm_hits)
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

    /// A stream that understates its distinct blocks: the build sizes the
    /// depth histogram from the ids it decodes, so depths and the
    /// histogram stay those of the events.
    #[test]
    fn a_distinct_count_that_disagrees_with_the_ids_does_not_break_the_build() {
        struct Understated(BlockTrace);
        impl TraceStream for Understated {
            type Events<'a> = <BlockTrace as TraceStream>::Events<'a>;
            fn events(&self) -> Self::Events<'_> {
                TraceStream::events(&self.0)
            }
            fn accesses(&self) -> u64 {
                self.0.accesses()
            }
            fn distinct_blocks(&self) -> Blocks {
                1
            }
            fn leaves(&self) -> Leaves {
                0
            }
        }
        let blocks: Vec<u64> = (0..300).map(|i| i * 7 % 50 + i / 100 * 600).collect();
        let honest = TraceSummary::new(&trace_of(&blocks));
        let s = TraceSummary::new(&Understated(trace_of(&blocks)));
        assert_eq!(s.depths(), honest.depths());
        assert_eq!(s.prev1(), honest.prev1());
        // Fault counts add the stream's own distinct count, as before.
        let distinct = Io::from(honest.distinct_blocks());
        for c in [0, 1, 5, 40, 200] {
            assert_eq!(s.faults_fixed(c) + distinct - 1, honest.faults_fixed(c));
        }
    }

    #[test]
    fn scan_has_no_finite_depths() {
        let s = TraceSummary::new(&trace_of(&[1, 2, 3, 4, 5]));
        assert!(s.depths().iter().all(|&d| d == 0));
        assert_eq!(s.faults_fixed(1 << 20), 5);
    }
}
