//! Belady's OPT (furthest-in-future) replacement — the offline optimum.
//!
//! The ideal-cache model underlying cache-oblivious analysis assumes
//! optimal replacement; the classical justification for analysing LRU
//! instead is Sleator–Tarjan: LRU with cache 2M suffers at most twice the
//! faults of OPT with cache M (plus the warm-up). [`replay_opt`] replays a
//! trace under OPT so the tests can check that inequality holds on our real
//! traces — grounding the paging substrate against the paging theory.

use cadapt_core::{cast, Blocks, Io};
use cadapt_trace::block_map::{BlockMap, BuildBlockHasher};
use cadapt_trace::{BlockTrace, TraceEvent};
use std::collections::BTreeSet;

/// Outcome of an OPT replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptReplay {
    /// Cache size used.
    pub cache_blocks: Blocks,
    /// Total I/Os (misses) under furthest-in-future replacement.
    pub io: Io,
}

/// Replay a trace through a constant cache of `cache_blocks` blocks with
/// Belady's furthest-in-future replacement.
///
/// Two passes: the first records, for every access, the index of the next
/// access to the same block; the second simulates, evicting the resident
/// block whose next use is furthest away (or never).
#[must_use]
pub fn replay_opt(trace: &BlockTrace, cache_blocks: Blocks) -> OptReplay {
    let accesses: Vec<u64> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Access(b) => Some(*b),
            TraceEvent::Leaf => None,
        })
        .collect();
    // next_use[i] = index of the next access to the same block, or usize::MAX.
    let mut next_use = vec![usize::MAX; accesses.len()];
    let mut last_seen: BlockMap<usize> = BlockMap::default();
    for (i, &block) in accesses.iter().enumerate().rev() {
        if let Some(&j) = last_seen.get(&block) {
            next_use[i] = j;
        }
        last_seen.insert(block, i);
    }

    let capacity = cast::usize_from_u64(cache_blocks);
    let mut io: Io = 0;
    if capacity == 0 {
        return OptReplay {
            cache_blocks,
            io: accesses.len() as Io,
        };
    }
    // Resident set keyed two ways: block → its next use, and an ordered set
    // of (next use, block) for O(log n) furthest-victim lookup; eviction
    // order comes from the ordered set, never from the map.
    let mut resident: BlockMap<usize> =
        BlockMap::with_capacity_and_hasher(capacity, BuildBlockHasher::default());
    let mut by_next: BTreeSet<(usize, u64)> = BTreeSet::new();
    for (i, &block) in accesses.iter().enumerate() {
        if let Some(&cur_next) = resident.get(&block) {
            // Hit: refresh the block's next-use key.
            by_next.remove(&(cur_next, block));
            resident.insert(block, next_use[i]);
            by_next.insert((next_use[i], block));
            cadapt_core::counters::count_cache_hit();
            continue;
        }
        io += 1;
        cadapt_core::counters::count_io(1);
        if resident.len() == capacity {
            // cadapt-lint: allow(panic-reach) -- invariant: resident.len() == capacity > 0, so by_next is non-empty
            let &(victim_next, victim) = by_next.iter().next_back().expect("cache is full");
            // Belady: evict the furthest-in-future block. If the incoming
            // block is itself used later than the victim, bypass (classic
            // OPT optimisation, equivalent cost model: it still costs this
            // miss but does not displace a more useful block).
            if next_use[i] >= victim_next {
                continue;
            }
            by_next.remove(&(victim_next, victim));
            resident.remove(&victim);
            cadapt_core::counters::count_cache_evictions(1);
        }
        resident.insert(block, next_use[i]);
        by_next.insert((next_use[i], block));
    }
    OptReplay { cache_blocks, io }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_fixed;
    use cadapt_trace::Tracer;

    fn trace_of(blocks: &[u64]) -> BlockTrace {
        let mut t = Tracer::new(1);
        for &b in blocks {
            t.touch(b);
        }
        t.into_trace()
    }

    #[test]
    fn cold_misses_only_with_ample_cache() {
        let trace = trace_of(&[1, 2, 3, 1, 2, 3]);
        assert_eq!(replay_opt(&trace, 10).io, 3);
    }

    #[test]
    fn belady_beats_lru_on_the_classic_pattern() {
        // Cyclic scan of k+1 blocks with cache k: LRU misses everything,
        // OPT misses ~1/k of the time.
        let pattern: Vec<u64> = (0..4u64).cycle().take(64).collect();
        let trace = trace_of(&pattern);
        let lru = replay_fixed(&trace, 3).io;
        let opt = replay_opt(&trace, 3).io;
        assert_eq!(lru, 64, "LRU thrashes the cyclic scan");
        assert!(opt < lru / 2, "OPT {opt} vs LRU {lru}");
    }

    #[test]
    fn opt_is_a_lower_bound_for_lru() {
        // On arbitrary traces OPT never does worse than LRU at equal size.
        let pattern: Vec<u64> = (0..200u64).map(|i| (i * i * 7 + i) % 23).collect();
        let trace = trace_of(&pattern);
        for m in [1u64, 2, 4, 8, 16] {
            let lru = replay_fixed(&trace, m).io;
            let opt = replay_opt(&trace, m).io;
            assert!(opt <= lru, "M={m}: OPT {opt} > LRU {lru}");
        }
    }

    #[test]
    fn sleator_tarjan_on_real_traces() {
        // LRU(2M) ≤ 2·OPT(M) + M on genuine algorithm traces.
        let side = 16;
        let rows: Vec<f64> = (0..side * side).map(|i| (i % 5) as f64).collect();
        let a = cadapt_trace::ZMatrix::from_row_major(side, &rows);
        let (_, trace) = cadapt_trace::mm::mm_scan(&a, &a, 4);
        for m in [8u64, 16, 32, 64] {
            let lru2m = replay_fixed(&trace, 2 * m).io;
            let opt_m = replay_opt(&trace, m).io;
            assert!(
                lru2m <= 2 * opt_m + Io::from(m),
                "M={m}: LRU(2M) {lru2m} vs 2·OPT(M)+M {}",
                2 * opt_m + Io::from(m)
            );
        }
    }

    #[test]
    fn zero_capacity_misses_everything() {
        let trace = trace_of(&[1, 1, 1]);
        assert_eq!(replay_opt(&trace, 0).io, 3);
    }

    #[test]
    fn bypass_does_not_displace_hot_blocks() {
        // Block 9 is used once, far in the future; blocks 1..3 are hot.
        // OPT should not let 9 evict a hot block.
        let trace = trace_of(&[1, 2, 3, 9, 1, 2, 3, 1, 2, 3]);
        let opt = replay_opt(&trace, 3).io;
        // Misses: cold 1, 2, 3, then 9 (bypassed) — 4 total.
        assert_eq!(opt, 4);
    }
}
