//! Property-based validation of [`LruCache`] against a naive LRU kept in a
//! `VecDeque`.
//!
//! The cache threads its recency ring through a node table indexed by the
//! slots of a block-id page directory; the oracle keeps the resident
//! blocks in recency order in a plain deque and finds a block by linear
//! search, so the two share no index arithmetic. Random sequences of
//! `access`, `contains`, `resize` and `evict_lru` must give the same
//! return values and the same `len` after every step, and the same hit and
//! eviction counts under [`Recording`].
//!
//! Ids come from a dense range from 0, from both sides of the 511/512 and
//! 1023/1024 page edges, from both sides of the directory's flat-table
//! bound (page 2²⁰, id 2²⁹), from scattered values, and from the top of
//! the id space, `u64::MAX` included.

use cadapt_core::counters::Recording;
use cadapt_paging::LruCache;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The LRU as a deque, most recently used at the front. Counts hits and
/// evictions the way the cache reports them.
#[derive(Debug)]
struct NaiveLru {
    capacity: usize,
    blocks: VecDeque<u64>,
    hits: u64,
    evictions: u64,
}

impl NaiveLru {
    fn new(capacity: usize) -> Self {
        NaiveLru {
            capacity,
            blocks: VecDeque::new(),
            hits: 0,
            evictions: 0,
        }
    }

    fn access(&mut self, block: u64) -> bool {
        if let Some(i) = self.blocks.iter().position(|&b| b == block) {
            self.blocks.remove(i);
            self.blocks.push_front(block);
            self.hits += 1;
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        while self.blocks.len() >= self.capacity {
            self.evict_lru();
        }
        self.blocks.push_front(block);
        false
    }

    fn evict_lru(&mut self) -> Option<u64> {
        let evicted = self.blocks.pop_back();
        self.evictions += u64::from(evicted.is_some());
        evicted
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.blocks.len() > capacity {
            self.evict_lru();
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Contains(u64),
    Resize(usize),
    EvictLru,
}

/// Both sides of the first two page edges, and the first ids of page 0.
const EDGES: [u64; 12] = [0, 1, 2, 509, 510, 511, 512, 513, 1022, 1023, 1024, 1025];

/// The first id past the page directory's flat page table: page 2²⁰.
const FLAT_BOUND: u64 = 1 << 29;

/// Both sides of the flat-table bound: the last flat page's edges, the
/// first hashed page's, and the next hashed page's first id.
const BOUND: [u64; 8] = [
    FLAT_BOUND - 512,
    FLAT_BOUND - 2,
    FLAT_BOUND - 1,
    FLAT_BOUND,
    FLAT_BOUND + 1,
    FLAT_BOUND + 510,
    FLAT_BOUND + 511,
    FLAT_BOUND + 512,
];

/// The ids one sequence draws from.
fn pool() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        (1u64..300).prop_map(|n| (0..n).collect::<Vec<u64>>()),
        Just(EDGES.to_vec()),
        Just(BOUND.iter().copied().chain([u64::MAX, 0, 511]).collect()),
        Just(vec![
            u64::MAX,
            u64::MAX - 1,
            u64::MAX - 511,
            u64::MAX - 512,
            0,
            1
        ]),
        proptest::collection::vec(0u64..=u64::MAX, 1..40).prop_map(|mut ids| {
            ids.push(u64::MAX);
            ids
        }),
        (0u64..=u64::MAX).prop_map(|x| {
            let mut ids: Vec<u64> = (500..530).collect();
            ids.extend(EDGES);
            ids.extend(BOUND);
            ids.extend([u64::MAX, u64::MAX - 512, x]);
            ids
        }),
    ]
}

/// An initial capacity and a sequence of operations, mostly accesses.
/// Capacities stay small so evictions are frequent, and include 0.
fn script() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (
        pool(),
        0usize..24,
        proptest::collection::vec((0u32..62, 0usize..1 << 20), 0..2000),
    )
        .prop_map(|(pool, capacity, rolls)| {
            let ops = rolls
                .into_iter()
                .map(|(kind, x)| {
                    let block = pool[x % pool.len()];
                    match kind {
                        0..=49 => Op::Access(block),
                        50..=55 => Op::Contains(block),
                        56..=59 => Op::Resize(x % 24),
                        _ => Op::EvictLru,
                    }
                })
                .collect();
            (capacity, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_equals_a_deque_lru((capacity, ops) in script()) {
        let rec = Recording::start();
        let mut cache = LruCache::new(capacity);
        let mut naive = NaiveLru::new(capacity);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Access(b) => {
                    prop_assert_eq!(cache.access(b), naive.access(b), "step {} {:?}", step, op);
                }
                Op::Contains(b) => {
                    prop_assert_eq!(
                        cache.contains(b),
                        naive.blocks.contains(&b),
                        "step {} {:?}", step, op
                    );
                }
                Op::Resize(c) => {
                    cache.resize(c);
                    naive.resize(c);
                }
                Op::EvictLru => {
                    prop_assert_eq!(cache.evict_lru(), naive.evict_lru(), "step {} {:?}", step, op);
                }
            }
            prop_assert_eq!(cache.len(), naive.blocks.len(), "step {} {:?}", step, op);
            prop_assert_eq!(cache.is_empty(), naive.blocks.is_empty());
            prop_assert_eq!(cache.capacity(), naive.capacity);
        }
        let counts = rec.finish();
        prop_assert_eq!(counts.cache_hits, naive.hits);
        prop_assert_eq!(counts.cache_evictions, naive.evictions);
        // The whole resident set, coldest first, survives the sequence.
        let mut drained = Vec::new();
        while let Some(b) = cache.evict_lru() {
            drained.push(b);
        }
        let want: Vec<u64> = naive.blocks.iter().rev().copied().collect();
        prop_assert_eq!(drained, want);
    }
}
