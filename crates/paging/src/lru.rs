//! Slab-backed O(1) LRU cache over block ids.
//!
//! A block-id index ([`BlockMap`]`<slot>`: a std `HashMap` with the fixed
//! multiplicative hasher of [`cadapt_trace::block_map`], one multiply per
//! probe instead of SipHash) into a vector of doubly-linked nodes; every
//! operation (lookup, touch, insert, evict) is O(1). The index is only
//! ever point-probed, so its order cannot reach a result. Capacity can be
//! changed on the fly (shrinking evicts from the cold end), which is what
//! the cache-adaptive replay needs whenever m(t) changes, and one cache
//! can be reused across boxes with [`LruCache::clear`] +
//! [`LruCache::resize`], keeping its allocations.

use cadapt_trace::block_map::{BlockMap, BuildBlockHasher};

const NIL: usize = usize::MAX;

/// Upper bound on eagerly preallocated slots. Replay caches are resized to
/// every box of a profile, and nominal capacities can be enormous while
/// only a few blocks are ever touched — larger caches grow on demand.
const PREALLOC_CAP: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
struct Node {
    block: u64,
    prev: usize,
    next: usize,
}

/// An LRU set of block ids with O(1) access/insert/evict and dynamic
/// capacity.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    index: BlockMap<usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
}

impl LruCache {
    /// An empty cache with the given capacity (may be 0).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let prealloc = capacity.min(PREALLOC_CAP);
        LruCache {
            capacity,
            index: BlockMap::with_capacity_and_hasher(prealloc, BuildBlockHasher::default()),
            nodes: Vec::with_capacity(prealloc),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of blocks currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Is the cache empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Current capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Is `block` resident?
    #[must_use]
    pub fn contains(&self, block: u64) -> bool {
        self.index.contains_key(&block)
    }

    fn detach(&mut self, slot: usize) {
        let Node { prev, next, .. } = self.nodes[slot];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Evict the least recently used block, returning it.
    pub fn evict_lru(&mut self) -> Option<u64> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let block = self.nodes[slot].block;
        self.detach(slot);
        self.index.remove(&block);
        self.free.push(slot);
        cadapt_core::counters::count_cache_evictions(1);
        Some(block)
    }

    /// Access `block`: returns `true` on a hit (block moved to the front),
    /// `false` on a miss (block inserted, evicting LRU blocks as needed).
    /// With capacity 0 every access misses and nothing is retained.
    pub fn access(&mut self, block: u64) -> bool {
        if let Some(&slot) = self.index.get(&block) {
            self.detach(slot);
            self.attach_front(slot);
            cadapt_core::counters::count_cache_hit();
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        while self.index.len() >= self.capacity {
            self.evict_lru();
        }
        let slot = if let Some(slot) = self.free.pop() {
            self.nodes[slot] = Node {
                block,
                prev: NIL,
                next: NIL,
            };
            slot
        } else {
            self.nodes.push(Node {
                block,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.index.insert(block, slot);
        self.attach_front(slot);
        false
    }

    /// Change capacity; shrinking evicts cold blocks immediately, growing
    /// reserves slots up front so the fill that follows never reallocates
    /// mid-replay.
    pub fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.index.len() > self.capacity {
            self.evict_lru();
        }
        let prealloc = capacity.min(PREALLOC_CAP);
        self.index
            .reserve(prealloc.saturating_sub(self.index.len()));
        if self.nodes.capacity() < prealloc {
            self.nodes.reserve(prealloc - self.nodes.len());
        }
    }

    /// Drop everything (the "cache cleared at box start" convention).
    /// Nothing is counted as evicted, and the index and slab keep their
    /// allocations, so `clear()` + [`resize`](Self::resize)`(n)` turns a
    /// used cache into the equivalent of `LruCache::new(n)` without
    /// allocating.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c = LruCache::new(2);
        assert!(!c.access(1)); // miss
        assert!(!c.access(2)); // miss
        assert!(c.access(1)); // hit
        assert!(!c.access(3)); // miss, evicts 2 (LRU)
        assert!(!c.access(2)); // miss again
        assert!(c.access(3)); // 3 still resident
    }

    #[test]
    fn lru_order_respects_recency() {
        let mut c = LruCache::new(3);
        for b in [1, 2, 3] {
            c.access(b);
        }
        c.access(1); // order now 1,3,2 (MRU..LRU)
        c.access(4); // evicts 2
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(c.contains(4));
        assert!(!c.contains(2));
    }

    #[test]
    fn capacity_zero_never_retains() {
        let mut c = LruCache::new(0);
        assert!(!c.access(1));
        assert!(!c.access(1));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn resize_shrinks_from_cold_end() {
        let mut c = LruCache::new(4);
        for b in [1, 2, 3, 4] {
            c.access(b);
        }
        c.resize(2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(3) && c.contains(4), "hot blocks survive");
        c.resize(0);
        assert!(c.is_empty());
    }

    #[test]
    fn resize_up_allows_growth() {
        let mut c = LruCache::new(1);
        c.access(1);
        c.resize(3);
        c.access(2);
        c.access(3);
        assert_eq!(c.len(), 3);
        assert!(c.contains(1));
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.access(1), "post-clear access is a miss");
        assert_eq!(c.len(), 1);
    }

    /// A cache reused through `clear()` + `resize(n)` is indistinguishable
    /// from `LruCache::new(n)`: the same hit/miss sequence, and the same
    /// eviction and hit counts under `Recording`.
    #[test]
    fn clear_and_resize_behave_like_a_fresh_cache() {
        use cadapt_core::counters::Recording;
        // Strided and repeating ids, long enough to force evictions.
        let blocks: Vec<u64> = (0..400u64).map(|i| (i * 37 % 23) * 64 + i % 3).collect();
        let run = |cache: &mut LruCache| {
            let rec = Recording::start();
            let hits: Vec<bool> = blocks.iter().map(|&b| cache.access(b)).collect();
            (hits, rec.finish())
        };
        let mut reused = LruCache::new(50);
        for &b in &blocks {
            reused.access(b);
        }
        for n in [0usize, 1, 3, 8, 20, 64] {
            let (want_hits, want) = run(&mut LruCache::new(n));
            reused.clear();
            reused.resize(n);
            let (hits, got) = run(&mut reused);
            assert_eq!(hits, want_hits, "capacity {n}");
            assert_eq!(got, want, "capacity {n}");
            if n > 0 && n < 20 {
                assert!(want.cache_evictions > 0, "capacity {n} never evicted");
            }
        }
    }

    #[test]
    fn evict_lru_returns_oldest() {
        let mut c = LruCache::new(3);
        for b in [7, 8, 9] {
            c.access(b);
        }
        assert_eq!(c.evict_lru(), Some(7));
        assert_eq!(c.evict_lru(), Some(8));
        assert_eq!(c.evict_lru(), Some(9));
        assert_eq!(c.evict_lru(), None);
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut c = LruCache::new(2);
        for b in 0..100u64 {
            c.access(b);
        }
        // Only ever 2 resident; the slab should not have grown to 100.
        assert!(c.nodes.len() <= 3, "slab grew to {}", c.nodes.len());
    }

    #[test]
    fn construction_and_resize_preallocate() {
        let c = LruCache::new(100);
        assert!(c.nodes.capacity() >= 100);
        let mut c = LruCache::new(1);
        c.resize(200);
        assert!(c.nodes.capacity() >= 200);
        // Huge nominal capacities are capped, not allocated eagerly.
        let c = LruCache::new(usize::MAX);
        assert!(c.nodes.capacity() < (1 << 20));
    }

    #[test]
    fn sequential_scan_behaviour() {
        // A scan longer than the cache hits nothing on a second pass (LRU's
        // classic worst case).
        let mut c = LruCache::new(4);
        for b in 0..8u64 {
            c.access(b);
        }
        let hits = (0..8u64).filter(|&b| c.access(b)).count();
        assert_eq!(hits, 0);
    }
}
