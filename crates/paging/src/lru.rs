//! O(1) LRU cache over block ids, its recency list a ring threaded
//! through a table indexed by block id.
//!
//! A [`PageDirectory`] (from [`cadapt_trace::block_map`]) gives every
//! block id a dense slot, `page_index · 512 + id % 512`, and slot `s` owns
//! node `s + 1` of the node table, one `prev`/`next` pair. Node 0 is the
//! ring's sentinel: its `next` is the most recently used block and its
//! `prev` the least recently used, so linking and unlinking never branch on
//! an empty list or an end of it. A block is resident exactly when its
//! node is in the ring, and a node out of the ring has `next == OUT`, so
//! there is no separate index: a probe is a page-table load and a node
//! load, and an evicted block's id is recovered from its slot's page
//! number. Every operation (lookup, touch, insert, evict) is O(1), and a
//! hit on the most recent block relinks nothing.
//!
//! **Memory.** The table covers every id on a page the cache has been
//! asked to insert, resident or not: O(ids on touched pages), 8 bytes per
//! id (two `u32` links), independent of the capacity. On the corpus
//! programs, whose ids are bump-allocated from 0, that is 8 bytes per
//! distinct block. A new cache allocates the sentinel only, whatever its
//! capacity. The links cap the table at 2³² − 512 slots (8,388,607 touched
//! pages, a 32 GiB table); an insert past that panics rather than wrap a
//! link.
//!
//! Capacity can be changed on the fly (shrinking evicts from the cold
//! end), which is what the fixed-cache and m(t) replays need. Square-box
//! replays never evict and need no recency order, so they keep no
//! `LruCache` (see [`crate::replay`]).

use cadapt_core::cast;
use cadapt_trace::block_map::PageDirectory;

/// The `next` of a node that is not in the ring. No node has this index:
/// the table holds at most `2³² − 511` nodes.
const OUT: u32 = u32::MAX;

/// One node of the table: its neighbours in the recency ring, as node
/// indexes. Node 0 is the sentinel; slot `s` owns node `s + 1`.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// More recently used neighbour (the sentinel for the most recent).
    prev: u32,
    /// Less recently used neighbour (the sentinel for the least recent),
    /// or [`OUT`] when the block is not resident.
    next: u32,
}

impl Node {
    /// A node out of the ring.
    const FREE: Node = Node { prev: 0, next: OUT };

    /// The sentinel of an empty ring.
    const EMPTY_RING: Node = Node { prev: 0, next: 0 };
}

/// An LRU set of block ids with O(1) access/insert/evict and dynamic
/// capacity.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    /// Resident blocks: the ring's length, sentinel excluded.
    len: usize,
    dir: PageDirectory,
    /// The sentinel, then one node per directory slot.
    nodes: Vec<Node>,
}

impl LruCache {
    /// An empty cache with the given capacity (may be 0). Allocates only
    /// the sentinel until the first insert.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            len: 0,
            dir: PageDirectory::default(),
            nodes: vec![Node::EMPTY_RING],
        }
    }

    /// Number of blocks currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the cache empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Is `block` resident?
    #[must_use]
    pub fn contains(&self, block: u64) -> bool {
        self.dir
            .find(block)
            .and_then(|slot| self.nodes.get(slot + 1))
            .is_some_and(|node| node.next != OUT)
    }

    /// The node at `index`. Every index the cache forms is in the table:
    /// the sentinel is there from the start, and the table grows with the
    /// directory in [`access`](Self::access).
    fn node(&mut self, index: u32) -> &mut Node {
        let i = cast::usize_from_u32(index);
        &mut self.nodes[i]
    }

    /// Take node `n` out of the ring.
    fn unlink(&mut self, n: u32) {
        let Node { prev, next } = *self.node(n);
        self.node(prev).next = next;
        self.node(next).prev = prev;
    }

    /// Put node `n` (out of the ring) in as the most recently used.
    fn link_front(&mut self, n: u32) {
        let first = self.node(0).next;
        *self.node(n) = Node {
            prev: 0,
            next: first,
        };
        self.node(first).prev = n;
        self.node(0).next = n;
    }

    /// Evict the least recently used block, returning it.
    pub fn evict_lru(&mut self) -> Option<u64> {
        let n = self.node(0).prev;
        if n == 0 {
            return None;
        }
        self.unlink(n);
        self.node(n).next = OUT;
        self.len -= 1;
        cadapt_core::counters::count_cache_evictions(1);
        self.dir.id_of(cast::usize_from_u32(n) - 1)
    }

    /// Access `block`: returns `true` on a hit (block moved to the front),
    /// `false` on a miss (block inserted, evicting LRU blocks as needed).
    /// With capacity 0 every access misses and nothing is retained.
    pub fn access(&mut self, block: u64) -> bool {
        if self.capacity == 0 {
            // Nothing can be resident (resize(0) evicts everything).
            return false;
        }
        let slot = self.dir.slot(block);
        let n = slot + 1;
        if n >= self.nodes.len() {
            // The slot count is a multiple of 512, so if the table fits
            // `u32` indexes every node is below `2³² − 511`, clear of `OUT`.
            let len = self.dir.slots() + 1;
            assert!(
                u32::try_from(len).is_ok(),
                "LruCache node table past 2^32 - 512 slots"
            );
            self.nodes.resize(len, Node::FREE);
        }
        let n = cast::u32_from_usize(n);
        if self.node(n).next != OUT {
            // A hit on the most recent block relinks nothing.
            if self.node(0).next != n {
                self.unlink(n);
                self.link_front(n);
            }
            cadapt_core::counters::count_cache_hit();
            return true;
        }
        while self.len >= self.capacity {
            self.evict_lru();
        }
        self.link_front(n);
        self.len += 1;
        false
    }

    /// Change capacity; shrinking evicts cold blocks immediately.
    pub fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.len > self.capacity {
            self.evict_lru();
        }
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

    /// An evicted block keeps its slot, and the slot is reused when the
    /// block comes back: the table covers the pages of the ids inserted,
    /// not the capacity, so a capacity-2 cache that has seen ids 0..100,
    /// twice over, holds one 512-id page: 512 nodes and the sentinel.
    #[test]
    fn slot_reuse_after_eviction() {
        let mut c = LruCache::new(2);
        for b in 0..100u64 {
            c.access(b);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.dir.pages(), 1);
        assert_eq!(c.nodes.len(), 513);
        for b in 0..100u64 {
            assert!(!c.access(b), "block {b} was evicted");
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.dir.pages(), 1);
        assert_eq!(c.nodes.len(), 513);
    }

    /// Construction and resize preallocate nothing but the sentinel,
    /// whatever the capacity: the table grows with the pages touched, on
    /// the first access to each.
    #[test]
    fn construction_and_resize_preallocate() {
        let mut c = LruCache::new(100);
        assert_eq!(c.dir.pages(), 0);
        assert_eq!(c.nodes.len(), 1);
        c.resize(200);
        assert_eq!(c.dir.pages(), 0);
        assert_eq!(c.nodes.len(), 1);
        let c = LruCache::new(usize::MAX);
        assert_eq!(c.dir.pages(), 0);
        assert_eq!(c.nodes.len(), 1);
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
