//! O(1) LRU cache over block ids, its recency list threaded through a
//! table indexed by block id.
//!
//! A [`PageDirectory`] (from [`cadapt_trace::block_map`]) gives every
//! block id a dense slot, `page_index · 512 + id % 512`, and the node
//! table holds one `prev`/`next` pair per slot. A block is resident
//! exactly when its node is linked into the recency list, so there is no
//! separate index: a probe is a page compare and a table index (a hash
//! probe on the page number only when the page changes), and an evicted
//! block's id is recovered from its slot's page number. Every operation
//! (lookup, touch, insert, evict) is O(1), and a hit on the list head
//! relinks nothing.
//!
//! **Memory.** The table covers every id on a page the cache has been
//! asked to insert, resident or not: O(ids on touched pages), 8 bytes per
//! id (two `u32` links), independent of the capacity. On the corpus
//! programs, whose ids are bump-allocated from 0, that is 8 bytes per
//! distinct block. A new cache allocates nothing, whatever its capacity.
//! The links cap the table at 2³² − 512 slots (8,388,607 touched pages, a
//! 32 GiB table); an insert past that panics rather than wrap a link.
//!
//! Capacity can be changed on the fly (shrinking evicts from the cold
//! end), which is what the cache-adaptive replay needs whenever m(t)
//! changes, and one cache can be reused across boxes with
//! [`LruCache::clear`] + [`LruCache::resize`]. `clear` unlinks the
//! resident nodes only, O(resident), and keeps the directory and table.

use cadapt_core::cast;
use cadapt_trace::block_map::PageDirectory;

/// "No neighbour": the `prev` of the head and the `next` of the tail.
const NIL: u32 = u32::MAX;

/// The `prev` of a node that is not in the recency list.
const UNLINKED: u32 = u32::MAX - 1;

/// One slot of the node table: the block's neighbours in the recency list,
/// as slots. Every slot is below `2³² − 512`, clear of both sentinels.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// More recently used neighbour, [`NIL`] at the head, [`UNLINKED`]
    /// when the block is not resident.
    prev: u32,
    /// Less recently used neighbour, [`NIL`] at the tail.
    next: u32,
}

impl Node {
    const FREE: Node = Node {
        prev: UNLINKED,
        next: NIL,
    };

    fn linked(self) -> bool {
        self.prev != UNLINKED
    }
}

/// An LRU set of block ids with O(1) access/insert/evict and dynamic
/// capacity.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    /// Resident blocks: the length of the recency list.
    len: usize,
    dir: PageDirectory,
    /// One node per directory slot.
    nodes: Vec<Node>,
    /// Most recently used.
    head: u32,
    /// Least recently used.
    tail: u32,
}

impl LruCache {
    /// An empty cache with the given capacity (may be 0). Allocates
    /// nothing until the first insert.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            len: 0,
            dir: PageDirectory::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
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
            .and_then(|slot| self.nodes.get(slot))
            .is_some_and(|node| node.linked())
    }

    /// The node of `slot`. Every slot the directory hands out has one:
    /// the table grows with the directory in [`access`](Self::access).
    fn node(&mut self, slot: u32) -> &mut Node {
        let i = cast::usize_from_u32(slot);
        &mut self.nodes[i]
    }

    /// Unlink `slot`'s node from the recency list.
    fn detach(&mut self, slot: u32) {
        let Node { prev, next } = *self.node(slot);
        *self.node(slot) = Node::FREE;
        if prev == NIL {
            self.head = next;
        } else {
            self.node(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.node(next).prev = prev;
        }
    }

    /// Link `slot`'s (unlinked) node in as the most recently used.
    fn attach_front(&mut self, slot: u32) {
        let head = self.head;
        *self.node(slot) = Node {
            prev: NIL,
            next: head,
        };
        if head == NIL {
            self.tail = slot;
        } else {
            self.node(head).prev = slot;
        }
        self.head = slot;
    }

    /// Evict the least recently used block, returning it.
    pub fn evict_lru(&mut self) -> Option<u64> {
        let slot = self.tail;
        if slot == NIL {
            return None;
        }
        self.detach(slot);
        self.len -= 1;
        cadapt_core::counters::count_cache_evictions(1);
        self.dir.id_of(cast::usize_from_u32(slot))
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
        if slot >= self.nodes.len() {
            // The table size is a multiple of 512, so if it fits a `u32`
            // every slot in it is below `2³² − 512`, clear of the sentinels.
            let slots = self.dir.slots();
            assert!(
                u32::try_from(slots).is_ok(),
                "LruCache node table past 2^32 - 512 slots"
            );
            self.nodes.resize(slots, Node::FREE);
        }
        let slot = cast::u32_from_usize(slot);
        if self.node(slot).linked() {
            // A hit on the head relinks nothing.
            if slot != self.head {
                self.detach(slot);
                self.attach_front(slot);
            }
            cadapt_core::counters::count_cache_hit();
            return true;
        }
        while self.len >= self.capacity {
            self.evict_lru();
        }
        self.attach_front(slot);
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

    /// Drop everything (the "cache cleared at box start" convention).
    /// Nothing is counted as evicted. Only the resident nodes are
    /// unlinked, so this is O(resident), and the directory and table keep
    /// their allocations: `clear()` + [`resize`](Self::resize)`(n)` turns
    /// a used cache into the equivalent of `LruCache::new(n)` without
    /// allocating.
    pub fn clear(&mut self) {
        let mut slot = self.head;
        while slot != NIL {
            let next = self.node(slot).next;
            *self.node(slot) = Node::FREE;
            slot = next;
        }
        self.len = 0;
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

    /// An evicted block keeps its slot, and the slot is reused when the
    /// block comes back: the table covers the pages of the ids inserted,
    /// not the capacity, so a capacity-2 cache that has seen ids 0..100,
    /// twice over, holds one 512-id page.
    #[test]
    fn slot_reuse_after_eviction() {
        let mut c = LruCache::new(2);
        for b in 0..100u64 {
            c.access(b);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.dir.pages(), 1);
        assert_eq!(c.nodes.len(), 512);
        for b in 0..100u64 {
            assert!(!c.access(b), "block {b} was evicted");
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.dir.pages(), 1);
        assert_eq!(c.nodes.len(), 512);
    }

    /// Construction and resize preallocate nothing, whatever the
    /// capacity: the table grows with the pages touched, on the first
    /// access to each.
    #[test]
    fn construction_and_resize_preallocate() {
        let mut c = LruCache::new(100);
        assert_eq!(c.dir.pages(), 0);
        assert_eq!(c.nodes.capacity(), 0);
        c.resize(200);
        assert_eq!(c.dir.pages(), 0);
        assert_eq!(c.nodes.capacity(), 0);
        let c = LruCache::new(usize::MAX);
        assert_eq!(c.dir.pages(), 0);
        assert_eq!(c.nodes.capacity(), 0);
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
