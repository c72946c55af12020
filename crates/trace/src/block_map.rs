//! Block-id keyed state: a hash map with a fast fixed hasher, and a page
//! directory that turns block ids into dense slots.
//!
//! The per-access state of the trace and paging layers — the LRU's
//! recency list, the reuse-distance builder's last positions, the
//! recorder's distinct-block count — is keyed by a `u64` block id. It does
//! not live in a hash map keyed by id. [`PageDirectory`] groups ids into
//! pages of 512 consecutive ids and hands each page the next dense page
//! index, so id `id` owns slot `page_index · 512 + id % 512` and its state
//! is a plain vector entry. Finding a page is one [`BlockMap`] probe on the
//! page number, and the last page is cached, so a run of ids on one page
//! costs a shift, a compare and a mask per id. [`crate::AddressSpace`]
//! bump-allocates ids from 0, so on every corpus program the slots are
//! exactly the ids and the tables are exactly as long as the id range. The
//! crate-private `DistinctBlocks` keeps one flag bit per slot.
//!
//! [`BlockMap`] is a plain std [`HashMap`] with [`BlockHasher`], one
//! multiply per key. std's default SipHash is built to resist adversarial
//! keys and costs several times the probe itself. Block ids here are never
//! adversarial: the program's own kernels generate every one of them from
//! their address arithmetic, and no block id comes from outside the
//! program. Its users are the page directory (keyed by page number) and
//! Belady's next-use tables in `cadapt-paging`.
//!
//! **Bucket spread.** hashbrown picks a bucket from the *low* bits of the
//! hash, but a multiply mixes upward: the low bits of `id · K` depend only
//! on the low bits of `id`, so strided ids (every 4th block, a Z-order
//! quadrant) would pile into a few buckets. [`BlockHasher::finish`]
//! therefore rotates the well-mixed high product bits down into the low
//! bits.
//!
//! **Determinism.** The hasher has no per-process random state, so even
//! the iteration order of these maps is a pure function of the insertion
//! sequence. Every user only point-probes them anyway (get/insert/remove
//! and `len`), so no result can depend on their order. This module holds
//! the workspace's `nondet-source` waivers for block-id maps; users name
//! `BlockMap` and need none.

use cadapt_core::cast;
// cadapt-lint: allow(nondet-source) -- block-id maps are point-probed only, and the fixed hasher makes even their iteration order a pure function of the insertion sequence
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the constant rustc's own
/// multiplicative hasher uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// How far [`BlockHasher::finish`] rotates the product left, moving its
/// best-mixed high bits into the low bits hashbrown buckets by.
const ROTATE: u32 = 26;

/// Multiplicative hasher for `u64` block ids. Not collision-resistant:
/// use it only for keys the program generates itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockHasher {
    hash: u64,
}

impl BlockHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for BlockHasher {
    /// Keys are `u64`, which hash through [`Hasher::write_u64`]; other
    /// input folds in a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

/// Builds [`BlockHasher`]s; zero-sized, so maps pay nothing for it.
pub type BuildBlockHasher = BuildHasherDefault<BlockHasher>;

/// A map from block ids to `V`. Construct with `BlockMap::default()` or
/// `BlockMap::with_capacity_and_hasher(n, BuildBlockHasher::default())`.
// cadapt-lint: allow(nondet-source) -- the block-id map itself; see the module docs for why no result depends on its order
pub type BlockMap<V> = HashMap<u64, V, BuildBlockHasher>;

/// Ids per page of a [`PageDirectory`]: 512, so a page of one-bit flags
/// is one 64-byte cache line.
const PAGE_IDS: usize = 512;

/// `PAGE_IDS` as a `u64`, for arithmetic on block ids.
const PAGE_IDS_U64: u64 = 512;

/// A page number the directory never holds: the largest page number is
/// `u64::MAX / 512`.
const NO_PAGE: u64 = u64::MAX;

/// Maps block ids to dense slots, so per-id state can live in a plain
/// vector instead of a hash map.
///
/// Ids are grouped in pages of 512 consecutive ids. The first
/// time an id of a page is seen the page gets the next page index, and
/// id `id` then owns slot `page_index · 512 + id % 512`. Slots are dense
/// from 0, so a table indexed by slot is O(pages touched · 512) long for
/// any id pattern, and exactly as long as the id range when ids are
/// bump-allocated from 0, as [`crate::AddressSpace`] allocates them.
///
/// The page index is found by a [`BlockMap`] on the page number, and the
/// last page found is cached, so a run of ids on one page costs a shift, a
/// compare and a mask per id. Page indexes are handed out in order and
/// never taken back, so a slot, once given, belongs to its id for the
/// directory's lifetime, and [`id_of`](Self::id_of) recovers the id.
#[derive(Debug, Clone)]
pub struct PageDirectory {
    /// Page number → page index.
    index: BlockMap<usize>,
    /// Page index → page number.
    numbers: Vec<u64>,
    /// The last page found: its number, or [`NO_PAGE`] before any.
    last_page: u64,
    /// `page_index · 512` of the last page found.
    last_base: usize,
}

impl Default for PageDirectory {
    fn default() -> Self {
        PageDirectory {
            index: BlockMap::default(),
            numbers: Vec::new(),
            last_page: NO_PAGE,
            last_base: 0,
        }
    }
}

impl PageDirectory {
    /// The slot of `id`, giving its page the next page index if the page
    /// is new. A new page extends the slot range to
    /// [`slots`](Self::slots); callers grow their tables to match.
    #[inline]
    pub fn slot(&mut self, id: u64) -> usize {
        let page = id / PAGE_IDS_U64;
        if page != self.last_page {
            self.turn_to(page);
        }
        self.last_base + cast::usize_from_u64(id % PAGE_IDS_U64)
    }

    /// Find or add `page`, and make it the cached last page.
    fn turn_to(&mut self, page: u64) {
        let fresh = self.numbers.len();
        let index = *self.index.entry(page).or_insert(fresh);
        if index == fresh {
            self.numbers.push(page);
        }
        self.last_page = page;
        self.last_base = index * PAGE_IDS;
    }

    /// The slot of `id` if its page is in the directory; never adds one.
    #[must_use]
    pub fn find(&self, id: u64) -> Option<usize> {
        let page = id / PAGE_IDS_U64;
        let base = if page == self.last_page {
            self.last_base
        } else {
            *self.index.get(&page)? * PAGE_IDS
        };
        Some(base + cast::usize_from_u64(id % PAGE_IDS_U64))
    }

    /// The id that owns `slot`, or `None` past [`slots`](Self::slots).
    #[must_use]
    pub fn id_of(&self, slot: usize) -> Option<u64> {
        let number = self.numbers.get(slot / PAGE_IDS)?;
        Some(number * PAGE_IDS_U64 + cast::u64_from_usize(slot % PAGE_IDS))
    }

    /// Pages in the directory.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.numbers.len()
    }

    /// Slots handed out so far, `pages · 512`: every slot returned by
    /// [`slot`](Self::slot) or [`find`](Self::find) is below it.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.numbers.len() * PAGE_IDS
    }
}

/// Counts distinct block ids.
///
/// One flag bit per slot of a [`PageDirectory`], so memory is one bit per
/// id on a touched page plus the directory: at most one 64-byte page per
/// distinct id, and far less when ids cluster, as the kernels' blocked
/// layouts make them.
#[derive(Debug, Clone, Default)]
pub(crate) struct DistinctBlocks {
    dir: PageDirectory,
    /// Bit `s % 64` of word `s / 64` is set once the id of slot `s` is seen.
    seen: Vec<u64>,
    count: u64,
}

impl DistinctBlocks {
    /// Record `id`; true if it had not been seen before.
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        let slot = self.dir.slot(id);
        let at = slot / 64;
        if at >= self.seen.len() {
            self.seen.resize(self.dir.slots() / 64, 0);
        }
        // The table was just grown to cover every slot, so this always
        // finds the word.
        let Some(word) = self.seen.get_mut(at) else {
            return false;
        };
        let bit = 1u64 << (slot % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.count += u64::from(fresh);
        fresh
    }

    /// Number of distinct ids recorded.
    #[must_use]
    pub(crate) fn len(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};
    use std::hash::BuildHasher;

    fn hash_of(id: u64) -> u64 {
        BuildBlockHasher::default().hash_one(id)
    }

    #[test]
    fn the_hash_is_fixed_and_takes_the_u64_route() {
        assert_eq!(hash_of(0), 0);
        assert_eq!(hash_of(1), K.rotate_left(ROTATE));
        assert_eq!(
            hash_of(12_345),
            12_345u64.wrapping_mul(K).rotate_left(ROTATE)
        );
    }

    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        // 1024 ids with stride 64 into 1024 buckets: without the rotate
        // every id would land in a bucket that is a multiple of 64.
        let mask = 1023;
        let buckets: BTreeSet<u64> = (0..1024u64).map(|i| hash_of(i * 64) & mask).collect();
        assert!(buckets.len() > 512, "only {} buckets used", buckets.len());
    }

    #[test]
    fn directory_slots_are_dense_and_give_back_their_ids() {
        let mut dir = PageDirectory::default();
        assert_eq!((dir.pages(), dir.slots()), (0, 0));
        assert_eq!(dir.find(0), None);
        // Pages get indexes in first-seen order: 1 → page 0, 512 → page 1,
        // u64::MAX → page 2, 511 back on page 0.
        let ids = [1u64, 512, u64::MAX, 511, u64::MAX - 511, 1023, 1024];
        let slots: Vec<usize> = ids.iter().map(|&id| dir.slot(id)).collect();
        assert_eq!(slots, [1, 512, 1535, 511, 1024, 1023, 1536]);
        assert_eq!((dir.pages(), dir.slots()), (4, 2048));
        for (&id, &slot) in ids.iter().zip(&slots) {
            assert_eq!(dir.find(id), Some(slot), "id {id}");
            assert_eq!(dir.id_of(slot), Some(id), "slot {slot}");
        }
        // `find` never adds a page; `id_of` stops at the last slot.
        assert_eq!(dir.find(4096), None);
        assert_eq!(dir.pages(), 4);
        assert_eq!(dir.id_of(2047), Some(1024 + 511));
        assert_eq!(dir.id_of(2048), None);
        // Cycling over pages keeps every slot where it was first put.
        let cycle: Vec<u64> = (0..7u64).map(|p| p * 512 + p).collect();
        let first: Vec<usize> = cycle.iter().map(|&id| dir.slot(id)).collect();
        for _ in 0..3 {
            for (&id, &slot) in cycle.iter().zip(&first).rev() {
                assert_eq!(dir.slot(id), slot, "id {id}");
                assert_eq!(dir.find(id), Some(slot), "id {id}");
            }
        }
        assert_eq!(dir.pages(), 8);
    }

    /// Feed `ids` to a counter and to a std `HashSet`; they must agree on
    /// every insert and on the count, and the counter may hold no more
    /// pages than distinct ids.
    fn agrees_with_a_hash_set(ids: impl IntoIterator<Item = u64>) -> DistinctBlocks {
        let mut counter = DistinctBlocks::default();
        let mut reference = HashSet::new();
        for id in ids {
            assert_eq!(counter.insert(id), reference.insert(id), "id {id}");
        }
        assert_eq!(counter.len(), reference.len() as u64);
        assert!(
            counter.dir.pages() <= reference.len(),
            "{} pages for {} distinct ids",
            counter.dir.pages(),
            reference.len()
        );
        counter
    }

    #[test]
    fn distinct_count_matches_a_hash_set_on_dense_ids() {
        let counter = agrees_with_a_hash_set((0..5_000u64).chain(0..5_000).chain(1_000..1_700));
        assert_eq!(counter.len(), 5_000);
        assert_eq!(counter.dir.pages(), 10, "5000 dense ids fill 10 pages");
    }

    #[test]
    fn distinct_count_matches_a_hash_set_on_strided_ids() {
        for stride in [3u64, 64, 511, 512, 513, 4096] {
            let ids = (0..2_000u64).map(|i| i * stride);
            agrees_with_a_hash_set(ids.clone().chain(ids.rev()));
        }
    }

    #[test]
    fn distinct_count_matches_a_hash_set_on_scattered_ids() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let ids: Vec<u64> = (0..4_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                // Mostly unique ids, with a small cluster for repeats.
                if x >> 62 == 0 {
                    x % 64
                } else {
                    x
                }
            })
            .collect();
        let counter = agrees_with_a_hash_set(ids.iter().copied().chain(ids.iter().copied()));
        assert!(counter.len() > 3_000);
    }

    #[test]
    fn distinct_count_is_exact_at_page_edges_and_the_top_id() {
        let edges = [
            511u64,
            512,
            0,
            1023,
            1024,
            511,
            512,
            u64::MAX,
            u64::MAX - 511,
        ];
        let counter = agrees_with_a_hash_set(edges.iter().copied().chain([u64::MAX, 0]));
        assert_eq!(counter.len(), 7);
        // 0/511, 512/1023, 1024 and the top page (u64::MAX − 511 and
        // u64::MAX share it: 2^64 is a multiple of 512).
        assert_eq!(counter.dir.pages(), 4);
        assert_eq!(agrees_with_a_hash_set([]).len(), 0);
    }
}
