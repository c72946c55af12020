//! Block-id keyed state: a hash map with a fast fixed hasher, and a page
//! directory that turns block ids into dense slots.
//!
//! The per-access state of the trace and paging layers — the LRU's
//! recency list, the reuse-distance builder's last positions, the
//! recorder's distinct-block count — is keyed by a `u64` block id. It does
//! not live in a hash map keyed by id. [`PageDirectory`] groups ids into
//! pages of 512 consecutive ids and hands each page the next dense page
//! index, so id `id` owns slot `page_index · 512 + id % 512` and its state
//! is a plain vector entry. A page number below 2²⁰ (ids below 2²⁹) finds
//! its page index in a flat page table, so an id costs a shift, a mask and
//! one load; only a page above that bound costs a [`BlockMap`] probe on the
//! page number. [`crate::AddressSpace`] bump-allocates ids from 0, so on
//! every corpus program the slots are exactly the ids, the tables are
//! exactly as long as the id range, and every page is in the flat table.
//! The crate-private `DistinctBlocks` keeps one flag bit per slot.
//!
//! [`BlockMap`] is a plain std [`HashMap`] with [`BlockHasher`], one
//! multiply per key. std's default SipHash is built to resist adversarial
//! keys and costs several times the probe itself. Block ids here are never
//! adversarial: the program's own kernels generate every one of them from
//! their address arithmetic, and no block id comes from outside the
//! program. Its users are the page directory (keyed by the page numbers
//! past its flat table) and Belady's next-use tables in `cadapt-paging`.
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

/// Page numbers below this bound are looked up in the directory's flat
/// page table, at most 2²⁰ four-byte entries (4 MiB), covering ids below
/// 2²⁹; larger page numbers go through the [`BlockMap`].
const FLAT_PAGES: u64 = 1 << 20;

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
/// A page number below 2²⁰ indexes a flat page table, which grows to the
/// largest such page number seen, so finding its page index is a shift
/// and one load, with no branch on whether the page differs from the last
/// one (kernels change pages on a quarter to three quarters of their
/// accesses). A larger page number costs a [`BlockMap`] probe. Page
/// indexes are handed out in order and never taken back, so a slot, once
/// given, belongs to its id for the directory's lifetime, and
/// [`id_of`](Self::id_of) recovers the id.
#[derive(Debug, Clone, Default)]
pub struct PageDirectory {
    /// Page number → page index + 1 for page numbers below [`FLAT_PAGES`];
    /// 0 for a page not in the directory.
    flat: Vec<u32>,
    /// Page number → page index for page numbers from [`FLAT_PAGES`] up.
    index: BlockMap<usize>,
    /// Page index → page number.
    numbers: Vec<u64>,
}

impl PageDirectory {
    /// The slot of `id`, giving its page the next page index if the page
    /// is new. A new page extends the slot range to
    /// [`slots`](Self::slots); callers grow their tables to match.
    #[inline]
    pub fn slot(&mut self, id: u64) -> usize {
        let page = id / PAGE_IDS_U64;
        let offset = cast::usize_from_u64(id % PAGE_IDS_U64);
        match self.flat_entry(page) {
            Some(entry) if entry != 0 => (cast::usize_from_u32(entry) - 1) * PAGE_IDS + offset,
            _ => self.add_or_probe(page) * PAGE_IDS + offset,
        }
    }

    /// `page`'s flat-table entry, or `None` past the table's end.
    #[inline]
    fn flat_entry(&self, page: u64) -> Option<u32> {
        let at = usize::try_from(page).ok()?;
        self.flat.get(at).copied()
    }

    /// The page index of `page`, which the flat table does not hold: a
    /// new page below [`FLAT_PAGES`], or any page from it up. A new page
    /// gets the next index.
    fn add_or_probe(&mut self, page: u64) -> usize {
        let fresh = self.numbers.len();
        let index = if page < FLAT_PAGES {
            let at = cast::usize_from_u64(page);
            if at >= self.flat.len() {
                self.flat.resize(at + 1, 0);
            }
            self.flat[at] = cast::u32_from_usize(fresh + 1);
            fresh
        } else {
            *self.index.entry(page).or_insert(fresh)
        };
        if index == fresh {
            self.numbers.push(page);
        }
        index
    }

    /// The slot of `id` if its page is in the directory; never adds one.
    #[must_use]
    pub fn find(&self, id: u64) -> Option<usize> {
        let page = id / PAGE_IDS_U64;
        let index = if page < FLAT_PAGES {
            cast::usize_from_u32(self.flat_entry(page)?.checked_sub(1)?)
        } else {
            *self.index.get(&page)?
        };
        Some(index * PAGE_IDS + cast::usize_from_u64(id % PAGE_IDS_U64))
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

    /// The first id on the first page past the flat page table.
    const BOUND: u64 = FLAT_PAGES * PAGE_IDS_U64;

    #[test]
    fn slots_stay_dense_across_the_flat_table_bound() {
        let mut dir = PageDirectory::default();
        assert_eq!(dir.find(BOUND - 1), None);
        assert_eq!(dir.find(BOUND), None);
        // The last flat page, the first hashed page and the top page,
        // interleaved: pages get indexes in first-seen order whichever
        // table holds them.
        let ids = [
            BOUND - 1,
            BOUND,
            u64::MAX,
            BOUND - 512,
            BOUND + 511,
            u64::MAX - 511,
            BOUND + 512,
            0,
        ];
        let slots: Vec<usize> = ids.iter().map(|&id| dir.slot(id)).collect();
        assert_eq!(slots, [511, 512, 1535, 0, 1023, 1024, 1536, 2048]);
        assert_eq!((dir.pages(), dir.slots()), (5, 2560));
        // Two flat pages, the table grown to the last flat page; three
        // hashed pages.
        assert_eq!(dir.flat.len(), 1 << 20);
        assert_eq!(dir.index.len(), 3);
        for (&id, &slot) in ids.iter().zip(&slots) {
            assert_eq!(dir.slot(id), slot, "id {id}");
            assert_eq!(dir.find(id), Some(slot), "id {id}");
            assert_eq!(dir.id_of(slot), Some(id), "slot {slot}");
        }
        // `find` adds no page on either side of the bound.
        for id in [BOUND - 513, 512, BOUND + 1024, u64::MAX - 512] {
            assert_eq!(dir.find(id), None, "id {id}");
        }
        assert_eq!(dir.pages(), 5);
        assert_eq!(dir.id_of(2560), None);
    }

    #[test]
    fn distinct_count_matches_a_hash_set_across_the_flat_table_bound() {
        let ids: Vec<u64> = (BOUND - 600..BOUND + 600)
            .step_by(7)
            .zip((0..200u64).cycle())
            .flat_map(|(near, dense)| [near, u64::MAX, dense, u64::MAX - near % 512])
            .collect();
        let counter = agrees_with_a_hash_set(ids.iter().chain(ids.iter().rev()).copied());
        // Page 0 and two flat pages below the bound; two hashed pages above
        // it and the top page.
        assert_eq!(counter.dir.pages(), 6);
        assert_eq!(counter.dir.index.len(), 3);
    }
}
