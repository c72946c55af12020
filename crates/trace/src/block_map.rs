//! Hash maps keyed by block id, with a fast fixed hasher, and a
//! distinct-block counter built on them.
//!
//! Every per-access block lookup in the trace and paging layers — the LRU
//! index, the reuse-distance builder's last-position map, Belady's
//! next-use tables — probes a map keyed by a `u64` block id. std's default
//! SipHash is built to resist adversarial keys and costs several times the
//! probe itself. Block ids here are never adversarial: the program's own
//! kernels generate every one of them from their address arithmetic, and
//! no block id comes from outside the program. So [`BlockMap`] is a plain
//! std [`HashMap`] with [`BlockHasher`], one multiply per key.
//!
//! The recorder and the compiler only need to know *how many* distinct
//! blocks a trace touches. The crate-private `DistinctBlocks` counts them
//! in bitmap pages of 512 ids, so most accesses cost a shift and a mask
//! instead of a probe.
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

/// Ids per [`DistinctBlocks`] page: 512 bits, one 64-byte cache line.
const PAGE_IDS: u64 = 512;

/// One page of [`DistinctBlocks`]: bit `i` of word `w` is id
/// `page · 512 + 64w + i`.
type Page = [u64; 8];

/// Counts distinct block ids.
///
/// Ids are kept as a bitmap in pages of 512 consecutive ids, allocated
/// only for pages that hold a seen id, so memory is O(distinct ids) for
/// any id pattern: at most one page per id, and far fewer when ids
/// cluster, as the kernels' blocked layouts make them. A [`BlockMap`]
/// finds a page by page number, and the last page found is cached, so a
/// run of ids on one page costs a shift and a mask per id.
#[derive(Debug, Clone, Default)]
pub(crate) struct DistinctBlocks {
    pages: Vec<Page>,
    /// Page number → index into `pages`.
    index: BlockMap<usize>,
    /// The last page probed: `(page number, index into pages)`.
    last: Option<(u64, usize)>,
    count: u64,
}

impl DistinctBlocks {
    /// Record `id`; true if it had not been seen before.
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        let page = id / PAGE_IDS;
        let slot = match self.last {
            Some((last, slot)) if last == page => slot,
            _ => {
                let fresh = self.pages.len();
                let slot = *self.index.entry(page).or_insert(fresh);
                if slot == fresh {
                    self.pages.push(Page::default());
                }
                self.last = Some((page, slot));
                slot
            }
        };
        // Every index entry names a page pushed above, and the word index
        // is below 8 by the modulus, so both lookups always succeed.
        let word = self
            .pages
            .get_mut(slot)
            .and_then(|p| p.get_mut(cast::usize_from_u64(id / 64 % 8)));
        let Some(word) = word else { return false };
        let bit = 1u64 << (id % 64);
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
            counter.pages.len() <= reference.len(),
            "{} pages for {} distinct ids",
            counter.pages.len(),
            reference.len()
        );
        counter
    }

    #[test]
    fn distinct_count_matches_a_hash_set_on_dense_ids() {
        let counter = agrees_with_a_hash_set((0..5_000u64).chain(0..5_000).chain(1_000..1_700));
        assert_eq!(counter.len(), 5_000);
        assert_eq!(counter.pages.len(), 10, "5000 dense ids fill 10 pages");
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
        assert_eq!(counter.pages.len(), 4);
        assert_eq!(agrees_with_a_hash_set([]).len(), 0);
    }
}
