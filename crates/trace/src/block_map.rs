//! Hash maps and sets keyed by block id, with a fast fixed hasher.
//!
//! Every per-access block lookup in the trace and paging layers — the LRU
//! index, the reuse-distance builder's last-position map, the
//! distinct-block sets of the recorder and the compiler, Belady's
//! next-use tables — probes a map keyed by a `u64` block id. std's default
//! SipHash is built to resist adversarial keys and costs several times the
//! probe itself. Block ids here are never adversarial: the program's own
//! kernels generate every one of them from their address arithmetic, and
//! no block id comes from outside the program. So [`BlockMap`] and
//! [`BlockSet`] are plain std [`HashMap`]/[`HashSet`] with
//! [`BlockHasher`], one multiply per key.
//!
//! **Bucket spread.** hashbrown picks a bucket from the *low* bits of the
//! hash, but a multiply mixes upward: the low bits of `id · K` depend only
//! on the low bits of `id`, so strided ids (every 4th block, a Z-order
//! quadrant) would pile into a few buckets. [`BlockHasher::finish`]
//! therefore rotates the well-mixed high product bits down into the low
//! bits.
//!
//! **Determinism.** The hasher has no per-process random state, so even
//! the iteration order of these collections is a pure function of the
//! insertion sequence. Every user only point-probes them anyway
//! (get/insert/remove/contains and `len`), so no result can depend on
//! their order. This module holds the workspace's `nondet-source` waivers
//! for block-id maps; users name `BlockMap`/`BlockSet` and need none.

// cadapt-lint: allow(nondet-source) -- block-id maps are point-probed only, and the fixed hasher makes even their iteration order a pure function of the insertion sequence
use std::collections::{HashMap, HashSet};
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

/// A set of block ids. Construct like [`BlockMap`].
// cadapt-lint: allow(nondet-source) -- the block-id set itself; see the module docs for why no result depends on its order
pub type BlockSet = HashSet<u64, BuildBlockHasher>;

#[cfg(test)]
mod tests {
    use super::*;
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
        let buckets: BlockSet = (0..1024u64).map(|i| hash_of(i * 64) & mask).collect();
        assert!(buckets.len() > 512, "only {} buckets used", buckets.len());
    }
}
