//! Offline stand-in for `rand_chacha`.
//!
//! [`ChaCha8Rng`] is a real ChaCha stream cipher with 8 rounds, a 256-bit
//! key (the seed), a 64-bit block counter, and a 64-bit stream id
//! ([`ChaCha8Rng::set_stream`]) — the (seed, stream) determinism contract
//! the workspace's Monte-Carlo layer relies on. The word stream is fixed
//! by this implementation (little-endian words of successive blocks);
//! bit-parity with crates.io `rand_chacha` is *not* promised, only
//! self-consistency.
//!
//! Each refill computes four consecutive blocks at once — with SSE2 on
//! x86_64, with a portable four-lane body elsewhere — and serves their
//! words in block order, so the word stream is the one a block-at-a-time
//! generator produces.

pub use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Blocks computed per refill.
const BLOCKS: usize = 4;

/// Words buffered per refill: `buf[16·l + w]` is word w of block
/// `counter + l`.
const BUF_WORDS: usize = 16 * BLOCKS;

/// A ChaCha RNG with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Block counter of the next refill's first block.
    counter: u64,
    stream: u64,
    buf: [u32; BUF_WORDS],
    /// Next unserved index into `buf`; `BUF_WORDS` = buffer exhausted.
    idx: usize,
}

impl ChaCha8Rng {
    /// Select the stream id (word 14–15 of the ChaCha state). Restarts
    /// output at block 0 of the new stream.
    pub fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        self.counter = 0;
        self.idx = BUF_WORDS;
    }

    /// The current stream id.
    pub fn get_stream(&self) -> u64 {
        self.stream
    }

    // Out of line: keeps the 64-word refill off the inlined `next_u32` /
    // `next_u64` fast path.
    #[inline(never)]
    fn refill(&mut self) {
        blocks4(&self.key, self.counter, self.stream, &mut self.buf);
        self.idx = 0;
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
    }
}

/// Blocks `counter`, …, `counter + 3` (wrapping) of `stream` into `out`,
/// laid out as `out[16·l + w]` = word w of block `counter + l`.
fn blocks4(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32; BUF_WORDS]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline, so every CPU that runs
    // an x86_64 build has the one target feature `sse2::blocks4` enables.
    unsafe {
        sse2::blocks4(key, counter, stream, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    portable_blocks4(key, counter, stream, out);
}

/// The 16 input words of block `counter` of `stream`.
fn block_input(key: &[u32; 8], counter: u64, stream: u64) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CHACHA_CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    state[14] = stream as u32;
    state[15] = (stream >> 32) as u32;
    state
}

/// The four-block refill without SIMD intrinsics: lane l of each state
/// word belongs to block `counter + l`, as in the SSE2 body. Used on
/// targets other than x86_64, and checked against the SSE2 body in tests.
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
fn portable_blocks4(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32; BUF_WORDS]) {
    type Lanes = [u32; BLOCKS];

    fn add(x: Lanes, y: Lanes) -> Lanes {
        std::array::from_fn(|l| x[l].wrapping_add(y[l]))
    }

    fn xor_rotl(x: Lanes, y: Lanes, n: u32) -> Lanes {
        std::array::from_fn(|l| (x[l] ^ y[l]).rotate_left(n))
    }

    fn quarter_round(x: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = add(x[a], x[b]);
        x[d] = xor_rotl(x[d], x[a], 16);
        x[c] = add(x[c], x[d]);
        x[b] = xor_rotl(x[b], x[c], 12);
        x[a] = add(x[a], x[b]);
        x[d] = xor_rotl(x[d], x[a], 8);
        x[c] = add(x[c], x[d]);
        x[b] = xor_rotl(x[b], x[c], 7);
    }

    let mut input = [[0u32; BLOCKS]; 16];
    for block in 0..BLOCKS {
        let words = block_input(key, counter.wrapping_add(block as u64), stream);
        for (lanes, word) in input.iter_mut().zip(words) {
            lanes[block] = word;
        }
    }
    let mut x = input;
    for _ in 0..4 {
        // Column round.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (w, (lanes, inp)) in x.into_iter().zip(input).enumerate() {
        for (l, word) in add(lanes, inp).into_iter().enumerate() {
            out[16 * l + w] = word;
        }
    }
}

/// The four-block refill on SSE2: each state word is one `__m128i` whose
/// lane l belongs to block `counter + l`.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{block_input, BUF_WORDS};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si64, _mm_or_si128, _mm_set_epi32, _mm_setzero_si128,
        _mm_shufflehi_epi16, _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32,
        _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_unpacklo_epi64,
        _mm_xor_si128,
    };

    /// Rotate every lane left by 16: swap its two 16-bit halves.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl16(x: __m128i) -> __m128i {
        _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>(x))
    }

    /// Rotate every lane left by `L` bits (`R` = 32 − `L`).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter_round(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl16(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm_xor_si128(x[b], x[c]));
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl::<8, 24>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm_xor_si128(x[b], x[c]));
    }

    // The `as` casts reinterpret u32 words as the i32 lanes the intrinsics
    // take and back, and split a u64 into its 32-bit halves.
    #[target_feature(enable = "sse2")]
    pub(super) fn blocks4(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32; BUF_WORDS]) {
        let b0 = block_input(key, counter, stream);
        let b1 = block_input(key, counter.wrapping_add(1), stream);
        let b2 = block_input(key, counter.wrapping_add(2), stream);
        let b3 = block_input(key, counter.wrapping_add(3), stream);
        let mut input = [_mm_setzero_si128(); 16];
        for (w, v) in input.iter_mut().enumerate() {
            *v = _mm_set_epi32(b3[w] as i32, b2[w] as i32, b1[w] as i32, b0[w] as i32);
        }
        let mut x = input;
        for _ in 0..4 {
            // Column round.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        // Transpose each group of four word vectors into four rows, row l
        // holding words 4g..4g+4 of block l.
        for g in 0..4 {
            let w = 4 * g;
            let v0 = _mm_add_epi32(x[w], input[w]);
            let v1 = _mm_add_epi32(x[w + 1], input[w + 1]);
            let v2 = _mm_add_epi32(x[w + 2], input[w + 2]);
            let v3 = _mm_add_epi32(x[w + 3], input[w + 3]);
            let t0 = _mm_unpacklo_epi32(v0, v1);
            let t1 = _mm_unpacklo_epi32(v2, v3);
            let t2 = _mm_unpackhi_epi32(v0, v1);
            let t3 = _mm_unpackhi_epi32(v2, v3);
            let rows = [
                _mm_unpacklo_epi64(t0, t1),
                _mm_unpackhi_epi64(t0, t1),
                _mm_unpacklo_epi64(t2, t3),
                _mm_unpackhi_epi64(t2, t3),
            ];
            for (l, row) in rows.into_iter().enumerate() {
                let lo = _mm_cvtsi128_si64(row) as u64;
                let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(row, row)) as u64;
                let at = 16 * l + w;
                out[at] = lo as u32;
                out[at + 1] = (lo >> 32) as u32;
                out[at + 2] = hi as u32;
                out[at + 3] = (hi >> 32) as u32;
            }
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            stream: 0,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.idx + 1 < BUF_WORDS {
            // Both words are buffered: read them in one step.
            let lo = u64::from(self.buf[self.idx]);
            let hi = u64::from(self.buf[self.idx + 1]);
            self.idx += 2;
            (hi << 32) | lo
        } else {
            let lo = u64::from(self.next_u32());
            let hi = u64::from(self.next_u32());
            (hi << 32) | lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-block generator the four-block refill replaced, kept
    /// verbatim as the reference for its word stream.
    #[derive(Debug, Clone)]
    struct OneBlockReference {
        key: [u32; 8],
        counter: u64,
        stream: u64,
        buf: [u32; 16],
        /// Next unserved index into `buf`; 16 = buffer exhausted.
        idx: usize,
    }

    impl OneBlockReference {
        fn new(seed: u64, stream: u64) -> Self {
            let rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reference = OneBlockReference {
                key: rng.key,
                counter: 0,
                stream: 0,
                buf: [0; 16],
                idx: 16,
            };
            reference.set_stream(stream);
            reference
        }

        fn set_stream(&mut self, stream: u64) {
            self.stream = stream;
            self.counter = 0;
            self.idx = 16;
        }

        #[inline]
        fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            state[a] = state[a].wrapping_add(state[b]);
            state[d] = (state[d] ^ state[a]).rotate_left(16);
            state[c] = state[c].wrapping_add(state[d]);
            state[b] = (state[b] ^ state[c]).rotate_left(12);
            state[a] = state[a].wrapping_add(state[b]);
            state[d] = (state[d] ^ state[a]).rotate_left(8);
            state[c] = state[c].wrapping_add(state[d]);
            state[b] = (state[b] ^ state[c]).rotate_left(7);
        }

        fn refill(&mut self) {
            let mut state = [0u32; 16];
            state[..4].copy_from_slice(&CHACHA_CONSTANTS);
            state[4..12].copy_from_slice(&self.key);
            state[12] = self.counter as u32;
            state[13] = (self.counter >> 32) as u32;
            state[14] = self.stream as u32;
            state[15] = (self.stream >> 32) as u32;
            let input = state;
            for _ in 0..4 {
                // Column round.
                Self::quarter_round(&mut state, 0, 4, 8, 12);
                Self::quarter_round(&mut state, 1, 5, 9, 13);
                Self::quarter_round(&mut state, 2, 6, 10, 14);
                Self::quarter_round(&mut state, 3, 7, 11, 15);
                // Diagonal round.
                Self::quarter_round(&mut state, 0, 5, 10, 15);
                Self::quarter_round(&mut state, 1, 6, 11, 12);
                Self::quarter_round(&mut state, 2, 7, 8, 13);
                Self::quarter_round(&mut state, 3, 4, 9, 14);
            }
            for (out, inp) in state.iter_mut().zip(input.iter()) {
                *out = out.wrapping_add(*inp);
            }
            self.buf = state;
            self.idx = 0;
            self.counter = self.counter.wrapping_add(1);
        }
    }

    impl RngCore for OneBlockReference {
        fn next_u32(&mut self) -> u32 {
            if self.idx >= 16 {
                self.refill();
            }
            let w = self.buf[self.idx];
            self.idx += 1;
            w
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            let hi = u64::from(self.next_u32());
            (hi << 32) | lo
        }
    }

    /// CRC-32 (IEEE) of `bytes`.
    fn crc32(bytes: impl IntoIterator<Item = u8>) -> u32 {
        let mut crc = !0u32;
        for byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// CRC-32 of the little-endian bytes of the next `words` words.
    fn crc32_words(rng: &mut ChaCha8Rng, words: usize) -> u32 {
        crc32((0..words).flat_map(|_| rng.next_u32().to_le_bytes()))
    }

    #[test]
    fn word_stream_is_pinned() {
        // The standard check value, so the pins below are plain CRC-32s.
        assert_eq!(crc32(*b"123456789"), 0xCBF4_3926);
        // The first 2^16 words of (seed, stream), as the one-block
        // generator produced them. E2, E6 and the ablations compare
        // against their goldens only within ci95 bands, so a changed
        // stream could pass those; these pins catch it.
        for (seed, stream, want) in [
            (0, 0, 0xdd71_66e9),
            (1, 1, 0xb921_7adb),
            (0x00CA_DA97, 31, 0x2f76_d69a),
            (7, u64::MAX, 0x5df1_9ca1),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_stream(stream);
            assert_eq!(
                crc32_words(&mut rng, 1 << 16),
                want,
                "seed {seed:#x}, stream {stream:#x}"
            );
        }
        // A counter two blocks short of 2^64 wraps inside the first refill.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        rng.set_stream(5);
        rng.counter = u64::MAX - 1;
        assert_eq!(crc32_words(&mut rng, 1 << 16), 0x99a9_ef1f);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn four_block_refill_serves_the_one_block_stream(
            seed in 0u64..u64::MAX,
            stream in 0u64..u64::MAX,
            near_wrap in 0u64..8,
            ops in proptest::collection::vec((0u8..5, 0u64..u64::MAX), 1..160),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_stream(stream);
            let mut reference = OneBlockReference::new(seed, stream);
            if near_wrap < 4 {
                // Start a few blocks short of 2^64 so the counter wraps.
                rng.counter = u64::MAX - near_wrap;
                reference.counter = u64::MAX - near_wrap;
            }
            for (op, arg) in ops {
                match op {
                    0 => prop_assert_eq!(rng.next_u32(), reference.next_u32()),
                    1 => prop_assert_eq!(rng.next_u64(), reference.next_u64()),
                    2 => {
                        let len = usize::try_from(arg % 300).expect("small");
                        let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
                        rng.fill_bytes(&mut got);
                        reference.fill_bytes(&mut want);
                        prop_assert_eq!(got, want);
                    }
                    3 => {
                        // A clone continues where the original stands.
                        let mut copy = rng.clone();
                        prop_assert_eq!(copy.next_u32(), rng.next_u32());
                        let _ = reference.next_u32();
                        rng = copy;
                    }
                    _ => {
                        let stream = arg % 4;
                        rng.set_stream(stream);
                        reference.set_stream(stream);
                        prop_assert_eq!(rng.get_stream(), stream);
                    }
                }
                // Long runs of small ops cross many refill boundaries.
                for _ in 0..arg % 40 {
                    prop_assert_eq!(rng.next_u32(), reference.next_u32());
                }
            }
        }

        #[test]
        fn portable_body_equals_the_target_body(
            seed in 0u64..u64::MAX,
            counter in 0u64..u64::MAX,
            stream in 0u64..u64::MAX,
            near_wrap in 0u64..8,
        ) {
            let key = ChaCha8Rng::seed_from_u64(seed).key;
            let counter = if near_wrap < 4 { u64::MAX - near_wrap } else { counter };
            let (mut portable, mut target) = ([0u32; BUF_WORDS], [1u32; BUF_WORDS]);
            portable_blocks4(&key, counter, stream, &mut portable);
            blocks4(&key, counter, stream, &mut target);
            prop_assert_eq!(portable, target);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        a.set_stream(1);
        let first: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let mut b = ChaCha8Rng::seed_from_u64(7);
        b.set_stream(2);
        let second: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_ne!(first, second);
        let mut c = ChaCha8Rng::seed_from_u64(7);
        c.set_stream(1);
        let again: Vec<u64> = (0..10).map(|_| c.next_u64()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn set_stream_resets_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let _ = a.next_u64();
        a.set_stream(5);
        let x = a.next_u64();
        let mut b = ChaCha8Rng::seed_from_u64(9);
        b.set_stream(5);
        assert_eq!(x, b.next_u64());
    }

    #[test]
    fn output_looks_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let n = 10_000;
        let ones: u32 = (0..n).map(|_| rng.next_u64().count_ones()).sum();
        let mean_bits = f64::from(ones) / f64::from(n);
        assert!((30.0..34.0).contains(&mean_bits), "mean bits {mean_bits}");
    }
}
