//! CRC-32 pins of the reuse-distance summaries of the side-32 corpus
//! programs, so a change to the summary build is checked at corpus scale
//! and not only on the few-thousand-access streams of `props_summary.rs`.
//!
//! One digest per program covers `prev1`, `depths`, `leaves_before` and
//! `faults_fixed` at E8's capacities (4, 16, 64, 256, 1024, 2²⁰), in that
//! order. Every value is widened to 16 little-endian bytes first, so the
//! digest does not depend on the type the summary stores it in.

use cadapt_core::checksum::crc32;
use cadapt_trace::{summarized, TraceAlgo, TraceSummary};

const SIDE: usize = 32;
const BLOCK_WORDS: u64 = 4;
/// E8's fixed LRU capacities.
const CAPACITIES: [u64; 6] = [4, 16, 64, 256, 1024, 1 << 20];

/// `(algorithm, CRC-32, accesses, distinct blocks)` at side 32.
const PINNED_SUMMARIES: [(TraceAlgo, u32, u64, u64); 5] = [
    (TraceAlgo::MmScan, 0xDF49_7334, 257024, 61440),
    (TraceAlgo::MmInplace, 0x10F2_4E10, 131072, 768),
    (TraceAlgo::Strassen, 0x5ACA_A8EE, 292427, 53740),
    (TraceAlgo::EditDistance, 0xC3D6_B063, 15104, 4224),
    (TraceAlgo::VebSearch, 0x8373_46CE, 10753, 512),
];

fn digest(s: &TraceSummary) -> u32 {
    let mut bytes = Vec::new();
    for &x in s.prev1().iter().chain(s.depths()) {
        bytes.extend_from_slice(&u128::from(x).to_le_bytes());
    }
    for &x in s.leaves_before() {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    for c in CAPACITIES {
        bytes.extend_from_slice(&s.faults_fixed(c).to_le_bytes());
    }
    crc32(&bytes)
}

#[test]
fn corpus_summaries_are_pinned() {
    for (algo, crc, accesses, distinct) in PINNED_SUMMARIES {
        let st = summarized(algo, SIDE, BLOCK_WORDS);
        let s = st.summary();
        assert_eq!(
            (digest(s), s.accesses(), s.distinct_blocks()),
            (crc, accesses, distinct),
            "{} at side {SIDE}: the summary changed",
            algo.label()
        );
    }
}
