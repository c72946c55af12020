//! The verification layer for compiled trace replay: on the real corpus
//! algorithms — recursive matrix multiply (both layouts), Strassen, edit
//! distance, and the vEB-layout static search — the bytecode pipeline in
//! `cadapt_trace::bytecode` is a *lossless, canonical, pinned* encoding.
//!
//! Three contracts are enforced here, cross-crate, on genuine
//! cache-oblivious access patterns (the proptest suites in
//! `crates/trace/tests/props_bytecode.rs` and
//! `crates/paging/tests/props_stream_replay.rs` cover adversarial
//! generated streams):
//!
//! 1. **Lossless** — the decoder VM streams back exactly the recorded
//!    event sequence, and every replay backend returns identical results
//!    fed from either representation.
//! 2. **Canonical** — structural emission (kernel → compiler sink, no
//!    `Vec<TraceEvent>` ever built) produces byte-identical programs to
//!    recompiling the recorded trace, because encoding is a pure function
//!    of the event stream.
//! 3. **Pinned** — the corpus programs' CRC-32s and byte lengths at
//!    sides 16 and 32 are constants below. The bytecode format is a
//!    serialisation format: changing an opcode, a varint width, or the
//!    loop-detection window changes these bytes, and that must be a
//!    deliberate, reviewed act. If an *intentional* format change lands,
//!    re-pin from the values in the failure message. On generated
//!    streams, `encoder_matches_the_reference_encoder` in
//!    `props_bytecode.rs` holds the encoder to a fixed reference copy.

use cadapt::core::checksum::crc32;
use cadapt::core::{MemoryProfile, SquareProfile};
use cadapt::paging::{replay_fixed, replay_memory_profile, replay_square_profile_history};
use cadapt::trace::{compile, compiled, summarized, TraceAlgo};
use std::path::Path;

const SIDE: usize = 16;
const BLOCK_WORDS: u64 = 4;
/// Sides the lossless and canonical contracts are checked at: the pinned
/// side, and side 32, where the corpus programs start to repeat loops
/// long enough to exercise the encoder's spill window.
const CHECKED_SIDES: [usize; 2] = [SIDE, 32];

/// `(algorithm, CRC-32, byte length, accesses, event count)` of a corpus
/// program at block size 4 words.
type Pin = (TraceAlgo, u32, usize, u64, u128);

/// Every corpus program at side 16. These pin the bytecode *format*: any
/// change to opcodes, delta encoding, varint layout, or the encoder's
/// loop-detection heuristics shows up here first.
const PINNED_PROGRAMS: &[Pin] = &[
    (TraceAlgo::MmScan, 0xDCB6_D515, 72157, 31488, 35584),
    (TraceAlgo::MmInplace, 0xB8A7_3A5C, 9980, 16384, 20480),
    (TraceAlgo::Strassen, 0x08AC_2168, 77894, 40093, 42494),
    (TraceAlgo::EditDistance, 0xFDF2_ABF7, 7842, 3712, 3968),
    (TraceAlgo::VebSearch, 0x3620_233E, 4752, 2164, 2420),
];

/// Every corpus program at side 32, the other side the lossless and
/// canonical contracts are checked at.
const PINNED_PROGRAMS_SIDE_32: &[Pin] = &[
    (TraceAlgo::MmScan, 0x727B_01F1, 660316, 257024, 289792),
    (TraceAlgo::MmInplace, 0xEB8E_58E0, 85855, 131072, 163840),
    (TraceAlgo::Strassen, 0x9200_B1EF, 574736, 292427, 309234),
    (TraceAlgo::EditDistance, 0xDE48_2983, 31908, 15104, 16128),
    (TraceAlgo::VebSearch, 0xB354_D51F, 23787, 10753, 11777),
];

#[test]
fn corpus_bytecode_is_pinned() {
    for (side, pins) in [(SIDE, PINNED_PROGRAMS), (32, PINNED_PROGRAMS_SIDE_32)] {
        for &(algo, pinned_crc, pinned_len, pinned_accesses, pinned_events) in pins {
            let program = compiled(algo, side, BLOCK_WORDS);
            assert_eq!(
                (
                    program.crc32(),
                    program.byte_len(),
                    program.accesses(),
                    program.event_count()
                ),
                (pinned_crc, pinned_len, pinned_accesses, pinned_events),
                "{} at side {side}: compiled bytecode changed — the format is \
                 pinned; re-pin as ({:#010X}, {}, {}, {}) only for a \
                 deliberate format change",
                algo.label(),
                program.crc32(),
                program.byte_len(),
                program.accesses(),
                program.event_count()
            );
            // The CRC the store embeds is over exactly the program bytes.
            assert_eq!(program.crc32(), crc32(program.bytes()));
        }
    }
}

#[test]
fn decoded_streams_equal_recorded_traces() {
    for side in CHECKED_SIDES {
        for algo in TraceAlgo::EXTENDED {
            let trace = algo.trace(side, BLOCK_WORDS);
            let program = compiled(algo, side, BLOCK_WORDS);
            assert!(
                program.events().eq(trace.events().iter().copied()),
                "{} at side {side}: decoded stream diverged from the recorded event vector",
                algo.label()
            );
            assert_eq!(program.accesses(), trace.accesses());
            assert_eq!(program.leaves(), trace.leaves());
            assert_eq!(program.distinct_blocks(), trace.distinct_blocks());
            // The decoder advertises an exact length, so consumers can
            // preallocate without trusting the stream.
            let (lo, hi) = program.events().size_hint();
            assert_eq!(Some(lo), hi);
            assert_eq!(lo as u128, program.event_count());
        }
    }
}

#[test]
fn structural_emission_equals_recompilation() {
    // Direct kernel → compiler emission never materialises the event
    // vector; compiling the recorded trace does. Both must produce the
    // same bytes, or the memoized corpus store would hand out programs
    // that disagree with the traces they claim to represent.
    for side in CHECKED_SIDES {
        for algo in TraceAlgo::EXTENDED {
            let recorded = algo.trace(side, BLOCK_WORDS);
            assert_eq!(
                *compiled(algo, side, BLOCK_WORDS),
                compile(&recorded),
                "{} at side {side}: structural emission diverged from recompilation",
                algo.label()
            );
        }
    }
}

#[test]
fn replay_backends_are_representation_blind_on_the_corpus() {
    let tooth: Vec<u64> = (1..=24).chain((1..=24).rev()).collect();
    for algo in TraceAlgo::EXTENDED {
        let trace = algo.trace(SIDE, BLOCK_WORDS);
        let program = compiled(algo, SIDE, BLOCK_WORDS);
        let rho = algo.potential();

        for m in [0u64, 1, 3, 16, 257, 1 << 20] {
            assert_eq!(
                replay_fixed(&trace, m),
                replay_fixed(&*program, m),
                "{} fixed M={m}",
                algo.label()
            );
        }
        for menu in [vec![1u64], vec![16], vec![4, 1, 64]] {
            let profile = SquareProfile::new(menu.clone()).expect("positive boxes");
            assert_eq!(
                replay_square_profile_history(&trace, &mut profile.cycle(), rho),
                replay_square_profile_history(&*program, &mut profile.cycle(), rho),
                "{} menu {menu:?}",
                algo.label()
            );
        }
        let profile = MemoryProfile::from_steps(&tooth).expect("positive steps");
        assert_eq!(
            replay_memory_profile(&trace, &profile),
            replay_memory_profile(&*program, &profile),
            "{} sawtooth m(t)",
            algo.label()
        );
    }
}

#[test]
fn summaries_built_from_bytecode_match_the_recorded_trace() {
    // The analytic backend's summaries are now built by streaming decode;
    // the corpus hands out programs, not vectors. Both constructions must
    // agree exactly — stack distances are order-sensitive, so this is a
    // strong streaming-fidelity check.
    for algo in TraceAlgo::EXTENDED {
        let trace = algo.trace(SIDE, BLOCK_WORDS);
        let st = summarized(algo, SIDE, BLOCK_WORDS);
        assert_eq!(
            *st.summary(),
            cadapt::trace::TraceSummary::new(&trace),
            "{}: summary from bytecode diverged from summary from the vector",
            algo.label()
        );
    }
}

/// `(file, CRC-32, length)` of E15's golden record. Pinned separately
/// from the pre-analytic goldens (see
/// `integration_analytic_equivalence.rs`) because this one is *expected*
/// to be regenerated when the bytecode corpus grows; re-pin with:
/// `python3 -c "import zlib; d=open(F,'rb').read();
/// print(hex(zlib.crc32(d)), len(d))"`.
const PINNED_E15_GOLDEN: (&str, u32, u64) = ("e15.json", 0x3059_79DD, 3707);

#[test]
fn e15_golden_is_pinned() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let (name, pinned_crc, pinned_len) = PINNED_E15_GOLDEN;
    let bytes =
        std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("golden {name} must exist: {e}"));
    assert_eq!(
        (crc32(&bytes), bytes.len() as u64),
        (pinned_crc, pinned_len),
        "golden {name} changed on disk — re-pin only after an intentional regeneration"
    );
}
