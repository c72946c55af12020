//! The headline verification layer for the analytic cache model: on the
//! *real* algorithm traces of the corpus — not just generated streams —
//! the closed-form model in `cadapt_paging::analytic` equals the exact
//! LRU simulator box for box, capacity for capacity, profile for profile.
//!
//! Together with the proptest suite in
//! `crates/paging/tests/props_analytic_equivalence.rs` (arbitrary
//! generated traces) this pins the equivalence contract from both ends:
//! adversarial small inputs there, genuine cache-oblivious access
//! patterns (recursive matrix multiply, Strassen, edit distance) here.
//!
//! The last test guards the other half of the PR's bargain: introducing
//! the analytic backend must not perturb a single byte of the existing
//! simulator goldens. Their CRC-32s (the same IEEE checksum the
//! experiment store embeds in its artifacts) are pinned as constants; if
//! a golden legitimately changes, the failure message says how to re-pin.

use cadapt::core::checksum::crc32;
use cadapt::core::{MemoryProfile, SquareProfile};
use cadapt::paging::{
    analytic_fixed, analytic_memory_profile, analytic_square_profile_history, replay_fixed,
    replay_memory_profile, replay_square_profile_history,
};
use cadapt::trace::{summarized, TraceAlgo};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;

const SIDE: usize = 16;
const BLOCK_WORDS: u64 = 4;

/// Assert full lock-step equality of the two backends on one trace and
/// one box menu: identical per-box history and identical report.
fn assert_lock_step(algo: TraceAlgo, menu: Vec<u64>) {
    let st = summarized(algo, SIDE, BLOCK_WORDS);
    let rho = algo.potential();
    let profile = SquareProfile::new(menu.clone()).expect("positive boxes");
    let (sim_report, sim_boxes) =
        replay_square_profile_history(st.program(), &mut profile.cycle(), rho);
    let (ana_report, ana_boxes) =
        analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
    assert_eq!(
        sim_boxes,
        ana_boxes,
        "{} with menu {menu:?}: per-box history diverged",
        algo.label()
    );
    assert_eq!(
        sim_report,
        ana_report,
        "{} with menu {menu:?}: report diverged",
        algo.label()
    );
}

#[test]
fn corpus_traces_are_lock_step_on_canonical_menus() {
    for algo in TraceAlgo::ALL {
        assert_lock_step(algo, vec![1]);
        assert_lock_step(algo, vec![16]);
        assert_lock_step(algo, vec![256]);
        assert_lock_step(algo, vec![4, 1, 16]);
        assert_lock_step(algo, vec![1, 2, 4, 8, 16, 32, 64]);
    }
}

#[test]
fn corpus_traces_are_lock_step_on_random_menus() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE14_B0CE5);
    for algo in TraceAlgo::ALL {
        for _ in 0..10 {
            let len = rng.gen_range(1..=6);
            let menu: Vec<u64> = (0..len).map(|_| rng.gen_range(1..=96)).collect();
            assert_lock_step(algo, menu);
        }
    }
}

#[test]
fn fixed_capacities_match_and_obey_the_dominance_chain() {
    let sweeps: [(usize, Vec<u64>); 2] = [
        (SIDE, (0u64..=32).chain([128, 1024, 1 << 30]).collect()),
        // The power-of-two sweep over side-32 traces, the size the
        // analytic backend's per-query speedup was first timed at.
        (32, (2..=12).map(|j| 1u64 << j).collect()),
    ];
    for (side, capacities) in sweeps {
        for algo in TraceAlgo::ALL {
            check_fixed_sweep(algo, side, &capacities);
        }
    }
}

/// Fixed-capacity lock-step and the dominance chain for one trace over
/// ascending `capacities`.
fn check_fixed_sweep(algo: TraceAlgo, side: usize, capacities: &[u64]) {
    let st = summarized(algo, side, BLOCK_WORDS);
    let rho = algo.potential();
    let mut previous: Option<u128> = None;
    for &capacity in capacities {
        let ana = analytic_fixed(st.summary(), capacity);
        let sim = replay_fixed(st.program(), capacity);
        assert_eq!(
            ana,
            sim,
            "{} at side {side}, capacity {capacity}",
            algo.label()
        );
        // Fixed faults are monotone non-increasing in capacity
        // (LRU's inclusion property), and never drop below the
        // working-set size (every distinct block faults once).
        assert!(ana.io >= u128::from(st.summary().distinct_blocks()));
        if let Some(prev) = previous {
            assert!(
                ana.io <= prev,
                "{} at side {side}: faults rose at capacity {capacity}",
                algo.label()
            );
        }
        previous = Some(ana.io);

        // A box-local hit implies a fixed-LRU hit at the same
        // capacity, so box-cleared replay can only cost more.
        if capacity > 0 {
            let profile = SquareProfile::new(vec![capacity]).expect("positive box");
            let (square, _) =
                analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
            assert!(
                square.total_io >= ana.io,
                "{} at side {side}: square replay at x={capacity} undercut the fixed cache",
                algo.label()
            );
        }
    }
}

#[test]
fn sawtooth_memory_profiles_match_including_truncation() {
    // A sawtooth m(t) — ramp up, cliff down — exercises both the k-growth
    // and the k-shrink paths of the analytic inclusion argument.
    let tooth: Vec<u64> = (1..=32).chain((1..=32).rev()).collect();
    for algo in TraceAlgo::ALL {
        let st = summarized(algo, SIDE, BLOCK_WORDS);
        // Truncated: one tooth only — the profile runs out mid-trace.
        let short = MemoryProfile::from_steps(&tooth).expect("positive steps");
        let ana = analytic_memory_profile(st.summary(), &short);
        let sim = replay_memory_profile(st.program(), &short);
        assert_eq!(ana, sim, "{} truncated sawtooth", algo.label());
        assert!(
            !ana.completed,
            "{}: one tooth cannot complete",
            algo.label()
        );

        // Completed: repeat the tooth until the trace fits.
        let mut long = Vec::new();
        while (long.len() as u128) < 2 * u128::from(st.summary().accesses()) {
            long.extend_from_slice(&tooth);
        }
        let long = MemoryProfile::from_steps(&long).expect("positive steps");
        let ana = analytic_memory_profile(st.summary(), &long);
        let sim = replay_memory_profile(st.program(), &long);
        assert_eq!(ana, sim, "{} repeated sawtooth", algo.label());
        assert!(
            ana.completed,
            "{}: repeated sawtooth must finish",
            algo.label()
        );
        assert_eq!(ana.leaves, st.summary().leaves());
    }
}

#[test]
fn potential_accounting_matches_on_steady_boxes() {
    // The report's derived floats (potential sums, ratios) are computed by
    // the shared ProgressLedger from the recorded boxes, so box-history
    // equality implies bit-identical floats. Spot-check the bits anyway:
    // this is what the golden files serialize.
    let st = summarized(TraceAlgo::MmScan, SIDE, BLOCK_WORDS);
    let rho = TraceAlgo::MmScan.potential();
    for x in [2u64, 8, 32, 128] {
        let profile = SquareProfile::new(vec![x]).expect("positive box");
        let (sim, _) = replay_square_profile_history(st.program(), &mut profile.cycle(), rho);
        let (ana, _) = analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
        assert_eq!(
            sim.bounded_potential_sum.to_bits(),
            ana.bounded_potential_sum.to_bits()
        );
        assert_eq!(
            sim.raw_potential_sum.to_bits(),
            ana.raw_potential_sum.to_bits()
        );
        assert_eq!(sim.total_progress, ana.total_progress);
        assert_eq!(sim.max_box, ana.max_box);
    }
}

/// `(file, CRC-32, length)` of every golden record that existed before
/// the analytic backend landed. These files are produced by the LRU
/// simulator path and MUST NOT change when the analytic model is added —
/// the new backend gets its own goldens (e14) instead of rewriting
/// history. If an *intentional* regeneration changes one of these, re-pin
/// with: `python3 -c "import zlib; d=open(F,'rb').read();
/// print(hex(zlib.crc32(d)), len(d))"`.
const PINNED_GOLDENS: &[(&str, u32, u64)] = &[
    ("ablations.json", 0x8809_9929, 7357),
    ("e1.json", 0x26C4_E681, 4132),
    ("e2.json", 0x371D_0403, 16818),
    ("e3.json", 0xF40B_D11A, 2260),
    ("e4.json", 0xAA39_7503, 1079),
    ("e5.json", 0x2190_F318, 2233),
    ("e6.json", 0x36E7_1E50, 8856),
    ("e7.json", 0xDA11_E436, 9051),
    ("e8.json", 0xE532_43C9, 3456),
    ("e9.json", 0x7485_F360, 6258),
    ("e10.json", 0xCA4C_A4BA, 1620),
    ("e11.json", 0x8D67_0397, 926),
    ("e12.json", 0x59BE_8718, 4910),
    ("e13.json", 0x3BB2_5837, 4409),
];

#[test]
fn existing_simulator_goldens_are_byte_unchanged() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for &(name, pinned_crc, pinned_len) in PINNED_GOLDENS {
        let bytes = std::fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("golden {name} must exist: {e}"));
        assert_eq!(
            (crc32(&bytes), bytes.len() as u64),
            (pinned_crc, pinned_len),
            "golden {name} changed on disk — simulator goldens must stay byte-identical \
             across the analytic-backend change (see PINNED_GOLDENS doc to re-pin \
             after an intentional regeneration)"
        );
    }
}
