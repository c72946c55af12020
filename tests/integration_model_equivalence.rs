//! Ablation A3's model-equivalence claim, sharpened into the two exact
//! statements that actually hold of the cursor semantics.
//!
//! **Identity.** On a *steady* stream of canonical boxes — every box the
//! same power-of-b size, the square-profile shape Theorem 1 reasons
//! about — a c = 1 instance executes identically under the §4 simplified
//! caching model and the block-capacity charging model with cost factor 1.
//! With c = 1 every scan chunk under the `End`/`Start` layouts has b-adic
//! length, so a box of size b^j always lands on a b^j-aligned boundary:
//! each box either completes a fresh subproblem of exactly its own size
//! (costing b^j under either semantics) or advances an enclosing scan by
//! exactly b^j unit-cost accesses. Neither model ever sees a partially
//! executed subproblem it could finish at a discount, and the two cursors
//! stay in lock-step from the first box to the last.
//!
//! **Dominance.** On *arbitrary* canonical mixes the strict identity is
//! too strong — and this test deliberately does not claim it. When a box
//! boundary interrupts a subproblem, the capacity model later finishes
//! the remainder for its true cost and spends the leftover budget going
//! further, while the simplified model's one-action-per-box rule charges
//! the full subproblem size and stops; fractional c (non-b-adic scan
//! lengths) and the `Split` layout (scan chunks of length scan/(a+1))
//! manufacture such interruptions constantly. What survives is a
//! No-Catch-up-style pointwise bound: after every box the capacity
//! cursor's serial position is at least the simplified cursor's, and it
//! completes in no more boxes. A3's statistical agreement
//! (`cadapt_bench::experiments::ablations`) sits between the two: the
//! models agree exactly on aligned traffic and within constants on
//! everything else.
//!
//! **Third backend.** Since the analytic cache model landed there are
//! three ways to cost an execution: the simplified cursor model, the
//! capacity model driven by the LRU *simulator*, and the capacity model
//! answered *analytically* from a trace summary. The first two relate by
//! the identity/dominance statements above; the last two are **exactly
//! equal** — same per-box history, same report — which the three-way
//! tests at the bottom pin on real corpus traces, closing the triangle:
//! whatever A3 establishes about simplified-vs-capacity transfers to the
//! analytic backend verbatim.

use cadapt::core::SquareProfile;
use cadapt::paging::{
    analytic_fixed, analytic_square_profile_history, replay_square_profile_history,
};
use cadapt::recursion::{AbcParams, ClosedForms, ExecCursor, ExecModel, ScanLayout};
use cadapt::trace::{summarized, TraceAlgo};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Drive both models over a steady stream of canonical boxes of size
/// `x`, asserting lock-step equality of outcome and cursor position
/// after every box.
fn assert_lock_step_steady(params: AbcParams, n: u64, x: u64) {
    let cf = ClosedForms::for_size(params, n).expect("canonical size");
    let mut simplified = ExecCursor::new(cf.clone());
    let mut capacity = ExecCursor::new(cf);
    let simplified_model = ExecModel::Simplified;
    let capacity_model = ExecModel::Capacity { cost_factor: 1 };

    let mut boxes = 0u64;
    while !simplified.is_done() {
        assert!(
            boxes < 4_000_000,
            "{params:?} n={n}: execution did not finish"
        );
        let out_s = simplified_model.advance(&mut simplified, x);
        let out_c = capacity_model.advance(&mut capacity, x);
        assert_eq!(
            out_s, out_c,
            "{params:?} n={n}: box {boxes} (size {x}) diverged"
        );
        assert_eq!(
            simplified.fingerprint(),
            capacity.fingerprint(),
            "{params:?} n={n}: cursors at different positions after box {boxes} (size {x})"
        );
        assert_eq!(simplified.serial_position(), capacity.serial_position());
        boxes += 1;
    }
    assert!(
        capacity.is_done(),
        "capacity cursor must finish in lock-step"
    );
}

#[test]
fn canonical_algorithms_are_lock_step_on_steady_boxes() {
    // MM-Scan and the (3, 2, 1)-regular gap algorithm are c = 1, so the
    // exact identity applies. MM-Inplace (c = 0) has unit-length scan
    // chunks — a steady box of size b^j > 1 interrupts them, which puts
    // it in the dominance regime covered below instead.
    for (params, k) in [
        (AbcParams::mm_scan(), 5),
        (AbcParams::new(3, 2, 1.0, 1).unwrap(), 8),
    ] {
        let n = params.canonical_size(k);
        for j in 0..=k {
            assert_lock_step_steady(params, n, params.canonical_size(j));
        }
    }
}

#[test]
fn randomized_c1_instances_are_lock_step_on_steady_boxes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA3_5EED);
    for _ in 0..40 {
        let b = rng.gen_range(2u64..=4);
        let a = rng.gen_range(1u64..=b * b);
        let depth = rng.gen_range(2u32..=4);
        let layout = if rng.gen_range(0..2) == 0 {
            ScanLayout::End
        } else {
            ScanLayout::Start
        };
        let params = AbcParams::new(a, b, 1.0, 1)
            .expect("valid parameters")
            .with_layout(layout);
        let n = params.canonical_size(depth);
        for j in 0..=depth {
            assert_lock_step_steady(params, n, params.canonical_size(j));
        }
    }
}

#[test]
fn capacity_never_falls_behind_on_arbitrary_canonical_mixes() {
    // Full (a, b, c) randomization — fractional c and all three scan
    // layouts included — with a box mix biased toward tiny boxes so the
    // cursors are interrupted mid-subproblem as often as possible.
    let mut rng = ChaCha8Rng::seed_from_u64(0xA300);
    for trial in 0..60u32 {
        let b = rng.gen_range(2u64..=4);
        let a = rng.gen_range(1u64..=b * b);
        let c = f64::from(rng.gen_range(0u32..=4)) / 4.0;
        let depth = rng.gen_range(2u32..=4);
        let layout = match rng.gen_range(0..3) {
            0 => ScanLayout::End,
            1 => ScanLayout::Start,
            _ => ScanLayout::Split,
        };
        let params = AbcParams::new(a, b, c, 1)
            .expect("valid parameters")
            .with_layout(layout);
        let n = params.canonical_size(depth);
        let cf = ClosedForms::for_size(params, n).expect("canonical size");
        let mut simplified = ExecCursor::new(cf.clone());
        let mut capacity = ExecCursor::new(cf);
        let mut boxes = 0u64;
        while !simplified.is_done() {
            assert!(boxes < 4_000_000, "trial {trial}: did not finish");
            let k = if rng.gen_range(0..10u32) < 7 {
                rng.gen_range(0..=1u32).min(depth)
            } else {
                rng.gen_range(0..=depth)
            };
            let x = params.canonical_size(k);
            ExecModel::Simplified.advance(&mut simplified, x);
            ExecModel::Capacity { cost_factor: 1 }.advance(&mut capacity, x);
            boxes += 1;
            assert!(
                capacity.serial_position() >= simplified.serial_position(),
                "trial {trial} ({params:?}): capacity fell behind after box {boxes} (size {x}): \
                 {} < {}",
                capacity.serial_position(),
                simplified.serial_position()
            );
        }
        assert!(
            capacity.is_done(),
            "trial {trial} ({params:?}): capacity took more boxes than simplified"
        );
    }
}

#[test]
fn augmented_capacity_is_not_lock_step() {
    // Sanity check that the identity is really about cost factor 1: with
    // cost factor 2 a box of size b^k can no longer complete a fresh
    // subproblem of its own size, so steady-box trajectories must diverge.
    let params = AbcParams::mm_scan();
    let n = params.canonical_size(4);
    let cf = ClosedForms::for_size(params, n).unwrap();
    let mut simplified = ExecCursor::new(cf.clone());
    let mut capacity = ExecCursor::new(cf);
    let mut diverged = false;
    let x = params.canonical_size(1);
    for _ in 0..10_000 {
        if simplified.is_done() || capacity.is_done() {
            break;
        }
        let out_s = ExecModel::Simplified.advance(&mut simplified, x);
        let out_c = ExecModel::Capacity { cost_factor: 2 }.advance(&mut capacity, x);
        if out_s != out_c || simplified.fingerprint() != capacity.fingerprint() {
            diverged = true;
            break;
        }
    }
    assert!(
        diverged,
        "cost factor 2 should break the lock-step identity"
    );
}

/// The steady-box menus the identity tests above use, replayed at the
/// trace level: capacity-simulated and capacity-analytic must be in
/// strict lock-step — per-box history included — on every corpus
/// algorithm, completing the three-way equivalence chain.
#[test]
fn capacity_simulated_and_capacity_analytic_are_lock_step() {
    for algo in TraceAlgo::ALL {
        let st = summarized(algo, 16, 4);
        let rho = algo.potential();
        for x in [1u64, 4, 16, 64, 256] {
            let profile = SquareProfile::new(vec![x]).expect("positive box");
            let (sim_report, sim_boxes) =
                replay_square_profile_history(st.program(), &mut profile.cycle(), rho);
            let (ana_report, ana_boxes) =
                analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
            assert_eq!(
                sim_boxes,
                ana_boxes,
                "{} steady x={x}: backends diverged per box",
                algo.label()
            );
            assert_eq!(sim_report, ana_report);
        }
    }
}

/// Dominance transfers to the analytic backend: on mixed menus the
/// capacity-analytic replay tracks the simulator exactly (not merely
/// pointwise-at-least, as simplified-vs-capacity does), so the weaker
/// No-Catch-up bound holds of it trivially. Randomized menus mirror the
/// arbitrary-mix test above.
#[test]
fn analytic_backend_obeys_the_three_way_ordering_on_random_menus() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA3_3BAC);
    for _ in 0..20 {
        let algo = TraceAlgo::ALL[rng.gen_range(0..TraceAlgo::ALL.len())];
        let st = summarized(algo, 16, 4);
        let rho = algo.potential();
        let len = rng.gen_range(1..=5);
        let menu: Vec<u64> = (0..len).map(|_| rng.gen_range(1..=64)).collect();
        let profile = SquareProfile::new(menu.clone()).expect("positive boxes");
        let (sim, sim_boxes) =
            replay_square_profile_history(st.program(), &mut profile.cycle(), rho);
        let (ana, ana_boxes) =
            analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
        assert_eq!(sim_boxes, ana_boxes, "{} menu {menu:?}", algo.label());
        assert_eq!(sim, ana);
        // And the DAM lower bound: a box-cleared capacity replay can
        // never beat a fixed cache as large as its largest box.
        let fixed = analytic_fixed(st.summary(), sim.max_box);
        assert!(sim.total_io >= fixed.io, "{} menu {menu:?}", algo.label());
    }
}
