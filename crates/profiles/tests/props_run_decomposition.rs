//! Property tests for the run-decomposition law (cursor law 1).
//!
//! Every [`BoxSource`]'s `next_run` stream, expanded run by run, must
//! concatenate to *exactly* the per-box stream an identically-seeded twin
//! produces via `next_box` — for every source family in the workspace and
//! through every cursor combinator. This is the contract the run-length
//! fast path, the streaming cursor drivers, and the closed-form batch
//! advancement all assume; a single off-by-one here silently corrupts
//! adaptivity ratios.
//!
//! The expansion helper also re-checks run positivity (`repeat ≥ 1`,
//! `size ≥ 1`) on every yielded run — the invariant `SourceCursor`
//! `debug_assert!`s at the pipeline mouth.

// Test-only code: casts cover toy-sized inputs.
#![allow(clippy::cast_possible_truncation)]

use cadapt_core::cursor::{RunCursor, RunCursorExt};
use cadapt_core::profile::{ConstantSource, CycleSource};
use cadapt_core::{Blocks, BoxSource, SquareProfile};
use cadapt_profiles::dist::{
    DistSource, LogUniform, PermutationSource, PointMass, PowerOfB, UniformBoxes,
};
use cadapt_profiles::perturb::{
    ConstantFactorJiggle, MultiplierDist, SizePerturbedSource, UniformMultiplier,
};
use cadapt_profiles::scenario::RoundRobin;
use cadapt_profiles::{MatchedWorstCase, WorstCase};
use cadapt_recursion::AbcParams;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Expand `count` boxes out of the source's run stream, checking run
/// positivity along the way.
fn expand_runs<S: BoxSource>(source: &mut S, count: usize) -> Vec<Blocks> {
    let mut out = Vec::new();
    while out.len() < count {
        let run = source.next_run();
        assert!(run.repeat >= 1, "source yielded an empty run");
        assert!(run.size >= 1, "source yielded a zero-sized box");
        let take = (count - out.len()).min(usize::try_from(run.repeat).unwrap_or(count));
        out.extend(std::iter::repeat_n(run.size, take));
    }
    out
}

/// Expand `count` boxes out of a cursor pipeline.
fn expand_cursor<C: RunCursor>(cursor: &mut C, count: usize) -> Vec<Blocks> {
    let mut out = Vec::new();
    while out.len() < count {
        match cursor.next_run().expect("no token in these pipelines") {
            Some(run) => {
                assert!(run.repeat >= 1 && run.size >= 1, "bad run {run:?}");
                let take = (count - out.len()).min(usize::try_from(run.repeat).unwrap_or(count));
                out.extend(std::iter::repeat_n(run.size, take));
            }
            None => break,
        }
    }
    out
}

/// Per-box reference stream.
fn expand_boxes<S: BoxSource>(source: &mut S, count: usize) -> Vec<Blocks> {
    (0..count).map(|_| source.next_box()).collect()
}

/// `p`'s boxes, cycled and perturbed by `mult` from a seeded stream.
fn perturbed<M: MultiplierDist>(
    p: &SquareProfile,
    mult: M,
    seed: u64,
) -> SizePerturbedSource<CycleSource<&[Blocks]>, M, ChaCha8Rng> {
    SizePerturbedSource::new(p.cycle(), mult, ChaCha8Rng::seed_from_u64(seed))
}

#[test]
fn size_perturbed_unit_boxes_form_runs() {
    // At t = 2 a unit box becomes 1 with probability 3/4 and 2 with
    // probability 1/4, so neighbours agree 62.5% of the time.
    let unit = SquareProfile::new(vec![1]).unwrap();
    let mut source = perturbed(&unit, UniformMultiplier { t: 2.0 }, 1);
    let runs: Vec<_> = (0..1000).map(|_| source.next_run()).collect();
    let multi = runs.iter().filter(|r| r.repeat > 1).count();
    assert!(
        multi > 300,
        "only {multi} of 1000 runs hold more than one box"
    );
    assert!(runs.iter().all(|r| r.size == 1 || r.size == 2));
}

proptest! {
    #[test]
    fn cycle_source_decomposes(
        boxes in proptest::collection::vec(1u64..64, 1..20),
        count in 1usize..200,
    ) {
        let p = SquareProfile::new(boxes).unwrap();
        let by_run = expand_runs(&mut p.cycle(), count);
        let by_box = expand_boxes(&mut p.cycle(), count);
        prop_assert_eq!(by_run, by_box);
    }

    #[test]
    fn extended_source_decomposes(
        boxes in proptest::collection::vec(1u64..64, 1..20),
        filler in 1u64..64,
        count in 1usize..200,
    ) {
        let p = SquareProfile::new(boxes).unwrap();
        let by_run = expand_runs(&mut p.extended(filler), count);
        let by_box = expand_boxes(&mut p.extended(filler), count);
        prop_assert_eq!(by_run, by_box);
    }

    #[test]
    fn worst_case_source_decomposes(
        a in 2u64..5,
        b in 2u64..4,
        min_size in 1u64..4,
        depth in 0u32..5,
        count in 1usize..300,
    ) {
        let wc = WorstCase::new(a, b, min_size, depth).unwrap();
        let by_run = expand_runs(&mut wc.source(), count);
        let by_box = expand_boxes(&mut wc.source(), count);
        prop_assert_eq!(by_run, by_box);
    }

    #[test]
    fn matched_worst_case_decomposes(count in 1usize..200) {
        let mut by_run = MatchedWorstCase::new(AbcParams::mm_scan(), 256).unwrap();
        let mut by_box = MatchedWorstCase::new(AbcParams::mm_scan(), 256).unwrap();
        let runs = expand_runs(&mut by_run, count);
        prop_assert_eq!(runs, expand_boxes(&mut by_box, count));
    }

    #[test]
    fn dist_sources_decompose(
        seed in 0u64..1_000_000,
        which in 0usize..4,
        count in 1usize..300,
    ) {
        // The i.i.d. run lookahead must consume RNG draws in exactly
        // per-box order, so seeded twins agree draw for draw.
        let run_rng = ChaCha8Rng::seed_from_u64(seed);
        let box_rng = ChaCha8Rng::seed_from_u64(seed);
        let (by_run, by_box) = match which {
            0 => (
                expand_runs(&mut DistSource::new(PointMass { size: 7 }, run_rng), count),
                expand_boxes(&mut DistSource::new(PointMass { size: 7 }, box_rng), count),
            ),
            1 => (
                expand_runs(&mut DistSource::new(PowerOfB::new(2, 0, 3), run_rng), count),
                expand_boxes(&mut DistSource::new(PowerOfB::new(2, 0, 3), box_rng), count),
            ),
            2 => (
                expand_runs(&mut DistSource::new(UniformBoxes::new(1, 4), run_rng), count),
                expand_boxes(&mut DistSource::new(UniformBoxes::new(1, 4), box_rng), count),
            ),
            _ => (
                expand_runs(&mut DistSource::new(LogUniform::new(1, 16), run_rng), count),
                expand_boxes(&mut DistSource::new(LogUniform::new(1, 16), box_rng), count),
            ),
        };
        prop_assert_eq!(by_run, by_box);
    }

    #[test]
    fn permutation_source_decomposes(
        boxes in proptest::collection::vec(1u64..64, 1..16),
        seed in 0u64..1_000_000,
        count in 1usize..100,
    ) {
        let p = SquareProfile::new(boxes).unwrap();
        let by_run = expand_runs(
            &mut PermutationSource::new(&p, ChaCha8Rng::seed_from_u64(seed)),
            count,
        );
        let by_box = expand_boxes(
            &mut PermutationSource::new(&p, ChaCha8Rng::seed_from_u64(seed)),
            count,
        );
        prop_assert_eq!(by_run, by_box);
    }

    #[test]
    fn size_perturbed_source_decomposes(
        boxes in proptest::collection::vec(1u64..64, 1..16),
        t in 1.0f64..4.0,
        jiggle in proptest::bool::ANY,
        seed in 0u64..1_000_000,
        count in 1usize..100,
    ) {
        // The one-box lookahead draws the inner box and its multiplier in
        // per-box order, so seeded twins agree box for box.
        let p = SquareProfile::new(boxes).unwrap();
        let (by_run, by_box) = if jiggle {
            let mult = ConstantFactorJiggle { s: t };
            (
                expand_runs(&mut perturbed(&p, mult, seed), count),
                expand_boxes(&mut perturbed(&p, mult, seed), count),
            )
        } else {
            let mult = UniformMultiplier { t };
            (
                expand_runs(&mut perturbed(&p, mult, seed), count),
                expand_boxes(&mut perturbed(&p, mult, seed), count),
            )
        };
        prop_assert_eq!(by_run, by_box);
    }

    #[test]
    fn size_perturbed_mixed_run_and_box_calls_preserve_stream(
        boxes in proptest::collection::vec(1u64..8, 1..16),
        t in 1.0f64..4.0,
        seed in 0u64..1_000_000,
        calls in proptest::collection::vec(proptest::bool::ANY, 1..60),
    ) {
        // Interleaved next_run / next_box: next_box must hand out the box
        // the lookahead buffered before drawing a new one.
        let p = SquareProfile::new(boxes).unwrap();
        let mult = UniformMultiplier { t };
        let mut mixed = perturbed(&p, mult, seed);
        let mut expanded = Vec::new();
        for run_call in calls {
            if run_call {
                let run = mixed.next_run();
                prop_assert!(run.repeat >= 1 && run.size >= 1, "bad run {:?}", run);
                let take = usize::try_from(run.repeat).unwrap();
                expanded.extend(std::iter::repeat_n(run.size, take));
            } else {
                expanded.push(mixed.next_box());
            }
        }
        let reference = expand_boxes(&mut perturbed(&p, mult, seed), expanded.len());
        prop_assert_eq!(expanded, reference);
    }

    #[test]
    fn combinator_pipelines_decompose(
        boxes in proptest::collection::vec(1u64..64, 1..12),
        cap in 1u64..32,
        chunk in 1u64..8,
        taken in 1u64..120,
    ) {
        // A full pipeline (throttle → interleave → take) must agree with
        // the straightforward per-box simulation of the same semantics.
        let p = SquareProfile::new(boxes.clone()).unwrap();
        let a = p.cycle().into_cursor().throttle(cap);
        let b = ConstantSource::new(cap).into_cursor();
        let mut pipeline = a.interleave(b, chunk).take_boxes(taken);
        let got = expand_cursor(&mut pipeline, usize::MAX >> 1);
        // Reference: expand per box by simulating slices by hand.
        let mut reference = Vec::new();
        let mut inner = p.cycle();
        let mut on_a = true;
        'outer: loop {
            for _ in 0..chunk {
                if reference.len() as u64 == taken {
                    break 'outer;
                }
                let size = if on_a { inner.next_box().min(cap) } else { cap };
                reference.push(size);
            }
            on_a = !on_a;
        }
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn round_robin_decomposes(
        sizes in proptest::collection::vec(1u64..64, 2..5),
        lens in proptest::collection::vec(1u64..40, 2..5),
        chunk in 1u64..6,
    ) {
        // N constant tenants with arbitrary lengths: the round-robin
        // stream must equal the hand-simulated slicing.
        let n = sizes.len().min(lens.len());
        let tenants: Vec<Box<dyn RunCursor>> = (0..n)
            .map(|i| {
                Box::new(ConstantSource::new(sizes[i]).into_cursor().take_boxes(lens[i]))
                    as Box<dyn RunCursor>
            })
            .collect();
        let mut rr = RoundRobin::new(tenants, chunk);
        let got = expand_cursor(&mut rr, usize::MAX >> 1);
        let mut left: Vec<u64> = lens[..n].to_vec();
        let mut reference = Vec::new();
        let mut i = 0usize;
        while left.iter().any(|&l| l > 0) {
            let take = chunk.min(left[i]);
            for _ in 0..take {
                reference.push(sizes[i]);
            }
            left[i] -= take;
            i = (i + 1) % n;
        }
        prop_assert_eq!(got, reference);
    }
}
