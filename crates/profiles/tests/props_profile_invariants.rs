//! Property tests for the profile layer's conservation invariants.
//!
//! Every smoothing in §4 rearranges or rescales the adversary's boxes; none
//! may create or destroy work behind the analysis' back. These properties
//! pin that down for the three perturbation families:
//!
//! * permutation shuffle ([`PermutationSource`]) — a without-replacement
//!   reshuffle must emit exactly the original multiset, every cycle;
//! * cyclic start shift ([`random_cyclic_shift`]) — the shifted cycle
//!   must stream a rotation of the profile, box for box the one that
//!   rotating a copy by the same drawn time gives;
//! * size perturbation ([`SizePerturbedSource`]) — a multiplier in [0, t]
//!   must keep every box within [1, round(base · t)] and stay aligned
//!   one-to-one with the inner source.
//!
//! Plus the memoized profile store's contract: a cached handle is
//! bit-identical to fresh construction for every key it can hold.

// Test-only code: casts cover toy-sized inputs.
#![allow(clippy::cast_possible_truncation)]

use cadapt_core::{BoxSource, Io, SquareProfile};
use cadapt_profiles::contention::sawtooth;
use cadapt_profiles::dist::PermutationSource;
use cadapt_profiles::perturb::{random_cyclic_shift, SizePerturbedSource, UniformMultiplier};
use cadapt_profiles::{sawtooth_squares, worst_case_squares, WorstCase};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn take<S: BoxSource>(source: &mut S, count: usize) -> Vec<u64> {
    (0..count).map(|_| source.next_box()).collect()
}

proptest! {
    #[test]
    fn permutation_shuffle_conserves_the_multiset(
        boxes in proptest::collection::vec(1u64..512, 1..24),
        seed in 0u64..1_000_000,
    ) {
        let profile = SquareProfile::new(boxes.clone()).unwrap();
        let mut source = PermutationSource::new(&profile, ChaCha8Rng::seed_from_u64(seed));
        // Two full cycles: the source reshuffles when exhausted, and each
        // cycle must again be exactly the original multiset.
        let first = take(&mut source, boxes.len());
        let second = take(&mut source, boxes.len());
        prop_assert_eq!(sorted(first), sorted(boxes.clone()));
        prop_assert_eq!(sorted(second), sorted(boxes));
    }

    #[test]
    fn cyclic_shift_is_a_rotation(
        boxes in proptest::collection::vec(1u64..512, 1..24),
        seed in 0u64..1_000_000,
    ) {
        let profile = SquareProfile::new(boxes.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Two periods: the cycle must wrap back to where it started.
        let shifted = take(&mut random_cyclic_shift(&profile, &mut rng), 2 * boxes.len());
        let (first, second) = shifted.split_at(boxes.len());
        prop_assert_eq!(first, second);
        prop_assert_eq!(sorted(first.to_vec()), sorted(boxes.clone()));
        // Stronger than multiset equality: one period is literally some
        // rotation of the original sequence.
        let is_rotation = (0..boxes.len()).any(|k| {
            boxes[k..]
                .iter()
                .chain(&boxes[..k])
                .copied()
                .eq(first.iter().copied())
        });
        prop_assert!(is_rotation, "shift produced a non-rotation: {first:?}");
    }

    #[test]
    fn cyclic_shift_streams_the_rotated_copy(
        boxes in proptest::collection::vec(1u64..16, 1..24),
        seed in 0u64..1_000_000,
        count in 1usize..120,
    ) {
        // The reference is the shift as it was once built: the same two
        // draws, then a rotated copy of the profile, cycled.
        let profile = SquareProfile::new(boxes).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        let wide = (u128::from(reference_rng.next_u64()) << 64)
            | u128::from(reference_rng.next_u64());
        let rotated = profile.rotated_by_time(wide % profile.total_time());
        let mut shifted = random_cyclic_shift(&profile, &mut rng);
        let mut reference = rotated.cycle();
        // Mix run and per-box calls; runs are cut where the count ends.
        let mut got = Vec::new();
        while got.len() < count {
            let run = shifted.next_run();
            let take = (count - got.len()).min(usize::try_from(run.repeat).unwrap_or(count));
            got.extend(std::iter::repeat_n(run.size, take));
            if got.len() < count {
                got.push(shifted.next_box());
            }
        }
        prop_assert_eq!(got, take(&mut reference, count));
        // Both consumed the same words of the trial's stream.
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
    }

    #[test]
    fn size_perturbation_conserves_count_and_bounds(
        boxes in proptest::collection::vec(1u64..512, 1..24),
        t in 1.0f64..8.0,
        seed in 0u64..1_000_000,
    ) {
        let profile = SquareProfile::new(boxes.clone()).unwrap();
        let mut source = SizePerturbedSource::new(
            profile.cycle(),
            UniformMultiplier { t },
            ChaCha8Rng::seed_from_u64(seed),
        );
        // One perturbed box per inner box, each clamped to ≥ 1 and bounded
        // by its own base size times the multiplier's upper end.
        for (i, &base) in boxes.iter().enumerate() {
            let perturbed = source.next_box();
            prop_assert!(perturbed >= 1, "box {i} collapsed to zero");
            let hi = (base as f64 * t).round().max(1.0) as u64;
            prop_assert!(
                perturbed <= hi,
                "box {i}: {perturbed} exceeds base {base} x t {t}"
            );
        }
    }

    #[test]
    fn worst_case_multiset_matches_its_materialisation(
        a in 2u64..5,
        b in 2u64..4,
        min_size in 1u64..4,
        depth in 1u32..5,
    ) {
        let wc = WorstCase::new(a, b, min_size, depth).unwrap();
        let materialised = wc.materialize();
        prop_assert_eq!(wc.num_boxes() as usize, materialised.len());
        // The closed-form multiset and the emitted profile agree box for
        // box — the construction neither invents nor drops work.
        let mut expanded: Vec<u64> = Vec::new();
        for (size, count) in wc.box_multiset() {
            for _ in 0..count {
                expanded.push(size);
            }
        }
        prop_assert_eq!(sorted(expanded), sorted(materialised.into_boxes()));
    }

    #[test]
    fn cached_worst_case_matches_fresh_construction(
        a in 2u64..5,
        b in 2u64..4,
        min_size in 1u64..4,
        depth in 1u32..5,
    ) {
        let wc = WorstCase::new(a, b, min_size, depth).unwrap();
        let cached = worst_case_squares(&wc);
        let fresh = wc.materialize();
        // A cache hit must be indistinguishable from building the profile
        // here and now — the store may only save wall time, never change
        // a box.
        prop_assert_eq!(cached.boxes(), fresh.boxes());
        prop_assert_eq!(cached.total_time(), fresh.total_time());
    }

    #[test]
    fn cached_sawtooth_matches_fresh_construction(
        m_min in 1u64..4,
        m_max_mult in 2u64..6,
        plateau in 1u64..64,
        duration_mult in 2u64..8,
    ) {
        // Derive well-formed parameters: m_max > m_min, duration spans
        // several plateaus.
        let m_max = m_min * m_max_mult * 8;
        let plateau = Io::from(plateau);
        let duration = plateau * Io::from(duration_mult * 16);
        let cached = sawtooth_squares(m_min, m_max, plateau, duration);
        let fresh = sawtooth(m_min, m_max, plateau, duration).inner_squares();
        prop_assert_eq!(cached.boxes(), fresh.boxes());
        prop_assert_eq!(cached.total_time(), fresh.total_time());
    }
}
