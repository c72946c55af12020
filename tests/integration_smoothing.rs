//! Cross-crate integration: Theorem 1 (smoothing) and the §4 robustness
//! results, end-to-end through distributions → Monte Carlo → growth
//! classification.

// Exact float equality is deliberate: outputs must be bit-identical.
#![allow(clippy::float_cmp)]

use cadapt::prelude::*;
use cadapt::profiles::dist::PermutationSource;
use cadapt::profiles::perturb::{random_cyclic_shift, SizePerturbedSource, UniformMultiplier};

/// `trials` Monte-Carlo trials from stream `seed`.
fn mc(trials: u64, seed: u64) -> McConfig {
    McConfig {
        trials,
        seed,
        ..McConfig::default()
    }
}

/// (log_b n, mean ratio) at each canonical size, the mean from
/// `mean_at(n)`.
fn mean_ratio_series(
    params: AbcParams,
    ks: std::ops::RangeInclusive<u32>,
    mean_at: impl Fn(u64) -> f64,
) -> Vec<(f64, f64)> {
    let b = params.b() as f64;
    ks.map(|k| {
        let n = params.canonical_size(k);
        ((n as f64).ln() / b.ln(), mean_at(n))
    })
    .collect()
}

/// Theorem 1 across four qualitatively different distributions and two
/// algorithms: the expected ratio never classifies as logarithmic and
/// stays under a small constant.
#[test]
fn iid_smoothing_is_constant_for_diverse_sigmas() {
    for params in [AbcParams::mm_scan(), AbcParams::strassen()] {
        let n_max = params.canonical_size(6);
        let dists: Vec<Box<dyn BoxDist>> = vec![
            Box::new(UniformBoxes::new(1, n_max)),
            Box::new(PowerOfB::new(params.b(), 0, 6)),
            Box::new(PowerLawBoxes::new(params.b(), 0, 6, 1.5)),
            Box::new(LogUniform::new(1, n_max)),
        ];
        for dist in &dists {
            let mut points = Vec::new();
            for k in 2..=6u32 {
                let n = params.canonical_size(k);
                // 64 trials per point: the increment-trend rule in
                // classify_growth sits near its threshold for converging
                // series, and 24 trials leaves enough noise to flip it.
                let summary = monte_carlo_ratio(params, n, &mc(64, 11), |rng| {
                    DistSource::new(dist.as_ref(), rng)
                })
                .unwrap();
                points.push((f64::from(k), summary.ratio.mean));
            }
            let (class, fit) = classify_growth(&points);
            assert_ne!(
                class,
                GrowthClass::Logarithmic,
                "{params} / {}: slope {}",
                dist.label(),
                fit.slope
            );
            let max = points.iter().map(|p| p.1).fold(0.0, f64::max);
            assert!(max < 8.0, "{params} / {}: max {max}", dist.label());
        }
    }
}

/// The headline in one assertion: at n = 4^7, the canonical order pays 8x,
/// the shuffled multiset pays ~2x.
#[test]
fn shuffling_the_adversary_beats_the_adversary() {
    let params = AbcParams::mm_scan();
    let n = params.canonical_size(7);
    let worst = WorstCase::for_problem(&params, n).unwrap();
    let canonical = {
        let mut source = worst.source();
        run_on_profile(params, n, &mut source, &RunConfig::default())
            .unwrap()
            .ratio()
    };
    let dist = EmpiricalMultiset::from_counts(&worst.box_multiset(), "shuffled");
    let shuffled = monte_carlo_ratio(params, n, &mc(32, 7), |rng| {
        DistSource::new(dist.clone(), rng)
    })
    .unwrap();
    assert!((canonical - 8.0).abs() < 1e-9);
    assert!(
        shuffled.ratio.mean < 3.0,
        "shuffled mean {}",
        shuffled.ratio.mean
    );
    assert!(canonical > 2.5 * shuffled.ratio.mean);
}

/// Without-replacement permutation behaves like i.i.d. resampling (the A1
/// ablation, asserted end-to-end).
#[test]
fn permutation_matches_iid_within_noise() {
    let params = AbcParams::mm_scan();
    let n = params.canonical_size(6);
    let worst = WorstCase::for_problem(&params, n).unwrap();
    let profile = worst.materialize();
    let perm_stats = monte_carlo_ratio(params, n, &mc(24, 21), |rng| {
        PermutationSource::new(&profile, rng)
    })
    .unwrap()
    .ratio;
    let dist = EmpiricalMultiset::from_counts(&worst.box_multiset(), "iid");
    let iid = monte_carlo_ratio(params, n, &mc(24, 22), |rng| {
        DistSource::new(dist.clone(), rng)
    })
    .unwrap();
    let diff = (perm_stats.mean - iid.ratio.mean).abs();
    let tolerance = 4.0 * (perm_stats.ci95() + iid.ratio.ci95()) + 0.25;
    assert!(
        diff < tolerance,
        "permutation {} vs iid {}",
        perm_stats.mean,
        iid.ratio.mean
    );
}

/// §4 robustness: U[0, t] size noise leaves the profile worst-case — the
/// mean ratio keeps growing with n.
#[test]
fn size_noise_does_not_rescue() {
    let params = AbcParams::mm_scan();
    let points = mean_ratio_series(params, 3..=6, |n| {
        let worst = WorstCase::for_problem(&params, n).unwrap();
        monte_carlo_ratio(params, n, &mc(16, 31), |rng| {
            SizePerturbedSource::new(worst.source(), UniformMultiplier { t: 2.0 }, rng)
        })
        .unwrap()
        .ratio
        .mean
    });
    for w in points.windows(2) {
        assert!(w[1].1 > w[0].1 + 0.3, "growth stalled: {points:?}");
    }
}

/// §4 robustness: random cyclic start shifts leave the profile worst-case
/// in expectation.
#[test]
fn start_shift_does_not_rescue() {
    let params = AbcParams::mm_scan();
    let points = mean_ratio_series(params, 3..=6, |n| {
        let profile = WorstCase::for_problem(&params, n).unwrap().materialize();
        monte_carlo_ratio(params, n, &mc(16, 41), |mut rng| {
            random_cyclic_shift(&profile, &mut rng)
        })
        .unwrap()
        .ratio
        .mean
    });
    // With 16 trials the series is noisy; assert sustained growth
    // directly: total rise of at least half the canonical slope.
    let rise = points.last().unwrap().1 - points[0].1;
    let span = points.last().unwrap().0 - points[0].0;
    assert!(
        rise / span > 0.4,
        "start shifts should stay adversarial: {points:?}"
    );
}

/// Monte-Carlo reproducibility across the public API: identical seeds give
/// identical summaries; different seeds do not.
#[test]
fn monte_carlo_is_seed_deterministic() {
    let params = AbcParams::co_dp();
    let n = params.canonical_size(8);
    let run = |seed| {
        monte_carlo_ratio(params, n, &mc(16, seed), |rng| {
            DistSource::new(PowerOfB::new(2, 0, 8), rng)
        })
        .unwrap()
    };
    assert_eq!(run(5).ratio, run(5).ratio);
    assert_ne!(run(5).ratio.mean, run(6).ratio.mean);
}
