//! Which randomness rescues adaptivity? (§4 of the paper, executable.)
//!
//! Starting from the adversarial profile M_{8,4}(n), apply each smoothing
//! the paper considers and measure the expected adaptivity ratio at two
//! problem sizes. The paper's dichotomy appears directly:
//!
//! * i.i.d. reshuffling (and without-replacement permutation) — rescued;
//! * box-size noise U[0,t] — still adversarial;
//! * random cyclic start shift — still adversarial;
//! * box-order (big-box placement) perturbation — keeps a logarithmic
//!   floor (slope 1/a) though the full slope-1 gap softens.
//!
//! Run with: `cargo run --release --example smoothing_rescue`

use cadapt::prelude::*;
use cadapt::profiles::dist::PermutationSource;
use cadapt::profiles::perturb::{
    random_cyclic_shift, BoxOrderPerturbedSource, RandomPlacement, SizePerturbedSource,
    UniformMultiplier,
};
use rand_chacha::ChaCha8Rng;

const TRIALS: u64 = 24;

/// Mean ratio over `TRIALS` trials whose profiles `make` draws from
/// streams of `seed`.
fn mean_ratio<S: BoxSource>(
    params: AbcParams,
    n: Blocks,
    seed: u64,
    make: impl Fn(ChaCha8Rng) -> S + Sync,
) -> f64 {
    let config = McConfig {
        trials: TRIALS,
        seed,
        ..McConfig::default()
    };
    let summary = monte_carlo_ratio(params, n, &config, make).expect("runs complete");
    summary.ratio.mean
}

fn main() {
    let params = AbcParams::mm_scan();
    let sizes = [params.canonical_size(5), params.canonical_size(7)];
    println!(
        "{:<28} {:>14} {:>14}   verdict",
        "smoothing", "R(4^5)", "R(4^7)"
    );

    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for &n in &sizes {
        let worst = WorstCase::for_problem(&params, n).expect("canonical size");
        let profile = worst.materialize();
        let multiset = EmpiricalMultiset::from_counts(&worst.box_multiset(), "iid");

        let entries: Vec<(&str, f64)> = vec![
            ("none (canonical order)", {
                let mut source = worst.source();
                let r = run_on_profile(params, n, &mut source, &RunConfig::default())
                    .expect("run completes");
                r.ratio()
            }),
            (
                "iid reshuffle (Thm 1)",
                mean_ratio(params, n, 1, |rng| DistSource::new(multiset.clone(), rng)),
            ),
            (
                "random permutation",
                mean_ratio(params, n, 2, |rng| PermutationSource::new(&profile, rng)),
            ),
            (
                "box sizes x U[0,2]",
                mean_ratio(params, n, 3, |rng| {
                    SizePerturbedSource::new(worst.source(), UniformMultiplier { t: 2.0 }, rng)
                }),
            ),
            (
                "random start shift",
                mean_ratio(params, n, 4, |mut rng| {
                    random_cyclic_shift(&profile, &mut rng)
                }),
            ),
            (
                "random big-box placement",
                mean_ratio(params, n, 5, |rng| {
                    BoxOrderPerturbedSource::new(worst, RandomPlacement(rng))
                }),
            ),
        ];
        for (label, mean) in entries {
            match rows.iter_mut().find(|(l, _)| l == label) {
                Some((_, values)) => values.push(mean),
                None => rows.push((label.to_string(), vec![mean])),
            }
        }
    }

    for (label, values) in rows {
        let verdict = if label.contains("placement") {
            // E5's finding: the mean flattens but every sample keeps a
            // logarithmic floor of slope 1/a.
            "softened (log floor, slope 1/a)"
        } else if values[1] < 3.0 {
            "rescued (Θ(1))"
        } else {
            "still adversarial"
        };
        println!(
            "{label:<28} {:>14.3} {:>14.3}   {verdict}",
            values[0], values[1]
        );
    }
    println!();
    println!("Only destroying the box ORDER closes the gap. Noise in sizes or");
    println!("start time leaves enough structure for the algorithm to re-sync");
    println!("with the adversary (the paper's No-Catch-up machinery at work).");
}
