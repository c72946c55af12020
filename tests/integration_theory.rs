//! Cross-crate integration: the coded theory (recurrence, potential,
//! stopping times) against the measured simulator.

use cadapt::analysis::recurrence::{recurrence_bounds, DiscreteSigma};
use cadapt::prelude::*;
use cadapt::recursion::no_catchup::no_catchup_holds;
use cadapt::recursion::probe::{empirical_potential, probe_offsets};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The Lemma 3 recurrence brackets the measured expected box count for
/// every discrete Σ we can express, at every problem size.
#[test]
fn recurrence_brackets_measurement() {
    let params = AbcParams::mm_scan();
    let k_hi = 6u32;
    let dists: Vec<Box<dyn BoxDist>> = vec![
        Box::new(PointMass { size: 1 }),
        Box::new(PointMass { size: 64 }),
        Box::new(PowerOfB::new(4, 0, k_hi)),
        Box::new(PowerLawBoxes::new(4, 0, k_hi, 1.0)),
        Box::new(PowerLawBoxes::new(4, 0, k_hi, 2.0)),
    ];
    for dist in &dists {
        let sigma = DiscreteSigma::from_dist(dist.as_ref()).unwrap();
        let bounds = recurrence_bounds(params.a(), params.b(), &sigma, k_hi);
        for k in 2..=k_hi {
            let n = params.canonical_size(k);
            let config = McConfig {
                trials: 64,
                seed: 0x7E0,
                ..McConfig::default()
            };
            let summary = monte_carlo_ratio(params, n, &config, |rng| {
                DistSource::new(dist.as_ref(), rng)
            })
            .unwrap();
            let rb = &bounds[k as usize];
            let slack = summary.boxes.ci95();
            assert!(
                summary.boxes.mean + slack >= rb.f_lo && summary.boxes.mean - slack <= rb.f_hi,
                "{} n={n}: measured {} outside [{}, {}]",
                dist.label(),
                summary.boxes.mean,
                rb.f_lo,
                rb.f_hi
            );
        }
    }
}

/// Eq. 3's martingale accounting (Wald): E[Σ min(n,|□|)^e] = E[S_n] · m_n,
/// measured for a heavy-tailed Σ.
#[test]
fn wald_identity_end_to_end() {
    let params = AbcParams::strassen();
    let n = params.canonical_size(5);
    let dist = PowerLawBoxes::new(4, 0, 5, 1.0);
    let sigma = DiscreteSigma::from_dist(&dist).unwrap();
    let m_n = sigma.average_bounded_potential(&params.potential(), n);
    let config = McConfig {
        trials: 512,
        seed: 0x3A1D,
        ..McConfig::default()
    };
    let summary =
        monte_carlo_ratio(params, n, &config, |rng| DistSource::new(dist.clone(), rng)).unwrap();
    let lhs = summary.bounded_potential.mean;
    let rhs = summary.boxes.mean * m_n;
    let tolerance = 5.0 * (summary.bounded_potential.std_err() + summary.boxes.std_err() * m_n);
    assert!(
        (lhs - rhs).abs() < tolerance,
        "Wald: {lhs} vs {rhs} (tol {tolerance})"
    );
}

/// Lemma 1, measured across algorithms: the best progress of a size-x box
/// equals x^{log_b a} exactly in the simplified model.
#[test]
fn potential_lemma_exact_in_simplified_model() {
    for params in [
        AbcParams::mm_scan(),
        AbcParams::strassen(),
        AbcParams::co_dp(),
    ] {
        let n = params.canonical_size(6);
        let cf = ClosedForms::for_size(params, n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let offsets = probe_offsets(cf.total_time(), 96, 96, &mut rng);
        for k in 0..=3u32 {
            let x = params.canonical_size(k);
            let sample =
                empirical_potential(params, n, x, ExecModel::Simplified, &offsets).unwrap();
            let rho = params.potential().eval(x);
            assert!(
                (sample.max_progress as f64 - rho).abs() < 1e-9,
                "{params} box {x}: measured {} vs rho {rho}",
                sample.max_progress
            );
        }
    }
}

/// The No-Catch-up Lemma holds across both execution models on larger
/// randomized instances than the unit proptests cover.
#[test]
fn no_catchup_at_scale() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xCA7C);
    use rand::Rng;
    for params in [AbcParams::mm_scan(), AbcParams::co_dp()] {
        let n = params.canonical_size(if params.b() == 2 { 10 } else { 5 });
        for model in [ExecModel::Simplified, ExecModel::capacity()] {
            for _ in 0..100 {
                let len = rng.gen_range(1..40);
                let boxes: Vec<u64> = (0..len).map(|_| rng.gen_range(1..=2 * n)).collect();
                let s1 = u128::from(rng.gen_range(0..3 * n));
                let s2 = u128::from(rng.gen_range(0..3 * n));
                assert!(
                    no_catchup_holds(params, n, &boxes, s1.min(s2), s1.max(s2), model).unwrap()
                );
            }
        }
    }
}

/// The taxonomy in miniature: a = b (two-way merge style) cannot escape a
/// logarithmic factor on the adversary, a < b measured by time is trivially
/// fine — footnotes 2 and 3 of the paper.
#[test]
fn boundary_cases_behave_as_footnoted() {
    // a = b = 4: leaf potential exponent is 1; the adversary still extracts
    // a log factor.
    let eq = AbcParams::a_equals_b();
    let mut ratios = Vec::new();
    for k in 2..=6u32 {
        let n = eq.canonical_size(k);
        let worst = WorstCase::for_problem(&eq, n).unwrap();
        let mut source = worst.source();
        let report = run_on_profile(eq, n, &mut source, &RunConfig::default()).unwrap();
        ratios.push(report.ratio());
    }
    for w in ratios.windows(2) {
        assert!(w[1] > w[0] + 0.5, "a=b must keep paying: {ratios:?}");
    }

    // a < b: the run needs only O(T(n)) I/Os of profile regardless.
    let lt = AbcParams::a_below_b();
    for k in 2..=6u32 {
        let n = lt.canonical_size(k);
        let total = ClosedForms::for_size(lt, n).unwrap().total_time();
        let worst = WorstCase::for_problem(&lt, n).unwrap();
        let mut source = worst.source();
        let config = RunConfig {
            model: ExecModel::capacity(),
            ..RunConfig::default()
        };
        let report = run_on_profile(lt, n, &mut source, &config).unwrap();
        let time_ratio = report.total_io as f64 / total as f64;
        assert!(time_ratio < 2.0, "k={k}: time ratio {time_ratio}");
    }
}
