//! **E2 — i.i.d. smoothing closes the gap** (Theorem 1/3, the main result).
//!
//! For each algorithm in the gap regime and a deliberately diverse family
//! of box-size distributions Σ — including the empirical multiset of the
//! algorithm's own worst-case profile ("reshuffle the adversary") — draw
//! boxes i.i.d. from Σ and measure the expected adaptivity ratio across a
//! problem-size sweep. Theorem 1 predicts every series is O(1); contrast
//! with E1's Θ(log_b n) on the *ordered* version of the very same box
//! multiset.

use super::common::{log_b, size_sweep, RatioSeries};
use crate::{BenchError, Scale};
use cadapt_analysis::table::fnum;
use cadapt_analysis::{monte_carlo_ratio, McConfig, Table};
use cadapt_profiles::dist::{
    BoxDist, DistSource, EmpiricalMultiset, LogUniform, ParetoBoxes, PointMass, PowerLawBoxes,
    PowerOfB, UniformBoxes,
};
use cadapt_profiles::WorstCase;
use cadapt_recursion::AbcParams;

/// Result of E2.
#[derive(Debug)]
pub struct E2Result {
    /// Per-row measurements.
    pub table: Table,
    /// One classified series per (algorithm, distribution).
    pub series: Vec<RatioSeries>,
}

/// The distribution family for an algorithm with shrink factor b and
/// maximum problem size `n_max`. The empirical multiset is added per size
/// inside [`run`] (it depends on n).
fn family(b: u64, n_max: u64) -> Vec<Box<dyn BoxDist>> {
    let k_max = cadapt_core::potential::exact_log(b, n_max).unwrap_or(8);
    vec![
        Box::new(PointMass {
            size: (n_max / b).max(1),
        }),
        Box::new(UniformBoxes::new(1, n_max)),
        Box::new(PowerOfB::new(b, 0, k_max)),
        Box::new(PowerLawBoxes::new(b, 0, k_max, 1.0)),
        Box::new(ParetoBoxes::new(1.2, 1, 4 * n_max)),
        Box::new(LogUniform::new(1, n_max)),
    ]
}

/// Algorithms measured by E2.
fn algorithms(scale: Scale) -> Result<Vec<(&'static str, AbcParams)>, BenchError> {
    let mut v = vec![
        ("MM-Scan (8,4,1)", AbcParams::mm_scan()),
        ("CO-DP (3,2,1)", AbcParams::co_dp()),
    ];
    if matches!(scale, Scale::Full) {
        v.push(("Strassen (7,4,1)", AbcParams::strassen()));
        v.push(("(16,4,1)", AbcParams::new(16, 4, 1.0, 1)?));
    }
    Ok(v)
}

/// Run E2 with the default thread budget (all cores).
///
/// # Errors
///
/// Propagates a Monte-Carlo failure, keyed by the offending trial.
pub fn run(scale: Scale) -> Result<E2Result, BenchError> {
    run_threaded(scale, 0)
}

/// Run E2 with an explicit worker budget for the Monte-Carlo trial
/// fan-out (0 = available parallelism).
///
/// # Errors
///
/// Propagates a Monte-Carlo failure, keyed by the offending trial.
pub fn run_threaded(scale: Scale, threads: usize) -> Result<E2Result, BenchError> {
    let trials = scale.pick(24, 96);
    let mut table = Table::new(
        "E2: expected adaptivity ratio under i.i.d. box-size distributions",
        &[
            "algorithm",
            "distribution",
            "n",
            "ratio",
            "ci95",
            "E[boxes]",
        ],
    );
    let mut series = Vec::new();
    for (label, params) in algorithms(scale)? {
        // Deep sweeps are what separate transient growth from a real gap;
        // small b needs more levels to cover the same size range, while
        // high exponents (total work n^{log_b a}) cap how deep is feasible.
        let k_hi = if params.exponent() >= 2.0 {
            scale.pick(4, 5)
        } else if params.b() == 2 {
            scale.pick(10, 13)
        } else {
            scale.pick(6, 7)
        };
        let sizes = size_sweep(&params, 2, k_hi, u64::MAX);
        let n_max = *sizes
            .last()
            .ok_or_else(|| BenchError::invariant(format!("E2 {label}: empty size sweep")))?;
        let mut dists = family(params.b(), n_max);
        // The headline distribution: the adversary's own box multiset.
        let wc = WorstCase::for_problem(&params, n_max)?;
        dists.push(Box::new(EmpiricalMultiset::from_counts(
            &wc.box_multiset(),
            format!("shuffled M_{{{},{}}}", params.a(), params.b()),
        )));
        for dist in &dists {
            // Distributions with large typical boxes are cheap to simulate;
            // extend their sweep past the distribution's ceiling so the
            // boundary bump at n = n_max visibly plateaus (Theorem 1 is
            // about fixed Σ and growing n). Estimate cheapness by sampling.
            let mut probe_rng = cadapt_analysis::montecarlo::trial_rng(0xE2AB, 0);
            let mean_box: f64 = (0..512)
                .map(|_| dist.sample(&mut probe_rng) as f64)
                .sum::<f64>()
                / 512.0;
            let mut sizes = sizes.clone();
            if mean_box >= n_max as f64 / 64.0 {
                sizes.push(n_max * params.b());
                sizes.push(n_max * params.b() * params.b());
            }
            let mut points = Vec::new();
            for &n in &sizes {
                let config = McConfig {
                    trials,
                    seed: 0xE2,
                    threads,
                    ..McConfig::default()
                };
                let summary = monte_carlo_ratio(params, n, &config, |rng| {
                    DistSource::new(dist.as_ref(), rng)
                })?;
                table.push_row(vec![
                    label.to_string(),
                    dist.label(),
                    n.to_string(),
                    fnum(summary.ratio.mean),
                    fnum(summary.ratio.ci95()),
                    fnum(summary.boxes.mean),
                ]);
                points.push((log_b(&params, n), summary.ratio.mean));
            }
            series.push(RatioSeries::classify(
                format!("{label} / {}", dist.label()),
                points,
            ));
        }
    }
    Ok(E2Result { table, series })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_analysis::GrowthClass;

    #[test]
    fn every_distribution_is_constant() {
        let result = run(Scale::Quick).expect("e2 runs");
        assert!(!result.series.is_empty());
        for s in &result.series {
            assert_ne!(
                s.class,
                GrowthClass::Logarithmic,
                "{} grew logarithmically (slope {})",
                s.label,
                s.fit.slope
            );
            // Ratios are bounded by a modest constant throughout.
            let max = s.points.iter().map(|p| p.1).fold(0.0, f64::max);
            assert!(max < 12.0, "{}: max ratio {max}", s.label);
        }
    }

    #[test]
    fn shuffled_worst_case_is_among_the_series() {
        let result = run(Scale::Quick).expect("e2 runs");
        assert!(
            result
                .series
                .iter()
                .any(|s| s.label.contains("shuffled M_")),
            "the reshuffled adversarial multiset must be tested"
        );
    }
}

/// Registry adapter: E2 through the experiment engine.
#[derive(Debug)]
pub struct Exp;

impl crate::harness::Experiment for Exp {
    fn id(&self) -> &'static str {
        "e2"
    }
    fn title(&self) -> &'static str {
        "I.i.d. smoothing across distributions (Theorem 1)"
    }
    fn deterministic(&self) -> bool {
        false // compared by CI overlap: goldens stay robust to trial-count retunings
    }
    fn run(&self, ctx: crate::ExpCtx) -> Result<crate::harness::ExperimentOutput, BenchError> {
        let result = run_threaded(ctx.scale, ctx.threads)?;
        let mut metrics = Vec::new();
        for series in &result.series {
            crate::harness::push_series(&mut metrics, "series", series);
        }
        Ok(crate::harness::ExperimentOutput {
            metrics,
            tables: vec![result.table.render()],
        })
    }
}
