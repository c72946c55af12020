//! **E10 — realistic contention profiles behave like smoothed profiles.**
//!
//! The paper's introduction motivates adaptivity with real cache dynamics:
//! winner-take-all growth-and-crash allocations, and fair sharing among a
//! churning tenant population. Neither pattern tracks an algorithm's
//! recursive structure, so (per the smoothing intuition) MM-Scan should be
//! near-optimally adaptive on them — in contrast to the tailored E1
//! profile built from exactly the same range of box sizes.

use super::common::{log_b, size_sweep, RatioSeries};
use crate::{BenchError, Scale};
use cadapt_analysis::table::fnum;
use cadapt_analysis::{monte_carlo_ratio, McConfig, Table};
use cadapt_profiles::contention::multi_tenant;
use cadapt_profiles::perturb::random_cyclic_shift;
use cadapt_profiles::sawtooth_squares;
use cadapt_recursion::AbcParams;

/// Result of E10.
#[derive(Debug)]
pub struct E10Result {
    /// Printed table.
    pub table: Table,
    /// Classified series per contention pattern.
    pub series: Vec<RatioSeries>,
}

/// Run E10 with the default thread budget (all cores).
///
/// # Errors
///
/// Propagates a failed trial, keyed by its trial index.
pub fn run(scale: Scale) -> Result<E10Result, BenchError> {
    run_threaded(scale, 0)
}

/// Run E10 fanning trials over `threads` workers (0 = available
/// parallelism). Bit-identical at any thread count: per-trial seeded RNG
/// plus trial-ordered reduction.
///
/// # Errors
///
/// Propagates a failed trial, keyed by its trial index.
pub fn run_threaded(scale: Scale, threads: usize) -> Result<E10Result, BenchError> {
    let params = AbcParams::mm_scan();
    let trials = scale.pick(8, 32);
    let k_hi = scale.pick(5, 7);
    let mut table = Table::new(
        "E10: MM-Scan on realistic contention profiles (square-approximated)",
        &["pattern", "n", "ratio", "ci95"],
    );
    let mut sawtooth_points = Vec::new();
    let mut tenant_points = Vec::new();
    let config = |seed| McConfig {
        trials,
        seed,
        threads,
        ..McConfig::default()
    };
    for n in size_sweep(&params, 2, k_hi, u64::MAX) {
        // Winner-take-all sawtooth spanning the algorithm's size range.
        // The profile is deterministic (memoized process-wide); vary the
        // phase by starting each trial's cycle at a random time.
        let squares = sawtooth_squares(1, n, u128::from(n), 16 * u128::from(n));
        let ratio = monte_carlo_ratio(params, n, &config(0xE10), |mut rng| {
            random_cyclic_shift(&squares, &mut rng)
        })?
        .ratio;
        table.push_row(vec![
            "sawtooth".to_string(),
            n.to_string(),
            fnum(ratio.mean),
            fnum(ratio.ci95()),
        ]);
        sawtooth_points.push((log_b(&params, n), ratio.mean));

        // Multi-tenant fair sharing with churn (profile is per-trial
        // random, so there is nothing to memoize: each trial owns its
        // cycle).
        let ratio = monte_carlo_ratio(params, n, &config(0x10E), |mut rng| {
            let profile = multi_tenant(
                2 * n,
                8,
                u128::from(n / 4 + 1),
                0.5,
                32 * u128::from(n),
                &mut rng,
            );
            profile.inner_squares().into_cycle()
        })?
        .ratio;
        table.push_row(vec![
            "multi-tenant".to_string(),
            n.to_string(),
            fnum(ratio.mean),
            fnum(ratio.ci95()),
        ]);
        tenant_points.push((log_b(&params, n), ratio.mean));
    }
    let series = vec![
        RatioSeries::classify("sawtooth", sawtooth_points),
        RatioSeries::classify("multi-tenant", tenant_points),
    ];
    Ok(E10Result { table, series })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_analysis::GrowthClass;

    #[test]
    fn contention_profiles_are_not_adversarial() {
        let result = run(Scale::Quick).expect("e10 runs");
        for s in &result.series {
            assert_ne!(
                s.class,
                GrowthClass::Logarithmic,
                "{}: slope {} — realistic contention should not behave adversarially",
                s.label,
                s.fit.slope
            );
            let max = s.points.iter().map(|p| p.1).fold(0.0, f64::max);
            assert!(max < 10.0, "{}: max ratio {max}", s.label);
        }
    }
}

/// Registry adapter: E10 through the experiment engine.
#[derive(Debug)]
pub struct Exp;

impl crate::harness::Experiment for Exp {
    fn id(&self) -> &'static str {
        "e10"
    }
    fn title(&self) -> &'static str {
        "Realistic contention profiles (square-approximated)"
    }
    fn deterministic(&self) -> bool {
        true // per-trial RNG + trial-ordered reduction: bit-identical at any thread count
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
