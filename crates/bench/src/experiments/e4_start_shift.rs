//! **E4 — random start-time shifts do not close the gap** (§4 robustness).
//!
//! Cyclic-shift the worst-case profile by a uniformly random start *time*
//! (box i becomes the start with probability ∝ |□_i|) and run the
//! algorithm from there. The paper: with constant probability the start
//! lands in a prefix whose suffix still carries a constant fraction of the
//! worst-case potential, so the expected ratio stays Θ(log_b n).

use super::common::{log_b, size_sweep, RatioSeries};
use crate::{BenchError, Scale};
use cadapt_analysis::table::fnum;
use cadapt_analysis::{monte_carlo_ratio, McConfig, Table};
use cadapt_profiles::perturb::random_cyclic_shift;
use cadapt_profiles::{worst_case_squares, WorstCase};
use cadapt_recursion::AbcParams;

/// Result of E4.
#[derive(Debug)]
pub struct E4Result {
    /// Per-row measurements.
    pub table: Table,
    /// The classified ratio series.
    pub series: RatioSeries,
}

/// Run E4 with the default thread budget (all cores).
///
/// # Errors
///
/// Propagates a failed trial, keyed by its trial index.
pub fn run(scale: Scale) -> Result<E4Result, BenchError> {
    run_threaded(scale, 0)
}

/// Run E4 fanning trials over `threads` workers (0 = available
/// parallelism). Bit-identical at any thread count: per-trial seeded RNG
/// plus trial-ordered reduction.
///
/// # Errors
///
/// Propagates a failed trial, keyed by its trial index.
pub fn run_threaded(scale: Scale, threads: usize) -> Result<E4Result, BenchError> {
    let params = AbcParams::mm_scan();
    let trials = scale.pick(16, 64);
    // The shifted cycles stream one materialised profile; cap the depth
    // so its box count stays manageable (8^7 ≈ 2M boxes at k = 7).
    let k_hi = scale.pick(5, 7);
    let mut table = Table::new(
        "E4: expected ratio under random cyclic start shifts (MM-Scan)",
        &["n", "ratio", "ci95", "min", "max"],
    );
    let mut points = Vec::new();
    let config = McConfig {
        trials,
        seed: 0xE4,
        threads,
        ..McConfig::default()
    };
    for n in size_sweep(&params, 2, k_hi, u64::MAX) {
        let wc = WorstCase::for_problem(&params, n)?;
        // Memoized across sweep points and workers: every trial cycles the
        // same materialised profile from its own start box.
        let profile = worst_case_squares(&wc);
        let ratio = monte_carlo_ratio(params, n, &config, |mut rng| {
            random_cyclic_shift(&profile, &mut rng)
        })?
        .ratio;
        table.push_row(vec![
            n.to_string(),
            fnum(ratio.mean),
            fnum(ratio.ci95()),
            fnum(ratio.min),
            fnum(ratio.max),
        ]);
        points.push((log_b(&params, n), ratio.mean));
    }
    let series = RatioSeries::classify("random cyclic shift", points);
    Ok(E4Result { table, series })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_analysis::GrowthClass;

    #[test]
    fn shifted_profiles_remain_worst_case() {
        let result = run(Scale::Quick).expect("e4 runs");
        assert_eq!(
            result.series.class,
            GrowthClass::Logarithmic,
            "slope {} — a start-time shuffle alone should NOT rescue adaptivity",
            result.series.fit.slope
        );
    }
}

/// Registry adapter: E4 through the experiment engine.
#[derive(Debug)]
pub struct Exp;

impl crate::harness::Experiment for Exp {
    fn id(&self) -> &'static str {
        "e4"
    }
    fn title(&self) -> &'static str {
        "Random cyclic start shifts (Section 4)"
    }
    fn deterministic(&self) -> bool {
        true // per-trial RNG + trial-ordered reduction: bit-identical at any thread count
    }
    fn run(&self, ctx: crate::ExpCtx) -> Result<crate::harness::ExperimentOutput, BenchError> {
        let result = run_threaded(ctx.scale, ctx.threads)?;
        let mut metrics = Vec::new();
        crate::harness::push_series(&mut metrics, "series", &result.series);
        Ok(crate::harness::ExperimentOutput {
            metrics,
            tables: vec![result.table.render()],
        })
    }
}
