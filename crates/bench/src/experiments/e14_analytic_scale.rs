//! **E14 — the analytic cache model at the largest corpus scales.**
//!
//! The analytic backend (`cadapt_paging::analytic`) answers fixed-capacity
//! fault counts in O(log A) per query from a once-per-trace summary, and
//! square-profile replays in one arithmetic pass — against the simulator's
//! full per-reference LRU replay *per sweep point*. This experiment puts
//! that to work in three stages:
//!
//! 1. **Cross-validation** — before trusting the fast path, both backends
//!    run at a common small size on every corpus algorithm: fixed sweeps,
//!    square menus (per-box history included), and a sawtooth m(t). Any
//!    inequality is a typed invariant failure, not a wrong table.
//! 2. **Capacity sweep at scale** — the classical miss-ratio curve
//!    (faults vs M) for every corpus algorithm at inputs well beyond the
//!    E8 regime (quick: side 32; full: side 128 — 64× the work of E8's
//!    full scale), one summary amortized over the whole sweep.
//! 3. **Box-size sweep at scale** — E8b's adaptivity-transfer phenomenon
//!    (MM-Inplace converts cache into I/O savings, MM-Scan cannot)
//!    re-measured at the larger inputs via analytic square replay.
//!
//! Traces and summaries come from the memoized corpus store
//! (`cadapt_trace::corpus`), so trial fan-out workers share one build.

use crate::{BenchError, Scale};
use cadapt_analysis::table::fnum;
use cadapt_analysis::Table;
use cadapt_core::{MemoryProfile, SquareProfile};
use cadapt_paging::{
    analytic_fixed, analytic_memory_profile, analytic_square_profile,
    analytic_square_profile_history, replay_fixed, replay_memory_profile,
    replay_square_profile_history,
};
use cadapt_trace::{summarized, TraceAlgo};

/// Side used for the simulator-vs-analytic cross-validation stage.
const VALIDATE_SIDE: usize = 16;
const BLOCK_WORDS: u64 = 4;

/// Result of E14.
#[derive(Debug)]
pub struct E14Result {
    /// Backend cross-validation at the common size.
    pub cross_table: Table,
    /// Analytic miss-ratio curves at scale.
    pub capacity_table: Table,
    /// Analytic box-size sweep at scale.
    pub box_table: Table,
    /// (label, accesses) of the at-scale traces.
    pub trace_sizes: Vec<(String, u64)>,
    /// (label, I/O speedup smallest → largest box) at scale.
    pub speedups: Vec<(String, f64)>,
    /// Equalities checked during cross-validation.
    pub checks: u64,
}

/// Run E14.
///
/// # Errors
///
/// Any simulator/analytic disagreement during cross-validation is
/// reported as a typed invariant failure.
pub fn run(scale: Scale) -> Result<E14Result, BenchError> {
    let side = scale.pick(32, 128);

    // 1. Cross-validate the backends where both are affordable.
    let mut cross_table = Table::new(
        "E14a: simulator vs analytic cross-validation (side 16)",
        &["algorithm", "mode", "checks", "verdict"],
    );
    let mut checks = 0u64;
    for algo in TraceAlgo::ALL {
        let st = summarized(algo, VALIDATE_SIDE, BLOCK_WORDS);
        let rho = algo.potential();

        let mut fixed_checks = 0u64;
        for m in [0u64, 1, 4, 16, 64, 256, 1 << 20] {
            let sim = replay_fixed(st.program(), m);
            let ana = analytic_fixed(st.summary(), m);
            if sim != ana {
                return Err(BenchError::invariant(format!(
                    "E14: {} fixed M={m}: simulator {} vs analytic {}",
                    algo.label(),
                    sim.io,
                    ana.io
                )));
            }
            fixed_checks += 1;
        }

        let mut square_checks = 0u64;
        for menu in [vec![1u64], vec![16], vec![4, 1, 64], vec![2, 32, 8]] {
            let profile = SquareProfile::new(menu.clone())
                .map_err(|e| BenchError::invariant(format!("E14 menu {menu:?}: {e}")))?;
            let (sim, sim_boxes) =
                replay_square_profile_history(st.program(), &mut profile.cycle(), rho);
            let (ana, ana_boxes) =
                analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
            if sim != ana || sim_boxes != ana_boxes {
                return Err(BenchError::invariant(format!(
                    "E14: {} menu {menu:?}: backends diverged",
                    algo.label()
                )));
            }
            square_checks += 1;
        }

        let tooth: Vec<u64> = (1..=32).chain((1..=32).rev()).collect();
        let steps: Vec<u64> = tooth
            .iter()
            .cycle()
            .take(tooth.len() * 64)
            .copied()
            .collect();
        let profile = MemoryProfile::from_steps(&steps)
            .map_err(|e| BenchError::invariant(format!("E14 sawtooth: {e}")))?;
        let sim = replay_memory_profile(st.program(), &profile);
        let ana = analytic_memory_profile(st.summary(), &profile);
        if sim != ana {
            return Err(BenchError::invariant(format!(
                "E14: {} sawtooth m(t): backends diverged",
                algo.label()
            )));
        }
        let profile_checks = 1u64;

        for (mode, n) in [
            ("fixed", fixed_checks),
            ("square", square_checks),
            ("profile", profile_checks),
        ] {
            cross_table.push_row(vec![
                algo.label().to_string(),
                mode.to_string(),
                n.to_string(),
                "equal".to_string(),
            ]);
            checks += n;
        }
    }

    // 2. Analytic miss-ratio curves at scale. One summary per algorithm
    //    answers the whole sweep.
    let mut capacity_table = Table::new(
        "E14b: analytic miss-ratio curves at scale",
        &["algorithm", "M (blocks)", "I/O", "accesses", "miss rate"],
    );
    let mut trace_sizes = Vec::new();
    for algo in TraceAlgo::ALL {
        let st = summarized(algo, side, BLOCK_WORDS);
        let accesses = st.summary().accesses();
        trace_sizes.push((algo.label().to_string(), accesses));
        for j in [2u32, 4, 6, 8, 10, 12, 14, 20] {
            let m = 1u64 << j;
            let replay = analytic_fixed(st.summary(), m);
            capacity_table.push_row(vec![
                algo.label().to_string(),
                m.to_string(),
                replay.io.to_string(),
                accesses.to_string(),
                fnum(replay.io as f64 / accesses as f64),
            ]);
        }
    }

    // 3. Box-size sweep at scale (E8b's phenomenon, bigger inputs).
    let mut box_table = Table::new(
        "E14c: analytic I/O under constant-box square profiles at scale",
        &["algorithm", "box (blocks)", "I/O", "vs largest"],
    );
    let mut speedups = Vec::new();
    let box_sizes: Vec<u64> = (3..=12)
        .map(|j| 1u64 << j)
        .filter(|&b| b <= (side * side * 4) as u64)
        .collect();
    for algo in TraceAlgo::ALL {
        let st = summarized(algo, side, BLOCK_WORDS);
        let rho = algo.potential();
        let mut ios = Vec::new();
        for &b0 in &box_sizes {
            let profile = SquareProfile::from_boxes_unchecked(vec![b0]);
            let mut source = profile.cycle();
            let io = analytic_square_profile(st.summary(), &mut source, rho).total_io;
            ios.push(io);
        }
        let last = *ios.last().unwrap_or(&1);
        for (&b0, &io) in box_sizes.iter().zip(&ios) {
            box_table.push_row(vec![
                algo.label().to_string(),
                b0.to_string(),
                io.to_string(),
                fnum(io as f64 / last as f64),
            ]);
        }
        let first = *ios.first().unwrap_or(&1);
        speedups.push((algo.label().to_string(), first as f64 / last as f64));
    }

    Ok(E14Result {
        cross_table,
        capacity_table,
        box_table,
        trace_sizes,
        speedups,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_validation_passes_and_counts() {
        let result = run(Scale::Quick).expect("e14 runs");
        // 7 fixed + 4 square + 1 profile per corpus algorithm.
        assert_eq!(result.checks, 12 * TraceAlgo::ALL.len() as u64);
    }

    #[test]
    fn miss_rate_is_monotone_in_cache_size() {
        let result = run(Scale::Quick).expect("e14 runs");
        let io = result.capacity_table.numeric_column("I/O");
        for group in io.chunks(8) {
            for w in group.windows(2) {
                assert!(w[0] >= w[1], "I/O increased with more cache: {w:?}");
            }
        }
    }

    #[test]
    fn quick_scale_outgrows_e8_by_an_order_of_magnitude() {
        // The point of the analytic backend: E8 full scale runs side 32;
        // E14 reaches side 32 in *quick* mode and side 128 in full, so
        // even the quick traces dwarf E8's quick (side 16) regime.
        let result = run(Scale::Quick).expect("e14 runs");
        for algo in TraceAlgo::ALL {
            let small = summarized(algo, 16, BLOCK_WORDS).summary().accesses();
            let at_scale = result
                .trace_sizes
                .iter()
                .find(|(l, _)| l == algo.label())
                .map(|&(_, a)| a)
                .unwrap();
            // Doubling the side grows each algorithm by its branching
            // factor a (8 for the MM variants, 7 for Strassen, 4 for the
            // quadratic edit distance); full scale (side 128) adds two
            // more doublings on top of this.
            let factor = match algo {
                TraceAlgo::MmScan | TraceAlgo::MmInplace => 8,
                TraceAlgo::Strassen => 7,
                // VebSearch is not in ALL (post-golden addition, E15 only);
                // its per-doubling growth is ~4 (side² queries × path).
                TraceAlgo::EditDistance | TraceAlgo::VebSearch => 4,
            };
            assert!(
                at_scale >= factor * small,
                "{}: {at_scale} accesses is not ≫ {small}",
                algo.label()
            );
        }
    }

    #[test]
    fn adaptivity_transfer_reappears_at_scale() {
        let result = run(Scale::Quick).expect("e14 runs");
        let get = |name: &str| {
            result
                .speedups
                .iter()
                .find(|(l, _)| l == name)
                .map(|&(_, r)| r)
                .unwrap()
        };
        assert!(
            get("MM-Inplace") > 2.0 * get("MM-Scan"),
            "speedups: inplace {} vs scan {}",
            get("MM-Inplace"),
            get("MM-Scan")
        );
    }
}

/// Registry adapter: E14 through the experiment engine.
#[derive(Debug)]
pub struct Exp;

impl crate::harness::Experiment for Exp {
    fn id(&self) -> &'static str {
        "e14"
    }
    fn title(&self) -> &'static str {
        "Analytic cache model: cross-validation and capacity sweeps at scale"
    }
    fn deterministic(&self) -> bool {
        true // closed-form queries over deterministic traces
    }
    fn run(&self, ctx: crate::ExpCtx) -> Result<crate::harness::ExperimentOutput, BenchError> {
        let result = run(ctx.scale)?;
        let mut metrics = vec![crate::harness::metric(
            "cross_validation/checks",
            result.checks as f64,
        )];
        for (label, accesses) in &result.trace_sizes {
            metrics.push(crate::harness::metric(
                format!("accesses/{label}"),
                *accesses as f64,
            ));
        }
        for (label, speedup) in &result.speedups {
            metrics.push(crate::harness::metric(format!("speedup/{label}"), *speedup));
        }
        Ok(crate::harness::ExperimentOutput {
            metrics,
            tables: vec![
                result.cross_table.render(),
                result.capacity_table.render(),
                result.box_table.render(),
            ],
        })
    }
}
