//! Per-box cost of closed-form execution at the benchmark's case sizes
//! beside the larger sizes of the experiments those cases mirror: E1's
//! capacity-model runs on worst-case profiles, and E3's size-perturbed
//! trials.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --example sizes
//! ```
//!
//! For each size it prints the boxes one call advances and the best
//! nanoseconds per box over the calls made in about a second (three at
//! least). One thread, nothing else running in the process.

use cadapt_analysis::montecarlo::trial_rng;
use cadapt_core::{Blocks, BoxSource};
use cadapt_profiles::perturb::{SizePerturbedSource, UniformMultiplier};
use cadapt_profiles::WorstCase;
use cadapt_recursion::{run_on_profile, AbcParams, ExecModel, RunConfig};
use std::time::{Duration, Instant};

/// Best seconds per box of `call`, which returns the boxes it advanced.
fn best_per_box(mut call: impl FnMut(u64) -> u64) -> (u64, f64) {
    let start = Instant::now();
    let (mut best, mut boxes, mut calls) = (f64::INFINITY, 0, 0);
    while calls < 3 || start.elapsed() < Duration::from_secs(1) {
        let t = Instant::now();
        boxes = call(calls);
        best = best.min(t.elapsed().as_secs_f64() / boxes as f64);
        calls += 1;
    }
    (boxes, best)
}

fn row(what: &str, sizes: &str, n: Blocks, (boxes, per_box): (u64, f64)) {
    println!(
        "{what:<40} {sizes:<22} n={n:<7} boxes={boxes:<10} {:7.1} ns/box",
        per_box * 1e9
    );
}

/// The distinct sizes of `sizes`, each with the names of the runs at it.
fn by_size(sizes: [(&str, Blocks); 3]) -> Vec<(String, Blocks)> {
    let mut out: Vec<(String, Blocks)> = Vec::new();
    for (name, n) in sizes {
        match out.iter_mut().find(|(_, m)| *m == n) {
            Some((names, _)) => *names = format!("{names} = {name}"),
            None => out.push((name.to_string(), n)),
        }
    }
    out
}

fn run<S: BoxSource>(params: AbcParams, n: Blocks, source: &mut S, model: ExecModel) -> u64 {
    let config = RunConfig {
        model,
        ..RunConfig::default()
    };
    run_on_profile(params, n, source, &config)
        .expect("canonical sizes run")
        .boxes_used
}

fn main() {
    // (label, algorithm, the benchmark's size, E1's largest quick and full sizes)
    let e1 = [
        ("mm-scan", AbcParams::mm_scan(), 256, 1 << 16, 1 << 18),
        ("strassen", AbcParams::strassen(), 1024, 1 << 16, 1 << 18),
        ("co-dp", AbcParams::co_dp(), 256, 256, 512),
    ];
    for (label, params, bench, quick, full) in e1 {
        for (sizes, n) in by_size([("benchmark", bench), ("E1 quick", quick), ("E1 full", full)]) {
            let wc = WorstCase::for_problem(&params, n).expect("canonical size");
            let cost = best_per_box(|_| run(params, n, &mut wc.source(), ExecModel::capacity()));
            row(
                &format!("worst-case-profile/{label}/capacity"),
                &sizes,
                n,
                cost,
            );
        }
    }
    let mm = AbcParams::mm_scan();
    for (sizes, n) in by_size([
        ("benchmark", 256),
        ("E3 quick", 1 << 12),
        ("E3 full", 1 << 16),
    ]) {
        let wc = WorstCase::for_problem(&mm, n).expect("canonical size");
        let cost = best_per_box(|trial| {
            let multiplier = UniformMultiplier { t: 2.0 };
            let mut source =
                SizePerturbedSource::new(wc.source(), multiplier, trial_rng(0xE3, trial));
            run(mm, n, &mut source, ExecModel::Simplified)
        });
        row("size-perturbed-uniform[0,2]/mm-scan", &sizes, n, cost);
    }
}
