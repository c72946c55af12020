//! Noise-robust layer benchmark for the cadapt workspace.
//!
//! One process, one thread, closed loop. A workload is a list of short
//! cases, each one call into one layer's public function; a run cycles
//! through them round-robin for `--seconds` and scores every case by its
//! fastest repetition. On a shared host that runs in short fast windows
//! between long slow stretches, the fastest of many short calls repeats
//! from run to run where whole-run totals do not.
//!
//! ```text
//! cadapt-perfbench run    --workload W --seconds S [--seed N] [--trace 0|1] [--spans FILE]
//! cadapt-perfbench oracle --workload W [--seed N]
//! ```
//!
//! `run` first spawns `oracle` as a child process, which fingerprints every
//! case through the reference paths, so the oracle's time and memory stay
//! out of the measured process. The last line of `run`'s standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod fingerprint;
mod measure;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 1;

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    /// Required by `run`; `oracle` takes none.
    seconds: Option<f64>,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("usage: cadapt-perfbench run|oracle --workload W ...")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            workloads::WORKLOADS
        ));
    }
    match args.seconds {
        Some(s) if !(s > 0.0 && s.is_finite()) => {
            return Err("--seconds must be positive".to_string())
        }
        None if args.mode == "run" => return Err("run needs --seconds".to_string()),
        _ => {}
    }
    Ok(args)
}

/// Print `name<TAB>fingerprint<TAB>events` for every case, computed by the
/// reference paths only.
fn oracle(args: &Args) -> Result<(), String> {
    let workload = workloads::build(&args.workload, args.seed, false)?;
    for case in &workload.cases {
        let out = (case.oracle)().map_err(|e| format!("oracle {}: {e}", case.name))?;
        println!("{}\t{:016x}\t{}", case.name, out.fp, out.events);
    }
    Ok(())
}

/// Run the oracle in a child process and parse its fingerprints.
fn oracle_fingerprints(args: &Args) -> Result<BTreeMap<String, (u64, u64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args([
            "oracle",
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the oracle: {e}"))?;
    if !out.status.success() {
        return Err(format!("the oracle failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("oracle output: {e}"))?;
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let mut fields = line.split('\t');
        let (Some(name), Some(fp), Some(events), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("malformed oracle line {line:?}"));
        };
        let fp = u64::from_str_radix(fp, 16).map_err(|e| format!("oracle line {line:?}: {e}"))?;
        let events = events
            .parse()
            .map_err(|e| format!("oracle line {line:?}: {e}"))?;
        map.insert(name.to_string(), (fp, events));
    }
    Ok(map)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cadapt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode.as_str() {
        "oracle" => oracle(&args).map(|()| true),
        "run" => oracle_fingerprints(&args).and_then(|reference| {
            // `parse_args` has checked that `run` got a positive `--seconds`.
            let seconds = args.seconds.unwrap_or_default();
            println!(
                "cadapt-perfbench workload={} seed={} seconds={seconds} trace={}",
                args.workload,
                args.seed,
                u8::from(args.trace)
            );
            let workload = workloads::build(&args.workload, args.seed, args.trace)?;
            measure::run(
                workload,
                &reference,
                &args.workload,
                args.seed,
                seconds,
                args.trace,
                args.spans.as_deref(),
            )
        }),
        other => Err(format!("unknown mode {other:?}; expected run or oracle")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cadapt-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
