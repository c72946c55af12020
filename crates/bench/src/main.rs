//! `cadapt-bench` — the one CLI in front of every experiment.
//!
//! ```text
//! cadapt-bench list
//! cadapt-bench run    [--exp e1,e2,…] [--size quick|full] [--threads N] [--out DIR]
//!                     [--checkpoint-every N] [--resume]
//! cadapt-bench check  [--exp e1,e2,…] [--size quick|full] [--threads N] [--golden DIR]
//! cadapt-bench faults [--seed N] [--cases N] [--out FILE]
//! ```
//!
//! `run` executes the selected experiments (all, by default) through the
//! registry, prints their tables, and — with `--out` — writes one
//! schema-versioned JSON run record per experiment, atomically (tmp +
//! rename). A failing experiment no longer takes the suite down: its
//! record is written with `"complete": false` and the failure text as its
//! only table, the remaining experiments still run, and the process exit
//! code reports the first failure. Regenerate the goldens with
//! `cadapt-bench run --size quick --out tests/golden`.
//!
//! `--checkpoint-every N` keeps a checksummed `MANIFEST.json` next to the
//! records, flushed after every N completed experiments; `--resume`
//! (which implies checkpointing) verifies the manifest and every record
//! it vouches for, reuses the verified ones byte-for-byte, and re-runs
//! the rest. Checkpointed records canonicalize `wall_ms` to 0 so a killed
//! and resumed run's final records are **byte-identical** to an
//! uninterrupted checkpointed run's. Both flags require `--out`. Killing
//! the process and re-running with `--resume` is the way to interrupt a
//! run: the manifest only ever vouches for complete records.
//!
//! `check` re-runs the selected experiments and compares each against the
//! committed record in the golden directory (default `tests/golden`) under
//! the tolerance bands of `cadapt_bench::harness::check`. A missing or
//! malformed golden is a typed error naming the file and the exact
//! command that regenerates it (exit 4); a mismatch exits 1.
//!
//! `run` and `check` shard the selected experiments over a work-stealing
//! pool and split the `--threads` budget between experiment shards and
//! each experiment's internal trial fan-out. Stdout is buffered and
//! printed in registry order, and every record is bit-identical at any
//! thread count (the engine's determinism contract), so `--threads` only
//! moves wall time.
//!
//! `faults` runs the deterministic fault-injection harness: `--cases`
//! fault plans expanded from `--seed`, each attacking the engine's
//! isolation, atomicity, and checksum guarantees. The report (default
//! `FAULTS.json`, a checksummed envelope) is a pure function of the seed.
//! Silent corruption — a verifying artifact with wrong contents — aborts
//! the suite with a typed error.
//!
//! `--quick` is shorthand for `--size quick` on every command.
//!
//! Exit codes (see DESIGN.md's failure model): 0 success, 1 semantic
//! failure (experiment error, check mismatch), 2 usage, 3 filesystem,
//! 4 untrusted data (corrupt artifact, bad golden, unusable checkpoint),
//! 5 isolated panic.

use cadapt_analysis::parallel::{resolve_threads, run_indexed};

/// With `count-alloc`, every allocation in this process is metered so E16
/// can assert its streaming pipeline's flat peak memory.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static GLOBAL: cadapt_bench::alloc_meter::CountingAlloc = cadapt_bench::alloc_meter::CountingAlloc;
use cadapt_bench::faults;
use cadapt_bench::harness::checkpoint::{self, Checkpointer, Recovered};
use cadapt_bench::harness::store::{self, ArtifactWriter, FsWriter};
use cadapt_bench::harness::{self, CheckReport, RunRecord};
use cadapt_bench::{BenchError, ExpCtx, Scale};
use cadapt_core::cast;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cadapt-bench <command> [options]

commands:
  list                     print the experiment registry
  run                      run experiments and print their tables
  check                    re-run experiments and diff against goldens
  faults                   attack the engine with deterministic fault injection

options:
  --exp ID[,ID…]           experiments to touch (default: all)
  --size quick|full        scale (default: full for run, quick for check)
  --quick                  shorthand for --size quick
  --threads N              worker-thread budget for run/check sharding and
                           trial fan-out (0 = available parallelism; results
                           are bit-identical at any N)
  --out PATH               run: directory for per-experiment JSON records
                           faults: report file (default FAULTS.json)
  --golden DIR             check only: golden directory (default tests/golden)
  --checkpoint-every N     run only: flush a crash-safe MANIFEST.json every N
                           completed experiments (requires --out)
  --resume                 run only: reuse verified records from a previous
                           checkpointed run in --out; implies checkpointing
  --seed N                 faults only: suite seed (default 7)
  --cases N                faults only: fault plans to run (default 16)
";

struct Options {
    ids: Vec<String>,
    scale: Option<Scale>,
    threads: usize,
    out: Option<PathBuf>,
    golden: PathBuf,
    checkpoint_every: Option<u64>,
    resume: bool,
    seed: u64,
    cases: u64,
}

fn usage_err(message: impl Into<String>) -> BenchError {
    BenchError::Usage(message.into())
}

fn parse_options(args: &[String]) -> Result<Options, BenchError> {
    let mut options = Options {
        ids: Vec::new(),
        scale: None,
        threads: 0,
        out: None,
        golden: PathBuf::from("tests/golden"),
        checkpoint_every: None,
        resume: false,
        seed: 7,
        cases: 16,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| usage_err(format!("{name} needs a value")))
        };
        let number = |name: &str, text: &str| {
            text.parse::<u64>()
                .map_err(|_| usage_err(format!("{name} needs a number, got {text:?}")))
        };
        match flag.as_str() {
            "--exp" => options.ids = value("--exp")?.split(',').map(str::to_string).collect(),
            "--size" => {
                let name = value("--size")?;
                options.scale = Some(
                    Scale::parse(&name)
                        .ok_or_else(|| usage_err(format!("unknown size {name:?}")))?,
                );
            }
            "--quick" => options.scale = Some(Scale::Quick),
            "--threads" => {
                let text = value("--threads")?;
                options.threads = cast::checked_usize_from_u64(number("--threads", &text)?)
                    .ok_or_else(|| usage_err(format!("--threads {text} does not fit this host")))?;
            }
            "--out" => options.out = Some(PathBuf::from(value("--out")?)),
            "--golden" => options.golden = PathBuf::from(value("--golden")?),
            "--checkpoint-every" => {
                let text = value("--checkpoint-every")?;
                let every = number("--checkpoint-every", &text)?;
                if every == 0 {
                    return Err(usage_err("--checkpoint-every must be at least 1"));
                }
                options.checkpoint_every = Some(every);
            }
            "--resume" => options.resume = true,
            "--seed" => {
                let text = value("--seed")?;
                options.seed = number("--seed", &text)?;
            }
            "--cases" => {
                let text = value("--cases")?;
                options.cases = number("--cases", &text)?;
            }
            other => return Err(usage_err(format!("unknown option {other:?}"))),
        }
    }
    Ok(options)
}

/// Resolve the requested ids against the registry, defaulting to all.
fn select(ids: &[String]) -> Result<Vec<&'static dyn harness::Experiment>, BenchError> {
    if ids.is_empty() {
        return Ok(harness::registry().to_vec());
    }
    ids.iter()
        .map(|id| harness::find(id).ok_or_else(|| usage_err(format!("unknown experiment {id:?}"))))
        .collect()
}

fn cmd_list() {
    for exp in harness::registry() {
        println!(
            "{:<10} {} {}",
            exp.id(),
            if exp.deterministic() {
                "[exact]"
            } else {
                "[monte-carlo]"
            },
            exp.title()
        );
    }
}

/// Split the thread budget between experiment shards and each shard's
/// internal trial fan-out. The plan only moves wall time: every record is
/// bit-identical regardless of how the budget is split.
fn shard_plan(requested: usize, jobs: usize) -> (usize, usize) {
    let total = resolve_threads(requested);
    let shards = total.min(jobs).max(1);
    let inner = (total / shards).max(1);
    (shards, inner)
}

/// One job's outcome on the run fan-out: the record (possibly partial)
/// and the first error it hit — from the experiment itself or from
/// persisting its artifacts.
struct JobOutcome {
    record: RunRecord,
    error: Option<BenchError>,
}

/// Execute (or reuse) one run job, persisting its record and checkpoint
/// entry. Never panics out of the shard pool: every failure lands in the
/// returned [`JobOutcome`].
fn run_job(
    job: usize,
    exp: &dyn harness::Experiment,
    base_ctx: &ExpCtx,
    out: Option<&Path>,
    ckpt: Option<&Checkpointer>,
    recovered: &Recovered,
) -> JobOutcome {
    let job_index = cast::u64_from_usize(job);
    if let Some((record, _text)) = recovered.get(&job_index) {
        eprintln!(
            "[cadapt-bench] {} reused from checkpoint (verified)",
            exp.id()
        );
        return JobOutcome {
            record: record.clone(),
            error: None,
        };
    }
    eprintln!(
        "[cadapt-bench] running {} ({})…",
        exp.id(),
        base_ctx.scale.name()
    );
    let (mut record, mut error) = harness::run_record_resilient(exp, base_ctx.clone());
    if ckpt.is_some() {
        // Checkpointed runs canonicalize the one wall-clock-smeared field
        // so a killed-and-resumed run is byte-identical to an
        // uninterrupted one.
        record.wall_ms = 0.0;
    }
    match &error {
        None => eprintln!(
            "[cadapt-bench] {} finished in {:.0} ms ({} metrics, {} boxes advanced)",
            record.experiment,
            record.wall_ms,
            record.metrics.len(),
            record.counters.boxes_advanced
        ),
        Some(e) => eprintln!("[cadapt-bench] {} FAILED: {e}", record.experiment),
    }
    if let Some(dir) = out {
        let path = dir.join(format!("{}.json", record.experiment));
        let text = record.to_json();
        let persisted = FsWriter
            .persist(&path, &text)
            .map_err(BenchError::from)
            .and_then(|()| {
                eprintln!("[cadapt-bench] wrote {}", path.display());
                if let (Some(ckpt), true) = (ckpt, record.complete) {
                    ckpt.mark_done(&FsWriter, job_index, &record.experiment, &text)?;
                }
                Ok(())
            });
        if let Err(e) = persisted {
            error.get_or_insert(e);
        }
    }
    JobOutcome { record, error }
}

fn cmd_run(options: &Options) -> Result<(), BenchError> {
    let scale = options.scale.unwrap_or(Scale::Full);
    let experiments = select(&options.ids)?;
    let checkpointing = options.checkpoint_every.is_some() || options.resume;
    let out = options.out.as_deref();
    if checkpointing && out.is_none() {
        return Err(usage_err(
            "--checkpoint-every/--resume need --out DIR to persist into",
        ));
    }
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| BenchError::io("create", dir, &e))?;
    }
    let ids: Vec<String> = experiments.iter().map(|e| e.id().to_string()).collect();
    let recovered = match (options.resume, out) {
        (true, Some(dir)) => checkpoint::resume(dir, scale.name(), &ids)?,
        _ => Recovered::new(),
    };
    if options.resume {
        eprintln!(
            "[cadapt-bench] resume: {} of {} experiments verified and reused",
            recovered.len(),
            ids.len()
        );
    }
    let ckpt = match (checkpointing, out) {
        (true, Some(dir)) => {
            let ckpt = Checkpointer::new(
                dir,
                scale.name(),
                ids.clone(),
                options.checkpoint_every.unwrap_or(1),
            );
            ckpt.preload(&recovered);
            Some(ckpt)
        }
        _ => None,
    };
    let (shards, inner) = shard_plan(options.threads, experiments.len());
    // Tables are buffered in the records and printed in registry order
    // after the fan-out, so sharding never interleaves stdout. Each job
    // persists its own record the moment it completes — a kill mid-suite
    // loses at most the in-flight experiments.
    let base_ctx = ExpCtx::with_threads(scale, inner);
    let outcomes: Vec<JobOutcome> = run_indexed(experiments.len(), shards, |i| {
        run_job(i, experiments[i], &base_ctx, out, ckpt.as_ref(), &recovered)
    });
    if let Some(ckpt) = &ckpt {
        ckpt.flush(&FsWriter)?;
    }
    let mut first_error = None;
    for outcome in outcomes {
        for table in &outcome.record.tables {
            print!("{table}");
            println!();
        }
        if let Some(e) = outcome.error {
            first_error.get_or_insert(e);
        }
    }
    match first_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// Load one golden record, mapping every failure to a [`BenchError::Golden`]
/// that names the file and the command that regenerates it.
fn load_golden(dir: &Path, id: &str) -> Result<RunRecord, BenchError> {
    let path = dir.join(format!("{id}.json"));
    let golden = |detail: String| BenchError::Golden {
        id: id.to_string(),
        path: path.clone(),
        detail,
    };
    let text =
        std::fs::read_to_string(&path).map_err(|e| golden(format!("cannot read it: {e}")))?;
    let record = RunRecord::from_json(&text).map_err(|e| golden(e.to_string()))?;
    if record.experiment != id {
        return Err(golden(format!(
            "file claims to be a record for {:?}",
            record.experiment
        )));
    }
    Ok(record)
}

fn cmd_check(options: &Options) -> Result<bool, BenchError> {
    let scale = options.scale.unwrap_or(Scale::Quick);
    let experiments = select(&options.ids)?;
    // Load every golden up front so a missing file fails before any work.
    let goldens = experiments
        .iter()
        .map(|exp| load_golden(&options.golden, exp.id()))
        .collect::<Result<Vec<_>, _>>()?;
    let (shards, inner) = shard_plan(options.threads, experiments.len());
    let reports: Vec<CheckReport> = run_indexed(experiments.len(), shards, |i| {
        let exp = experiments[i];
        eprintln!("[cadapt-bench] checking {} ({})…", exp.id(), scale.name());
        // Resilient: a crashing experiment yields an incomplete record,
        // which compare() reports as a failure for that experiment while
        // the other checks still run.
        let (fresh, _error) =
            harness::run_record_resilient(exp, ExpCtx::with_threads(scale, inner));
        harness::compare(&goldens[i], &fresh)
    });
    let mut all_passed = true;
    for report in &reports {
        if report.passed() {
            println!("PASS {}", report.experiment);
        } else {
            all_passed = false;
            println!("FAIL {}", report.experiment);
            for failure in &report.failures {
                println!("  {failure}");
            }
        }
    }
    Ok(all_passed)
}

fn cmd_faults(options: &Options) -> Result<(), BenchError> {
    let seed = options.seed;
    let scratch = faults::scratch_dir(seed);
    eprintln!(
        "[cadapt-bench] injecting faults: seed {seed}, {} cases (scratch {})…",
        options.cases,
        scratch.display()
    );
    let report = faults::run_suite(seed, options.cases, &scratch)?;
    println!(
        "fault suite: seed {seed}, {} cases, {} recovered, {} clean failures, 0 silent corruptions",
        report.cases.len(),
        report.recovered(),
        report.cases.len() - report.recovered()
    );
    let path = options
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("FAULTS.json"));
    store::write_envelope(&FsWriter, &path, &report.to_payload())?;
    eprintln!("[cadapt-bench] wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

/// Dispatch; `Ok(false)` is a check mismatch (exit 1 without an error
/// message — the report already went to stdout). The command is resolved
/// before its options are parsed, so an unknown command is reported as
/// such whatever options follow it.
fn dispatch(command: &str, args: &[String]) -> Result<bool, BenchError> {
    let cmd: fn(&Options) -> Result<bool, BenchError> = match command {
        "list" => |_| {
            cmd_list();
            Ok(true)
        },
        "run" => |options| cmd_run(options).map(|()| true),
        "check" => cmd_check,
        "faults" => |options| cmd_faults(options).map(|()| true),
        other => return Err(usage_err(format!("unknown command {other:?}"))),
    };
    cmd(&parse_options(args)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = dispatch(command, rest);
    // The one place a BenchError becomes a process exit code.
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cadapt-bench: {e}");
            if matches!(e, BenchError::Usage(_)) {
                eprint!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_bench::harness::ExperimentOutput;
    use serde_json::Value;

    /// An experiment that always returns a typed error.
    struct Failing;

    impl harness::Experiment for Failing {
        fn id(&self) -> &'static str {
            "failing"
        }
        fn title(&self) -> &'static str {
            "always returns a typed error"
        }
        fn deterministic(&self) -> bool {
            true
        }
        fn run(&self, _ctx: ExpCtx) -> Result<ExperimentOutput, BenchError> {
            Err(BenchError::invariant("injected typed failure"))
        }
    }

    #[test]
    fn the_manifest_never_vouches_for_an_incomplete_record() {
        let dir = std::env::temp_dir().join(format!("cadapt-run-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scale = Scale::Quick.name();
        let ids = vec!["failing".to_string()];
        // Flushing after every job puts a vouched job in the manifest at once.
        let ckpt = Checkpointer::new(&dir, scale, ids.clone(), 1);
        let outcome = run_job(
            0,
            &Failing,
            &ExpCtx::with_threads(Scale::Quick, 1),
            Some(&dir),
            Some(&ckpt),
            &Recovered::new(),
        );
        assert!(
            matches!(outcome.error, Some(BenchError::Invariant { .. })),
            "{:?}",
            outcome.error
        );
        ckpt.flush(&FsWriter).unwrap();

        // The record is on disk and says it is incomplete.
        let text = std::fs::read_to_string(dir.join("failing.json")).unwrap();
        let record = RunRecord::from_json(&text).unwrap();
        assert!(!record.complete);
        assert!(record.tables.concat().contains("injected typed failure"));

        // The flushed manifest vouches for no job, so a resume reuses
        // nothing and re-runs the experiment.
        let manifest = store::read_envelope(&checkpoint::manifest_path(&dir)).unwrap();
        let manifest = manifest.as_object().unwrap();
        for key in ["completed_jobs", "records"] {
            let vouched = manifest.get(key).and_then(Value::as_array).map(<[_]>::len);
            assert_eq!(vouched, Some(0), "{key}: {manifest:?}");
        }
        assert!(checkpoint::resume(&dir, scale, &ids).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
