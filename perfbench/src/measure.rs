//! The closed measurement loop and the metrics computed from it.

use crate::probe::{Probe, SpanLog};
use crate::workloads::{Case, Drained, Layer, Output, PartKind, Workload};
use cadapt_core::counters::CounterSnapshot;
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::time::{Duration, Instant};

/// Shortest sample of a set-up step, seconds; shorter builds are repeated.
const SETUP_SAMPLE_S: f64 = 50e-6;

/// Repetitions a timed item keeps for its median. The best is tracked over
/// all of them; the kept sample is thinned evenly over the run. A fixed cap
/// keeps the benchmark's own bookkeeping out of `peak_rss_mib`, however many
/// passes a fast host fits into a run.
const KEPT_REPS: usize = 256;

/// Repetition times of one timed item, in seconds.
#[derive(Debug)]
struct Reps {
    best: f64,
    count: u64,
    stride: u64,
    kept: Vec<f64>,
}

impl Default for Reps {
    fn default() -> Reps {
        Reps {
            best: f64::INFINITY,
            count: 0,
            stride: 1,
            kept: Vec::with_capacity(KEPT_REPS),
        }
    }
}

impl Reps {
    fn push(&mut self, d: Duration) {
        let secs = d.as_secs_f64();
        self.best = self.best.min(secs);
        if self.count.is_multiple_of(self.stride) && self.kept.len() == KEPT_REPS {
            // Keep every other sample and halve the sampling rate.
            let mut keep = false;
            self.kept.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride *= 2;
        }
        if self.count.is_multiple_of(self.stride) {
            self.kept.push(secs);
        }
        self.count += 1;
    }

    fn best(&self) -> f64 {
        self.best
    }

    fn median(&self) -> f64 {
        let mut v = self.kept.clone();
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }
}

fn sum_best<'a>(reps: impl Iterator<Item = &'a Reps>) -> f64 {
    reps.map(Reps::best).sum()
}

/// Checks every output against the oracle and counts operations.
struct Checker<'a> {
    reference: &'a BTreeMap<String, (u64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Checker<'_> {
    fn check(&mut self, case: &Case, out: &Result<Output, String>) {
        self.attempted += 1;
        let expected = self.reference.get(&case.name);
        let ok = match (out, expected) {
            (Ok(o), Some(&(fp, events))) => o.fp == fp && o.events == events,
            _ => false,
        };
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!(
                    "cadapt-perfbench: {} disagrees with the oracle: got {out:?}, expected {expected:?}",
                    case.name
                );
            }
        }
    }
}

/// Fault in every page of this process's file-backed mappings (the binary
/// and its shared libraries) by reading them through `/proc/self/mem`. The
/// file-backed share of the resident set then no longer depends on how many
/// neighbouring pages the kernel happened to map around each fault, which
/// otherwise moves `peak_rss_mib` by a few percent from run to run.
fn prefault_file_mappings() {
    let Ok(maps) = std::fs::read_to_string("/proc/self/maps") else {
        return;
    };
    let Ok(mut mem) = std::fs::File::open("/proc/self/mem") else {
        return;
    };
    let mut buf = vec![0u8; 1 << 16];
    for line in maps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(range), Some(perms), Some(path)) = (fields.first(), fields.get(1), fields.get(5))
        else {
            continue;
        };
        if !path.starts_with('/') || !perms.starts_with('r') {
            continue;
        }
        let Some((Ok(mut at), Ok(end))) = range
            .split_once('-')
            .map(|(lo, hi)| (u64::from_str_radix(lo, 16), u64::from_str_radix(hi, 16)))
        else {
            continue;
        };
        while at < end {
            let n = usize::try_from(end - at).map_or(buf.len(), |left| left.min(buf.len()));
            if mem.seek(SeekFrom::Start(at)).is_err() || mem.read_exact(&mut buf[..n]).is_err() {
                break;
            }
            at += n as u64;
        }
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
    Metric {
        name,
        value: value + 0.0,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Print every metric by name, then the JSON result line.
fn report(metrics: &[Metric], attempted: u64, failed: u64) -> Result<(), String> {
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!("{:<24} {:>20} {}", m.name, m.value, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

/// Per-case timings of a traced run.
#[derive(Default)]
struct Traced {
    /// The layer call inside its span, counters on.
    inner: Reps,
    /// The whole traced case, span and counter bookkeeping included.
    outer: Reps,
    /// The same whole case untraced.
    outer_plain: Reps,
    counts: Option<CounterSnapshot>,
    parts: Vec<(PartKind, Reps, Drained)>,
}

impl Traced {
    /// The boxes the case's supply drains pulled.
    fn supplied(&self) -> Drained {
        self.parts
            .iter()
            .filter(|(k, _, _)| *k == PartKind::Supply)
            .fold(Drained::default(), |acc, (_, _, d)| acc.plus(*d))
    }
}

/// Run `w` for `seconds`, cycling its cases round-robin, and print the
/// end-to-end metrics (or, traced, the per-layer metrics). Returns whether
/// every call matched the oracle.
#[allow(clippy::too_many_lines)]
pub fn run(
    mut w: Workload,
    reference: &BTreeMap<String, (u64, u64)>,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_path: Option<&str>,
) -> Result<bool, String> {
    let mut checker = Checker {
        reference,
        attempted: 0,
        failed: 0,
    };
    prefault_file_mappings();
    // Prime the memo stores and learn each case's event count.
    let mut events = Vec::with_capacity(w.cases.len());
    for case in &mut w.cases {
        let out = (case.call)(&mut Probe::plain());
        checker.check(case, &out);
        events.push(out.unwrap_or(Output {
            fp: 0,
            events: 0,
            bytes: 0,
        }));
    }
    // Sub-microsecond builds are timed in batches long enough for the
    // clock, and scored per build.
    let mut batch = Vec::with_capacity(w.setup.len());
    for step in &mut w.setup {
        let mut probe = Probe::plain();
        step(&mut probe, 1);
        let one = probe.elapsed.as_secs_f64().max(1e-9);
        batch.push((SETUP_SAMPLE_S / one).ceil().clamp(1.0, 1000.0) as u32);
    }

    let mut reps: Vec<Reps> = w.cases.iter().map(|_| Reps::default()).collect();
    let mut setup_reps: Vec<Reps> = w.setup.iter().map(|_| Reps::default()).collect();
    let mut traced: Vec<Traced> = if trace {
        w.cases.iter().map(|_| Traced::default()).collect()
    } else {
        Vec::new()
    };
    let mut log = SpanLog::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes: u32 = 0;
    loop {
        let pass_span = trace.then(|| log.open(passes, "pass", None));
        for (i, case) in w.cases.iter_mut().enumerate() {
            let mut probe = Probe::plain();
            let start = Instant::now();
            let out = (case.call)(&mut probe);
            let whole = start.elapsed();
            checker.check(case, &out);
            reps[i].push(probe.elapsed);
            if !trace {
                continue;
            }
            let t = &mut traced[i];
            t.outer_plain.push(whole);
            let case_span = log.open(passes, &format!("case:{}", case.name), pass_span);
            let mut probe = Probe::traced(&mut log, passes, Some(case_span));
            let out = (case.call)(&mut probe);
            let (inner, counts) = (probe.elapsed, probe.counts);
            t.outer.push(log.close(case_span));
            checker.check(case, &out);
            t.inner.push(inner);
            t.counts.get_or_insert(counts);
            if t.parts.is_empty() {
                t.parts = case
                    .parts
                    .iter()
                    .map(|p| (p.kind, Reps::default(), Drained::default()))
                    .collect();
            }
            for (part, slot) in case.parts.iter_mut().zip(&mut t.parts) {
                let span = log.open(passes, &format!("alone:{}", case.name), pass_span);
                let mut probe = Probe::traced(&mut log, passes, Some(span));
                slot.2 = (part.run)(&mut probe);
                let elapsed = probe.elapsed;
                log.close(span);
                slot.1.push(elapsed);
            }
        }
        for ((step, &count), r) in w.setup.iter_mut().zip(&batch).zip(&mut setup_reps) {
            let mut probe = Probe::plain();
            step(&mut probe, count);
            r.push(probe.elapsed / count);
        }
        if let Some(span) = pass_span {
            log.close(span);
        }
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }

    let contention = reps.iter().map(|r| r.median() / r.best()).sum::<f64>() / reps.len() as f64;
    println!(
        "diagnostics {{\"workload\": \"{workload}\", \"seed\": {seed}, \"passes\": {passes}, \"cases\": {}, \"host.contention\": {contention}}}",
        w.cases.len()
    );

    let metrics = if trace {
        if let Some(path) = spans_path {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
            std::fs::write(path, log.to_json_lines())
                .map_err(|e| format!("writing spans to {path}: {e}"))?;
        }
        for (case, t) in w.cases.iter().zip(&traced) {
            let d = t.supplied();
            if d.boxes > 0 {
                println!(
                    "supply {{\"case\": \"{}\", \"runs\": {}, \"boxes\": {}, \"boxes_in_multi_box_runs\": {}}}",
                    case.name, d.runs, d.boxes, d.in_multi_box_runs
                );
            }
        }
        per_layer(&w.cases, &events, &traced, contention)
    } else {
        let total_events: u64 = events.iter().map(|o| o.events).sum();
        let pass_best = sum_best(reps.iter());
        let setup_best = sum_best(setup_reps.iter())
            + sum_best(
                w.cases
                    .iter()
                    .zip(&reps)
                    .filter(|(c, _)| c.setup)
                    .map(|(_, r)| r),
            );
        vec![
            metric("events_per_s", total_events as f64 / pass_best, "1/s"),
            metric("setup_s", setup_best, "s"),
            metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
            metric(
                "success_rate",
                (checker.attempted - checker.failed) as f64 / checker.attempted as f64,
                "ratio",
            ),
        ]
    };
    report(&metrics, checker.attempted, checker.failed)?;
    Ok(checker.failed == 0)
}

fn select<'a>(
    cases: &'a [Case],
    traced: &'a [Traced],
    events: &'a [Output],
    layers: &'a [Layer],
) -> impl Iterator<Item = ((&'a Case, &'a Traced), &'a Output)> + 'a {
    cases
        .iter()
        .zip(traced)
        .zip(events)
        .filter(move |((c, _), _)| layers.contains(&c.layer))
}

/// Per-layer metrics from the traced timings; see the table in
/// `perfbench/README.md`.
fn per_layer(cases: &[Case], events: &[Output], traced: &[Traced], contention: f64) -> Vec<Metric> {
    let of = |layers: &'static [Layer]| select(cases, traced, events, layers);
    let part_best = |kind: PartKind, layers: &'static [Layer]| -> f64 {
        of(layers)
            .flat_map(|((_, t), _)| t.parts.iter())
            .filter(|(k, _, _)| *k == kind)
            .map(|(_, r, _)| r.best())
            .sum()
    };
    let inner_best =
        |layers: &'static [Layer]| -> f64 { of(layers).map(|((_, t), _)| t.inner.best()).sum() };
    let counts = |layers: &'static [Layer]| {
        of(layers).fold(CounterSnapshot::ZERO, |acc, ((_, t), _)| {
            acc.plus(t.counts.unwrap_or_default())
        })
    };
    let all: &'static [Layer] = &[
        Layer::Recursion,
        Layer::Analysis,
        Layer::TraceCompile,
        Layer::TraceSummary,
        Layer::PagingLru,
        Layer::PagingAnalytic,
    ];
    let exec: &'static [Layer] = &[Layer::Recursion, Layer::Analysis];

    let supply_s = part_best(PartKind::Supply, all);
    let supplied = of(all).fold(Drained::default(), |acc, ((_, t), _)| {
        acc.plus(t.supplied())
    });
    let exec_supply = part_best(PartKind::Supply, exec);
    let one_by_one = part_best(PartKind::OneByOne, &[Layer::Analysis]);
    let recursion_self = inner_best(&[Layer::Recursion]) + one_by_one - exec_supply;
    let analysis_self = inner_best(&[Layer::Analysis]) - one_by_one;
    let rec = counts(exec);
    let trials: u64 = of(&[Layer::Analysis]).map(|((c, _), _)| c.trials).sum();
    let decode_s = part_best(PartKind::Decode, &[Layer::PagingLru]);
    let compile_bytes: u64 = of(&[Layer::TraceCompile]).map(|(_, o)| o.bytes).sum();
    let compile_events: u64 = of(&[Layer::TraceCompile]).map(|(_, o)| o.events).sum();
    let lru = counts(&[Layer::PagingLru]);
    let paging = counts(&[Layer::PagingLru, Layer::PagingAnalytic]);
    let accesses: u64 = of(&[Layer::PagingLru]).map(|(_, o)| o.events).sum();
    let traced_pass: f64 = traced.iter().map(|t| t.outer.best()).sum();
    let plain_pass: f64 = traced.iter().map(|t| t.outer_plain.best()).sum();
    vec![
        metric("profiles.supply_s", supply_s, "s"),
        metric("profiles.runs", supplied.runs as f64, "count"),
        metric(
            "profiles.boxes_per_run",
            ratio(supplied.boxes as f64, supplied.runs as f64),
            "boxes/run",
        ),
        metric(
            "profiles.multi_box_run_share",
            ratio(supplied.in_multi_box_runs as f64, supplied.boxes as f64),
            "ratio",
        ),
        metric("recursion.self_s", recursion_self, "s"),
        metric(
            "recursion.boxes_advanced",
            rec.boxes_advanced as f64,
            "count",
        ),
        metric("recursion.cursor_steps", rec.cursor_steps as f64, "count"),
        metric(
            "recursion.steps_per_box",
            ratio(rec.cursor_steps as f64, rec.boxes_advanced as f64),
            "steps/box",
        ),
        metric("recursion.ios_charged", rec.ios_charged as f64, "count"),
        metric("analysis.self_s", analysis_self, "s"),
        metric("analysis.trials", trials as f64, "count"),
        metric("trace.compile_s", inner_best(&[Layer::TraceCompile]), "s"),
        metric("trace.decode_s", decode_s, "s"),
        metric("trace.summary_s", inner_best(&[Layer::TraceSummary]), "s"),
        metric(
            "trace.bytes_per_event",
            ratio(compile_bytes as f64, compile_events as f64),
            "B/event",
        ),
        metric(
            "paging.lru_self_s",
            inner_best(&[Layer::PagingLru]) - decode_s,
            "s",
        ),
        metric(
            "paging.analytic_s",
            inner_best(&[Layer::PagingAnalytic]),
            "s",
        ),
        metric("paging.accesses", accesses as f64, "count"),
        metric(
            "paging.hit_ratio",
            ratio(lru.cache_hits as f64, accesses as f64),
            "ratio",
        ),
        metric(
            "paging.cache_evictions",
            lru.cache_evictions as f64,
            "count",
        ),
        metric("paging.ios_charged", paging.ios_charged as f64, "count"),
        metric("host.contention", contention, "ratio"),
        metric(
            "bench.tracing_overhead",
            ratio(traced_pass, plain_pass),
            "ratio",
        ),
    ]
}
