//! The three workloads as lists of short cases. Each case is one call into
//! one layer's public function, paired with an oracle that computes the
//! same answer through a reference path.

use crate::fingerprint;
use crate::probe::Probe;
use cadapt_analysis::montecarlo::trial_rng;
use cadapt_analysis::{monte_carlo_ratio, McConfig};
use cadapt_core::memory_profile::MemoryProfile;
use cadapt_core::profile::ConstantSource;
use cadapt_core::{
    AdaptivityReport, Blocks, BoxRecord, BoxSource, Potential, ProgressLedger, RunCursor,
    SquareProfile,
};
use cadapt_paging::{
    analytic_fixed, analytic_memory_profile, analytic_square_profile, replay_fixed,
    replay_memory_profile, replay_square_profile,
};
use cadapt_profiles::contention::sawtooth;
use cadapt_profiles::dist::{DistSource, EmpiricalMultiset, PowerOfB};
use cadapt_profiles::perturb::{
    BoxOrderPerturbedSource, ConstantFactorJiggle, RandomPlacement, SizePerturbedSource,
    UniformMultiplier,
};
use cadapt_profiles::{contended_round_robin, sawtooth_squares, RoundRobin, WorstCase};
use cadapt_recursion::walk::{naive_capacity_run, naive_simplified_run};
use cadapt_recursion::{
    run_cursor_on_profile, run_on_profile, AbcParams, ClosedForms, ExecCursor, ExecModel, RunConfig,
};
use cadapt_trace::{compiled, summarized, BlockTrace, TraceAlgo, TraceProgram, TraceSummary};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;

pub const WORKLOADS: [&str; 3] = ["worst-case", "smoothed", "trace-replay"];

/// The layer whose public function a case calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Recursion,
    Analysis,
    TraceCompile,
    TraceSummary,
    PagingLru,
    PagingAnalytic,
}

/// What a call produced: its fingerprint, the simulated events it
/// advanced, and (compiles only) the bytecode length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    pub fp: u64,
    pub events: u64,
    pub bytes: u64,
}

impl Output {
    fn new(fp: u64, events: u64) -> Output {
        Output {
            fp,
            events,
            bytes: 0,
        }
    }
}

type Call = Box<dyn FnMut(&mut Probe<'_>) -> Result<Output, String>>;
type Oracle = Box<dyn Fn() -> Result<Output, String>>;

/// The inner layer a case reaches only through its call, timed alone on
/// the same inputs in the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartKind {
    /// Drain the case's sources for the boxes the call consumed.
    Supply,
    /// The Monte-Carlo trials run one by one through `run_on_profile`.
    OneByOne,
    /// Decode the replayed program's events.
    Decode,
}

/// Runs and boxes a supply drain pulled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Drained {
    pub runs: u64,
    pub boxes: u64,
    /// Boxes that arrived in runs of more than one box.
    pub in_multi_box_runs: u64,
}

impl Drained {
    /// Take up to `left` boxes of a run of `repeat`.
    fn take(&mut self, repeat: u64, left: u64) {
        let taken = repeat.min(left);
        self.boxes += taken;
        if repeat > 1 {
            self.in_multi_box_runs += taken;
        }
        self.runs += 1;
    }

    pub fn plus(self, other: Drained) -> Drained {
        Drained {
            runs: self.runs + other.runs,
            boxes: self.boxes + other.boxes,
            in_multi_box_runs: self.in_multi_box_runs + other.in_multi_box_runs,
        }
    }
}

pub struct Part {
    pub kind: PartKind,
    pub run: Box<dyn FnMut(&mut Probe<'_>) -> Drained>,
}

pub struct Case {
    pub name: String,
    pub layer: Layer,
    /// Monte-Carlo trials per call (0 for other layers).
    pub trials: u64,
    /// The call also builds an input other cases replay, so its best time
    /// counts toward `setup_s` as well.
    pub setup: bool,
    pub call: Call,
    pub oracle: Oracle,
    /// Filled only for the traced run.
    pub parts: Vec<Part>,
}

/// A fresh, non-memoised construction of an input the cases use, timing
/// `count` builds in one sample.
pub type SetupStep = Box<dyn FnMut(&mut Probe<'_>, u32)>;

fn setup_step<T>(span: &'static str, build: impl Fn() -> T + 'static) -> SetupStep {
    Box::new(move |p, count| {
        p.time(span, || {
            for _ in 0..count {
                black_box(build());
            }
        });
    })
}

pub struct Workload {
    pub cases: Vec<Case>,
    pub setup: Vec<SetupStep>,
}

/// Build workload `name`. Randomised inputs derive from `seed`; `parts`
/// adds the inner-layer timings of the traced run, which needs one extra
/// call per case to learn box counts.
pub fn build(name: &str, seed: u64, parts: bool) -> Result<Workload, String> {
    match name {
        "worst-case" => worst_case(parts),
        "smoothed" => smoothed(seed, parts),
        "trace-replay" => trace_replay(parts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ledger_report(rho: Potential, n: Blocks, records: &[BoxRecord]) -> AdaptivityReport {
    let mut ledger = ProgressLedger::new(rho, n);
    for &r in records {
        ledger.record(r);
    }
    ledger.finish()
}

/// Pull runs from `source` until `boxes` boxes have been supplied, the
/// way the execution driver pulls them.
fn drain_source<S: BoxSource>(source: &mut S, boxes: u64) -> Drained {
    let mut d = Drained::default();
    while d.boxes < boxes {
        let run = black_box(source.next_run());
        d.take(run.repeat, boxes - d.boxes);
    }
    d
}

fn drain_cursor<C: RunCursor>(cursor: &mut C, boxes: u64) -> Drained {
    let mut d = Drained::default();
    while d.boxes < boxes {
        match black_box(cursor.next_run()) {
            Ok(Some(run)) => d.take(run.repeat, boxes - d.boxes),
            Ok(None) | Err(_) => break,
        }
    }
    d
}

/// A run cursor expanded box by box, for the naive walk (which takes a
/// per-box source).
struct CursorBoxes<C> {
    cursor: C,
    size: Blocks,
    left: u64,
}

impl<C: RunCursor> BoxSource for CursorBoxes<C> {
    fn next_box(&mut self) -> Blocks {
        if self.left == 0 {
            let run = self
                .cursor
                .next_run()
                .expect("the oracle's pipeline carries no cancel token")
                .expect("the contention pipeline is infinite");
            self.size = run.size;
            self.left = run.repeat;
        }
        self.left -= 1;
        self.size
    }
}

/// Fresh closed-form and descent tables for `(params, n)`: what the
/// recursion layer's memo builds on its first miss.
fn table_step(params: AbcParams, n: Blocks) -> SetupStep {
    setup_step("recursion.tables", move || {
        ClosedForms::for_size(params, n).map(ExecCursor::new)
    })
}

fn push_table_steps(
    steps: &mut Vec<SetupStep>,
    seen: &mut Vec<(AbcParams, Blocks)>,
    params: AbcParams,
    n: Blocks,
) {
    let key = |q: &AbcParams, m: Blocks| (q.a(), q.b(), q.c().to_bits(), q.base(), m);
    if !seen.iter().any(|(q, m)| key(q, *m) == key(&params, n)) {
        seen.push((params, n));
        steps.push(table_step(params, n));
    }
}

// ---------------------------------------------------------------- worst-case

/// One closed-form execution on a per-box source, checked by the naive walk.
fn exec_case<S, F>(
    name: String,
    params: AbcParams,
    n: Blocks,
    model: ExecModel,
    make: F,
    parts: bool,
) -> Result<Case, String>
where
    S: BoxSource + 'static,
    F: Fn() -> S + Clone + 'static,
{
    let config = RunConfig {
        model,
        ..RunConfig::default()
    };
    let call_make = make.clone();
    let call: Call = Box::new(move |p| {
        let r = p
            .time("recursion.run_on_profile", || {
                run_on_profile(params, n, &mut call_make(), &config)
            })
            .map_err(err)?;
        Ok(Output::new(fingerprint::report(&r), r.boxes_used))
    });
    let oracle_make = make.clone();
    let oracle: Oracle = Box::new(move || {
        let cf = ClosedForms::for_size(params, n).map_err(err)?;
        let records = match model {
            ExecModel::Simplified => naive_simplified_run(&cf, &mut oracle_make(), u64::MAX),
            ExecModel::Capacity { cost_factor } => {
                naive_capacity_run(&cf, &mut oracle_make(), cost_factor, u64::MAX)
            }
        };
        let r = ledger_report(params.potential(), n, &records);
        Ok(Output::new(fingerprint::report(&r), r.boxes_used))
    });
    let mut case_parts = Vec::new();
    if parts {
        let boxes = run_on_profile(params, n, &mut make(), &config)
            .map_err(err)?
            .boxes_used;
        case_parts.push(Part {
            kind: PartKind::Supply,
            run: Box::new(move |p| p.time("profiles.drain", || drain_source(&mut make(), boxes))),
        });
    }
    Ok(Case {
        name,
        layer: Layer::Recursion,
        trials: 0,
        setup: false,
        call,
        oracle,
        parts: case_parts,
    })
}

/// The sawtooth menu E16's cycling tenant repeats.
fn tooth() -> SquareProfile {
    SquareProfile::new((1..=32).chain((1..=32).rev()).collect()).expect("positive boxes")
}

/// E16's three contended tenants, each throttled to its fair share of 96
/// blocks and time-sliced in 1024-box turns.
fn contention_pipeline<'a>(adversary: &WorstCase, tooth: &'a SquareProfile) -> RoundRobin<'a> {
    let tenants: Vec<Box<dyn RunCursor + 'a>> = vec![
        Box::new(adversary.source().into_cursor()),
        Box::new(tooth.cycle().into_cursor()),
        Box::new(ConstantSource::new(96).into_cursor()),
    ];
    contended_round_robin(tenants, 1024, 96)
}

fn pipeline_case(n: Blocks, parts: bool) -> Result<Case, String> {
    let mm = AbcParams::mm_scan();
    let config = RunConfig::default();
    let adversary = WorstCase::new(8, 4, 1, 20).map_err(err)?;
    let tooth = Arc::new(tooth());
    let (call_wc, call_tooth) = (adversary, Arc::clone(&tooth));
    let call: Call = Box::new(move |p| {
        let mut pipeline = contention_pipeline(&call_wc, &call_tooth);
        let r = p
            .time("recursion.run_cursor_on_profile", || {
                run_cursor_on_profile(mm, n, &mut pipeline, &config)
            })
            .map_err(err)?;
        Ok(Output::new(fingerprint::report(&r), r.boxes_used))
    });
    let (oracle_wc, oracle_tooth) = (adversary, Arc::clone(&tooth));
    let oracle: Oracle = Box::new(move || {
        let cf = ClosedForms::for_size(mm, n).map_err(err)?;
        let mut boxes = CursorBoxes {
            cursor: contention_pipeline(&oracle_wc, &oracle_tooth),
            size: 0,
            left: 0,
        };
        let records = naive_simplified_run(&cf, &mut boxes, u64::MAX);
        let r = ledger_report(mm.potential(), n, &records);
        Ok(Output::new(fingerprint::report(&r), r.boxes_used))
    });
    let mut case_parts = Vec::new();
    if parts {
        let boxes =
            run_cursor_on_profile(mm, n, &mut contention_pipeline(&adversary, &tooth), &config)
                .map_err(err)?
                .boxes_used;
        case_parts.push(Part {
            kind: PartKind::Supply,
            run: Box::new(move |p| {
                let mut pipeline = contention_pipeline(&adversary, &tooth);
                p.time("profiles.drain", || drain_cursor(&mut pipeline, boxes))
            }),
        });
    }
    Ok(Case {
        name: format!("e16/contended-round-robin/mm-scan/simplified/n{n}"),
        layer: Layer::Recursion,
        trials: 0,
        setup: false,
        call,
        oracle,
        parts: case_parts,
    })
}

/// E1's four algorithms and E9's grid on their worst-case profiles, the
/// same algorithms on constant boxes, under both box models, and E16's
/// contended pipeline. Sizes keep each call in the 0.1–10 ms range and the
/// naive capacity walk (quadratic in boxes) within a few seconds.
fn worst_case(parts: bool) -> Result<Workload, String> {
    let p = |a, b, c| AbcParams::new(a, b, c, 1).map_err(err);
    let (mm, inplace, strassen, co_dp) = (
        AbcParams::mm_scan(),
        AbcParams::mm_inplace(),
        AbcParams::strassen(),
        AbcParams::co_dp(),
    );
    let (simplified, capacity) = (ExecModel::Simplified, ExecModel::capacity());
    // (label, algorithm, profile donor, model, n). MM-Inplace runs on
    // MM-Scan's profile, as in E1.
    let runs: Vec<(&str, AbcParams, AbcParams, ExecModel, Blocks)> = vec![
        ("mm-scan", mm, mm, simplified, 4096),
        ("mm-inplace", inplace, mm, simplified, 4096),
        ("strassen", strassen, strassen, simplified, 4096),
        ("co-dp", co_dp, co_dp, simplified, 1024),
        ("mm-scan", mm, mm, capacity, 256),
        ("mm-inplace", inplace, mm, capacity, 1024),
        ("strassen", strassen, strassen, capacity, 1024),
        ("co-dp", co_dp, co_dp, capacity, 256),
        ("e9(8,4,0)", p(8, 4, 0.0)?, p(8, 4, 0.0)?, capacity, 256),
        ("e9(8,4,0.5)", p(8, 4, 0.5)?, p(8, 4, 0.5)?, capacity, 256),
        ("e9(2,4,1)", p(2, 4, 1.0)?, p(2, 4, 1.0)?, capacity, 1024),
        ("e9(4,4,1)", p(4, 4, 1.0)?, p(4, 4, 1.0)?, capacity, 1024),
    ];
    let mut cases = Vec::new();
    let mut setup = Vec::new();
    let mut seen = Vec::new();
    for (label, params, donor, model, n) in runs {
        let wc = WorstCase::for_problem(&donor, n).map_err(err)?;
        push_table_steps(&mut setup, &mut seen, params, n);
        cases.push(exec_case(
            format!("worst-case-profile/{label}/{}/n{n}", model.label()),
            params,
            n,
            model,
            move || wc.source(),
            parts,
        )?);
    }
    // Constant boxes: one long run, so batched advancement does all of it.
    let constant: Vec<(&str, AbcParams, ExecModel, Blocks, Blocks)> = vec![
        ("mm-scan", mm, simplified, 4096, 16),
        ("strassen", strassen, simplified, 4096, 4),
        ("mm-scan", mm, capacity, 1024, 16),
        ("strassen", strassen, capacity, 1024, 4),
    ];
    for (label, params, model, n, size) in constant {
        push_table_steps(&mut setup, &mut seen, params, n);
        cases.push(exec_case(
            format!("constant{size}/{label}/{}/n{n}", model.label()),
            params,
            n,
            model,
            move || ConstantSource::new(size),
            parts,
        )?);
    }
    let pipeline_n = 4096;
    push_table_steps(&mut setup, &mut seen, mm, pipeline_n);
    cases.push(pipeline_case(pipeline_n, parts)?);
    Ok(Workload { cases, setup })
}

// ------------------------------------------------------------------ smoothed

/// One Monte-Carlo estimate on one thread; every trial is checked by the
/// naive walk on the same trial stream.
fn mc_case<S, F>(
    name: String,
    params: AbcParams,
    n: Blocks,
    trials: u64,
    seed: u64,
    make: F,
    parts: bool,
) -> Result<Case, String>
where
    S: BoxSource + 'static,
    F: Fn(ChaCha8Rng) -> S + Sync + Clone + 'static,
{
    let config = McConfig {
        trials,
        threads: 1,
        seed,
        run: RunConfig::default(),
    };
    let call_make = make.clone();
    let call: Call = Box::new(move |p| {
        let s = p
            .time("analysis.monte_carlo_ratio", || {
                monte_carlo_ratio(params, n, &config, &call_make)
            })
            .map_err(err)?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let boxes = (s.boxes.mean * s.boxes.count as f64).round() as u64;
        Ok(Output::new(fingerprint::mc_summary(&s), boxes))
    });
    let oracle_make = make.clone();
    let oracle: Oracle = Box::new(move || {
        let cf = ClosedForms::for_size(params, n).map_err(err)?;
        let reports: Vec<AdaptivityReport> = (0..trials)
            .map(|i| {
                let records =
                    naive_simplified_run(&cf, &mut oracle_make(trial_rng(seed, i)), u64::MAX);
                ledger_report(params.potential(), n, &records)
            })
            .collect();
        let boxes = reports.iter().map(|r| r.boxes_used).sum();
        Ok(Output::new(fingerprint::mc_reports(n, &reports), boxes))
    });
    let mut case_parts = Vec::new();
    if parts {
        let run = RunConfig::default();
        let boxes: Vec<u64> = (0..trials)
            .map(|i| {
                run_on_profile(params, n, &mut make(trial_rng(seed, i)), &run)
                    .map(|r| r.boxes_used)
                    .map_err(err)
            })
            .collect::<Result<_, _>>()?;
        let one_make = make.clone();
        case_parts.push(Part {
            kind: PartKind::OneByOne,
            run: Box::new(move |p| {
                p.time("analysis.trials_one_by_one", || {
                    for i in 0..trials {
                        let _ = black_box(run_on_profile(
                            params,
                            n,
                            &mut one_make(trial_rng(seed, i)),
                            &run,
                        ));
                    }
                });
                Drained::default()
            }),
        });
        case_parts.push(Part {
            kind: PartKind::Supply,
            run: Box::new(move |p| {
                p.time("profiles.drain", || {
                    (0u64..)
                        .zip(&boxes)
                        .fold(Drained::default(), |total, (i, &b)| {
                            total.plus(drain_source(&mut make(trial_rng(seed, i)), b))
                        })
                })
            }),
        });
    }
    Ok(Case {
        name,
        layer: Layer::Analysis,
        trials,
        setup: false,
        call,
        oracle,
        parts: case_parts,
    })
}

/// A per-case trial seed derived from the run's seed.
fn case_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn multiset_step(donor: AbcParams, n: Blocks) -> SetupStep {
    setup_step("profiles.empirical_multiset", move || {
        WorstCase::for_problem(&donor, n)
            .map(|wc| EmpiricalMultiset::from_counts(&wc.box_multiset(), "shuffled worst case"))
    })
}

/// E2's i.i.d. draws (powers of b, the adversary's own multiset), E3's
/// size perturbations and E5's box-order perturbations of the worst-case
/// profile, all through `monte_carlo_ratio` on one thread.
fn smoothed(seed: u64, parts: bool) -> Result<Workload, String> {
    let mm = AbcParams::mm_scan();
    let strassen = AbcParams::strassen();
    let co_dp = AbcParams::co_dp();
    let mut cases = Vec::new();
    let mut setup = Vec::new();
    let mut seen = Vec::new();
    let mut next_seed = {
        let mut index = 0;
        move || {
            index += 1;
            case_seed(seed, index)
        }
    };

    for (label, params, n, trials) in [("mm-scan", mm, 4096, 64), ("co-dp", co_dp, 1024, 64)] {
        push_table_steps(&mut setup, &mut seen, params, n);
        let k = cadapt_core::potential::exact_log(params.b(), n).ok_or("canonical size")?;
        let dist = PowerOfB::new(params.b(), 0, k);
        cases.push(mc_case(
            format!("iid-pow{}/{label}/n{n}/trials{trials}", params.b()),
            params,
            n,
            trials,
            next_seed(),
            move |rng| DistSource::new(dist, rng),
            parts,
        )?);
    }
    // Many small trials rather than a few large ones, so that the work a
    // pass does varies little from seed to seed.
    let n = 256;
    for (label, params, trials) in [("mm-scan", mm, 32), ("co-dp", co_dp, 16)] {
        push_table_steps(&mut setup, &mut seen, params, n);
        setup.push(multiset_step(params, n));
        let wc = WorstCase::for_problem(&params, n).map_err(err)?;
        let multiset = EmpiricalMultiset::from_counts(&wc.box_multiset(), "shuffled worst case");
        cases.push(mc_case(
            format!("iid-shuffled-worst-case/{label}/n{n}/trials{trials}"),
            params,
            n,
            trials,
            next_seed(),
            move |rng| DistSource::new(multiset.clone(), rng),
            parts,
        )?);
    }
    let wc = WorstCase::for_problem(&mm, n).map_err(err)?;
    push_table_steps(&mut setup, &mut seen, mm, n);
    for (label, t, trials) in [("uniform[0,2]", 2.0, 8), ("uniform[0,8]", 8.0, 16)] {
        cases.push(mc_case(
            format!("size-perturbed-{label}/mm-scan/n{n}/trials{trials}"),
            mm,
            n,
            trials,
            next_seed(),
            move |rng| SizePerturbedSource::new(wc.source(), UniformMultiplier { t }, rng),
            parts,
        )?);
    }
    {
        let trials = 16;
        cases.push(mc_case(
            format!("size-perturbed-jiggle4/mm-scan/n{n}/trials{trials}"),
            mm,
            n,
            trials,
            next_seed(),
            move |rng| SizePerturbedSource::new(wc.source(), ConstantFactorJiggle { s: 4.0 }, rng),
            parts,
        )?);
    }
    for (label, params, trials) in [("mm-scan", mm, 16), ("strassen", strassen, 16)] {
        let wc = WorstCase::for_problem(&params, n).map_err(err)?;
        push_table_steps(&mut setup, &mut seen, params, n);
        cases.push(mc_case(
            format!("box-order-perturbed/{label}/n{n}/trials{trials}"),
            params,
            n,
            trials,
            next_seed(),
            move |rng| BoxOrderPerturbedSource::new(wc, RandomPlacement(rng)),
            parts,
        )?);
    }
    Ok(Workload { cases, setup })
}

// -------------------------------------------------------------- trace-replay

const BLOCK_WORDS: u64 = 4;

/// E8's fixed LRU capacities.
const CAPACITIES: [Blocks; 6] = [4, 16, 64, 256, 1024, 1 << 20];
/// A spread of E8's constant box sizes.
const BOX_SIZES: [Blocks; 3] = [8, 64, 512];

fn label(algo: TraceAlgo, side: usize) -> String {
    format!("{}/side{side}", algo.label())
}

/// E8's sawtooth m(t) for a trace with `ws` distinct blocks:
/// (m_min, m_max, plateau, duration).
fn sawtooth_params(ws: Blocks) -> (Blocks, Blocks, u128, u128) {
    (ws / 8 + 1, ws, u128::from(ws), u128::from(ws) * 1000)
}

fn e8_sawtooth(ws: Blocks) -> MemoryProfile {
    let (lo, hi, plateau, duration) = sawtooth_params(ws);
    sawtooth(lo, hi, plateau, duration)
}

/// The recorded event vector: the oracle's independent route to every
/// trace answer.
fn reference_trace(algo: TraceAlgo, side: usize) -> BlockTrace {
    algo.trace(side, BLOCK_WORDS)
}

fn decode_part(program: Arc<TraceProgram>) -> Part {
    Part {
        kind: PartKind::Decode,
        run: Box::new(move |p| {
            p.time("trace.decode", || {
                for event in program.events() {
                    black_box(event);
                }
            });
            Drained::default()
        }),
    }
}

fn lru_case(name: String, call: Call, oracle: Oracle, parts: Vec<Part>) -> Case {
    Case {
        name,
        layer: Layer::PagingLru,
        trials: 0,
        setup: false,
        call,
        oracle,
        parts,
    }
}

fn analytic_case(name: String, call: Call, oracle: Oracle) -> Case {
    Case {
        name,
        layer: Layer::PagingAnalytic,
        trials: 0,
        setup: false,
        call,
        oracle,
        parts: Vec::new(),
    }
}

/// Compile and summarise one corpus program: write-side cases whose best
/// times are also the set-up of the read side.
fn program_cases(algo: TraceAlgo, side: usize, cases: &mut Vec<Case>) {
    cases.push(Case {
        name: format!("compile/{}", label(algo, side)),
        layer: Layer::TraceCompile,
        trials: 0,
        setup: true,
        call: Box::new(move |p| {
            let program = p.time("trace.compile", || algo.compile(side, BLOCK_WORDS));
            Ok(Output {
                fp: fingerprint::program(&program),
                events: program.accesses(),
                bytes: program.byte_len() as u64,
            })
        }),
        oracle: Box::new(move || {
            let program = cadapt_trace::compile(&reference_trace(algo, side));
            Ok(Output {
                fp: fingerprint::program(&program),
                events: program.accesses(),
                bytes: program.byte_len() as u64,
            })
        }),
        parts: Vec::new(),
    });
    let program = compiled(algo, side, BLOCK_WORDS);
    cases.push(Case {
        name: format!("summary/{}", label(algo, side)),
        layer: Layer::TraceSummary,
        trials: 0,
        setup: true,
        call: Box::new(move |p| {
            let summary = p.time("trace.summary", || TraceSummary::new(&*program));
            Ok(Output::new(
                fingerprint::trace_summary(&summary),
                summary.accesses(),
            ))
        }),
        oracle: Box::new(move || {
            let summary = TraceSummary::new(&reference_trace(algo, side));
            Ok(Output::new(
                fingerprint::trace_summary(&summary),
                summary.accesses(),
            ))
        }),
        parts: Vec::new(),
    });
}

/// E8's fixed-capacity and constant-box replays of one program, simulated
/// and analytic; every analytic answer is checked against the simulator.
fn e8_replay_cases(algo: TraceAlgo, side: usize, cases: &mut Vec<Case>, parts: bool) {
    let program = compiled(algo, side, BLOCK_WORDS);
    let st = summarized(algo, side, BLOCK_WORDS);
    let rho = algo.potential();
    let accesses = program.accesses();
    for m in CAPACITIES {
        let prog = Arc::clone(&program);
        let reference = move || {
            let r = replay_fixed(&reference_trace(algo, side), m);
            Ok(Output::new(fingerprint::fixed(&r), r.accesses))
        };
        cases.push(lru_case(
            format!("replay-fixed/{}/m{m}", label(algo, side)),
            Box::new(move |p| {
                let r = p.time("paging.replay_fixed", || replay_fixed(&*prog, m));
                Ok(Output::new(fingerprint::fixed(&r), r.accesses))
            }),
            Box::new(reference),
            if parts {
                vec![decode_part(Arc::clone(&program))]
            } else {
                Vec::new()
            },
        ));
        let st = Arc::clone(&st);
        cases.push(analytic_case(
            format!("analytic-fixed/{}/m{m}", label(algo, side)),
            Box::new(move |p| {
                let r = p.time("paging.analytic_fixed", || analytic_fixed(st.summary(), m));
                Ok(Output::new(fingerprint::fixed(&r), 0))
            }),
            Box::new(move || {
                let r = replay_fixed(&reference_trace(algo, side), m);
                Ok(Output::new(fingerprint::fixed(&r), 0))
            }),
        ));
    }
    for size in BOX_SIZES {
        let prog = Arc::clone(&program);
        let mut case_parts = Vec::new();
        if parts {
            let boxes =
                replay_square_profile(&*program, &mut ConstantSource::new(size), rho).boxes_used;
            case_parts.push(Part {
                kind: PartKind::Supply,
                run: Box::new(move |p| {
                    p.time("profiles.drain", || {
                        drain_source(&mut ConstantSource::new(size), boxes)
                    })
                }),
            });
            case_parts.push(decode_part(Arc::clone(&program)));
        }
        cases.push(lru_case(
            format!("replay-square/{}/constant{size}", label(algo, side)),
            Box::new(move |p| {
                let r = p.time("paging.replay_square_profile", || {
                    replay_square_profile(&*prog, &mut ConstantSource::new(size), rho)
                });
                Ok(Output::new(fingerprint::report(&r), accesses))
            }),
            Box::new(move || {
                let r = replay_square_profile(
                    &reference_trace(algo, side),
                    &mut ConstantSource::new(size),
                    rho,
                );
                Ok(Output::new(fingerprint::report(&r), accesses))
            }),
            case_parts,
        ));
        let st = Arc::clone(&st);
        cases.push(analytic_case(
            format!("analytic-square/{}/constant{size}", label(algo, side)),
            Box::new(move |p| {
                let r = p.time("paging.analytic_square_profile", || {
                    analytic_square_profile(st.summary(), &mut ConstantSource::new(size), rho)
                });
                Ok(Output::new(fingerprint::report(&r), 0))
            }),
            Box::new(move || {
                let r = replay_square_profile(
                    &reference_trace(algo, side),
                    &mut ConstantSource::new(size),
                    rho,
                );
                Ok(Output::new(fingerprint::report(&r), 0))
            }),
        ));
    }
}

/// E8's arbitrary-profile replay under its sawtooth m(t), its analytic
/// twin, and the replay under the memoised inner-square decomposition.
fn e8_sawtooth_cases(
    algo: TraceAlgo,
    side: usize,
    cases: &mut Vec<Case>,
    setup: &mut Vec<SetupStep>,
    parts: bool,
) {
    let program = compiled(algo, side, BLOCK_WORDS);
    let st = summarized(algo, side, BLOCK_WORDS);
    let rho = algo.potential();
    let accesses = program.accesses();
    let ws = program.distinct_blocks();
    let (lo, hi, plateau, duration) = sawtooth_params(ws);
    let profile = Arc::new(e8_sawtooth(ws));
    setup.push(setup_step("profiles.sawtooth", move || e8_sawtooth(ws)));
    setup.push(setup_step("profiles.sawtooth_inner_squares", move || {
        e8_sawtooth(ws).inner_squares()
    }));
    let (prog, prof) = (Arc::clone(&program), Arc::clone(&profile));
    cases.push(lru_case(
        format!("replay-memory-profile/{}/sawtooth", label(algo, side)),
        Box::new(move |p| {
            let r = p.time("paging.replay_memory_profile", || {
                replay_memory_profile(&*prog, &prof)
            });
            if !r.completed {
                return Err("the sawtooth ran out before the trace".to_string());
            }
            Ok(Output::new(fingerprint::profile_replay(&r), accesses))
        }),
        Box::new(move || {
            let r = replay_memory_profile(&reference_trace(algo, side), &e8_sawtooth(ws));
            Ok(Output::new(fingerprint::profile_replay(&r), accesses))
        }),
        if parts {
            vec![decode_part(Arc::clone(&program))]
        } else {
            Vec::new()
        },
    ));
    let prof = Arc::clone(&profile);
    cases.push(analytic_case(
        format!("analytic-memory-profile/{}/sawtooth", label(algo, side)),
        Box::new(move |p| {
            let r = p.time("paging.analytic_memory_profile", || {
                analytic_memory_profile(st.summary(), &prof)
            });
            Ok(Output::new(fingerprint::profile_replay(&r), 0))
        }),
        Box::new(move || {
            let r = replay_memory_profile(&reference_trace(algo, side), &e8_sawtooth(ws));
            Ok(Output::new(fingerprint::profile_replay(&r), 0))
        }),
    ));
    let squares = sawtooth_squares(lo, hi, plateau, duration);
    let mut case_parts = Vec::new();
    if parts {
        let boxes = replay_square_profile(&*program, &mut squares.cycle(), rho).boxes_used;
        let squares = Arc::clone(&squares);
        case_parts.push(Part {
            kind: PartKind::Supply,
            run: Box::new(move |p| {
                p.time("profiles.drain", || {
                    drain_source(&mut squares.cycle(), boxes)
                })
            }),
        });
        case_parts.push(decode_part(Arc::clone(&program)));
    }
    cases.push(lru_case(
        format!("replay-square/{}/sawtooth-inner-squares", label(algo, side)),
        Box::new(move |p| {
            let r = p.time("paging.replay_square_profile", || {
                replay_square_profile(&*program, &mut squares.cycle(), rho)
            });
            Ok(Output::new(fingerprint::report(&r), accesses))
        }),
        Box::new(move || {
            let squares = e8_sawtooth(ws).inner_squares();
            let r = replay_square_profile(&reference_trace(algo, side), &mut squares.cycle(), rho);
            Ok(Output::new(fingerprint::report(&r), accesses))
        }),
        case_parts,
    ));
}

/// E8's kernels at its quick-tier side plus E15's extended corpus: the
/// write side (structural compile, reuse-distance summary) and the read
/// side (simulated LRU replays beside their analytic twins).
fn trace_replay(parts: bool) -> Result<Workload, String> {
    let mut cases = Vec::new();
    let mut setup = Vec::new();
    let e8 = [TraceAlgo::MmScan, TraceAlgo::MmInplace, TraceAlgo::Strassen];
    let programs = [
        (TraceAlgo::MmScan, 16),
        (TraceAlgo::MmInplace, 16),
        (TraceAlgo::Strassen, 16),
        (TraceAlgo::EditDistance, 32),
        (TraceAlgo::VebSearch, 32),
        (TraceAlgo::MmScan, 8),
        (TraceAlgo::Strassen, 8),
    ];
    for (algo, side) in programs {
        program_cases(algo, side, &mut cases);
    }
    for algo in e8 {
        e8_replay_cases(algo, 16, &mut cases, parts);
    }
    for (algo, side) in [
        (TraceAlgo::MmScan, 8),
        (TraceAlgo::MmInplace, 16),
        (TraceAlgo::Strassen, 8),
        (TraceAlgo::VebSearch, 32),
    ] {
        e8_sawtooth_cases(algo, side, &mut cases, &mut setup, parts);
    }
    Ok(Workload { cases, setup })
}
