//! **E16 — streaming contention pipelines at lengths no materialised
//! profile could hold.**
//!
//! The cursor layer (`cadapt_core::cursor`, `cadapt_profiles::scenario`)
//! claims that any contention scenario — tenants throttled to fair cache
//! shares and time-sliced round-robin — can be *streamed* through the
//! closed-form execution driver with O(1) resident profile state and
//! bit-identical results. This experiment validates the claim and then
//! leans on it:
//!
//! 1. **Validation** — at a common small size: streaming drives must
//!    reproduce the batched `BoxSource` drivers report-for-report
//!    (constant and worst-case feeds), the N-ary [`RoundRobin`] must agree
//!    with the binary `interleave` combinator both on abstract executions
//!    and on LRU trace replays, and a pre-fired [`CancelToken`] must
//!    surface as the typed `Cancelled` outcome at zero boxes. Any
//!    disagreement is a typed invariant failure, not a wrong table.
//! 2. **Scale** — a three-tenant contended round-robin (worst-case
//!    adversary, sawtooth cycle, constant hog), each throttled to its fair
//!    share, is streamed through the execution driver for **64× the
//!    longest trace E15 replays at the same scale** — pipeline lengths
//!    whose materialised `MemoryProfile` would occupy gigabytes. The
//!    pipeline is cut by `take_boxes` at exactly the target, and the
//!    driver's typed `ProfileExhausted { after_boxes }` outcome proves
//!    every box was consumed. When the `count-alloc` meter is compiled in
//!    (CI's metered `check --exp e16 --threads 1`), the drive runs under
//!    a **hard peak-heap assertion**: resident growth must stay under a
//!    fixed 64 KiB ceiling regardless of pipeline length. The meter counts
//!    the whole process, so only a single-threaded check isolates the
//!    drive.

use crate::{BenchError, Scale};
use cadapt_analysis::Table;
use cadapt_core::profile::ConstantSource;
use cadapt_core::{BoxSource, CancelToken, RunCursor, RunCursorExt, SquareProfile};
use cadapt_paging::{replay_square_cursor, replay_square_profile};
use cadapt_profiles::{contended_round_robin, fair_share, RoundRobin, WorstCase};
use cadapt_recursion::{run_cursor_on_profile, run_on_profile, AbcParams, RunConfig, RunError};
use cadapt_trace::{compiled, TraceAlgo};

/// Side used for the small-size validation stage.
const VALIDATE_SIDE: usize = 16;
const BLOCK_WORDS: u64 = 4;
/// E16 streams this many times E15's longest replay at the same scale.
const GROWTH_FACTOR: u64 = 64;
/// Boxes per tenant turn in the round-robin scenarios.
const CHUNK: u64 = 1024;
/// Cache blocks shared by the contending tenants at scale.
const TOTAL_CACHE: u64 = 96;
/// Hard ceiling on resident heap growth while streaming the at-scale
/// pipeline, when the `count-alloc` meter is installed. The streamed
/// state is a few cursor structs and a non-retaining ledger, about
/// 2.8 KiB at *any* pipeline length (2,779 B over the quick tier's 134M
/// boxes); a materialised profile of 8-byte box sizes would blow through
/// this within its first 8,192 boxes.
const PEAK_CEILING_BYTES: u64 = 64 * 1024;

/// Result of E16.
#[derive(Debug)]
pub struct E16Result {
    /// Per-check validation outcomes at the common size.
    pub validation_table: Table,
    /// The at-scale streaming drive.
    pub scale_table: Table,
    /// Equalities checked during validation.
    pub checks: u64,
    /// Boxes streamed through the contended pipeline at scale.
    pub boxes_streamed: u64,
    /// `boxes_streamed / max(E15 accesses at this scale)`.
    pub growth_vs_e15: f64,
    /// Peak resident heap growth during the at-scale drive, when the
    /// `count-alloc` meter is installed (always under
    /// `PEAK_CEILING_BYTES` — asserted, not just reported).
    pub peak_heap_bytes: Option<u64>,
}

/// The sawtooth menu the cycling tenant repeats.
fn tooth_profile() -> Result<SquareProfile, BenchError> {
    // cadapt-lint: allow(cursor-materialize) -- the 64-entry sawtooth menu the cycling tenant repeats; fixed size, never grows with pipeline length
    let tooth: Vec<u64> = (1..=32).chain((1..=32).rev()).collect();
    SquareProfile::new(tooth).map_err(|e| BenchError::invariant(format!("E16 tooth menu: {e}")))
}

fn check_equal<T: PartialEq + std::fmt::Debug>(
    table: &mut Table,
    checks: &mut u64,
    name: &str,
    left: &T,
    right: &T,
) -> Result<(), BenchError> {
    if left != right {
        return Err(BenchError::invariant(format!(
            "E16 validation {name}: {left:?} != {right:?}"
        )));
    }
    table.push_row(vec![name.to_string(), "equal".to_string()]);
    *checks += 1;
    Ok(())
}

/// Run E16.
///
/// # Errors
///
/// Any batched-vs-streaming disagreement during validation, a wrong typed
/// outcome from the drivers, or (when metered) a peak-heap ceiling breach
/// is reported as a typed failure.
#[allow(clippy::too_many_lines)]
pub fn run(scale: Scale) -> Result<E16Result, BenchError> {
    let mm = AbcParams::mm_scan();
    let config = RunConfig::default();
    let mut validation_table = Table::new(
        "E16a: streaming pipelines reproduce batched drivers",
        &["check", "verdict"],
    );
    let mut checks = 0u64;

    // 1a. Streaming == batched on the plain feeds.
    let n1 = mm.canonical_size(scale.pick(6, 7));
    let batched = run_on_profile(mm, n1, &mut ConstantSource::new(16), &config)?;
    let streamed =
        run_cursor_on_profile(mm, n1, &mut ConstantSource::new(16).into_cursor(), &config)?;
    check_equal(
        &mut validation_table,
        &mut checks,
        "constant: batched vs streamed",
        &batched,
        &streamed,
    )?;

    let wc_depth = scale.pick(4, 5);
    let wc = WorstCase::new(8, 4, 1, wc_depth)
        .map_err(|e| BenchError::invariant(format!("E16 worst-case params: {e}")))?;
    let wc_n = mm.canonical_size(wc_depth);
    let batched = run_on_profile(mm, wc_n, &mut wc.source(), &config)?;
    let streamed = run_cursor_on_profile(mm, wc_n, &mut wc.source().into_cursor(), &config)?;
    check_equal(
        &mut validation_table,
        &mut checks,
        "worst-case: batched vs streamed",
        &batched,
        &streamed,
    )?;

    // 1b. N-ary round-robin == binary interleave, on the abstract driver.
    let tooth = tooth_profile()?;
    let rr_tenants: Vec<Box<dyn RunCursor + '_>> = vec![
        Box::new(ConstantSource::new(16).into_cursor()),
        Box::new(tooth.cycle().into_cursor()),
    ];
    let mut rr = RoundRobin::new(rr_tenants, 3);
    let via_rr = run_cursor_on_profile(mm, n1, &mut rr, &config)?;
    let mut il = ConstantSource::new(16)
        .into_cursor()
        .interleave(tooth.cycle().into_cursor(), 3);
    let via_il = run_cursor_on_profile(mm, n1, &mut il, &config)?;
    check_equal(
        &mut validation_table,
        &mut checks,
        "exec: round-robin vs interleave",
        &via_rr,
        &via_il,
    )?;

    // 1c. The same equivalences under LRU trace replay.
    let program = compiled(TraceAlgo::MmInplace, VALIDATE_SIDE, BLOCK_WORDS);
    let rho = TraceAlgo::MmInplace.potential();
    let legacy = replay_square_profile(&*program, &mut ConstantSource::new(16), rho);
    let streamed = replay_square_cursor(&*program, &mut ConstantSource::new(16).into_cursor(), rho)
        .map_err(|e| BenchError::invariant(format!("E16 streamed replay: {e}")))?;
    check_equal(
        &mut validation_table,
        &mut checks,
        "replay: legacy vs streamed",
        &legacy,
        &streamed,
    )?;

    let rr_tenants: Vec<Box<dyn RunCursor + '_>> = vec![
        Box::new(ConstantSource::new(16).into_cursor()),
        Box::new(tooth.cycle().into_cursor()),
    ];
    let mut rr = RoundRobin::new(rr_tenants, 3);
    let via_rr = replay_square_cursor(&*program, &mut rr, rho)
        .map_err(|e| BenchError::invariant(format!("E16 round-robin replay: {e}")))?;
    let mut il = ConstantSource::new(16)
        .into_cursor()
        .interleave(tooth.cycle().into_cursor(), 3);
    let via_il = replay_square_cursor(&*program, &mut il, rho)
        .map_err(|e| BenchError::invariant(format!("E16 interleave replay: {e}")))?;
    check_equal(
        &mut validation_table,
        &mut checks,
        "replay: round-robin vs interleave",
        &via_rr,
        &via_il,
    )?;

    // 1d. Cancellation surfaces as the typed outcome, at zero boxes for a
    //     pre-fired token.
    let fired = CancelToken::new();
    fired.cancel();
    let mut cancelled = ConstantSource::new(16).into_cursor().cancellable(fired);
    let outcome = run_cursor_on_profile(mm, n1, &mut cancelled, &config);
    check_equal(
        &mut validation_table,
        &mut checks,
        "cancellation: typed outcome",
        &outcome.err(),
        &Some(RunError::Cancelled { after_boxes: 0 }),
    )?;

    // 2. Scale: stream a three-tenant contended scenario for 64× E15's
    //    longest replay, under the peak-heap ceiling when metered.
    let side = scale.pick(64, 128);
    let e15_len = TraceAlgo::EXTENDED
        .iter()
        .map(|algo| compiled(*algo, side, BLOCK_WORDS).accesses())
        .max()
        .ok_or_else(|| BenchError::invariant("E16: empty corpus"))?;
    let target = e15_len.saturating_mul(GROWTH_FACTOR);
    // A problem far too large to complete within the pipeline: the typed
    // ProfileExhausted outcome then proves every box was streamed.
    let huge_n = mm.canonical_size(30);
    let wc_scale = WorstCase::new(8, 4, 1, 20)
        .map_err(|e| BenchError::invariant(format!("E16 scale adversary: {e}")))?;
    eprintln!(
        "[cadapt-bench] e16: streaming {target} boxes (64x E15's {e15_len}) through 3 contended tenants…"
    );
    let drive = || -> Result<RunError, BenchError> {
        let tenants: Vec<Box<dyn RunCursor + '_>> = vec![
            Box::new(wc_scale.source().into_cursor()),
            Box::new(tooth.cycle().into_cursor()),
            Box::new(ConstantSource::new(TOTAL_CACHE).into_cursor()),
        ];
        let mut pipeline = contended_round_robin(tenants, CHUNK, TOTAL_CACHE).take_boxes(target);
        match run_cursor_on_profile(mm, huge_n, &mut pipeline, &config) {
            Err(e) => Ok(e),
            Ok(report) => Err(BenchError::invariant(format!(
                "E16: the at-scale drive completed in {} boxes — huge_n is not huge",
                report.boxes_used
            ))),
        }
    };
    // Warm the process-wide descent-table cache for (mm, huge_n) outside
    // the metered region so the measurement sees only the streaming state.
    let mut warmup = ConstantSource::new(16).into_cursor().take_boxes(4);
    let _ = run_cursor_on_profile(mm, huge_n, &mut warmup, &config);
    let (outcome, peak_heap_bytes) = crate::alloc_meter::measure_peak_growth(drive);
    let outcome = outcome?;
    if outcome
        != (RunError::ProfileExhausted {
            after_boxes: target,
        })
    {
        return Err(BenchError::invariant(format!(
            "E16: expected ProfileExhausted after {target} boxes, got {outcome:?}"
        )));
    }
    if let Some(peak) = peak_heap_bytes {
        if peak > PEAK_CEILING_BYTES {
            return Err(BenchError::invariant(format!(
                "E16: peak heap growth {peak} B exceeds the {PEAK_CEILING_BYTES} B ceiling — \
                 a pipeline is materialising state"
            )));
        }
        eprintln!("[cadapt-bench] e16: peak heap growth {peak} B (ceiling {PEAK_CEILING_BYTES} B)");
    }

    let mut scale_table = Table::new(
        "E16b: contended round-robin streamed through the execution driver",
        &[
            "tenants",
            "chunk",
            "share",
            "boxes streamed",
            "vs E15",
            "outcome",
        ],
    );
    scale_table.push_row(vec![
        "3".to_string(),
        CHUNK.to_string(),
        fair_share(TOTAL_CACHE, 3).to_string(),
        target.to_string(),
        format!("{GROWTH_FACTOR}x"),
        "profile-exhausted at target".to_string(),
    ]);

    Ok(E16Result {
        validation_table,
        scale_table,
        checks,
        boxes_streamed: target,
        growth_vs_e15: target as f64 / e15_len as f64,
        peak_heap_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_passes_and_counts() {
        let result = run(Scale::Quick).expect("e16 runs");
        assert_eq!(result.checks, 6);
        assert!(result.boxes_streamed > 0);
    }

    #[test]
    fn quick_scale_streams_64x_e15_lengths() {
        let result = run(Scale::Quick).expect("e16 runs");
        assert!(
            result.growth_vs_e15 >= 64.0,
            "streamed only {}x E15's lengths",
            result.growth_vs_e15
        );
    }

    #[cfg(feature = "count-alloc")]
    #[test]
    fn metered_builds_report_a_peak_under_the_ceiling() {
        let result = run(Scale::Quick).expect("e16 runs");
        let peak = result.peak_heap_bytes.expect("meter is compiled in");
        assert!(peak <= PEAK_CEILING_BYTES, "peak {peak} over ceiling");
    }
}

/// Registry adapter: E16 through the experiment engine.
#[derive(Debug)]
pub struct Exp;

impl crate::harness::Experiment for Exp {
    fn id(&self) -> &'static str {
        "e16"
    }
    fn title(&self) -> &'static str {
        "Streaming contention pipelines: constant-memory replay at 64x E15 lengths"
    }
    fn deterministic(&self) -> bool {
        true // pure functions of deterministic pipelines
    }
    fn run(&self, ctx: crate::ExpCtx) -> Result<crate::harness::ExperimentOutput, BenchError> {
        let result = run(ctx.scale)?;
        let metrics = vec![
            crate::harness::metric("validation/checks", result.checks as f64),
            crate::harness::metric("scale/boxes_streamed", result.boxes_streamed as f64),
            crate::harness::metric("scale/growth_vs_e15", result.growth_vs_e15),
        ];
        Ok(crate::harness::ExperimentOutput {
            metrics,
            tables: vec![
                result.validation_table.render(),
                result.scale_table.render(),
            ],
        })
    }
}
