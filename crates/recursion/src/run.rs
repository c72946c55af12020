//! Drivers: run an (a, b, c)-regular execution against a box source or a
//! streaming [`RunCursor`] pipeline.
//!
//! There is exactly **one** run-draining loop in the workspace, inside
//! [`run_cursor_on_profile`], and everything drives through it: the
//! [`BoxSource`] entry point [`run_on_profile`] wraps the source in a
//! [`cadapt_core::SourceCursor`], and the Monte-Carlo drivers in
//! `cadapt-analysis` call the cursor entry point directly. The loop
//! advances each run of identical boxes in closed form and observes
//! cooperative cancellation between runs as the typed
//! [`RunError::Cancelled`]. The per-box reference it is tested against is
//! the naive walk in [`crate::walk`], which re-derives every box from the
//! explicit segment list.

use crate::model::ExecModel;
use crate::params::AbcParams;
use cadapt_core::{
    AdaptivityReport, Blocks, BoxSource, CoreError, ProgressLedger, RunCursor, SourceCursor,
};

/// Configuration of a run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Box semantics.
    pub model: ExecModel,
    /// Abort after this many boxes (safety net against degenerate
    /// profiles; worst-case profiles at the largest benchmark sizes use
    /// tens of millions of boxes, so the default is generous).
    pub max_boxes: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            model: ExecModel::Simplified,
            max_boxes: 2_000_000_000,
        }
    }
}

/// Run failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The problem size was not canonical for the parameters.
    BadSize(CoreError),
    /// The box cap was hit before the execution completed.
    BoxBudgetExhausted {
        /// The configured cap.
        max_boxes: u64,
    },
    /// A finite cursor pipeline ran dry before the execution completed.
    /// (Plain [`BoxSource`]s are infinite and never produce this; a
    /// [`take_boxes`](cadapt_core::RunCursorExt::take_boxes) pipeline can.)
    ProfileExhausted {
        /// Boxes consumed before the pipeline ended.
        after_boxes: u64,
    },
    /// The pipeline's [`CancelToken`](cadapt_core::CancelToken) was
    /// triggered; the execution stopped cooperatively between runs.
    Cancelled {
        /// Boxes consumed before cancellation was observed.
        after_boxes: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::BadSize(e) => write!(f, "bad problem size: {e}"),
            RunError::BoxBudgetExhausted { max_boxes } => {
                write!(f, "execution did not complete within {max_boxes} boxes")
            }
            RunError::ProfileExhausted { after_boxes } => {
                write!(f, "profile ran dry after {after_boxes} boxes")
            }
            RunError::Cancelled { after_boxes } => {
                write!(f, "execution cancelled after {after_boxes} boxes")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Run algorithm `params` on a problem of `n` blocks against boxes drawn
/// from `source`, returning the adaptivity report.
///
/// ```
/// use cadapt_core::profile::ConstantSource;
/// use cadapt_recursion::{run_on_profile, AbcParams, RunConfig};
///
/// // MM-Scan on constant boxes of 16 blocks, problem size 64:
/// let mut source = ConstantSource::new(16);
/// let report = run_on_profile(
///     AbcParams::mm_scan(), 64, &mut source, &RunConfig::default(),
/// )?;
/// assert_eq!(report.boxes_used, 12); // 8 subproblems + 4 boxes of scan
/// assert_eq!(report.ratio(), 1.5);
/// # Ok::<(), cadapt_recursion::RunError>(())
/// ```
///
/// The final box is recorded with its *used* I/O count, and the bounded
/// potential sum uses full box sizes — Eq. 2's "don't bother rounding down
/// the final square" convention, which it is insensitive to by construction.
///
/// # Errors
///
/// [`RunError::BadSize`] if `n` is not canonical; [`RunError::BoxBudgetExhausted`]
/// if `config.max_boxes` boxes did not complete the problem.
pub fn run_on_profile<S: BoxSource>(
    params: AbcParams,
    n: Blocks,
    source: &mut S,
    config: &RunConfig,
) -> Result<AdaptivityReport, RunError> {
    run_cursor_on_profile(params, n, &mut SourceCursor::new(source), config)
}

/// As [`run_on_profile`], but consume boxes from any streaming
/// [`RunCursor`] pipeline — combinator stacks, throttled/interleaved
/// multi-tenant scenarios, cancellable wrappers — instead of a plain
/// source.
///
/// ```
/// use cadapt_core::profile::ConstantSource;
/// use cadapt_core::{BoxSource, RunCursorExt};
/// use cadapt_recursion::{run_cursor_on_profile, AbcParams, RunConfig};
///
/// // MM-Scan against a throttled constant pipeline:
/// let mut pipeline = ConstantSource::new(64).into_cursor().throttle(16);
/// let report = run_cursor_on_profile(
///     AbcParams::mm_scan(), 64, &mut pipeline, &RunConfig::default(),
/// )?;
/// assert_eq!(report.boxes_used, 12); // same as constant 16s
/// # Ok::<(), cadapt_recursion::RunError>(())
/// ```
///
/// # Errors
///
/// As [`run_on_profile`], plus [`RunError::ProfileExhausted`] if a finite
/// pipeline ran dry mid-execution and [`RunError::Cancelled`] if a
/// [`CancelToken`](cadapt_core::CancelToken) in the pipeline fired.
pub fn run_cursor_on_profile<C: RunCursor>(
    params: AbcParams,
    n: Blocks,
    cursor: &mut C,
    config: &RunConfig,
) -> Result<AdaptivityReport, RunError> {
    // The closed-form and descent tables come from the process-wide cache:
    // repeated trials over the same (params, n) clone a shared start-state
    // cursor instead of rebuilding the tables (bit-identical either way).
    let mut exec = crate::cache::cursor_for(params, n).map_err(RunError::BadSize)?;
    let mut ledger = ProgressLedger::new(params.potential(), n);
    while !exec.is_done() {
        if ledger.boxes_used() >= config.max_boxes {
            return Err(RunError::BoxBudgetExhausted {
                max_boxes: config.max_boxes,
            });
        }
        let run = match cursor.next_run() {
            Ok(Some(run)) => run,
            Ok(None) => {
                return Err(RunError::ProfileExhausted {
                    after_boxes: ledger.boxes_used(),
                })
            }
            Err(cadapt_core::Cancelled) => {
                return Err(RunError::Cancelled {
                    after_boxes: ledger.boxes_used(),
                })
            }
        };
        debug_assert!(run.repeat >= 1, "runs must be non-empty");
        // A run cut by the box budget or by completion stops there; the
        // rest of the run is discarded, per the discard-on-stop law.
        let allowed = config.max_boxes - ledger.boxes_used();
        let out = config
            .model
            .advance_run(&mut exec, run.size, run.repeat.min(allowed));
        cadapt_core::counters::count_boxes(out.consumed);
        cadapt_core::counters::count_io(out.used);
        ledger.record_run(run.size, out.progress, out.used, out.consumed);
    }
    Ok(ledger.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{naive_capacity_run, naive_simplified_run};
    use crate::{ClosedForms, ExecCursor};
    use cadapt_core::profile::ConstantSource;
    use cadapt_core::SquareProfile;

    #[test]
    fn constant_boxes_complete_mm_scan() {
        let mut source = ConstantSource::new(16);
        let report =
            run_on_profile(AbcParams::mm_scan(), 64, &mut source, &RunConfig::default()).unwrap();
        // 8 boxes complete the 8 size-16 subtrees, then 4 boxes of 16
        // drain the root scan of 64.
        assert_eq!(report.boxes_used, 12);
        assert_eq!(report.total_progress, 512);
        // Ratio: 12 · 16^1.5 / 64^1.5 = 12 · 64 / 512 = 1.5.
        assert!((report.ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_model_also_completes() {
        let mut source = ConstantSource::new(16);
        let config = RunConfig {
            model: ExecModel::capacity(),
            ..RunConfig::default()
        };
        let report = run_on_profile(AbcParams::mm_scan(), 64, &mut source, &config).unwrap();
        assert_eq!(report.total_progress, 512);
        assert!(report.boxes_used > 0);
    }

    #[test]
    fn box_budget_error() {
        let mut source = ConstantSource::new(1);
        let config = RunConfig {
            max_boxes: 3,
            ..RunConfig::default()
        };
        let err = run_on_profile(AbcParams::mm_scan(), 64, &mut source, &config).unwrap_err();
        assert_eq!(err, RunError::BoxBudgetExhausted { max_boxes: 3 });
    }

    #[test]
    fn bad_size_error() {
        let mut source = ConstantSource::new(4);
        let err = run_on_profile(AbcParams::mm_scan(), 63, &mut source, &RunConfig::default())
            .unwrap_err();
        assert!(matches!(err, RunError::BadSize(_)));
    }

    /// Fold per-box records from the naive walk into a report, the way
    /// the driver's ledger folds whole runs.
    fn naive_report<S: BoxSource>(
        params: AbcParams,
        n: Blocks,
        source: &mut S,
        model: ExecModel,
    ) -> AdaptivityReport {
        let cf = ClosedForms::for_size(params, n).unwrap();
        let records = match model {
            ExecModel::Simplified => naive_simplified_run(&cf, source, u64::MAX),
            ExecModel::Capacity { cost_factor } => {
                naive_capacity_run(&cf, source, cost_factor, u64::MAX)
            }
        };
        let mut ledger = ProgressLedger::new(params.potential(), n);
        for record in records {
            ledger.record(record);
        }
        ledger.finish()
    }

    /// Every report field equal, the floats by bit pattern.
    fn assert_reports_bitwise_eq(got: &AdaptivityReport, want: &AdaptivityReport, what: &str) {
        assert_eq!(got, want, "{what}");
        let float_bits = |r: &AdaptivityReport| {
            [
                r.exponent,
                r.bounded_potential_sum,
                r.raw_potential_sum,
                r.required_progress,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(float_bits(got), float_bits(want), "{what}");
    }

    /// M_{a,b}(b^depth) with unit leaves: the post-order traversal of the
    /// complete a-ary tree, each node of size m emitting one box of size m
    /// after its children. This is the box sequence of
    /// `cadapt_profiles::WorstCase::new(a, b, 1, depth)`, rebuilt here
    /// because that crate depends on this one.
    fn worst_case_profile(a: u64, b: u64, depth: u32) -> SquareProfile {
        fn emit(a: u64, b: u64, level: u32, out: &mut Vec<Blocks>) {
            if level > 0 {
                for _ in 0..a {
                    emit(a, b, level - 1, out);
                }
            }
            out.push(b.pow(level));
        }
        let mut sizes = Vec::new();
        emit(a, b, depth, &mut sizes);
        SquareProfile::new(sizes).unwrap()
    }

    #[test]
    fn batched_runs_match_the_naive_walk_bitwise() {
        let mixed = SquareProfile::new(vec![1, 1, 1, 1, 16, 16, 2, 2, 2, 64, 4, 4, 4, 4]).unwrap();
        // The wide adversary: a = 16 makes leaf bursts of 16 unit boxes,
        // the runs worst-case experiments spend their time in.
        let wide = AbcParams::new(16, 4, 1.0, 1).unwrap();
        let depth = 3;
        let adversary = worst_case_profile(16, 4, depth);
        let cases = [
            ("mixed", AbcParams::mm_scan(), 256, &mixed),
            (
                "wide adversary",
                wide,
                wide.canonical_size(depth),
                &adversary,
            ),
        ];
        for (name, params, n, profile) in cases {
            for model in [ExecModel::Simplified, ExecModel::capacity()] {
                let config = RunConfig {
                    model,
                    ..RunConfig::default()
                };
                let batched = run_on_profile(params, n, &mut profile.cycle(), &config).unwrap();
                let naive = naive_report(params, n, &mut profile.cycle(), model);
                assert_reports_bitwise_eq(&batched, &naive, &format!("{name}, {}", model.label()));
            }
        }
    }

    #[test]
    fn batched_counters_match_per_box() {
        use cadapt_core::counters::{count_boxes, count_io, Recording};
        let params = AbcParams::mm_scan();
        let n = 1024;
        for model in [ExecModel::Simplified, ExecModel::capacity()] {
            let config = RunConfig {
                model,
                ..RunConfig::default()
            };
            let rec = Recording::start();
            let _ = run_on_profile(params, n, &mut ConstantSource::new(16), &config).unwrap();
            let batched = rec.finish();
            // The per-box reference: one `ExecModel::advance` per box,
            // counted the way the driver counts a run.
            let rec = Recording::start();
            let mut cursor = ExecCursor::new(ClosedForms::for_size(params, n).unwrap());
            while !cursor.is_done() {
                let out = model.advance(&mut cursor, 16);
                count_boxes(1);
                count_io(out.used);
            }
            let per_box = rec.finish();
            assert_eq!(batched, per_box, "{}", model.label());
        }
    }

    #[test]
    fn single_giant_box_is_optimal() {
        let mut source = ConstantSource::new(1 << 20);
        let report = run_on_profile(
            AbcParams::mm_scan(),
            256,
            &mut source,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(report.boxes_used, 1);
        // Bounded potential: min(n, huge)^1.5 = n^1.5 -> ratio exactly 1.
        assert!((report.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_errors_display() {
        let e = RunError::BoxBudgetExhausted { max_boxes: 7 };
        assert!(e.to_string().contains('7'));
    }
}
