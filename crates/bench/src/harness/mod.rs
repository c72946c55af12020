//! # The experiment engine
//!
//! One registry, one runner, one on-disk format — the machinery behind the
//! `cadapt-bench` binary. Every experiment module implements [`Experiment`]
//! (id, title, determinism, and a fallible `run` producing metrics +
//! rendered tables); [`run_record_resilient`] executes one under a counter
//! [`Recording`] and a wall clock and packages the outcome as a
//! schema-versioned [`RunRecord`]; [`check::compare`] diffs a fresh record
//! against a committed golden under explicit tolerance bands.
//!
//! Determinism contract: every experiment routes its trial fan-out through
//! `cadapt_analysis::parallel`, whose trial-ordered reduction makes results
//! bit-identical at any thread count (the [`ExpCtx`] thread budget only
//! moves wall time). An experiment declares itself `deterministic` only if
//! a re-run in any environment reproduces every metric bit-for-bit; the
//! Monte-Carlo experiments (e2, e6, ablations) keep `deterministic =
//! false` and are compared by CI overlap instead, so their committed
//! goldens stay robust to retunings of trial counts and sweeps.
//!
//! Failure contract: experiments return typed [`BenchError`]s instead of
//! panicking, and [`run_record_resilient`] also contains anything that
//! *does* panic — a failing experiment degrades to a partial record
//! marked `complete: false` (which `check` rejects and `--resume`
//! re-runs) instead of taking down the suite.

pub mod check;
pub mod checkpoint;
pub mod record;
pub mod store;

pub use check::{compare, CheckReport};
pub use record::{
    class_code, metric, metric_ci, push_series, Metric, RecordError, RunRecord, SCHEMA_VERSION,
};
pub use store::{ArtifactWriter, FsWriter, StoreError};

use crate::error::BenchError;
use crate::experiments::{
    ablations, e10_contention, e11_no_catchup, e12_scan_hiding, e13_scheduling, e14_analytic_scale,
    e15_bytecode_scale, e16_streaming_contention, e1_worst_case_gap, e2_iid_smoothing,
    e3_size_perturb, e4_start_shift, e5_box_order, e6_recurrence, e7_potential,
    e8_trace_validation, e9_taxonomy,
};
use crate::ExpCtx;
use cadapt_analysis::parallel::panic_message;
use cadapt_core::counters::Recording;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What an experiment hands back to the engine: extracted scalars plus the
/// rendered tables the old per-experiment binaries used to print.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Named scalars for golden comparison.
    pub metrics: Vec<Metric>,
    /// Rendered tables (printed by `run`, stored for reference).
    pub tables: Vec<String>,
}

/// A registered experiment.
pub trait Experiment: Sync {
    /// Stable registry id (`"e1"` … `"e16"`, `"ablations"`).
    fn id(&self) -> &'static str;
    /// One-line human title.
    fn title(&self) -> &'static str;
    /// Is a re-run bit-identical? (See the module docs for the contract.)
    fn deterministic(&self) -> bool;
    /// Execute under the given context (scale + trial-worker budget).
    ///
    /// # Errors
    ///
    /// Returns a typed [`BenchError`] instead of panicking; the engine
    /// turns it into a partial record or a process exit code.
    fn run(&self, ctx: ExpCtx) -> Result<ExperimentOutput, BenchError>;
}

/// Every experiment, in presentation order.
#[must_use]
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 17] = [
        &e1_worst_case_gap::Exp,
        &e2_iid_smoothing::Exp,
        &e3_size_perturb::Exp,
        &e4_start_shift::Exp,
        &e5_box_order::Exp,
        &e6_recurrence::Exp,
        &e7_potential::Exp,
        &e8_trace_validation::Exp,
        &e9_taxonomy::Exp,
        &e10_contention::Exp,
        &e11_no_catchup::Exp,
        &e12_scan_hiding::Exp,
        &e13_scheduling::Exp,
        &e14_analytic_scale::Exp,
        &e15_bytecode_scale::Exp,
        &e16_streaming_contention::Exp,
        &ablations::Exp,
    ];
    &REGISTRY
}

/// Look up an experiment by registry id.
#[must_use]
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    registry().iter().find(|e| e.id() == id).copied()
}

/// Run one experiment, containing **any** failure — a typed error or an
/// outright panic — as a partial record instead of letting it escape.
///
/// The worker counters of the experiment's trial fan-out fold into this
/// run's recording (per-trial sums), so the record's counters are
/// thread-count independent.
///
/// On failure the returned record is marked `complete: false`, carries no
/// metrics, and stores the failure text as its only table; the error
/// itself rides alongside so the caller can report it and choose an exit
/// code. `check` rejects incomplete records and `--resume` re-runs them,
/// so a degraded record can never silently stand in for a healthy one.
#[must_use]
pub fn run_record_resilient(exp: &dyn Experiment, ctx: ExpCtx) -> (RunRecord, Option<BenchError>) {
    // cadapt-lint: allow(nondet-source) -- wall clock feeds only the wall_ms field, which golden comparison explicitly ignores
    let clock = Instant::now();
    let scale = ctx.scale;
    let recording = Recording::start();
    // AssertUnwindSafe: the experiment only borrows Sync registry state;
    // a panicking run's partial work is dropped with its stack, and the
    // counter cells stay internally consistent (plain thread-local adds).
    let outcome = catch_unwind(AssertUnwindSafe(|| exp.run(ctx))).unwrap_or_else(|payload| {
        Err(BenchError::Panicked {
            context: format!("experiment {}", exp.id()),
            trial: None,
            message: panic_message(payload.as_ref()),
        })
    });
    let counters = recording.finish();
    let (output, failure) = match outcome {
        Ok(output) => (output, None),
        Err(failure) => (
            ExperimentOutput {
                metrics: Vec::new(),
                tables: vec![format!("experiment {} FAILED: {failure}\n", exp.id())],
            },
            Some(failure),
        ),
    };
    let record = RunRecord {
        schema_version: SCHEMA_VERSION,
        experiment: exp.id().to_string(),
        title: exp.title().to_string(),
        scale: scale.name().to_string(),
        deterministic: exp.deterministic(),
        wall_ms: clock.elapsed().as_secs_f64() * 1e3,
        counters,
        metrics: output.metrics,
        tables: output.tables,
        complete: failure.is_none(),
    };
    (record, failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use std::collections::BTreeSet;

    /// Run a registered experiment at the quick tier, asserting that the
    /// runner reports no failure.
    fn healthy_record(id: &str) -> RunRecord {
        let exp = find(id).unwrap();
        let (record, failure) = run_record_resilient(exp, ExpCtx::new(Scale::Quick));
        assert!(failure.is_none(), "{id}: {failure:?}");
        record
    }

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        let distinct: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(ids.len(), distinct.len(), "duplicate registry id");
        for k in 1..=16 {
            assert!(distinct.contains(format!("e{k}").as_str()), "missing e{k}");
        }
        assert!(distinct.contains("ablations"));
    }

    #[test]
    fn find_resolves_ids() {
        assert_eq!(find("e1").unwrap().id(), "e1");
        assert!(find("e99").is_none());
    }

    #[test]
    fn deterministic_run_records_reproduce_and_count() {
        assert!(find("e1").unwrap().deterministic());
        let first = healthy_record("e1");
        let second = healthy_record("e1");
        assert!(!first.metrics.is_empty());
        assert!(!first.tables.is_empty());
        assert!(first.complete);
        assert!(
            first.counters.boxes_advanced > 0,
            "the recording must see the execution: {:?}",
            first.counters
        );
        let report = compare(&first, &second);
        assert!(
            report.passed(),
            "self-comparison failed: {:?}",
            report.failures
        );
    }

    #[test]
    fn run_record_round_trips_through_json() {
        let record = healthy_record("e11");
        let back = RunRecord::from_json(&record.to_json()).unwrap();
        assert!(compare(&record, &back).passed());
        assert_eq!(record.counters, back.counters);
    }

    #[test]
    fn tampered_golden_fails_the_check() {
        let golden = healthy_record("e11");
        let mut fresh = golden.clone();
        fresh.metrics[0].value += 1.0;
        assert!(!compare(&golden, &fresh).passed());
    }

    struct Explosive {
        kind: &'static str,
    }

    impl Experiment for Explosive {
        fn id(&self) -> &'static str {
            "explosive"
        }
        fn title(&self) -> &'static str {
            "always fails"
        }
        fn deterministic(&self) -> bool {
            true
        }
        fn run(&self, _ctx: ExpCtx) -> Result<ExperimentOutput, BenchError> {
            match self.kind {
                "panic" => panic!("injected experiment panic"),
                "trial" => {
                    let config = cadapt_analysis::McConfig {
                        trials: 4,
                        threads: 2,
                        ..cadapt_analysis::McConfig::default()
                    };
                    cadapt_analysis::monte_carlo_ratio(
                        cadapt_recursion::AbcParams::mm_scan(),
                        64,
                        &config,
                        |_rng| -> cadapt_core::profile::ConstantSource {
                            panic!("injected trial panic")
                        },
                    )?;
                    Err(BenchError::invariant("a panicking sweep returned"))
                }
                _ => Err(BenchError::invariant("injected typed failure")),
            }
        }
    }

    #[test]
    fn resilient_runner_contains_panics_as_partial_records() {
        let (record, failure) =
            run_record_resilient(&Explosive { kind: "panic" }, ExpCtx::new(Scale::Quick));
        assert!(!record.complete);
        assert!(record.metrics.is_empty());
        assert!(record.tables[0].contains("injected experiment panic"));
        match failure {
            Some(BenchError::Panicked {
                context, message, ..
            }) => {
                assert_eq!(context, "experiment explosive");
                assert!(message.contains("injected"));
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
        // The partial record must round-trip and must NOT pass a check
        // against a healthy golden.
        let back = RunRecord::from_json(&record.to_json()).unwrap();
        assert!(!back.complete);
    }

    #[test]
    fn a_trial_panic_under_monte_carlo_ratio_exits_5() {
        let (record, failure) =
            run_record_resilient(&Explosive { kind: "trial" }, ExpCtx::new(Scale::Quick));
        assert!(!record.complete);
        assert!(record.tables[0].contains("injected trial panic"));
        let failure = failure.expect("the sweep failed");
        // Every trial panics, so the smallest index, 0, is reported.
        assert!(
            matches!(failure, BenchError::Panicked { trial: Some(0), .. }),
            "{failure:?}"
        );
        assert_eq!(failure.exit_code(), 5);
    }

    #[test]
    fn resilient_runner_passes_through_typed_errors() {
        let (record, failure) =
            run_record_resilient(&Explosive { kind: "typed" }, ExpCtx::new(Scale::Quick));
        assert!(!record.complete);
        assert!(matches!(failure, Some(BenchError::Invariant { .. })));
    }
}
