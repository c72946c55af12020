//! The deterministic fault-injection harness behind `cadapt-bench faults`.
//!
//! The engine claims to be unkillable: trial panics are isolated, writes
//! are atomic, artifacts are checksummed, interrupted runs resume
//! bit-identically. This module *attacks* those claims on a schedule. A
//! seed expands into per-case [`FaultPlan`]s — which trial panics, which
//! write operation fails outright, which one "crashes" mid-write leaving
//! a truncated staging file — and each case drives a small synthetic
//! trial workload through the real machinery (`try_run_trials`, the
//! fail-fast sweep every Monte-Carlo experiment runs, retried whole after
//! a caught panic; [`ArtifactWriter`] persistence; envelope verification)
//! under that plan.
//!
//! The verdict per case is binary and strict:
//!
//! * **recovered** — the final artifact verifies and its payload is
//!   bit-identical to an in-process no-fault reference;
//! * **clean failure** — the harness surfaced a typed error and no
//!   artifact that verifies exists.
//!
//! Anything else — an artifact that verifies but differs from the
//! reference — is **silent corruption**, and the suite fails with a
//! typed error naming the case. The whole report (written as a
//! checksummed envelope, default `FAULTS.json`) is a pure function of
//! the seed: two runs of `cadapt-bench faults --seed 7` must produce
//! byte-identical reports, which CI asserts.

use crate::error::BenchError;
use crate::harness::store::{self, ArtifactWriter, StoreError};
use cadapt_analysis::montecarlo::trial_rng;
use cadapt_analysis::parallel::{try_run_trials, SweepError};
use rand::Rng;
use serde_json::{Map, Number, Value};
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Trials in each case's synthetic workload.
pub const TRIALS_PER_CASE: u64 = 16;

/// Version of the fault-report payload layout.
pub const REPORT_VERSION: u32 = 1;

/// What one case injects, derived deterministically from (seed, case).
///
/// Each fault site is drawn from a range wider than the live region, so
/// some cases skip some faults — the no-fault path is part of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Suite seed.
    pub seed: u64,
    /// Case index.
    pub case: u64,
    /// Trial whose first attempt panics (`>= TRIALS_PER_CASE` ⇒ none).
    pub panic_trial: Option<u64>,
    /// Writer operation that fails with no side effects.
    pub fail_write_op: Option<u64>,
    /// Writer operation that "crashes" mid-write: a truncated staging
    /// file is left behind and the destination is untouched.
    pub truncate_write_op: Option<u64>,
}

impl FaultPlan {
    /// Expand (seed, case) into a plan. Pure: same inputs, same plan.
    #[must_use]
    pub fn for_case(seed: u64, case: u64) -> FaultPlan {
        let mut rng = trial_rng(seed, case);
        let draw = |rng: &mut rand_chacha::ChaCha8Rng, live: u64, dead: u64| {
            let pick = rng.gen_range(0..live + dead);
            (pick < live).then_some(pick)
        };
        FaultPlan {
            seed,
            case,
            panic_trial: draw(&mut rng, TRIALS_PER_CASE, TRIALS_PER_CASE / 2),
            // The workload performs up to 2 writer ops (first try + retry);
            // drawing from 0..4 leaves dead space for fault-free cases.
            fail_write_op: draw(&mut rng, 2, 2),
            truncate_write_op: draw(&mut rng, 2, 2),
        }
    }
}

/// An [`ArtifactWriter`] that injects the plan's write faults, counting
/// operations across the case so the fault schedule is deterministic.
pub struct FaultyWriter<'a> {
    inner: &'a dyn ArtifactWriter,
    plan: FaultPlan,
    ops: AtomicU64,
}

impl std::fmt::Debug for FaultyWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyWriter")
            .field("plan", &self.plan)
            .field("ops", &self.ops)
            .finish_non_exhaustive()
    }
}

impl<'a> FaultyWriter<'a> {
    /// Wrap `inner` under `plan`.
    #[must_use]
    pub fn new(inner: &'a dyn ArtifactWriter, plan: FaultPlan) -> FaultyWriter<'a> {
        FaultyWriter {
            inner,
            plan,
            ops: AtomicU64::new(0),
        }
    }

    /// How many persist operations have been attempted.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

impl ArtifactWriter for FaultyWriter<'_> {
    fn persist(&self, path: &Path, text: &str) -> Result<(), StoreError> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.plan.fail_write_op == Some(op) {
            return Err(StoreError::Injected {
                action: "write",
                path: path.to_path_buf(),
            });
        }
        if self.plan.truncate_write_op == Some(op) {
            // Simulate a crash mid-write: truncated bytes reach the
            // staging file, the rename never happens, the destination is
            // untouched. The stray .tmp is exactly what a real crash
            // leaves; nothing may ever read it back.
            let cut = text.len() / 2;
            let _ = std::fs::write(store::tmp_path(path), &text[..cut]);
            return Err(StoreError::Injected {
                action: "truncate",
                path: path.to_path_buf(),
            });
        }
        self.inner.persist(path, text)
    }
}

/// How one case ended (silent corruption is not an outcome: it aborts the
/// suite as a typed error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The engine absorbed every injected fault and produced a verified
    /// artifact bit-identical to the no-fault reference.
    Recovered,
    /// The faults exceeded the engine's retry budget; it reported a typed
    /// error and left no artifact that verifies.
    CleanFailure,
}

impl CaseOutcome {
    /// Stable report string.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            CaseOutcome::Recovered => "recovered",
            CaseOutcome::CleanFailure => "clean_failure",
        }
    }
}

/// One case's report entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// The plan that was injected.
    pub plan: FaultPlan,
    /// Whether the injected panic actually fired and was isolated.
    pub panic_isolated: bool,
    /// Writer operations attempted (counts retries).
    pub write_ops: u64,
    /// The verdict.
    pub outcome: CaseOutcome,
}

/// The whole suite's report.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Suite seed.
    pub seed: u64,
    /// Per-case entries, in case order.
    pub cases: Vec<CaseReport>,
}

impl FaultReport {
    /// Cases that recovered (the rest failed cleanly).
    #[must_use]
    pub fn recovered(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.outcome == CaseOutcome::Recovered)
            .count()
    }

    /// The report's JSON payload (wrapped in a checksummed envelope by
    /// the caller). Pure function of the seed — no clocks, no paths.
    #[must_use]
    pub fn to_payload(&self) -> Value {
        let mut payload = Map::new();
        payload.insert(
            "fault_report_version",
            Value::Number(Number::U(u128::from(REPORT_VERSION))),
        );
        payload.insert("seed", Value::Number(Number::U(u128::from(self.seed))));
        payload.insert(
            "trials_per_case",
            Value::Number(Number::U(u128::from(TRIALS_PER_CASE))),
        );
        let opt = |o: Option<u64>| match o {
            Some(v) => Value::Number(Number::U(u128::from(v))),
            None => Value::Null,
        };
        payload.insert(
            "cases",
            Value::Array(
                self.cases
                    .iter()
                    .map(|c| {
                        let mut entry = Map::new();
                        entry.insert("case", Value::Number(Number::U(u128::from(c.plan.case))));
                        entry.insert("panic_trial", opt(c.plan.panic_trial));
                        entry.insert("fail_write_op", opt(c.plan.fail_write_op));
                        entry.insert("truncate_write_op", opt(c.plan.truncate_write_op));
                        entry.insert("panic_isolated", Value::Bool(c.panic_isolated));
                        entry.insert(
                            "write_ops",
                            Value::Number(Number::U(u128::from(c.write_ops))),
                        );
                        entry.insert("outcome", Value::String(c.outcome.as_str().to_string()));
                        Value::Object(entry)
                    })
                    .collect(),
            ),
        );
        let count =
            |n: usize| Value::Number(Number::U(u128::from(cadapt_core::cast::u64_from_usize(n))));
        payload.insert("recovered", count(self.recovered()));
        payload.insert("clean_failures", count(self.cases.len() - self.recovered()));
        Value::Object(payload)
    }
}

/// The case's trial workload: a pure function of (seed, case, trial), so
/// the no-fault reference can be computed in-process.
fn sample(seed: u64, case: u64, trial: u64) -> f64 {
    let mut rng = trial_rng(seed ^ (case << 32), trial);
    rng.gen_range(0.0_f64..1.0)
}

/// The artifact a case persists: its trial values (by index) plus their
/// trial-ordered sum — the order-sensitive reduction a real record has.
fn case_payload(seed: u64, case: u64, values: &[(u64, f64)]) -> Value {
    let mut payload = Map::new();
    payload.insert("case", Value::Number(Number::U(u128::from(case))));
    payload.insert("seed", Value::Number(Number::U(u128::from(seed))));
    payload.insert(
        "trials",
        Value::Array(
            values
                .iter()
                .map(|&(t, x)| {
                    Value::Array(vec![
                        Value::Number(Number::U(u128::from(t))),
                        Value::Number(Number::F(x)),
                    ])
                })
                .collect(),
        ),
    );
    let total: f64 = values.iter().map(|&(_, x)| x).sum();
    payload.insert("sum", Value::Number(Number::F(total)));
    Value::Object(payload)
}

/// Run one case under its plan inside `dir`. Returns the case report, or
/// a typed error if the engine silently emitted wrong data (the one
/// unforgivable outcome) or the scratch directory itself failed.
fn run_case(seed: u64, case: u64, dir: &Path) -> Result<CaseReport, BenchError> {
    let plan = FaultPlan::for_case(seed, case);

    // The no-fault reference, computed entirely in process.
    let reference: Vec<(u64, f64)> = (0..TRIALS_PER_CASE)
        .map(|t| (t, sample(seed, case, t)))
        .collect();
    let reference_payload = case_payload(seed, case, &reference);

    // Phase 1: the workload, with the planned trial panicking on its
    // first attempt. The fail-fast sweep must catch it as a typed panic
    // carrying that trial's index; the pool survives.
    let armed = AtomicBool::new(true);
    let job = |t| {
        if plan.panic_trial == Some(t) && armed.swap(false, Ordering::Relaxed) {
            // cadapt-lint: allow(panic-reach) -- deliberate injected fault: this panic exists to be caught by the engine under test
            panic!("injected fault: case {case} trial {t}");
        }
        Ok::<f64, Infallible>(sample(seed, case, t))
    };
    let (values, panic_isolated) = match try_run_trials(TRIALS_PER_CASE, 2, job) {
        Ok(values) => (values, false),
        Err(SweepError::Panic(p)) => {
            if plan.panic_trial != Some(p.trial) || !p.message.contains("injected fault") {
                return Err(BenchError::invariant(format!(
                    "case {case}: unexpected trial failure: {p}"
                )));
            }
            // Phase 2: retry the whole sweep. Trials are pure functions of
            // their index, so the retry reproduces every healthy trial.
            let retry = try_run_trials(TRIALS_PER_CASE, 2, job).map_err(|e| {
                BenchError::invariant(format!("case {case}: retried sweep failed: {e}"))
            })?;
            (retry, true)
        }
        Err(SweepError::Job { error, .. }) => match error {},
    };
    if plan.panic_trial.is_some() != panic_isolated {
        return Err(BenchError::invariant(format!(
            "case {case}: planned panic {:?} but isolation observed = {panic_isolated}",
            plan.panic_trial
        )));
    }
    let values: Vec<(u64, f64)> = (0..TRIALS_PER_CASE).zip(values).collect();
    let payload = case_payload(seed, case, &values);

    // Phase 3: persist through the faulty writer, one retry allowed.
    // Clear leftovers from a previous suite in the same scratch dir so the
    // phase-4 verdict only ever sees THIS case's writes.
    let artifact = dir.join(format!("case-{case}.json"));
    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(store::tmp_path(&artifact));
    let writer = FaultyWriter::new(&store::FsWriter, plan);
    let first_try = store::write_envelope(&writer, &artifact, &payload);
    let persisted = match first_try {
        Ok(()) => true,
        Err(_) => store::write_envelope(&writer, &artifact, &payload).is_ok(),
    };
    let write_ops = writer.ops();

    // Phase 4: the verdict. Whatever happened above, the one thing that
    // must never exist is a *verifying* artifact with the wrong payload.
    let outcome = match store::read_envelope(&artifact) {
        Ok(read_back) => {
            if read_back != reference_payload {
                return Err(BenchError::invariant(format!(
                    "case {case}: SILENT CORRUPTION — artifact verifies but differs from the no-fault reference"
                )));
            }
            if !persisted {
                return Err(BenchError::invariant(format!(
                    "case {case}: write reported failure but a verifying artifact exists"
                )));
            }
            CaseOutcome::Recovered
        }
        Err(StoreError::Io { .. }) if !persisted => CaseOutcome::CleanFailure,
        Err(StoreError::Envelope { detail, .. }) => {
            return Err(BenchError::invariant(format!(
                "case {case}: destination holds an unverifiable artifact ({detail}) — atomic persistence was violated"
            )));
        }
        Err(e) => {
            return Err(BenchError::invariant(format!(
                "case {case}: write reported success but read-back failed: {e}"
            )));
        }
    };

    Ok(CaseReport {
        plan,
        panic_isolated,
        write_ops,
        outcome,
    })
}

/// Run `cases` fault-injection cases from `seed` inside `dir` (created if
/// missing), returning the deterministic suite report.
///
/// # Errors
///
/// A typed [`BenchError`] if any case exhibits silent corruption, breaks
/// atomicity, or the scratch directory cannot be used.
pub fn run_suite(seed: u64, cases: u64, dir: &Path) -> Result<FaultReport, BenchError> {
    std::fs::create_dir_all(dir).map_err(|e| BenchError::io("create", dir, &e))?;
    // Injected panics are expected here by construction; keep them off
    // stderr while the suite runs, then restore the previous hook.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut reports = Vec::new();
    let mut first_error = None;
    for case in 0..cases {
        match run_case(seed, case, dir) {
            Ok(report) => reports.push(report),
            Err(e) => {
                first_error = Some(e);
                break;
            }
        }
    }
    std::panic::set_hook(previous_hook);
    match first_error {
        Some(e) => Err(e),
        None => Ok(FaultReport {
            seed,
            cases: reports,
        }),
    }
}

/// A scratch directory for the suite, keyed by seed so concurrent suites
/// do not collide (contents are overwritten deterministically per case).
#[must_use]
pub fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("cadapt-faults-{}-{seed}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_varied() {
        for case in 0..8 {
            assert_eq!(FaultPlan::for_case(7, case), FaultPlan::for_case(7, case));
        }
        let plans: Vec<FaultPlan> = (0..16).map(|c| FaultPlan::for_case(7, c)).collect();
        assert!(plans.iter().any(|p| p.panic_trial.is_some()));
        assert!(plans.iter().any(|p| p.panic_trial.is_none()));
        assert!(plans.iter().any(|p| p.fail_write_op.is_some()));
        assert!(plans.iter().any(|p| p.truncate_write_op.is_some()));
        assert_ne!(
            FaultPlan::for_case(7, 0),
            FaultPlan::for_case(8, 0),
            "different seeds must draw different plans"
        );
    }

    #[test]
    fn faulty_writer_injects_on_schedule_only() {
        let dir = scratch_dir(101);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.json");
        let plan = FaultPlan {
            seed: 0,
            case: 0,
            panic_trial: None,
            fail_write_op: Some(0),
            truncate_write_op: Some(1),
        };
        let writer = FaultyWriter::new(&store::FsWriter, plan);
        // Op 0: clean failure, nothing on disk.
        assert!(matches!(
            writer.persist(&path, "hello").unwrap_err(),
            StoreError::Injected {
                action: "write",
                ..
            }
        ));
        assert!(!path.exists());
        // Op 1: truncation — staging file exists, destination untouched.
        assert!(matches!(
            writer.persist(&path, "hello").unwrap_err(),
            StoreError::Injected {
                action: "truncate",
                ..
            }
        ));
        assert!(!path.exists());
        assert!(store::tmp_path(&path).exists());
        // Op 2: past the schedule, the write goes through.
        writer.persist(&path, "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        assert_eq!(writer.ops(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suite_is_deterministic_and_never_silently_corrupts() {
        let dir = scratch_dir(7);
        let first = run_suite(7, 6, &dir).unwrap();
        let second = run_suite(7, 6, &dir).unwrap();
        assert_eq!(first, second, "same seed, same verdicts");
        assert_eq!(
            first.to_payload().render_pretty(),
            second.to_payload().render_pretty(),
            "the report must be byte-stable"
        );
        assert_eq!(first.cases.len(), 6);
        // The retry budget absorbs any single write fault, so every case
        // with at most one injected write fault must recover.
        for c in &first.cases {
            let write_faults = usize::from(c.plan.fail_write_op.is_some_and(|op| op < 2))
                + usize::from(c.plan.truncate_write_op.is_some_and(|op| op < 2));
            if write_faults <= 1 {
                assert_eq!(
                    c.outcome,
                    CaseOutcome::Recovered,
                    "case {} with {write_faults} write fault(s)",
                    c.plan.case
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panic_injection_is_isolated_not_fatal() {
        let dir = scratch_dir(11);
        let report = run_suite(11, 8, &dir).unwrap();
        let with_panic = report
            .cases
            .iter()
            .filter(|c| c.plan.panic_trial.is_some())
            .count();
        assert!(with_panic > 0, "the seed must exercise panic injection");
        for c in &report.cases {
            assert_eq!(c.panic_isolated, c.plan.panic_trial.is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
