//! Golden-record comparison under explicit tolerance bands.
//!
//! Deterministic experiments must reproduce exactly (up to a 1e-9 relative
//! float-formatting floor). Monte-Carlo experiments re-run with the same
//! seeds, but their worker threads partition trials racily, so the merged
//! means differ in the last bits and an intended trial-count change shifts
//! them further; those compare under CI overlap — the difference must be
//! within the sum of both records' CI half-widths plus a small floor.
//! Counters are exact per-trial sums either way and always compare exactly.

use super::record::{Metric, RunRecord};
use std::collections::BTreeMap;

/// Outcome of comparing a fresh run against its golden record.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Experiment id.
    pub experiment: String,
    /// Human-readable mismatch descriptions; empty means the check passed.
    pub failures: Vec<String>,
}

impl CheckReport {
    /// Did every comparison pass?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Allowed absolute difference between a golden metric and a fresh one.
fn tolerance(deterministic: bool, golden: &Metric, fresh: &Metric) -> f64 {
    let scale = golden.value.abs().max(1.0);
    if deterministic {
        1e-9 * scale
    } else {
        1e-6 * scale + golden.ci95 + fresh.ci95
    }
}

/// Does `fresh` lie within `tol` of `golden`? A non-finite value or band
/// would make the band infinite (or NaN) and pass anything, so then only
/// an identical value matches; NaN matches NaN.
fn values_match(golden: f64, fresh: f64, tol: f64) -> bool {
    if golden.is_nan() && fresh.is_nan() {
        return true;
    }
    if !(golden.is_finite() && fresh.is_finite() && tol.is_finite()) {
        return golden.to_bits() == fresh.to_bits();
    }
    (golden - fresh).abs() <= tol
}

/// Compare a fresh [`RunRecord`] against its committed golden.
#[must_use]
pub fn compare(golden: &RunRecord, fresh: &RunRecord) -> CheckReport {
    let mut failures = Vec::new();
    // A partial record (a run that failed and degraded gracefully) can
    // never vouch for, or be vouched for by, anything.
    if !golden.complete {
        failures.push("golden record is marked incomplete (regenerate it)".to_string());
    }
    if !fresh.complete {
        failures.push("fresh run did not complete (see its tables for the failure)".to_string());
    }
    if golden.schema_version != fresh.schema_version {
        failures.push(format!(
            "schema version: golden {} vs fresh {} (regenerate the goldens)",
            golden.schema_version, fresh.schema_version
        ));
    }
    if golden.experiment != fresh.experiment {
        failures.push(format!(
            "experiment id: golden {:?} vs fresh {:?}",
            golden.experiment, fresh.experiment
        ));
    }
    if golden.scale != fresh.scale {
        failures.push(format!(
            "scale: golden {:?} vs fresh {:?}",
            golden.scale, fresh.scale
        ));
    }
    if golden.deterministic != fresh.deterministic {
        failures.push(format!(
            "determinism flag: golden {} vs fresh {}",
            golden.deterministic, fresh.deterministic
        ));
    }
    if !failures.is_empty() {
        // Identity mismatch: value comparisons would only add noise.
        return CheckReport {
            experiment: golden.experiment.clone(),
            failures,
        };
    }

    if golden.counters != fresh.counters {
        failures.push(format!(
            "counters diverged: golden {:?} vs fresh {:?}",
            golden.counters, fresh.counters
        ));
    }

    let golden_by_name: BTreeMap<&str, &Metric> = golden
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m))
        .collect();
    let fresh_by_name: BTreeMap<&str, &Metric> =
        fresh.metrics.iter().map(|m| (m.name.as_str(), m)).collect();
    for (name, g) in &golden_by_name {
        match fresh_by_name.get(name) {
            None => failures.push(format!("metric {name:?} missing from the fresh run")),
            Some(f) => {
                let tol = tolerance(golden.deterministic, g, f);
                if !values_match(g.value, f.value, tol) {
                    failures.push(format!(
                        "metric {name:?}: golden {} vs fresh {} (tolerance {tol:.3e})",
                        g.value, f.value
                    ));
                }
            }
        }
    }
    for name in fresh_by_name.keys() {
        if !golden_by_name.contains_key(name) {
            failures.push(format!(
                "metric {name:?} not present in the golden (regenerate the goldens)"
            ));
        }
    }

    CheckReport {
        experiment: golden.experiment.clone(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::super::record::{metric, metric_ci, SCHEMA_VERSION};
    use super::*;
    use cadapt_core::CounterSnapshot;

    fn record(deterministic: bool, metrics: Vec<Metric>) -> RunRecord {
        RunRecord {
            schema_version: SCHEMA_VERSION,
            experiment: "demo".into(),
            title: "demo".into(),
            scale: "quick".into(),
            deterministic,
            wall_ms: 1.0,
            counters: CounterSnapshot::ZERO,
            metrics,
            tables: Vec::new(),
            complete: true,
        }
    }

    #[test]
    fn identical_records_pass() {
        let r = record(true, vec![metric("a", 1.0)]);
        assert!(compare(&r, &r).passed());
    }

    #[test]
    fn wall_time_is_not_compared() {
        let golden = record(true, vec![metric("a", 1.0)]);
        let mut fresh = golden.clone();
        fresh.wall_ms = 1e9;
        assert!(compare(&golden, &fresh).passed());
    }

    #[test]
    fn deterministic_drift_fails() {
        let golden = record(true, vec![metric("a", 1.0)]);
        let fresh = record(true, vec![metric("a", 1.0 + 1e-6)]);
        let report = compare(&golden, &fresh);
        assert!(!report.passed());
        assert!(report.failures[0].contains("metric \"a\""));
    }

    #[test]
    fn monte_carlo_uses_ci_overlap() {
        let golden = record(false, vec![metric_ci("a", 1.0, 0.05)]);
        let inside = record(false, vec![metric_ci("a", 1.08, 0.05)]);
        assert!(compare(&golden, &inside).passed(), "within CI sum");
        let outside = record(false, vec![metric_ci("a", 1.25, 0.05)]);
        assert!(!compare(&golden, &outside).passed(), "beyond CI sum");
    }

    #[test]
    fn missing_and_extra_metrics_fail() {
        let golden = record(true, vec![metric("a", 1.0), metric("b", 2.0)]);
        let fresh = record(true, vec![metric("a", 1.0), metric("c", 3.0)]);
        let report = compare(&golden, &fresh);
        assert_eq!(report.failures.len(), 2);
    }

    #[test]
    fn counter_divergence_fails() {
        let golden = record(true, vec![]);
        let mut fresh = golden.clone();
        fresh.counters.boxes_advanced = 5;
        assert!(!compare(&golden, &fresh).passed());
    }

    #[test]
    fn schema_version_mismatch_short_circuits() {
        let golden = record(true, vec![metric("a", 1.0)]);
        let mut fresh = record(true, vec![metric("a", 99.0)]);
        fresh.schema_version = SCHEMA_VERSION + 1;
        let report = compare(&golden, &fresh);
        assert_eq!(report.failures.len(), 1, "identity mismatch only");
        assert!(report.failures[0].contains("schema version"));
    }

    #[test]
    fn nan_matches_nan() {
        let golden = record(true, vec![metric("a", f64::NAN)]);
        assert!(compare(&golden, &golden.clone()).passed());
    }

    #[test]
    fn infinite_golden_matches_only_itself() {
        let inf = record(true, vec![metric("a", f64::INFINITY)]);
        let finite = record(true, vec![metric("a", 1200.0)]);
        assert!(!compare(&inf, &finite).passed(), "+inf against 1200");
        assert!(compare(&inf, &inf.clone()).passed(), "+inf against +inf");
        let neg_inf = record(true, vec![metric("a", f64::NEG_INFINITY)]);
        assert!(!compare(&neg_inf, &inf).passed(), "-inf against +inf");
    }

    #[test]
    fn infinite_ci_band_matches_only_an_identical_value() {
        let golden = record(false, vec![metric_ci("a", 1.0, f64::INFINITY)]);
        let other = record(false, vec![metric_ci("a", 1e6, 0.05)]);
        assert!(!compare(&golden, &other).passed(), "infinite band");
        let same = record(false, vec![metric_ci("a", 1.0, 0.05)]);
        assert!(compare(&golden, &same).passed(), "identical value");
    }

    #[test]
    fn incomplete_records_always_fail() {
        let golden = record(true, vec![metric("a", 1.0)]);
        let mut fresh = golden.clone();
        fresh.complete = false;
        let report = compare(&golden, &fresh);
        assert!(!report.passed());
        assert!(report.failures[0].contains("did not complete"));

        let mut stale_golden = golden.clone();
        stale_golden.complete = false;
        assert!(!compare(&stale_golden, &golden).passed());
    }
}
