//! End-to-end test of the experiment engine: registry → instrumented run →
//! schema-versioned record → golden comparison, against the records
//! committed under `tests/golden/`.

use cadapt::bench::harness::{self, RunRecord, SCHEMA_VERSION};
use cadapt::bench::{ExpCtx, Scale};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn load_golden(id: &str) -> RunRecord {
    let path = golden_dir().join(format!("{id}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    RunRecord::from_json(&text).unwrap_or_else(|e| panic!("bad golden {id}: {e}"))
}

fn fresh_record(id: &str) -> RunRecord {
    let exp = harness::find(id).expect("experiment registered");
    let (record, failure) = harness::run_record_resilient(exp, ExpCtx::new(Scale::Quick));
    assert!(failure.is_none(), "{id} failed: {failure:?}");
    record
}

#[test]
fn every_experiment_has_a_well_formed_golden() {
    for exp in harness::registry() {
        let golden = load_golden(exp.id());
        assert_eq!(golden.schema_version, SCHEMA_VERSION, "{}", exp.id());
        assert_eq!(golden.experiment, exp.id());
        assert_eq!(golden.title, exp.title());
        assert_eq!(golden.scale, "quick", "goldens are quick-tier records");
        assert_eq!(golden.deterministic, exp.deterministic(), "{}", exp.id());
        assert!(!golden.metrics.is_empty(), "{} has no metrics", exp.id());
        assert!(!golden.tables.is_empty(), "{} has no tables", exp.id());
        assert!(
            !golden.counters.is_zero(),
            "{} recorded no execution counters",
            exp.id()
        );
    }
}

#[test]
fn e1_rerun_matches_its_committed_golden() {
    let golden = load_golden("e1");
    let fresh = fresh_record("e1");
    let report = harness::compare(&golden, &fresh);
    assert!(
        report.passed(),
        "e1 drifted from golden: {:#?}",
        report.failures
    );
}

#[test]
fn e11_rerun_matches_its_committed_golden() {
    let golden = load_golden("e11");
    let fresh = fresh_record("e11");
    let report = harness::compare(&golden, &fresh);
    assert!(
        report.passed(),
        "e11 drifted from golden: {:#?}",
        report.failures
    );
}

#[test]
fn tampering_with_a_golden_is_detected() {
    let mut golden = load_golden("e11");
    let fresh = fresh_record("e11");
    golden.metrics[0].value += 0.5;
    assert!(!harness::compare(&golden, &fresh).passed());
}
