//! Structural validation of the SARIF 2.1.0 emitter: the report must
//! parse as JSON and satisfy the schema's required shape — `version`,
//! `runs[].tool.driver` with a `rules` array, and `results[]` whose
//! `ruleId`/`ruleIndex` agree with that array and whose locations carry
//! 1-based `startLine`s. (The official JSON schema is not vendored; these
//! assertions encode its required properties for the subset we emit.)

use cadapt_lint::{lint_source, registry, render_sarif};
use serde_json::Value;

/// Object-field lookup (the vendored `Value` has no `get` inherent).
fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.get(key)
}

/// Descend through nested object keys.
fn path<'a>(v: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter().try_fold(v, |v, k| get(v, k))
}

fn report_for(src: &str, rel_path: &str) -> Value {
    let diags = lint_source(rel_path, src);
    assert!(!diags.is_empty(), "fixture should produce diagnostics");
    Value::parse_json(&render_sarif(&diags)).expect("SARIF output is valid JSON")
}

#[test]
fn sarif_has_the_required_toplevel_shape() {
    let report = report_for(
        "pub fn f(residual: f64) -> bool { residual == 0.0 }\n",
        "crates/demo/src/module.rs",
    );
    assert_eq!(
        get(&report, "version").and_then(Value::as_str),
        Some("2.1.0")
    );
    let schema = get(&report, "$schema")
        .and_then(Value::as_str)
        .expect("$schema present");
    assert!(schema.contains("sarif-schema-2.1.0"), "{schema}");
    let runs = get(&report, "runs")
        .and_then(Value::as_array)
        .expect("runs");
    assert_eq!(runs.len(), 1);
    let driver = path(&runs[0], &["tool", "driver"]).expect("tool.driver");
    assert_eq!(
        get(driver, "name").and_then(Value::as_str),
        Some("cadapt-lint")
    );
}

#[test]
fn sarif_rules_cover_the_registry_and_results_index_into_them() {
    // Trips two distinct rules: float-eq (literal comparison) and
    // panic-reach (computed index in a public fn).
    let src =
        "pub fn f(a: f64, xs: &[u64], k: usize) -> u64 { if a == 0.5 { xs[k + 1] } else { 0 } }\n";
    let report = report_for(src, "crates/demo/src/module.rs");
    let runs = get(&report, "runs")
        .and_then(Value::as_array)
        .expect("runs");
    let rules = path(&runs[0], &["tool", "driver", "rules"])
        .and_then(Value::as_array)
        .expect("driver.rules");
    let ids: Vec<&str> = rules
        .iter()
        .map(|r| get(r, "id").and_then(Value::as_str).expect("rule id"))
        .collect();
    // Every registered rule and both meta-rules are declared.
    for rule in registry() {
        assert!(ids.contains(&rule.id()), "{} missing", rule.id());
    }
    for meta in cadapt_lint::rules::META_RULES {
        assert!(ids.contains(&meta), "{meta} missing");
    }
    // Every rule entry carries descriptions (what renders in viewers).
    for r in rules {
        assert!(get(r, "shortDescription").is_some());
        assert!(get(r, "fullDescription").is_some());
    }

    let results = get(&runs[0], "results")
        .and_then(Value::as_array)
        .expect("results");
    assert!(!results.is_empty());
    for res in results {
        let rule_id = get(res, "ruleId").and_then(Value::as_str).expect("ruleId");
        let idx = get(res, "ruleIndex")
            .and_then(Value::as_u64)
            .expect("ruleIndex");
        // ruleIndex must point at the matching rules[] entry.
        assert_eq!(
            ids.get(usize::try_from(idx).expect("index fits")),
            Some(&rule_id)
        );
        assert_eq!(get(res, "level").and_then(Value::as_str), Some("error"));
        let msg = path(res, &["message", "text"])
            .and_then(Value::as_str)
            .expect("message.text");
        assert!(!msg.is_empty());
        let locs = get(res, "locations")
            .and_then(Value::as_array)
            .expect("locations");
        assert_eq!(locs.len(), 1);
        let phys = get(&locs[0], "physicalLocation").expect("physicalLocation");
        let uri = path(phys, &["artifactLocation", "uri"])
            .and_then(Value::as_str)
            .expect("artifactLocation.uri");
        assert_eq!(uri, "crates/demo/src/module.rs");
        let start = path(phys, &["region", "startLine"])
            .and_then(Value::as_u64)
            .expect("region.startLine");
        assert!(start >= 1, "SARIF lines are 1-based");
    }
}

#[test]
fn sarif_with_no_findings_is_an_empty_results_run() {
    let report = Value::parse_json(&render_sarif(&[])).expect("empty report is valid JSON");
    let runs = get(&report, "runs")
        .and_then(Value::as_array)
        .expect("runs");
    let results = get(&runs[0], "results")
        .and_then(Value::as_array)
        .expect("results");
    assert!(results.is_empty());
}
