//! SARIF 2.1.0 rendering.
//!
//! [SARIF](https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html)
//! is the interchange format code-scanning UIs ingest; CI uploads this
//! next to the first-party JSON report. The document is hand-rolled (the
//! analyzer stays dependency-free) and emits the minimal valid subset:
//! one run, one driver, a `rules` array (`id` + short/full descriptions)
//! and one `result` per diagnostic with `ruleId`, `ruleIndex`, `level`,
//! `message.text` and a `physicalLocation` carrying the workspace-relative
//! `artifactLocation.uri` and a 1-based `region.startLine`.
//!
//! `tests/sarif_output.rs` validates the output against the 2.1.0 schema
//! requirements (via the vendored `serde_json` shim) and pins the schema
//! URI so drift is loud.

use crate::diag::{json_string, Diagnostic};
use crate::rules::{registry, META_RULES};

/// The schema URI embedded in every report (pinned by tests).
pub const SCHEMA_URI: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Render a full SARIF 2.1.0 document for `diags`.
#[must_use]
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    // Stable rule table: registry order, then the meta rules.
    let rules = registry();
    let mut ids: Vec<(&'static str, String, String)> = rules
        .iter()
        .map(|r| (r.id(), r.summary().to_string(), r.explain().to_string()))
        .collect();
    for m in META_RULES {
        ids.push((
            m,
            format!("{m} (waiver hygiene)"),
            "Emitted by the waiver machinery itself; see CONTRIBUTING.md.".to_string(),
        ));
    }

    let mut out = String::from("{\n  \"$schema\": ");
    json_string(&mut out, SCHEMA_URI);
    out.push_str(",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n");
    out.push_str(
        "      \"tool\": {\n        \"driver\": {\n          \"name\": \"cadapt-lint\",\n",
    );
    out.push_str("          \"informationUri\": \"https://github.com/cadapt/cadapt\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, summary, explain)) in ids.iter().enumerate() {
        out.push_str("            {\"id\": ");
        json_string(&mut out, id);
        out.push_str(", \"shortDescription\": {\"text\": ");
        json_string(&mut out, summary);
        out.push_str("}, \"fullDescription\": {\"text\": ");
        json_string(&mut out, explain);
        out.push_str("}}");
        if i + 1 < ids.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let rule_index = ids
            .iter()
            .position(|(id, _, _)| *id == d.rule)
            .map_or(-1i64, |p| p as i64);
        out.push_str("        {\"ruleId\": ");
        json_string(&mut out, d.rule);
        out.push_str(&format!(", \"ruleIndex\": {rule_index}"));
        out.push_str(", \"level\": \"error\", \"message\": {\"text\": ");
        json_string(&mut out, &d.message);
        out.push_str("}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ");
        json_string(&mut out, &d.path);
        out.push_str(&format!(
            "}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            d.line.max(1)
        ));
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_well_formed() {
        let s = render_sarif(&[]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"results\": [\n      ]"));
        assert!(s.contains(SCHEMA_URI));
    }

    #[test]
    fn result_carries_location_and_rule_index() {
        let s = render_sarif(&[Diagnostic {
            rule: "float-eq",
            path: "crates/core/src/x.rs".into(),
            line: 12,
            message: "m \"q\"".into(),
        }]);
        assert!(s.contains("\"ruleId\": \"float-eq\""));
        assert!(s.contains("\"ruleIndex\": 0"));
        assert!(s.contains("\"startLine\": 12"));
        assert!(s.contains("\"uri\": \"crates/core/src/x.rs\""));
        assert!(s.contains("m \\\"q\\\""));
    }
}
