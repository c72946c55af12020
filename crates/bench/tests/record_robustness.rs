//! Robustness properties of the run-record format: round-trips are exact,
//! and hostile bytes — truncations at every boundary, random corruption,
//! adversarial field values — produce typed errors, never panics.
//!
//! These tests are the regression net under the parser hardening: every
//! u64→usize narrowing and index in `harness::record` goes through
//! checked casts, so a crafted record file cannot crash the reader.

use cadapt_bench::harness::record::{metric_ci, Metric, RecordError, RunRecord, SCHEMA_VERSION};
use cadapt_core::CounterSnapshot;
use proptest::prelude::*;

fn record_from(
    experiment: String,
    scale: String,
    wall_ms: f64,
    counters: [u64; 5],
    metrics: Vec<(String, f64, f64)>,
    tables: Vec<String>,
    complete: bool,
) -> RunRecord {
    RunRecord {
        schema_version: SCHEMA_VERSION,
        experiment,
        title: "property-generated record".to_string(),
        scale,
        deterministic: complete,
        wall_ms,
        counters: CounterSnapshot {
            boxes_advanced: counters[0],
            cursor_steps: counters[1],
            ios_charged: counters[2],
            cache_hits: counters[3],
            cache_evictions: counters[4],
        },
        metrics: metrics
            .into_iter()
            .map(|(name, value, ci95)| metric_ci(name, value, ci95))
            .collect(),
        tables,
        complete,
    }
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Strings exercising JSON escaping: quotes, backslashes, newlines, a
    // control character (the `\u00XX` escape), and 2-, 3- and 4-byte
    // UTF-8 scalars.
    proptest::collection::vec(
        prop_oneof![
            Just("a".to_string()),
            Just("\"".to_string()),
            Just("\\".to_string()),
            Just("\n".to_string()),
            Just("\u{1}".to_string()),
            Just("é".to_string()),
            Just("€".to_string()),
            Just("𝄞".to_string()),
            Just("metric/1".to_string()),
        ],
        0..8,
    )
    .prop_map(|parts| parts.concat())
}

fn metric_eq(a: &Metric, b: &Metric) -> bool {
    a.name == b.name
        && a.value.to_bits() == b.value.to_bits()
        && a.ci95.to_bits() == b.ci95.to_bits()
}

proptest! {
    #[test]
    fn round_trip_is_exact(
        experiment in text_strategy(),
        scale in text_strategy(),
        wall_ms in prop_oneof![Just(0.0), 0.0..1e9f64],
        counters in proptest::collection::vec(0u64..=u64::MAX, 5),
        metric_values in proptest::collection::vec((text_strategy(), -1e12..1e12f64, 0.0..1e6f64), 0..6),
        tables in proptest::collection::vec(text_strategy(), 0..4),
        complete in proptest::bool::ANY,
    ) {
        let record = record_from(
            experiment,
            scale,
            wall_ms,
            [counters[0], counters[1], counters[2], counters[3], counters[4]],
            metric_values,
            tables,
            complete,
        );
        let text = record.to_json();
        let parsed = RunRecord::from_json(&text).expect("own serialisation must parse");
        prop_assert_eq!(parsed.schema_version, record.schema_version);
        prop_assert_eq!(&parsed.experiment, &record.experiment);
        prop_assert_eq!(&parsed.scale, &record.scale);
        prop_assert_eq!(parsed.wall_ms.to_bits(), record.wall_ms.to_bits());
        prop_assert_eq!(parsed.counters, record.counters);
        prop_assert_eq!(parsed.metrics.len(), record.metrics.len());
        for (a, b) in parsed.metrics.iter().zip(&record.metrics) {
            prop_assert!(metric_eq(a, b), "metric diverged: {:?} vs {:?}", a, b);
        }
        prop_assert_eq!(&parsed.tables, &record.tables);
        prop_assert_eq!(parsed.complete, record.complete);
        // Serialisation is canonical: a second round trip is byte-stable.
        prop_assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn random_byte_flips_never_panic(
        seed_metric in -1e6..1e6f64,
        position_fraction in 0.0..1.0f64,
        replacement in 0u8..=u8::MAX,
    ) {
        let record = record_from(
            "e1".to_string(),
            "quick".to_string(),
            1.5,
            [1, 2, 3, 4, 5],
            vec![("m".to_string(), seed_metric, 0.0)],
            vec!["table\n".to_string()],
            true,
        );
        let mut bytes = record.to_json().into_bytes();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let position = ((bytes.len() - 1) as f64 * position_fraction) as usize;
        bytes[position] = replacement;
        // Whatever the flip produced: a clean parse or a typed error —
        // from_json must return, not panic.
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = RunRecord::from_json(&text);
        }
    }
}

#[test]
fn truncation_at_every_byte_boundary_is_typed_never_a_panic() {
    let record = record_from(
        "e9".to_string(),
        "quick".to_string(),
        12.25,
        [10, 20, 30, 40, 50],
        vec![
            ("alpha".to_string(), 1.0, 0.1),
            ("beta/slope".to_string(), -2.5, 0.0),
        ],
        vec!["line one\nline two\n".to_string()],
        true,
    );
    let text = record.to_json();
    for cut in 0..text.len() {
        let partial = &text[..cut];
        let err = RunRecord::from_json(partial).expect_err("every strict prefix is incomplete");
        assert!(
            matches!(err, RecordError::Syntax { .. } | RecordError::Shape { .. }),
            "cut at {cut}: {err:?}"
        );
    }
    assert!(RunRecord::from_json(&text).is_ok());
}

#[test]
fn hostile_numeric_fields_are_rejected_not_panicked_on() {
    // Each case attacks a numeric narrowing in the parser: huge
    // schema_version (u64→u32), huge counters are fine (u64), negative
    // counters, counters larger than u64, non-numeric wall_ms.
    let cases = [
        "{\"schema_version\": 99999999999999999999}",
        "{\"schema_version\": 184467440737095516150}",
        "{\"schema_version\": -1}",
        "{\"schema_version\": 3, \"experiment\": \"e1\", \"title\": \"t\", \"scale\": \"quick\", \
          \"deterministic\": true, \"wall_ms\": \"soon\", \"counters\": {}, \"metrics\": [], \"tables\": []}",
        "{\"schema_version\": 3, \"experiment\": \"e1\", \"title\": \"t\", \"scale\": \"quick\", \
          \"deterministic\": true, \"wall_ms\": 0.0, \"counters\": {\"boxes_advanced\": -7, \
          \"cursor_steps\": 0, \"ios_charged\": 0, \"cache_hits\": 0, \"cache_evictions\": 0}, \
          \"metrics\": [], \"tables\": []}",
        "{\"schema_version\": 3, \"experiment\": \"e1\", \"title\": \"t\", \"scale\": \"quick\", \
          \"deterministic\": true, \"wall_ms\": 0.0, \"counters\": {\"boxes_advanced\": 99999999999999999999, \
          \"cursor_steps\": 0, \"ios_charged\": 0, \"cache_hits\": 0, \"cache_evictions\": 0}, \
          \"metrics\": [], \"tables\": []}",
        "{\"schema_version\": 3, \"experiment\": \"e1\", \"title\": \"t\", \"scale\": \"quick\", \
          \"deterministic\": true, \"wall_ms\": 0.0, \"counters\": {\"boxes_advanced\": 0, \
          \"cursor_steps\": 0, \"ios_charged\": 0, \"cache_hits\": 0, \"cache_evictions\": 0}, \
          \"metrics\": [{\"name\": 7}], \"tables\": []}",
        "{\"schema_version\": 3, \"experiment\": \"e1\", \"title\": \"t\", \"scale\": \"quick\", \
          \"deterministic\": true, \"wall_ms\": 0.0, \"counters\": {\"boxes_advanced\": 0, \
          \"cursor_steps\": 0, \"ios_charged\": 0, \"cache_hits\": 0, \"cache_evictions\": 0}, \
          \"metrics\": [], \"tables\": [], \"complete\": \"yes\"}",
    ];
    for text in cases {
        let err = RunRecord::from_json(text).expect_err(text);
        assert!(
            matches!(err, RecordError::Syntax { .. } | RecordError::Shape { .. }),
            "{text}: {err:?}"
        );
    }
}

#[test]
fn non_finite_metric_values_survive_the_round_trip() {
    let record = record_from(
        "e7".to_string(),
        "full".to_string(),
        0.0,
        [0; 5],
        vec![
            ("nan".to_string(), f64::NAN, 0.0),
            ("inf".to_string(), f64::INFINITY, 0.0),
            ("ninf".to_string(), f64::NEG_INFINITY, 0.0),
        ],
        vec![],
        true,
    );
    let parsed = RunRecord::from_json(&record.to_json()).expect("specials must round-trip");
    assert!(parsed.metrics[0].value.is_nan());
    assert_eq!(parsed.metrics[1].value.to_bits(), f64::INFINITY.to_bits());
    assert_eq!(
        parsed.metrics[2].value.to_bits(),
        f64::NEG_INFINITY.to_bits()
    );
}
