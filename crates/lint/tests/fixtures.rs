//! Fixture-corpus tests: every rule has one fixture that must trip it at
//! exact (rule, line) positions and one that must come back clean, plus a
//! self-lint test asserting the workspace itself carries no diagnostics.

use cadapt_lint::{lint_source, lint_workspace};
use std::path::Path;

/// Read a fixture from `tests/fixtures/` and lint it under `rel_path`
/// (rule scoping keys off the path, so fixtures choose their own).
fn lint_fixture(name: &str, rel_path: &str) -> Vec<(&'static str, u32)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    lint_source(rel_path, &src)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

const LIB_PATH: &str = "crates/demo/src/module.rs";
const ACCOUNTING_PATH: &str = "crates/core/src/module.rs";
const ROOT_PATH: &str = "crates/demo/src/lib.rs";

#[test]
fn float_eq_fail() {
    assert_eq!(
        lint_fixture("fail/float_eq.rs", LIB_PATH),
        [("float-eq", 4), ("float-eq", 8)]
    );
}

#[test]
fn float_eq_pass() {
    assert_eq!(lint_fixture("pass/float_eq.rs", LIB_PATH), []);
}

#[test]
fn float_ord_fail() {
    assert_eq!(
        lint_fixture("fail/float_ord.rs", LIB_PATH),
        [("float-ord", 6), ("float-ord", 10), ("float-ord", 14)]
    );
}

#[test]
fn float_ord_pass() {
    assert_eq!(lint_fixture("pass/float_ord.rs", LIB_PATH), []);
}

#[test]
fn float_ord_is_scoped_to_library_code() {
    for path in [
        "crates/demo/tests/t.rs",
        "crates/demo/benches/b.rs",
        "crates/bench/src/main.rs",
    ] {
        assert_eq!(lint_fixture("fail/float_ord.rs", path), [], "{path}");
    }
}

#[test]
fn analytic_module_is_covered_by_float_ord_and_lossy_cast() {
    // The analytic cache model's contract depends on both rules: its
    // fault arithmetic must use the checked cast helpers (it lives in an
    // accounting crate) and any float ordering must be total. Pin the
    // exact path so a future move out of crates/paging cannot silently
    // drop either obligation.
    const ANALYTIC_PATH: &str = "crates/paging/src/analytic.rs";
    assert_eq!(
        lint_fixture("fail/float_ord.rs", ANALYTIC_PATH),
        [("float-ord", 6), ("float-ord", 10), ("float-ord", 14)]
    );
    assert_eq!(
        lint_fixture("fail/lossy_cast.rs", ANALYTIC_PATH),
        [("lossy-cast", 5), ("lossy-cast", 9), ("lossy-cast", 13)]
    );
}

#[test]
fn panic_reach_fail() {
    // unwrap in the entry itself, a computed index one call deep, and a
    // panic! two calls deep — all on paths from `entry`.
    assert_eq!(
        lint_fixture("fail/panic_reach.rs", LIB_PATH),
        [("panic-reach", 4), ("panic-reach", 8), ("panic-reach", 14),]
    );
}

#[test]
fn panic_reach_pass() {
    // The unwrap and indexing live in a private fn no entry calls: the
    // call graph proves them unreachable, so nothing is flagged.
    assert_eq!(lint_fixture("pass/panic_reach.rs", LIB_PATH), []);
}

#[test]
fn panic_reach_diagnostic_carries_the_call_path() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fail/panic_reach.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let diags = cadapt_lint::lint_source(LIB_PATH, &src);
    let deep = diags
        .iter()
        .find(|d| d.line == 14)
        .expect("panic! site flagged");
    // Shortest path from the nearest entry, rendered in the message.
    assert!(
        deep.message.contains("entry -> ") && deep.message.contains("scale"),
        "no call path in: {}",
        deep.message
    );
}

#[test]
fn panic_reach_is_scoped_to_library_code() {
    // The same panicking fixture is fine as a test, bench, or binary root
    // (cadapt-bench's main.rs is exempt that way: it is the one place
    // errors become exit codes).
    for path in [
        "crates/demo/tests/t.rs",
        "crates/demo/benches/b.rs",
        "crates/demo/src/bin/tool.rs",
        "crates/bench/src/main.rs",
    ] {
        assert_eq!(lint_fixture("fail/panic_reach.rs", path), [], "{path}");
    }
}

#[test]
fn panic_reach_covers_the_bench_harness_library() {
    // Since the fault-tolerance rework the bench crate's library half is
    // held to the same standard as every other crate.
    for path in [
        "crates/bench/src/harness/check.rs",
        "crates/bench/src/experiments/e1_worst_case_gap.rs",
        "crates/bench/src/faults.rs",
    ] {
        assert_eq!(
            lint_fixture("fail/panic_reach.rs", path),
            [("panic-reach", 4), ("panic-reach", 8), ("panic-reach", 14),],
            "{path}"
        );
    }
}

#[test]
fn rng_discipline_fail() {
    // Field store, construction, re-aim, clone, and return-type escape.
    assert_eq!(
        lint_fixture("fail/rng_discipline.rs", LIB_PATH),
        [
            ("rng-discipline", 4),
            ("rng-discipline", 8),
            ("rng-discipline", 9),
            ("rng-discipline", 10),
            ("rng-discipline", 15),
        ]
    );
}

#[test]
fn rng_discipline_pass() {
    assert_eq!(lint_fixture("pass/rng_discipline.rs", LIB_PATH), []);
}

#[test]
fn rng_discipline_engine_may_mint_but_not_leak() {
    // Inside the approved engine, construction / re-aiming / cloning are
    // allowed — but the escape hatches (return type, field store) are
    // still flagged: even the engine must not let a stream out.
    assert_eq!(
        lint_fixture("fail/rng_discipline.rs", "crates/analysis/src/parallel.rs"),
        [("rng-discipline", 4), ("rng-discipline", 15)]
    );
}

#[test]
fn counter_balance_fail() {
    assert_eq!(
        lint_fixture("fail/counter_balance.rs", ACCOUNTING_PATH),
        [("counter-balance", 4), ("counter-balance", 5)]
    );
}

#[test]
fn counter_balance_pass() {
    assert_eq!(lint_fixture("pass/counter_balance.rs", ACCOUNTING_PATH), []);
}

#[test]
fn counter_balance_is_scoped_to_accounting_crates_minus_the_ledger() {
    // Outside the accounting crates the rule does not apply, and the
    // ledger module itself is the one approved mutation site.
    for path in [LIB_PATH, "crates/core/src/counters.rs"] {
        assert_eq!(lint_fixture("fail/counter_balance.rs", path), [], "{path}");
    }
}

#[test]
fn vm_dispatch_fail() {
    // decode missing a variant, a dispatch missing a variant, a
    // catch-all arm, and raw byte dispatch outside the funnel.
    assert_eq!(
        lint_fixture("fail/vm_dispatch.rs", "crates/trace/src/bytecode.rs"),
        [
            ("vm-dispatch", 10),
            ("vm-dispatch", 20),
            ("vm-dispatch", 23),
            ("vm-dispatch", 30),
        ]
    );
}

#[test]
fn vm_dispatch_requires_an_opcode_enum() {
    assert_eq!(
        lint_fixture(
            "fail/vm_dispatch_no_enum.rs",
            "crates/trace/src/bytecode.rs"
        ),
        [("vm-dispatch", 1)]
    );
}

#[test]
fn vm_dispatch_pass() {
    assert_eq!(
        lint_fixture("pass/vm_dispatch.rs", "crates/trace/src/bytecode.rs"),
        []
    );
}

#[test]
fn vm_dispatch_is_scoped_to_the_vm_module() {
    assert_eq!(lint_fixture("fail/vm_dispatch.rs", LIB_PATH), []);
}

#[test]
fn lossy_cast_fail() {
    assert_eq!(
        lint_fixture("fail/lossy_cast.rs", ACCOUNTING_PATH),
        [("lossy-cast", 5), ("lossy-cast", 9), ("lossy-cast", 13)]
    );
}

#[test]
fn lossy_cast_pass() {
    assert_eq!(lint_fixture("pass/lossy_cast.rs", ACCOUNTING_PATH), []);
}

#[test]
fn lossy_cast_is_scoped_to_accounting_crates() {
    // Outside crates/{core,recursion,paging} the rule does not apply.
    assert_eq!(lint_fixture("fail/lossy_cast.rs", LIB_PATH), []);
    // Inside, all three accounting crates are covered.
    for path in [
        "crates/recursion/src/module.rs",
        "crates/paging/src/module.rs",
    ] {
        assert_eq!(
            lint_fixture("fail/lossy_cast.rs", path),
            [("lossy-cast", 5), ("lossy-cast", 9), ("lossy-cast", 13)],
            "{path}"
        );
    }
}

#[test]
fn nondet_source_fail() {
    assert_eq!(
        lint_fixture("fail/nondet_source.rs", LIB_PATH),
        [
            ("nondet-source", 3),
            ("nondet-source", 5),
            ("nondet-source", 6),
            ("nondet-source", 14),
            ("nondet-source", 18),
            ("nondet-source", 22),
            ("nondet-source", 23),
        ]
    );
}

#[test]
fn nondet_source_threading_is_allowed_only_in_the_engine() {
    // Linted as the approved fan-out engine, the same fixture keeps its
    // HashMap/Instant diagnostics but loses the threading ones.
    assert_eq!(
        lint_fixture("fail/nondet_source.rs", "crates/analysis/src/parallel.rs"),
        [
            ("nondet-source", 3),
            ("nondet-source", 5),
            ("nondet-source", 6),
            ("nondet-source", 14),
        ]
    );
}

#[test]
fn nondet_source_pass() {
    assert_eq!(lint_fixture("pass/nondet_source.rs", LIB_PATH), []);
}

#[test]
fn cursor_materialize_fail() {
    // A drained-then-collected run stream and a `.to_vec()` snapshot.
    assert_eq!(
        lint_fixture("fail/cursor_materialize.rs", "crates/core/src/cursor.rs"),
        [("cursor-materialize", 10), ("cursor-materialize", 14)]
    );
}

#[test]
fn cursor_materialize_pass() {
    // Fold-while-draining, an item named `collect`, and a waived
    // per-tenant setup all come back clean.
    assert_eq!(
        lint_fixture("pass/cursor_materialize.rs", "crates/core/src/cursor.rs"),
        []
    );
}

#[test]
fn cursor_materialize_covers_every_streaming_module() {
    // The streaming contract spans five crates; pin the exact paths so a
    // rename cannot silently drop a module from coverage.
    for path in [
        "crates/core/src/cursor.rs",
        "crates/profiles/src/scenario.rs",
        "crates/recursion/src/run.rs",
        "crates/paging/src/replay.rs",
        "crates/trace/src/summary.rs",
        "crates/bench/src/experiments/e16_streaming_contention.rs",
    ] {
        assert_eq!(
            lint_fixture("fail/cursor_materialize.rs", path),
            [("cursor-materialize", 10), ("cursor-materialize", 14)],
            "{path}"
        );
    }
}

#[test]
fn cursor_materialize_is_scoped_to_streaming_modules() {
    // Ordinary library code may collect freely — the rule protects the
    // streaming modules' memory contract, not allocation in general.
    for path in [LIB_PATH, ACCOUNTING_PATH, "crates/core/src/profile.rs"] {
        assert_eq!(
            lint_fixture("fail/cursor_materialize.rs", path),
            [],
            "{path}"
        );
    }
}

#[test]
fn crate_header_fail() {
    assert_eq!(
        lint_fixture("fail/crate_header.rs", ROOT_PATH),
        [("crate-header", 1)]
    );
}

#[test]
fn crate_header_pass() {
    assert_eq!(lint_fixture("pass/crate_header.rs", ROOT_PATH), []);
}

#[test]
fn crate_header_only_applies_to_crate_roots() {
    assert_eq!(lint_fixture("fail/crate_header.rs", LIB_PATH), []);
}

#[test]
fn stale_waiver_fail() {
    assert_eq!(
        lint_fixture("fail/stale_waiver.rs", LIB_PATH),
        [("stale-waiver", 3)]
    );
}

#[test]
fn malformed_waiver_fail() {
    // Each bad waiver is reported AND fails to suppress its violation.
    assert_eq!(
        lint_fixture("fail/malformed_waiver.rs", LIB_PATH),
        [
            ("malformed-waiver", 4),
            ("float-eq", 5),
            ("malformed-waiver", 9),
            ("float-eq", 10),
        ]
    );
}

#[test]
fn waiver_pass() {
    // Both placements suppress their violation and neither is stale.
    assert_eq!(lint_fixture("pass/waiver.rs", LIB_PATH), []);
}

#[test]
fn every_rule_documents_itself() {
    // `explain <rule>` is the waiver-review workflow's entry point: every
    // registered rule must carry a distinct id, a one-line summary, and a
    // real explanation (not a stub).
    let rules = cadapt_lint::registry();
    let mut ids = std::collections::BTreeSet::new();
    for rule in &rules {
        assert!(ids.insert(rule.id()), "duplicate rule id {}", rule.id());
        assert!(!rule.summary().is_empty(), "{} has no summary", rule.id());
        assert!(
            rule.explain().len() > 200,
            "{} explain() is too thin to guide a fix",
            rule.id()
        );
    }
    // The dataflow rules and the streaming-contract rule are registered.
    for id in [
        "panic-reach",
        "rng-discipline",
        "counter-balance",
        "vm-dispatch",
        "cursor-materialize",
    ] {
        assert!(ids.contains(id), "{id} missing from registry");
    }
    // The lexical predecessor is gone: panic-reach replaced it.
    assert!(!ids.contains("no-panic-lib"));
}

#[test]
fn workspace_is_clean() {
    // The repo itself must lint clean: every violation is either fixed or
    // carries a justified waiver, and no waiver is stale.
    let root = cadapt_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    let diags = lint_workspace(&root).expect("workspace readable");
    assert!(
        diags.is_empty(),
        "workspace has {} diagnostics:\n{}",
        diags.len(),
        diags
            .iter()
            .map(cadapt_lint::Diagnostic::render_text)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
