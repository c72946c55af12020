//! The rule registry.
//!
//! Each rule has a stable id, a one-line summary (`cadapt-lint list`) and
//! a long explanation tying it to the determinism / accounting invariant
//! it protects (`cadapt-lint explain`). Rules come in two shapes:
//! **file rules** scan one token stream / item tree at a time
//! ([`Rule::check`]), and **workspace rules** run once over the whole
//! parsed workspace and its call graph ([`Rule::check_workspace`]) —
//! that's where path-sensitive analyses like `panic-reach` live. Rules
//! see tokens and the item tree, never types; each one documents the
//! heuristic it uses and the waiver escape hatch.

mod counter_balance;
mod crate_header;
mod cursor_materialize;
mod float_eq;
mod float_ord;
mod lossy_cast;
mod nondet_source;
mod panic_reach;
mod rng_discipline;
mod vm_dispatch;

use crate::diag::Diagnostic;
use crate::graph::WorkspaceModel;
use crate::source::SourceFile;

/// A single lint rule.
pub trait Rule {
    /// Stable kebab-case identifier, used in waivers and JSON output.
    fn id(&self) -> &'static str;
    /// One-line summary for `cadapt-lint list`.
    fn summary(&self) -> &'static str;
    /// Long-form explanation for `cadapt-lint explain <rule>`: what the
    /// rule flags, which invariant it protects, and how to fix or waive.
    fn explain(&self) -> &'static str;
    /// Whether the rule flags sites in this workspace-relative path.
    fn applies(&self, rel_path: &str) -> bool;
    /// Scan one file, appending diagnostics. File rules implement this;
    /// the default does nothing.
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let _ = (file, out);
    }
    /// Run once over the whole workspace model (all parsed files plus the
    /// call graph). Workspace rules implement this; the default does
    /// nothing. Implementations must gate flagged sites on
    /// [`Rule::applies`] and `in_cfg_test` themselves.
    fn check_workspace(&self, ws: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        let _ = (ws, out);
    }
}

/// All registered rules, in reporting order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_eq::FloatEq),
        Box::new(float_ord::FloatOrd),
        Box::new(panic_reach::PanicReach),
        Box::new(lossy_cast::LossyCast),
        Box::new(nondet_source::NondetSource),
        Box::new(crate_header::CrateHeader),
        Box::new(rng_discipline::RngDiscipline),
        Box::new(counter_balance::CounterBalance),
        Box::new(vm_dispatch::VmDispatch),
        Box::new(cursor_materialize::CursorMaterialize),
    ]
}

/// Rule ids that the waiver machinery itself emits. They are valid in
/// error listings but cannot be waived and cannot appear in `allow()`.
pub const META_RULES: [&str; 2] = ["stale-waiver", "malformed-waiver"];

/// True when `rel_path` lives under one of the accounting crates whose
/// arithmetic feeds I/O totals and progress ledgers.
#[must_use]
pub fn in_accounting_crate(rel_path: &str) -> bool {
    ["crates/core/", "crates/recursion/", "crates/paging/"]
        .iter()
        .any(|p| rel_path.starts_with(p))
}

/// True for paths that are test or bench collateral rather than library
/// code: `tests/`, `benches/`, `examples/` directories, binary roots.
#[must_use]
pub fn is_test_or_bin_path(rel_path: &str) -> bool {
    rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.contains("/src/bin/")
        || rel_path.ends_with("/main.rs")
        || rel_path.ends_with("/build.rs")
}
