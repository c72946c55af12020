//! `cursor-materialize`: no eager materialisation inside the
//! streaming-cursor modules whose contract is O(1) resident state.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::Rule;
use crate::source::SourceFile;

/// The modules that advertise the constant-memory streaming contract:
/// the cursor trait and combinators, the contention scenarios built on
/// them, the two run-draining drivers (execution and trace replay), the
/// streaming trace summariser, and the experiment that pins the claim.
/// A `.collect()`/`.to_vec()` in any of these is a pipeline quietly
/// buffering what it promised to stream.
const STREAMING_MODULES: [&str; 6] = [
    "crates/core/src/cursor.rs",
    "crates/profiles/src/scenario.rs",
    "crates/recursion/src/run.rs",
    "crates/paging/src/replay.rs",
    "crates/trace/src/summary.rs",
    "crates/bench/src/experiments/e16_streaming_contention.rs",
];

/// Flags `.collect(..)` and `.to_vec()` invocations in the streaming
/// modules listed in [`STREAMING_MODULES`].
pub struct CursorMaterialize;

impl Rule for CursorMaterialize {
    fn id(&self) -> &'static str {
        "cursor-materialize"
    }

    fn summary(&self) -> &'static str {
        ".collect(..)/.to_vec() inside the constant-memory streaming-cursor modules"
    }

    fn explain(&self) -> &'static str {
        "The streaming-cursor layer exists so contention pipelines run in \
         O(1) resident state at any length — E16's metered peak-heap \
         ceiling and its gigabyte-scale replays depend on it. One \
         `.collect::<Vec<_>>()` or `.to_vec()` on a run stream silently \
         re-materialises the profile and turns the constant-memory claim \
         into a function of pipeline length, the exact failure the cursor \
         refactor removed. This rule flags every `.collect(..)` and \
         `.to_vec()` invocation in the modules that carry the streaming \
         contract (cursor combinators, scenarios, the run-draining \
         drivers, the trace summariser, E16). Fix: keep the data a \
         cursor — chain combinators, fold as you drain, or push rows \
         into the bounded report types. Genuinely O(1)-or-O(tenants) \
         setup work (a fixed menu, one slot per tenant, an explicitly \
         `retaining` history) keeps the call and takes a waiver saying \
         why the allocation cannot grow with pipeline length."
    }

    fn applies(&self, rel_path: &str) -> bool {
        STREAMING_MODULES.contains(&rel_path)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || file.in_cfg_test(t.line) {
                continue;
            }
            let what = match t.text.as_str() {
                "collect" => "`.collect(..)`",
                "to_vec" => "`.to_vec()`",
                _ => continue,
            };
            // Only method invocations materialise; an item *named*
            // `collect` does not.
            let invoked = i > 0 && matches!(toks.get(i - 1), Some(p) if p.is_punct("."));
            if !invoked {
                continue;
            }
            out.push(Diagnostic {
                rule: self.id(),
                path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "{what} in a streaming-cursor module buffers what the \
                     pipeline promised to stream; keep it a cursor (chain \
                     combinators, fold while draining), or waive with why \
                     the allocation is bounded independent of pipeline \
                     length"
                ),
            });
        }
    }
}
