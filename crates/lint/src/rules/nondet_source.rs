//! `nondet-source`: no wall-clock, OS randomness, hash-order collections,
//! or ad-hoc worker threads in result-affecting code.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::{is_test_or_bin_path, Rule};
use crate::source::SourceFile;

/// The one module allowed to spawn worker threads: the deterministic
/// trial fan-out engine, whose trial-ordered reduction is what makes
/// threaded results reproducible in the first place.
const APPROVED_ENGINE: &str = "crates/analysis/src/parallel.rs";

/// Flags `Instant::now`, `SystemTime`, `thread_rng`,
/// `HashMap`/`HashSet`, and ad-hoc thread fan-out (`thread::spawn`,
/// `.spawn(..)`, `crossbeam`) in library code.
pub struct NondetSource;

impl Rule for NondetSource {
    fn id(&self) -> &'static str {
        "nondet-source"
    }

    fn summary(&self) -> &'static str {
        "Instant::now/SystemTime/thread_rng/HashMap/HashSet/ad-hoc spawn in result-affecting code"
    }

    fn explain(&self) -> &'static str {
        "Every run record must be reproducible bit-for-bit from (params, \
         seed): that is the property the golden records pin and the \
         smoothed-analysis experiments assume. Wall clocks \
         (`Instant::now`, `SystemTime`) and OS entropy (`thread_rng`) \
         break it outright; `HashMap`/`HashSet` break it lazily — their \
         iteration order is randomised per process, so the first `for` \
         loop over one (today or in a future refactor) makes results \
         schedule-dependent, exactly the failure mode parallel \
         cache-complexity analyses must exclude. Ad-hoc worker threads \
         (`thread::spawn`, scope `.spawn(..)`, `crossbeam`) break it the \
         same way: an unordered reduction makes aggregates depend on the \
         OS schedule. This rule flags every mention in library code, \
         including imports. Fix: `BTreeMap`/`BTreeSet` (deterministic \
         order), the seeded `rand_chacha` shim for randomness, and \
         `cadapt_analysis::parallel` — the one approved engine, whose \
         trial-ordered reduction is bit-identical at any thread count — \
         for fan-out. Sites that provably never iterate (e.g. a \
         point-probed LRU index) or that only feed wall-clock fields \
         excluded from golden comparison keep the type and take a waiver \
         saying exactly that."
    }

    fn applies(&self, rel_path: &str) -> bool {
        !is_test_or_bin_path(rel_path)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let toks = &file.lexed.tokens;
        // The fan-out engine may spawn; everything else routes through it.
        let approved_engine = file.rel_path == APPROVED_ENGINE;
        const DETERMINISM_FIX: &str = "use BTreeMap/BTreeSet or a seeded RNG";
        const THREADING_FIX: &str =
            "route fan-out through cadapt_analysis::parallel (trial-ordered reduction)";
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || file.in_cfg_test(t.line) {
                continue;
            }
            let (what, fix) = match t.text.as_str() {
                "HashMap" | "HashSet" => (
                    format!("`{}` (iteration order is per-process random)", t.text),
                    DETERMINISM_FIX,
                ),
                "SystemTime" => ("`SystemTime` (wall clock)".to_string(), DETERMINISM_FIX),
                "thread_rng" => ("`thread_rng` (OS entropy)".to_string(), DETERMINISM_FIX),
                "Instant" => {
                    let is_now = matches!(toks.get(i + 1), Some(n) if n.is_punct("::"))
                        && matches!(toks.get(i + 2), Some(n) if n.is_ident("now"));
                    if !is_now {
                        continue;
                    }
                    ("`Instant::now` (wall clock)".to_string(), DETERMINISM_FIX)
                }
                "crossbeam" => {
                    if approved_engine {
                        continue;
                    }
                    (
                        "`crossbeam` (ad-hoc worker threads)".to_string(),
                        THREADING_FIX,
                    )
                }
                "spawn" => {
                    // Only invocations (`thread::spawn`, `scope.spawn`)
                    // fan out work; defining an item named `spawn` or
                    // `spawn_label` does not.
                    let invoked = i > 0
                        && matches!(toks.get(i - 1), Some(p) if p.is_punct("::") || p.is_punct("."));
                    if approved_engine || !invoked {
                        continue;
                    }
                    (
                        "`spawn` (ad-hoc worker threads, unordered reduction)".to_string(),
                        THREADING_FIX,
                    )
                }
                _ => continue,
            };
            out.push(Diagnostic {
                rule: self.id(),
                path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "{what} in result-affecting code; {fix}, or waive with \
                     why results cannot depend on it"
                ),
            });
        }
    }
}
