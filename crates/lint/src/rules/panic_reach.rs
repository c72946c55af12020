//! `panic-reach`: no panic site reachable from a public entry point.

use crate::diag::Diagnostic;
use crate::graph::{fn_of, WorkspaceModel};
use crate::rules::{is_test_or_bin_path, Rule};

/// Flags panic sites (`unwrap`/`expect`/`panic!`/`todo!`/computed
/// indexing) in library code that the workspace call graph shows to be
/// reachable from a public entry point, printing the call path.
pub struct PanicReach;

/// Render a call path for a diagnostic, eliding long middles.
fn render_path(path: &[String]) -> String {
    const KEEP: usize = 3;
    if path.len() <= 2 * KEEP {
        path.join(" -> ")
    } else {
        let head = path.get(..KEEP).unwrap_or_default().join(" -> ");
        let tail = path
            .get(path.len() - KEEP..)
            .unwrap_or_default()
            .join(" -> ");
        format!("{head} -> ... -> {tail}")
    }
}

impl Rule for PanicReach {
    fn id(&self) -> &'static str {
        "panic-reach"
    }

    fn summary(&self) -> &'static str {
        "panic site reachable from a public entry point (call path in diagnostic)"
    }

    fn explain(&self) -> &'static str {
        "The engine is embedded in long-running callers (the bench harness \
         and the scheduler). A panic on any \
         path a caller can actually reach turns a recoverable modelling \
         error into a process abort. This rule replaces the purely lexical \
         `no-panic-lib`: it builds a workspace call graph (name-resolved, \
         conservatively over-approximated — see DESIGN.md) and runs a BFS \
         from every public entry point (unrestricted `pub fn`s, trait-impl \
         methods, defaulted trait methods). A panic site — `.unwrap()`, \
         `.expect(…)`, `panic!(…)`, `todo!(…)`, or indexing with a computed \
         index (`xs[i + 1]`, `xs[f(i)]`) — inside a reachable function is \
         flagged at the site, with the shortest call path from the nearest \
         entry printed in the message. Panic sites in functions the graph \
         proves unreachable from public API are NOT flagged; if you delete \
         the last public caller of a panicky helper, its waiver goes stale \
         and must be removed. `tests/`, `benches/`, `examples/`, binary \
         roots, and `#[cfg(test)]` items are exempt; `assert!`/\
         `debug_assert!` and constant indexing are deliberately allowed — \
         stated invariants and pinned layouts are good. Fix: return the \
         crate error type, use `get(…)`/`unwrap_or`/`match`, or — for \
         genuine internal invariants whose violation means the accounting \
         is already wrong — keep the panic and waive it at the site with a \
         justification naming the invariant."
    }

    fn applies(&self, rel_path: &str) -> bool {
        !is_test_or_bin_path(rel_path)
    }

    fn check_workspace(&self, ws: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        let reach = ws.graph.reach_from_entries();
        for (ni, node) in ws.graph.nodes.iter().enumerate() {
            if !reach.reachable(ni) {
                continue;
            }
            let Some(file) = ws.files.get(node.file) else {
                continue;
            };
            if !self.applies(&file.rel_path) {
                continue;
            }
            let Some(f) = fn_of(&ws.files, node) else {
                continue;
            };
            let via = render_path(&ws.graph.entry_path(&reach, ni));
            let mut flag = |line: u32, what: &str| {
                if file.in_cfg_test(line) {
                    return;
                }
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.rel_path.clone(),
                    line,
                    message: format!(
                        "{what} is reachable from public API via {via}; return the \
                         crate error type or waive with the invariant that makes \
                         this unreachable"
                    ),
                });
            };
            for m in &f.events.methods {
                if m.name == "unwrap" || m.name == "expect" {
                    flag(m.line, &format!("`.{}(…)`", m.name));
                }
            }
            for mac in &f.events.macros {
                if mac.name == "panic" || mac.name == "todo" {
                    flag(mac.line, &format!("`{}!(…)`", mac.name));
                }
            }
            for ix in &f.events.indexes {
                if ix.computed {
                    flag(
                        ix.line,
                        "computed-index expression (possible out-of-bounds panic)",
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::render_path;

    #[test]
    fn short_paths_render_whole() {
        let p: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(render_path(&p), "a -> b -> c");
    }

    #[test]
    fn long_paths_elide_the_middle() {
        let p: Vec<String> = (0..10).map(|i| format!("f{i}")).collect();
        let r = render_path(&p);
        assert!(
            r.starts_with("f0 -> f1 -> f2 -> ... -> f7 -> f8 -> f9"),
            "{r}"
        );
    }
}
