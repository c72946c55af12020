//! The bench harness's typed error chain.
//!
//! Every fallible path in `cadapt-bench` — experiment execution, record
//! (de)serialization, artifact IO, golden comparison, checkpoint handling
//! — funnels into [`BenchError`], and `main` is the **only** place that
//! turns one into a process exit code. The error taxonomy mirrors the
//! failure model in DESIGN.md: user mistakes (`Usage`), semantic failures
//! the harness detected and reported cleanly (`Golden`, `Invariant`),
//! environmental failures (`Io`), data we refuse to trust (`Record`,
//! `Corrupt`, `Checkpoint`), and isolated trial panics (`Panicked`).
//!
//! The library half of the crate never panics on these paths (enforced by
//! `cadapt-lint`'s `panic-reach` rule, which covers `crates/bench` since
//! the fault-tolerance rework); anything that used to `unwrap` now
//! `?`-propagates here.

use cadapt_analysis::{McError, TrialPanic};
use cadapt_core::CoreError;
use cadapt_recursion::RunError;
use std::fmt;
use std::path::PathBuf;

use crate::harness::record::RecordError;
use crate::harness::store::StoreError;

/// Anything that can go wrong running the bench harness.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// Bad command line; `main` prints usage and exits 2.
    Usage(String),
    /// A model primitive rejected its inputs.
    Core(CoreError),
    /// An execution failed (bad problem size, box budget exhausted).
    Run(RunError),
    /// A Monte-Carlo trial's execution failed, keyed by the offending
    /// trial (a trial panic becomes [`BenchError::Panicked`] instead).
    Mc(McError),
    /// An isolated trial panic, caught at the engine boundary.
    Panicked {
        /// What was running ("experiment e3", "sweep n=1024", …).
        context: String,
        /// The failing trial index, when the panic came from a trial sweep.
        trial: Option<u64>,
        /// The rendered panic payload.
        message: String,
    },
    /// An internal invariant did not hold (a metric/series the code just
    /// produced is missing, a computed table has the wrong shape, …).
    Invariant {
        /// What was being computed and which invariant broke.
        context: String,
    },
    /// A filesystem operation failed.
    Io {
        /// What was being attempted ("write", "read", "rename", …).
        action: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The OS error, rendered.
        message: String,
    },
    /// A run-record file failed to parse.
    Record {
        /// The file that was being parsed.
        path: PathBuf,
        /// The typed parse failure.
        source: RecordError,
    },
    /// A checksummed artifact failed verification (truncated, bit-flipped,
    /// or checksum-mismatched) — its contents must not be trusted.
    Corrupt {
        /// The artifact.
        path: PathBuf,
        /// What exactly failed to verify.
        detail: String,
    },
    /// A golden record is missing or unusable; `cadapt-bench check`
    /// reports this with the command to regenerate it.
    Golden {
        /// Experiment id the golden belongs to.
        id: String,
        /// Expected golden path.
        path: PathBuf,
        /// Why it cannot be used.
        detail: String,
    },
    /// A checkpoint manifest is unusable for resuming this run.
    Checkpoint {
        /// The manifest path.
        path: PathBuf,
        /// Why it cannot be used.
        detail: String,
    },
}

impl BenchError {
    /// Map the failure onto the process exit code contract (see DESIGN.md's
    /// failure model): 0 success, 1 semantic failure (experiment error,
    /// check mismatch), 2 usage, 3 filesystem, 4 untrusted data (corrupt
    /// artifact, bad golden, unusable checkpoint), 5 isolated panic.
    ///
    /// No error maps to 0, and every variant without a code of its own is a
    /// semantic failure (1).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            BenchError::Usage(_) => 2,
            BenchError::Io { .. } => 3,
            BenchError::Record { .. }
            | BenchError::Corrupt { .. }
            | BenchError::Golden { .. }
            | BenchError::Checkpoint { .. } => 4,
            BenchError::Panicked { .. } => 5,
            BenchError::Core(_)
            | BenchError::Run(_)
            | BenchError::Mc(_)
            | BenchError::Invariant { .. } => 1,
        }
    }

    /// Wrap an isolated trial panic, recording what was running.
    #[must_use]
    pub fn from_trial_panic(context: &str, p: TrialPanic) -> BenchError {
        BenchError::Panicked {
            context: context.to_string(),
            trial: Some(p.trial),
            message: p.message,
        }
    }

    /// An internal-invariant failure with a formatted context.
    #[must_use]
    pub fn invariant(context: impl Into<String>) -> BenchError {
        BenchError::Invariant {
            context: context.into(),
        }
    }

    /// A filesystem failure.
    #[must_use]
    pub fn io(action: &'static str, path: impl Into<PathBuf>, err: &std::io::Error) -> BenchError {
        BenchError::Io {
            action,
            path: path.into(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage error: {msg}"),
            BenchError::Core(e) => write!(f, "model error: {e}"),
            BenchError::Run(e) => write!(f, "execution error: {e}"),
            BenchError::Mc(e) => write!(f, "monte-carlo error: {e}"),
            BenchError::Panicked {
                context,
                trial,
                message,
            } => match trial {
                Some(t) => write!(f, "{context}: trial {t} panicked: {message}"),
                None => write!(f, "{context}: panicked: {message}"),
            },
            BenchError::Invariant { context } => {
                write!(f, "internal invariant violated: {context}")
            }
            BenchError::Io {
                action,
                path,
                message,
            } => write!(f, "failed to {action} {}: {message}", path.display()),
            BenchError::Record { path, source } => {
                write!(f, "unreadable run record {}: {source}", path.display())
            }
            BenchError::Corrupt { path, detail } => {
                write!(f, "corrupt artifact {}: {detail}", path.display())
            }
            BenchError::Golden { id, path, detail } => write!(
                f,
                "golden record for `{id}` unusable ({}): {detail}\n  regenerate with: cadapt-bench run --exp {id} --size quick --out tests/golden",
                path.display()
            ),
            BenchError::Checkpoint { path, detail } => {
                write!(f, "checkpoint manifest {} unusable: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Core(e) => Some(e),
            BenchError::Run(e) => Some(e),
            BenchError::Mc(e) => Some(e),
            BenchError::Record { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CoreError> for BenchError {
    fn from(e: CoreError) -> BenchError {
        BenchError::Core(e)
    }
}

impl From<RunError> for BenchError {
    fn from(e: RunError) -> BenchError {
        BenchError::Run(e)
    }
}

impl From<McError> for BenchError {
    fn from(e: McError) -> BenchError {
        match e {
            // An isolated trial panic keeps its own exit code (5) whichever
            // sweep it came from.
            McError::Panic(p) => BenchError::from_trial_panic("monte-carlo sweep", p),
            run => BenchError::Mc(run),
        }
    }
}

impl From<StoreError> for BenchError {
    fn from(e: StoreError) -> BenchError {
        match e {
            StoreError::Io {
                action,
                path,
                message,
            } => BenchError::Io {
                action,
                path,
                message,
            },
            StoreError::Injected { action, path } => BenchError::Io {
                action,
                path,
                message: "injected fault".to_string(),
            },
            StoreError::Envelope { path, detail } => BenchError::Corrupt { path, detail },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_contract() {
        assert_eq!(BenchError::Usage("x".into()).exit_code(), 2);
        assert_eq!(
            BenchError::Io {
                action: "write",
                path: "r.json".into(),
                message: "denied".into()
            }
            .exit_code(),
            3
        );
        assert_eq!(
            BenchError::Corrupt {
                path: "r.json".into(),
                detail: "crc mismatch".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            BenchError::Golden {
                id: "e1".into(),
                path: "tests/golden/e1.json".into(),
                detail: "missing".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            BenchError::Panicked {
                context: "e3".into(),
                trial: Some(7),
                message: "boom".into()
            }
            .exit_code(),
            5
        );
        assert_eq!(
            BenchError::Run(RunError::BoxBudgetExhausted { max_boxes: 2 }).exit_code(),
            1
        );
        assert_eq!(BenchError::invariant("x").exit_code(), 1);
    }

    #[test]
    fn golden_error_tells_the_user_how_to_regenerate() {
        let e = BenchError::Golden {
            id: "e5".into(),
            path: "tests/golden/e5.json".into(),
            detail: "missing".into(),
        };
        let s = e.to_string();
        assert!(s.contains("e5"), "{s}");
        assert!(s.contains("regenerate"), "{s}");
        assert!(s.contains("cadapt-bench run"), "{s}");
    }

    #[test]
    fn sweep_wrappers_keep_the_trial_index() {
        // A trial panic inside monte_carlo_ratio is an isolated panic
        // (exit 5), like one in any other sweep, not a semantic failure.
        let e: BenchError = McError::Panic(TrialPanic {
            trial: 9,
            message: "boom".into(),
        })
        .into();
        assert_eq!(
            e,
            BenchError::Panicked {
                context: "monte-carlo sweep".into(),
                trial: Some(9),
                message: "boom".into()
            }
        );
        assert_eq!(e.exit_code(), 5);
        assert_eq!(e.to_string(), "monte-carlo sweep: trial 9 panicked: boom");
        // A trial's execution error stays a semantic failure (exit 1).
        let run: BenchError = McError::Run {
            trial: 2,
            error: RunError::BoxBudgetExhausted { max_boxes: 2 },
        }
        .into();
        assert!(matches!(run, BenchError::Mc(McError::Run { trial: 2, .. })));
        assert_eq!(run.exit_code(), 1);
    }
}
