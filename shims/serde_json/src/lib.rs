//! Offline stand-in for `serde_json`: the workspace's one JSON path.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of serde_json it uses: the [`Value`] tree that run
//! records, checkpoint manifests, checksummed envelopes and the fault
//! report are built from and read back into by hand, a renderer
//! ([`Value::render_compact`], and [`Value::render_pretty`] in
//! serde_json's pretty layout) and a parser ([`Value::parse_json`]).
//!
//! There is no typed layer (no derivable traits, no `to_string` or
//! `from_str`): every byte of a record's format is written out in
//! first-party code. The parser reads untrusted files (goldens,
//! manifests, records on `--resume`), so it bounds nesting depth and
//! runs in time linear in its input.

mod parse;
mod render;
mod value;

pub use value::{Map, Number, Value};

/// A JSON syntax error from [`Value::parse_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// A new error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}
