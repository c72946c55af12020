//! Crash-safe artifact persistence.
//!
//! Run records, checkpoint manifests, and fault reports all reach disk
//! through this module, which provides two guarantees:
//!
//! * **Atomicity** — [`FsWriter`] writes to `<path>.tmp`, fsyncs, then
//!   renames over the destination. A crash at any instant leaves either
//!   the old file or the new file, never a torn mixture; a stray `.tmp`
//!   is garbage to be overwritten, never read.
//! * **Integrity** — artifacts that will be *trusted later* (checkpoint
//!   manifests, fault reports) are wrapped in a checksummed
//!   envelope: `{"cadapt_envelope": 1, "crc32": "crc32:…", "payload": …}`
//!   with the CRC taken over the payload's compact rendering.
//!   [`read_envelope`] recomputes it and refuses truncated, bit-flipped,
//!   or checksum-mismatched files with a typed [`StoreError::Envelope`].
//!
//! Run records themselves are **not** enveloped: their on-disk bytes are
//! the golden format the repo has committed, and this PR keeps those
//! byte-identical. Records get atomicity from the writer and integrity
//! from the CRCs embedded in the checkpoint manifest next to them.
//!
//! The [`ArtifactWriter`] trait exists so the fault-injection harness can
//! substitute a writer that fails or truncates on command
//! (`crate::faults`); production code only ever constructs [`FsWriter`].

use cadapt_core::checksum::crc32_tag;
use serde_json::{Map, Value};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version of the envelope layout.
pub const ENVELOPE_VERSION: u32 = 1;

/// A persistence failure, typed so callers can distinguish "the disk said
/// no" from "the file says something untrustworthy".
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A real filesystem operation failed.
    Io {
        /// What was being attempted.
        action: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The OS error, rendered.
        message: String,
    },
    /// An injected fault (fault-injection harness only): the write failed
    /// with **no** side effects on the destination.
    Injected {
        /// The simulated operation.
        action: &'static str,
        /// The path involved.
        path: PathBuf,
    },
    /// The envelope failed verification; the payload must not be trusted.
    Envelope {
        /// The artifact.
        path: PathBuf,
        /// What exactly failed (parse error, missing field, CRC mismatch).
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                action,
                path,
                message,
            } => write!(f, "failed to {action} {}: {message}", path.display()),
            StoreError::Injected { action, path } => {
                write!(f, "injected {action} fault on {}", path.display())
            }
            StoreError::Envelope { path, detail } => {
                write!(
                    f,
                    "artifact {} failed verification: {detail}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Where artifacts go. Production uses [`FsWriter`]; the fault harness
/// wraps it with an injector.
pub trait ArtifactWriter: Sync {
    /// Atomically persist `text` at `path` (tmp + rename semantics: after
    /// an error the destination holds either its old content or nothing).
    ///
    /// # Errors
    ///
    /// Returns a typed [`StoreError`] and leaves the destination
    /// untouched (a leftover `.tmp` file is allowed; it is never read).
    fn persist(&self, path: &Path, text: &str) -> Result<(), StoreError>;
}

/// The real filesystem writer: tmp file, fsync, rename.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsWriter;

impl ArtifactWriter for FsWriter {
    fn persist(&self, path: &Path, text: &str) -> Result<(), StoreError> {
        let tmp = tmp_path(path);
        fn io(action: &'static str, p: &Path) -> impl FnOnce(std::io::Error) -> StoreError {
            let p = p.to_path_buf();
            move |e: std::io::Error| StoreError::Io {
                action,
                path: p,
                message: e.to_string(),
            }
        }
        {
            let mut file = std::fs::File::create(&tmp).map_err(io("create", &tmp))?;
            file.write_all(text.as_bytes()).map_err(io("write", &tmp))?;
            // Flush to the device before the rename publishes the file, so
            // a crash cannot publish an empty or partial artifact.
            file.sync_all().map_err(io("sync", &tmp))?;
        }
        std::fs::rename(&tmp, path).map_err(io("rename", path))?;
        Ok(())
    }
}

/// The sibling tmp path the writer stages into.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Wrap `payload` in the checksummed envelope and render it as pretty
/// JSON (the CRC is over the payload's *compact* rendering, so pretty
/// whitespace stays out of the integrity domain).
#[must_use]
pub fn envelope_text(payload: &Value) -> String {
    let mut envelope = Map::new();
    envelope.insert(
        "cadapt_envelope",
        Value::Number(serde_json::Number::U(u128::from(ENVELOPE_VERSION))),
    );
    envelope.insert(
        "crc32",
        Value::String(crc32_tag(payload.render_compact().as_bytes())),
    );
    envelope.insert("payload", payload.clone());
    let mut text = Value::Object(envelope).render_pretty();
    text.push('\n');
    text
}

/// Atomically persist `payload` at `path` inside a checksummed envelope.
///
/// # Errors
///
/// Propagates the writer's [`StoreError`].
pub fn write_envelope(
    writer: &dyn ArtifactWriter,
    path: &Path,
    payload: &Value,
) -> Result<(), StoreError> {
    writer.persist(path, &envelope_text(payload))
}

/// Read and verify a checksummed artifact, returning the payload only if
/// every check passes: well-formed JSON, the envelope shape, a known
/// version, and a CRC that matches the payload's canonical bytes.
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be read;
/// [`StoreError::Envelope`] when it reads but cannot be trusted
/// (truncation and byte flips land here — never a panic).
pub fn read_envelope(path: &Path) -> Result<Value, StoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| StoreError::Io {
        action: "read",
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    verify_envelope(path, &text)
}

/// [`read_envelope`] on already-loaded text (exposed for corruption
/// tests and the fault harness).
///
/// # Errors
///
/// As [`read_envelope`].
pub fn verify_envelope(path: &Path, text: &str) -> Result<Value, StoreError> {
    let corrupt = |detail: String| StoreError::Envelope {
        path: path.to_path_buf(),
        detail,
    };
    let value = Value::parse_json(text).map_err(|e| corrupt(format!("not valid JSON: {e}")))?;
    let object = value
        .as_object()
        .ok_or_else(|| corrupt("envelope is not a JSON object".to_string()))?;
    let version = object
        .get("cadapt_envelope")
        .and_then(Value::as_u64)
        .ok_or_else(|| corrupt("missing `cadapt_envelope` version field".to_string()))?;
    if version != u64::from(ENVELOPE_VERSION) {
        return Err(corrupt(format!(
            "unsupported envelope version {version} (expected {ENVELOPE_VERSION})"
        )));
    }
    let declared = object
        .get("crc32")
        .and_then(Value::as_str)
        .ok_or_else(|| corrupt("missing `crc32` field".to_string()))?;
    let payload = object
        .get("payload")
        .ok_or_else(|| corrupt("missing `payload` field".to_string()))?;
    let actual = crc32_tag(payload.render_compact().as_bytes());
    if declared != actual {
        return Err(corrupt(format!(
            "checksum mismatch: file declares {declared}, payload hashes to {actual}"
        )));
    }
    Ok(payload.clone())
}

/// CRC tag of a run record's exact on-disk bytes — the integrity hook for
/// *non*-enveloped artifacts: the checkpoint manifest stores this tag
/// next to each record it vouches for.
#[must_use]
pub fn content_tag(text: &str) -> String {
    crc32_tag(text.as_bytes())
}

/// Does `tag` match `text`? (Constant-shape helper for manifest checks.)
#[must_use]
pub fn tag_matches(tag: &str, text: &str) -> bool {
    // Reject anything that is not a well-formed tag, so a corrupted
    // manifest entry can never accidentally vouch for a file.
    tag == content_tag(text) && tag.len() == "crc32:00000000".len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cadapt-store-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_payload() -> Value {
        let mut m = Map::new();
        m.insert("kind", Value::String("demo".into()));
        m.insert("n", Value::Number(serde_json::Number::U(42)));
        m.insert("x", Value::Number(serde_json::Number::F(1.5)));
        Value::Object(m)
    }

    #[test]
    fn fs_writer_round_trips_atomically() {
        let dir = scratch_dir("atomic");
        let path = dir.join("artifact.json");
        FsWriter.persist(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        FsWriter.persist(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        // The staging file never survives a successful persist.
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_writer_reports_typed_io_errors() {
        let path = Path::new("/definitely/not/a/real/dir/artifact.json");
        let err = FsWriter.persist(path, "x").unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Io {
                    action: "create",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn envelope_round_trips() {
        let dir = scratch_dir("envelope");
        let path = dir.join("manifest.json");
        let payload = demo_payload();
        write_envelope(&FsWriter, &path, &payload).unwrap();
        assert_eq!(read_envelope(&path).unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_boundary_is_rejected_never_panics() {
        let text = envelope_text(&demo_payload());
        let path = Path::new("truncated.json");
        let mut rejected = 0;
        for cut in 0..text.len() {
            // A cut that only strips trailing whitespace leaves the
            // envelope semantically intact and may verify; every other
            // cut must be rejected with a typed error — and no cut may
            // ever verify with the wrong payload.
            let partial = &text[..cut];
            match verify_envelope(path, partial) {
                Ok(payload) => assert_eq!(
                    payload,
                    demo_payload(),
                    "cut at {cut}: truncation verified with the wrong payload"
                ),
                Err(StoreError::Envelope { .. }) => rejected += 1,
                Err(other) => panic!("cut at {cut}: {other:?}"),
            }
        }
        assert!(
            rejected >= text.len() - 2,
            "only whitespace-stripping cuts may verify ({rejected} of {} rejected)",
            text.len()
        );
        // The untruncated text still verifies.
        assert!(verify_envelope(path, &text).is_ok());
    }

    #[test]
    fn bit_flips_in_the_payload_are_rejected() {
        let text = envelope_text(&demo_payload());
        let path = Path::new("flipped.json");
        // Flip characters inside the payload region (after the crc line)
        // in ways that keep the JSON parseable: digit swaps.
        let tampered = text.replacen("42", "43", 1);
        assert_ne!(tampered, text, "the payload digit must appear");
        let err = verify_envelope(path, &tampered).unwrap_err();
        match err {
            StoreError::Envelope { detail, .. } => {
                assert!(detail.contains("checksum mismatch"), "{detail}");
            }
            other => panic!("expected envelope error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_and_missing_fields_are_rejected() {
        let path = Path::new("bad.json");
        let cases = [
            ("{}", "missing `cadapt_envelope`"),
            ("[]", "not a JSON object"),
            (
                "{\"cadapt_envelope\": 99, \"crc32\": \"crc32:00000000\", \"payload\": 1}",
                "unsupported envelope version",
            ),
            (
                "{\"cadapt_envelope\": 1, \"payload\": 1}",
                "missing `crc32`",
            ),
            (
                "{\"cadapt_envelope\": 1, \"crc32\": \"crc32:00000000\"}",
                "missing `payload`",
            ),
        ];
        for (text, want) in cases {
            let err = verify_envelope(path, text).unwrap_err();
            match err {
                StoreError::Envelope { detail, .. } => {
                    assert!(detail.contains(want), "for {text}: {detail}");
                }
                other => panic!("expected envelope error for {text}, got {other:?}"),
            }
        }
    }

    #[test]
    fn content_tags_vouch_for_exact_bytes() {
        let tag = content_tag("{\"a\": 1}\n");
        assert!(tag_matches(&tag, "{\"a\": 1}\n"));
        assert!(!tag_matches(&tag, "{\"a\": 2}\n"));
        assert!(!tag_matches("crc32:bogus", "{\"a\": 1}\n"));
        assert!(!tag_matches("", ""));
    }
}
