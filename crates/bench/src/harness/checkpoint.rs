//! Crash-safe checkpoint manifests for `cadapt-bench run`.
//!
//! A checkpointed run (`--checkpoint-every N` / `--resume`) keeps a
//! `MANIFEST.json` next to its record files. The manifest is a
//! checksummed envelope (see [`store`]) whose payload
//! records the run's fingerprint (scale + selected experiment ids, in job
//! order), the completed job-index spans (sorted, disjoint `[start, end)`
//! pairs), and — because run
//! records themselves stay in the un-enveloped golden byte format — a
//! CRC-32 tag vouching for each completed record file's exact bytes.
//!
//! On `--resume` the manifest is verified end-to-end: envelope checksum,
//! fingerprint, then every claimed record file's content tag, parse, and
//! `complete` flag. Entries that fail any check are **dropped**, not
//! trusted — the engine just re-runs those experiments. Because every
//! experiment is a pure function of (id, scale) and the engine reduces in
//! job order, the resumed run's final records are byte-identical to an
//! uninterrupted run's (checkpointed records canonicalize `wall_ms` to 0,
//! the one field a wall clock would smear).

use super::record::RunRecord;
use super::store::{self, ArtifactWriter, StoreError};
use crate::error::BenchError;
use cadapt_core::cast;
use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version of the manifest payload layout.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File name of the manifest inside the run's `--out` directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// The manifest path for an output directory.
#[must_use]
pub fn manifest_path(out: &Path) -> PathBuf {
    out.join(MANIFEST_NAME)
}

/// The completed job indices, as sorted, disjoint, non-touching half-open
/// `[start, end)` spans — the manifest's `completed_jobs` shape. Inserting
/// coalesces, so a clean prefix stays one `(0, k)` pair however it was
/// accumulated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TrialSpans {
    spans: Vec<(u64, u64)>,
}

impl TrialSpans {
    /// Rebuild a span set from serialized `(start, end)` pairs.
    ///
    /// Rejects what a hostile or corrupted manifest could break: every
    /// span non-empty (`start < end`), pairs sorted and neither
    /// overlapping nor touching (touching pairs would be a second spelling
    /// of the same set, breaking byte-stable re-serialization).
    fn from_pairs(pairs: &[(u64, u64)]) -> Result<TrialSpans, String> {
        let mut prev_end: Option<u64> = None;
        for &(start, end) in pairs {
            if start >= end {
                return Err(format!("empty or inverted span ({start}, {end})"));
            }
            if let Some(prev) = prev_end {
                if start <= prev {
                    return Err(format!(
                        "span ({start}, {end}) overlaps or touches the previous span ending at {prev}"
                    ));
                }
            }
            prev_end = Some(end);
        }
        Ok(TrialSpans {
            spans: pairs.to_vec(),
        })
    }

    /// The canonical serialized shape: `from_pairs(pairs())` is the
    /// identity.
    fn pairs(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// Is `job` in the set?
    fn contains(&self, job: u64) -> bool {
        self.spans
            .iter()
            .any(|&(start, end)| (start..end).contains(&job))
    }

    /// Insert one job index, coalescing with the spans it touches.
    fn insert(&mut self, job: u64) {
        if self.contains(job) {
            return;
        }
        let at = self.spans.partition_point(|&(start, _)| start <= job);
        self.spans.insert(at, (job, job + 1));
        self.spans.dedup_by(|next, prev| {
            let touches = prev.1 == next.0;
            if touches {
                prev.1 = next.1;
            }
            touches
        });
    }
}

/// One completed job the manifest vouches for.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DoneEntry {
    /// Experiment id (also names the record file, `<id>.json`).
    id: String,
    /// CRC tag of the record file's exact bytes.
    crc: String,
}

struct State {
    done: TrialSpans,
    records: BTreeMap<u64, DoneEntry>,
    since_flush: u64,
}

/// Incremental manifest writer for one checkpointed run.
///
/// `mark_done` is called from the sharding pool's worker threads (the
/// interior `Mutex` makes that safe); the manifest flushes atomically
/// every `every` completions and once more at the end of the run.
pub struct Checkpointer {
    out: PathBuf,
    scale: String,
    ids: Vec<String>,
    every: u64,
    state: Mutex<State>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("out", &self.out)
            .field("scale", &self.scale)
            .field("ids", &self.ids)
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

impl Checkpointer {
    /// A checkpointer for a run over `ids` (in job order) at `scale`,
    /// flushing the manifest every `every` completed experiments
    /// (`every` is clamped to at least 1).
    #[must_use]
    pub fn new(out: &Path, scale: &str, ids: Vec<String>, every: u64) -> Checkpointer {
        Checkpointer {
            out: out.to_path_buf(),
            scale: scale.to_string(),
            ids,
            every: every.max(1),
            state: Mutex::new(State {
                done: TrialSpans::default(),
                records: BTreeMap::new(),
                since_flush: 0,
            }),
        }
    }

    /// Record a completed job and its record file's content tag, flushing
    /// the manifest if the checkpoint interval elapsed.
    ///
    /// # Errors
    ///
    /// Propagates a manifest-write failure.
    pub fn mark_done(
        &self,
        writer: &dyn ArtifactWriter,
        job: u64,
        id: &str,
        record_text: &str,
    ) -> Result<(), BenchError> {
        let payload = {
            let mut state = self.lock();
            state.done.insert(job);
            state.records.insert(
                job,
                DoneEntry {
                    id: id.to_string(),
                    crc: store::content_tag(record_text),
                },
            );
            state.since_flush += 1;
            if state.since_flush < self.every {
                return Ok(());
            }
            state.since_flush = 0;
            self.payload_locked(&state)
        };
        self.write_payload(writer, &payload)
    }

    /// Seed the checkpointer with jobs recovered by [`resume`] so they
    /// stay in the manifest across the resumed run's flushes.
    pub fn preload(&self, recovered: &BTreeMap<u64, (RunRecord, String)>) {
        let mut state = self.lock();
        for (&job, (record, text)) in recovered {
            state.done.insert(job);
            state.records.insert(
                job,
                DoneEntry {
                    id: record.experiment.clone(),
                    crc: store::content_tag(text),
                },
            );
        }
    }

    /// Write the manifest now, regardless of the interval.
    ///
    /// # Errors
    ///
    /// Propagates a manifest-write failure.
    pub fn flush(&self, writer: &dyn ArtifactWriter) -> Result<(), BenchError> {
        let payload = {
            let mut state = self.lock();
            state.since_flush = 0;
            self.payload_locked(&state)
        };
        self.write_payload(writer, &payload)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            // A worker holding the lock only builds small Vecs; if one
            // panicked anyway, the state is still a consistent snapshot
            // (every mutation is a single insert), so keep going.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn payload_locked(&self, state: &State) -> Value {
        let mut payload = Map::new();
        payload.insert(
            "checkpoint_version",
            Value::Number(Number::U(u128::from(CHECKPOINT_VERSION))),
        );
        payload.insert("scale", Value::String(self.scale.clone()));
        payload.insert(
            "ids",
            Value::Array(self.ids.iter().cloned().map(Value::String).collect()),
        );
        payload.insert(
            "completed_jobs",
            Value::Array(
                state
                    .done
                    .pairs()
                    .iter()
                    .map(|&(start, end)| {
                        Value::Array(vec![
                            Value::Number(Number::U(u128::from(start))),
                            Value::Number(Number::U(u128::from(end))),
                        ])
                    })
                    .collect(),
            ),
        );
        payload.insert(
            "records",
            Value::Array(
                state
                    .records
                    .iter()
                    .map(|(&job, entry)| {
                        let mut object = Map::new();
                        object.insert("job", Value::Number(Number::U(u128::from(job))));
                        object.insert("id", Value::String(entry.id.clone()));
                        object.insert("crc32", Value::String(entry.crc.clone()));
                        Value::Object(object)
                    })
                    .collect(),
            ),
        );
        Value::Object(payload)
    }

    fn write_payload(
        &self,
        writer: &dyn ArtifactWriter,
        payload: &Value,
    ) -> Result<(), BenchError> {
        store::write_envelope(writer, &manifest_path(&self.out), payload).map_err(BenchError::from)
    }
}

/// Verified state recovered from a previous run's manifest: for each
/// completed job index, the parsed record and its exact file text.
pub type Recovered = BTreeMap<u64, (RunRecord, String)>;

/// Load and verify a checkpoint manifest for resuming a run over `ids`
/// (in job order) at `scale`.
///
/// Returns the empty map when no manifest exists (a run killed before its
/// first flush resumes from scratch). Entries whose record files fail
/// verification — missing, content tag mismatch, unparseable, marked
/// incomplete, or disagreeing with the manifest about their id — are
/// dropped so the engine re-runs them.
///
/// # Errors
///
/// [`BenchError::Corrupt`] when the manifest exists but fails envelope
/// verification; [`BenchError::Checkpoint`] when it verifies but
/// describes a different run (fingerprint mismatch) or has an
/// unusable shape.
pub fn resume(out: &Path, scale: &str, ids: &[String]) -> Result<Recovered, BenchError> {
    let path = manifest_path(out);
    if !path.exists() {
        return Ok(Recovered::new());
    }
    let payload = match store::read_envelope(&path) {
        Ok(payload) => payload,
        Err(StoreError::Io {
            action,
            path,
            message,
        }) => {
            return Err(BenchError::Io {
                action,
                path,
                message,
            })
        }
        Err(e) => return Err(BenchError::from(e)),
    };
    parse_manifest(&path, &payload, out, scale, ids)
}

fn checkpoint_err(path: &Path, detail: impl Into<String>) -> BenchError {
    BenchError::Checkpoint {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

fn parse_manifest(
    path: &Path,
    payload: &Value,
    out: &Path,
    scale: &str,
    ids: &[String],
) -> Result<Recovered, BenchError> {
    let object = payload
        .as_object()
        .ok_or_else(|| checkpoint_err(path, "payload is not an object"))?;
    let version = object
        .get("checkpoint_version")
        .and_then(Value::as_u64)
        .ok_or_else(|| checkpoint_err(path, "missing checkpoint_version"))?;
    if version != u64::from(CHECKPOINT_VERSION) {
        return Err(checkpoint_err(
            path,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    let manifest_scale = object
        .get("scale")
        .and_then(Value::as_str)
        .ok_or_else(|| checkpoint_err(path, "missing scale"))?;
    if manifest_scale != scale {
        return Err(checkpoint_err(
            path,
            format!("manifest is for scale {manifest_scale:?}, this run is {scale:?}"),
        ));
    }
    let manifest_ids: Vec<&str> = object
        .get("ids")
        .and_then(Value::as_array)
        .ok_or_else(|| checkpoint_err(path, "missing ids"))?
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| checkpoint_err(path, "non-string id"))
        })
        .collect::<Result<_, _>>()?;
    if manifest_ids != ids.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(checkpoint_err(
            path,
            format!(
                "manifest covers experiments {manifest_ids:?}, this run selects {ids:?} — \
                 resume with the same --exp selection or start a fresh --out directory"
            ),
        ));
    }
    // The span list cross-checks the record entries below; reject outright
    // nonsense (overlaps, inversions) as corruption.
    let span_pairs: Vec<(u64, u64)> = object
        .get("completed_jobs")
        .and_then(Value::as_array)
        .ok_or_else(|| checkpoint_err(path, "missing completed_jobs"))?
        .iter()
        .map(|pair| {
            let items = pair
                .as_array()
                .filter(|items| items.len() == 2)
                .ok_or_else(|| checkpoint_err(path, "malformed span pair"))?;
            let start = items[0]
                .as_u64()
                .ok_or_else(|| checkpoint_err(path, "non-integer span bound"))?;
            let end = items[1]
                .as_u64()
                .ok_or_else(|| checkpoint_err(path, "non-integer span bound"))?;
            Ok((start, end))
        })
        .collect::<Result<_, BenchError>>()?;
    let done = TrialSpans::from_pairs(&span_pairs)
        .map_err(|e| checkpoint_err(path, format!("invalid completed_jobs: {e}")))?;

    let mut recovered = Recovered::new();
    for entry in object
        .get("records")
        .and_then(Value::as_array)
        .ok_or_else(|| checkpoint_err(path, "missing records"))?
    {
        let Some(object) = entry.as_object() else {
            continue; // unusable entry: re-run it
        };
        let (Some(job), Some(id), Some(crc)) = (
            object.get("job").and_then(Value::as_u64),
            object.get("id").and_then(Value::as_str),
            object.get("crc32").and_then(Value::as_str),
        ) else {
            continue;
        };
        // The entry must describe a job this run will actually execute.
        let Some(job_index) = cast::checked_usize_from_u64(job) else {
            continue;
        };
        if !done.contains(job) || ids.get(job_index).map(String::as_str) != Some(id) {
            continue;
        }
        // Trust the record file only if its exact bytes carry the tag the
        // manifest vouches for AND they parse as a complete record.
        let record_path = out.join(format!("{id}.json"));
        let Ok(text) = std::fs::read_to_string(&record_path) else {
            continue;
        };
        if !store::tag_matches(crc, &text) {
            continue;
        }
        let Ok(record) = RunRecord::from_json(&text) else {
            continue;
        };
        if !record.complete || record.experiment != id || record.scale != scale {
            continue;
        }
        recovered.insert(job, (record, text));
    }
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::record::{metric, SCHEMA_VERSION};
    use crate::harness::store::FsWriter;
    use cadapt_core::CounterSnapshot;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cadapt-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_record(id: &str) -> RunRecord {
        RunRecord {
            schema_version: SCHEMA_VERSION,
            experiment: id.into(),
            title: "demo".into(),
            scale: "quick".into(),
            deterministic: true,
            wall_ms: 0.0,
            counters: CounterSnapshot::ZERO,
            metrics: vec![metric("m", 1.0)],
            tables: vec![],
            complete: true,
        }
    }

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_string()).collect()
    }

    fn write_record(dir: &Path, record: &RunRecord) -> String {
        let text = record.to_json();
        FsWriter
            .persist(&dir.join(format!("{}.json", record.experiment)), &text)
            .unwrap();
        text
    }

    #[test]
    fn insert_coalesces_spans() {
        let mut s = TrialSpans::default();
        for t in [3, 1, 0, 2] {
            s.insert(t);
        }
        assert_eq!(s.pairs(), [(0, 4)]);
        s.insert(6);
        assert_eq!(s.pairs(), [(0, 4), (6, 7)]);
        s.insert(5);
        s.insert(4);
        assert_eq!(s.pairs(), [(0, 7)]);
        // Re-inserting is a no-op.
        s.insert(2);
        assert_eq!(s.pairs(), [(0, 7)]);
    }

    #[test]
    fn contains_and_missing_agree() {
        let mut s = TrialSpans::default();
        for t in [0, 1, 4, 5, 9] {
            s.insert(t);
        }
        let missing: Vec<u64> = (0..11).filter(|&t| !s.contains(t)).collect();
        assert_eq!(missing, vec![2, 3, 6, 7, 8, 10]);
        assert_eq!(s.pairs(), [(0, 2), (4, 6), (9, 10)]);
        assert!(!s.contains(11));
    }

    #[test]
    fn pairs_round_trip_and_reject_corruption() {
        let mut s = TrialSpans::default();
        for t in [0, 1, 5, 7, 8] {
            s.insert(t);
        }
        assert_eq!(TrialSpans::from_pairs(s.pairs()).unwrap(), s);
        assert!(TrialSpans::from_pairs(&[(3, 3)]).is_err(), "empty span");
        assert!(TrialSpans::from_pairs(&[(5, 2)]).is_err(), "inverted span");
        assert!(
            TrialSpans::from_pairs(&[(0, 4), (2, 6)]).is_err(),
            "overlap"
        );
        assert!(
            TrialSpans::from_pairs(&[(0, 4), (4, 6)]).is_err(),
            "adjacent spans must be coalesced"
        );
        assert!(
            TrialSpans::from_pairs(&[(4, 6), (0, 2)]).is_err(),
            "unsorted"
        );
    }

    #[test]
    fn no_manifest_resumes_from_scratch() {
        let dir = scratch_dir("fresh");
        assert!(resume(&dir, "quick", &ids(&["e1"])).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mark_done_then_resume_recovers_verified_records() {
        let dir = scratch_dir("roundtrip");
        let run_ids = ids(&["e1", "e2", "e3"]);
        let ckpt = Checkpointer::new(&dir, "quick", run_ids.clone(), 1);
        let r1 = demo_record("e1");
        let r3 = demo_record("e3");
        let t1 = write_record(&dir, &r1);
        let t3 = write_record(&dir, &r3);
        ckpt.mark_done(&FsWriter, 0, "e1", &t1).unwrap();
        ckpt.mark_done(&FsWriter, 2, "e3", &t3).unwrap();

        let recovered = resume(&dir, "quick", &run_ids).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered.get(&0).unwrap().0, r1);
        assert_eq!(recovered.get(&2).unwrap().0, r3);
        assert!(!recovered.contains_key(&1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_interval_defers_flushes() {
        let dir = scratch_dir("interval");
        let run_ids = ids(&["e1", "e2"]);
        let ckpt = Checkpointer::new(&dir, "quick", run_ids.clone(), 2);
        let t1 = write_record(&dir, &demo_record("e1"));
        ckpt.mark_done(&FsWriter, 0, "e1", &t1).unwrap();
        assert!(
            !manifest_path(&dir).exists(),
            "below the interval: no flush yet"
        );
        let t2 = write_record(&dir, &demo_record("e2"));
        ckpt.mark_done(&FsWriter, 1, "e2", &t2).unwrap();
        assert!(manifest_path(&dir).exists(), "interval reached");
        assert_eq!(resume(&dir, "quick", &run_ids).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_record_file_is_rerun_not_trusted() {
        let dir = scratch_dir("tamper");
        let run_ids = ids(&["e1"]);
        let ckpt = Checkpointer::new(&dir, "quick", run_ids.clone(), 1);
        let text = write_record(&dir, &demo_record("e1"));
        ckpt.mark_done(&FsWriter, 0, "e1", &text).unwrap();
        // Bit-flip the record file after the manifest vouched for it.
        let tampered = text.replacen("1.0", "2.0", 1);
        assert_ne!(tampered, text);
        std::fs::write(dir.join("e1.json"), tampered).unwrap();
        assert!(
            resume(&dir, "quick", &run_ids).unwrap().is_empty(),
            "a tampered record must be re-run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incomplete_records_are_rerun() {
        let dir = scratch_dir("incomplete");
        let run_ids = ids(&["e1"]);
        let ckpt = Checkpointer::new(&dir, "quick", run_ids.clone(), 1);
        let mut record = demo_record("e1");
        record.complete = false;
        let text = write_record(&dir, &record);
        ckpt.mark_done(&FsWriter, 0, "e1", &text).unwrap();
        assert!(
            resume(&dir, "quick", &run_ids).unwrap().is_empty(),
            "an incomplete record must be re-run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = scratch_dir("corrupt");
        let run_ids = ids(&["e1"]);
        let ckpt = Checkpointer::new(&dir, "quick", run_ids.clone(), 1);
        let text = write_record(&dir, &demo_record("e1"));
        ckpt.mark_done(&FsWriter, 0, "e1", &text).unwrap();
        // Truncate the manifest mid-file: envelope verification must fail.
        let manifest = std::fs::read_to_string(manifest_path(&dir)).unwrap();
        std::fs::write(manifest_path(&dir), &manifest[..manifest.len() / 2]).unwrap();
        let err = resume(&dir, "quick", &run_ids).unwrap_err();
        assert!(matches!(err, BenchError::Corrupt { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_error() {
        let dir = scratch_dir("fingerprint");
        let run_ids = ids(&["e1", "e2"]);
        let ckpt = Checkpointer::new(&dir, "quick", run_ids.clone(), 1);
        let text = write_record(&dir, &demo_record("e1"));
        ckpt.mark_done(&FsWriter, 0, "e1", &text).unwrap();

        let err = resume(&dir, "quick", &ids(&["e1"])).unwrap_err();
        assert!(matches!(err, BenchError::Checkpoint { .. }), "{err:?}");
        let err = resume(&dir, "full", &run_ids).unwrap_err();
        assert!(matches!(err, BenchError::Checkpoint { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn preload_keeps_recovered_jobs_in_later_manifests() {
        let dir = scratch_dir("preload");
        let run_ids = ids(&["e1", "e2"]);
        let first = Checkpointer::new(&dir, "quick", run_ids.clone(), 1);
        let t1 = write_record(&dir, &demo_record("e1"));
        first.mark_done(&FsWriter, 0, "e1", &t1).unwrap();

        // A resumed run preloads, completes the rest, and flushes —
        // the final manifest must still vouch for the preloaded job.
        let recovered = resume(&dir, "quick", &run_ids).unwrap();
        let second = Checkpointer::new(&dir, "quick", run_ids.clone(), 1);
        second.preload(&recovered);
        let t2 = write_record(&dir, &demo_record("e2"));
        second.mark_done(&FsWriter, 1, "e2", &t2).unwrap();

        let recovered = resume(&dir, "quick", &run_ids).unwrap();
        assert_eq!(recovered.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
