//! Trace replay under fixed caches, square profiles, and arbitrary
//! profiles.

use crate::lru::LruCache;
use cadapt_core::{
    cast, AdaptivityReport, Blocks, BoxRecord, BoxRun, BoxSource, Io, Leaves, MemoryProfile,
    Potential, ProgressLedger, RunCursor,
};
use cadapt_trace::block_map::PageDirectory;
use cadapt_trace::{TraceEvent, TraceStream};

/// Error from a cursor-driven replay ([`replay_square_cursor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The cursor ran dry before the trace finished replaying.
    ProfileExhausted {
        /// Boxes fully consumed before the cursor ended.
        after_boxes: u64,
    },
    /// A [`CancelToken`](cadapt_core::CancelToken) upstream fired; the
    /// replay stopped cooperatively at a run boundary.
    Cancelled {
        /// Boxes fully consumed before cancellation was observed.
        after_boxes: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::ProfileExhausted { after_boxes } => {
                write!(f, "profile ran dry after {after_boxes} boxes")
            }
            ReplayError::Cancelled { after_boxes } => {
                write!(f, "replay cancelled after {after_boxes} boxes")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Outcome of a fixed-cache (classical DAM) replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedReplay {
    /// Cache size used.
    pub cache_blocks: Blocks,
    /// Total I/Os (misses).
    pub io: Io,
    /// Total accesses (hits + misses).
    pub accesses: u64,
}

/// Replay a trace through a constant LRU cache of `cache_blocks` blocks —
/// the ideal-cache/DAM baseline. Time is the number of misses.
///
/// Generic over [`TraceStream`]: pass a recorded
/// [`cadapt_trace::BlockTrace`] or a compiled
/// [`cadapt_trace::TraceProgram`] — the simulator streams events either
/// way, never materialising a vector.
///
/// ```
/// use cadapt_paging::replay_fixed;
/// use cadapt_trace::mm::mm_inplace;
/// use cadapt_trace::ZMatrix;
///
/// let m = ZMatrix::from_row_major(4, &[1.0; 16]);
/// let (_, trace) = mm_inplace(&m, &m, 4);
/// // With ample cache every distinct block misses exactly once.
/// let replay = replay_fixed(&trace, 1 << 20);
/// assert_eq!(replay.io, u128::from(trace.distinct_blocks()));
/// ```
#[must_use]
pub fn replay_fixed<T: TraceStream + ?Sized>(trace: &T, cache_blocks: Blocks) -> FixedReplay {
    let mut cache = LruCache::new(cast::usize_from_u64(cache_blocks));
    let mut io: Io = 0;
    let mut accesses: u64 = 0;
    // `for_each` drains through the decoder's `fold` fast path.
    trace.events().for_each(|event| {
        if let TraceEvent::Access(block) = event {
            accesses += 1;
            if !cache.access(block) {
                io += 1;
                cadapt_core::counters::count_io(1);
            }
        }
    });
    FixedReplay {
        cache_blocks,
        io,
        accesses,
    }
}

/// Replay a trace in the cache-adaptive model against a square profile.
///
/// Each box of size x grants x I/Os of time and x blocks of cache, cleared
/// at the box boundary (§2's w.l.o.g. convention). Hits are free, even once
/// the box's I/Os are spent; each miss consumes one I/O of the box. A miss
/// after the box's I/Os are spent retries in the next box. Per-box progress
/// is the number of base-case marks replayed within the box; the ledger
/// produces the same [`AdaptivityReport`] as the abstract execution
/// drivers, with the trace's working-set size as the problem size n.
#[must_use]
pub fn replay_square_profile<T: TraceStream + ?Sized, S: BoxSource>(
    trace: &T,
    source: &mut S,
    rho: Potential,
) -> AdaptivityReport {
    let ledger = ProgressLedger::new(rho, trace.distinct_blocks());
    replay_square_into(trace, source, ledger).finish()
}

/// As [`replay_square_profile`], additionally returning the per-box
/// history — the lock-step ground truth the analytic backend is
/// cross-validated against (`cadapt_paging::analytic`).
#[must_use]
pub fn replay_square_profile_history<T: TraceStream + ?Sized, S: BoxSource>(
    trace: &T,
    source: &mut S,
    rho: Potential,
) -> (AdaptivityReport, Vec<BoxRecord>) {
    let ledger = ProgressLedger::retaining(rho, trace.distinct_blocks());
    let ledger = replay_square_into(trace, source, ledger);
    // cadapt-lint: allow(cursor-materialize) -- this entry point exists to hand back the retained per-box history; callers opted into O(boxes) memory by choosing it
    let history = ledger.history().unwrap_or_default().to_vec();
    (ledger.finish(), history)
}

fn replay_square_into<T: TraceStream + ?Sized, S: BoxSource>(
    trace: &T,
    source: &mut S,
    ledger: ProgressLedger,
) -> ProgressLedger {
    let mut cursor = cadapt_core::SourceCursor::new(source);
    replay_cursor_into(trace, &mut cursor, ledger).expect("infallible") // cadapt-lint: allow(panic-reach) -- SourceCursor adapts an infinite BoxSource and carries no cancel token, so neither ReplayError variant can occur
}

/// The one square-profile replay loop in this crate: both the
/// [`BoxSource`] entry points and the streaming [`replay_square_cursor`]
/// drain it, in one pass over the trace through the decoder's `fold` fast
/// path. Runs are pulled lazily, one box at a time, with at most one
/// pending run resident (the cursor contract's O(1) bound).
///
/// A box opens on the first event of any kind, and leaf marks attach to
/// the open box, so leading and trailing marks are counted where they
/// fall. An access tests residency first: a resident block is a free hit
/// even once the box's I/Os are spent. A miss with I/Os left spends one;
/// a miss with none left closes the box, and the access retries in the
/// next one. After the first error the remaining events are skipped.
///
/// There is no LRU here. A box of x blocks starts with an empty cache and
/// admits at most x misses into its x blocks, so it never evicts, and
/// replacement order is never observed inside a box. A block is therefore
/// resident exactly when the open box has admitted it: a stamp per
/// [`PageDirectory`] slot holds the number of the box that last admitted
/// the slot's block (boxes count from 1, so 0 is never), and a box
/// boundary clears the cache by opening a new number.
fn replay_cursor_into<T: TraceStream + ?Sized, C: RunCursor>(
    trace: &T,
    source: &mut C,
    mut ledger: ProgressLedger,
) -> Result<ProgressLedger, ReplayError> {
    // An empty trace replays no box and pulls nothing from the cursor.
    if trace.events().next().is_none() {
        return Ok(ledger);
    }
    let mut pending: Option<BoxRun> = None;
    let mut size = next_box(source, &mut pending, 0)?;
    // Boxes opened so far, which is the open box's number.
    let mut boxes: u64 = 1;
    let mut budget = Io::from(size);
    let mut used: Io = 0;
    let mut progress: Leaves = 0;
    let mut dir = PageDirectory::default();
    let mut admitted: Vec<u64> = Vec::new();
    let mut failed: Option<ReplayError> = None;
    // `for_each` drains through the decoder's `fold` fast path.
    trace.events().for_each(|event| {
        if failed.is_some() {
            return;
        }
        let TraceEvent::Access(block) = event else {
            progress += 1;
            return;
        };
        let slot = dir.slot(block);
        if slot >= admitted.len() {
            admitted.resize(dir.slots(), 0);
        }
        let stamp = &mut admitted[slot];
        if *stamp == boxes {
            cadapt_core::counters::count_cache_hit();
            return;
        }
        if budget == 0 {
            close_box(
                &mut ledger,
                BoxRecord {
                    size,
                    progress,
                    used,
                },
            );
            match next_box(source, &mut pending, boxes) {
                Ok(next) => size = next,
                Err(err) => {
                    failed = Some(err);
                    return;
                }
            }
            boxes += 1;
            budget = Io::from(size);
            used = 0;
            progress = 0;
        }
        *stamp = boxes;
        budget -= 1;
        used += 1;
    });
    if let Some(err) = failed {
        return Err(err);
    }
    close_box(
        &mut ledger,
        BoxRecord {
            size,
            progress,
            used,
        },
    );
    Ok(ledger)
}

/// The size of the next box: the rest of the pending run first, then the
/// cursor's next run, whose other boxes stay pending. `boxes` is the
/// number of boxes replayed so far, for the error.
fn next_box<C: RunCursor>(
    source: &mut C,
    pending: &mut Option<BoxRun>,
    boxes: u64,
) -> Result<Blocks, ReplayError> {
    let run = match pending.take() {
        Some(run) => run,
        None => match source.next_run() {
            Ok(Some(run)) => run,
            Ok(None) => return Err(ReplayError::ProfileExhausted { after_boxes: boxes }),
            Err(cadapt_core::Cancelled) => {
                return Err(ReplayError::Cancelled { after_boxes: boxes });
            }
        },
    };
    debug_assert!(run.repeat >= 1 && run.size >= 1, "bad run {run:?}");
    if run.repeat > 1 {
        // Stash the rest of the run; infinite tails stay infinite.
        *pending = Some(BoxRun {
            size: run.size,
            repeat: if run.repeat == u64::MAX {
                u64::MAX
            } else {
                run.repeat - 1
            },
        });
    }
    Ok(run.size)
}

/// Count a finished box and hand it to the ledger.
fn close_box(ledger: &mut ProgressLedger, record: BoxRecord) {
    cadapt_core::counters::count_boxes(1);
    cadapt_core::counters::count_io(record.used);
    ledger.record(record);
}

/// As [`replay_square_profile`], but fed from a streaming
/// [`RunCursor`] pipeline instead of a bare [`BoxSource`]: the profile may
/// be throttled, interleaved, round-robined, or wrapped in
/// [`cancellable`](cadapt_core::RunCursorExt::cancellable), and the replay
/// holds O(1) profile state regardless of the pipeline's length.
///
/// Runs are replayed box by box, but the cursor is pulled one *run* at a
/// time, so cancellation is observed at run boundaries (cursor law 3) and
/// a `u64::MAX` constant tail never materialises.
///
/// A finite cursor that ends before the trace does yields
/// [`ReplayError::ProfileExhausted`]; a fired token yields
/// [`ReplayError::Cancelled`]. Either way the counters reflect exactly the
/// boxes fully replayed.
///
/// # Errors
///
/// See above: `ProfileExhausted` and `Cancelled` are the only failure
/// modes.
pub fn replay_square_cursor<T: TraceStream + ?Sized, C: RunCursor>(
    trace: &T,
    source: &mut C,
    rho: Potential,
) -> Result<AdaptivityReport, ReplayError> {
    let ledger = ProgressLedger::new(rho, trace.distinct_blocks());
    replay_cursor_into(trace, source, ledger).map(ProgressLedger::finish)
}

/// Outcome of an arbitrary-profile replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileReplay {
    /// I/Os consumed (= profile steps advanced).
    pub io: Io,
    /// Did the trace complete within the profile?
    pub completed: bool,
    /// Base-case marks replayed.
    pub leaves: Leaves,
}

/// Replay a trace in the general cache-adaptive model: the cache holds
/// m(t) blocks after the t-th I/O (LRU replacement, immediate eviction on
/// shrink). Hits are free; each miss advances t. Returns how far the
/// profile got; `completed` is false if the profile ended first.
///
/// One O(A) pass through the decoder's `fold` fast path: m(t) comes from
/// a forward [`ProfileCursor`](cadapt_core::ProfileCursor), the cache is
/// resized only when m(t) changes, and once m(t) runs out the remaining
/// events are skipped.
#[must_use]
pub fn replay_memory_profile<T: TraceStream + ?Sized>(
    trace: &T,
    profile: &MemoryProfile,
) -> ProfileReplay {
    let mut t: Io = 0;
    let mut m_at = profile.cursor();
    let Some(mut current) = m_at.value_at(0) else {
        return ProfileReplay {
            io: 0,
            completed: trace.accesses() == 0,
            leaves: 0,
        };
    };
    let mut cache = LruCache::new(cast::usize_from_u64(current));
    let mut leaves: Leaves = 0;
    let mut exhausted = false;
    trace.events().for_each(|event| {
        if exhausted {
            return;
        }
        match event {
            TraceEvent::Leaf => leaves += 1,
            TraceEvent::Access(block) => {
                // The cache holds m(t) blocks *now*; shrink eagerly so a
                // smaller allocation evicts immediately (the CA model lets
                // the size drop arbitrarily between I/Os).
                let Some(m) = m_at.value_at(t) else {
                    // Profile exhausted: no cache, no I/O budget left.
                    exhausted = true;
                    return;
                };
                if m != current {
                    cache.resize(cast::usize_from_u64(m));
                    current = m;
                }
                if !cache.access(block) {
                    t += 1; // miss: one I/O
                    cadapt_core::counters::count_io(1);
                }
            }
        }
    });
    ProfileReplay {
        io: t,
        completed: !exhausted,
        leaves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_core::memory_profile::Segment;
    use cadapt_core::profile::ConstantSource;
    use cadapt_trace::mm::{mm_inplace, mm_scan};
    use cadapt_trace::ZMatrix;

    fn small_matrices(side: usize) -> (ZMatrix, ZMatrix) {
        let a: Vec<f64> = (0..side * side).map(|i| (i % 7) as f64 - 3.0).collect();
        let b: Vec<f64> = (0..side * side).map(|i| (i % 5) as f64 - 2.0).collect();
        (
            ZMatrix::from_row_major(side, &a),
            ZMatrix::from_row_major(side, &b),
        )
    }

    #[test]
    fn fixed_replay_with_huge_cache_is_cold_misses_only() {
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_inplace(&a, &b, 4);
        let replay = replay_fixed(&trace, 1 << 20);
        // Every distinct block misses exactly once.
        assert_eq!(replay.io, Io::from(trace.distinct_blocks()));
    }

    #[test]
    fn fixed_replay_io_decreases_with_cache_size() {
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_scan(&a, &b, 4);
        let io4 = replay_fixed(&trace, 4).io;
        let io16 = replay_fixed(&trace, 16).io;
        let io64 = replay_fixed(&trace, 64).io;
        assert!(io4 >= io16, "{io4} < {io16}");
        assert!(io16 >= io64, "{io16} < {io64}");
        assert!(io4 > io64, "more cache must help this workload");
    }

    #[test]
    fn fixed_replay_cache_one_makes_everything_miss_across_blocks() {
        let (a, b) = small_matrices(4);
        let (_, trace) = mm_inplace(&a, &b, 1);
        let replay = replay_fixed(&trace, 1);
        // With one block of cache only immediate re-accesses hit.
        assert!(replay.io > Io::from(trace.distinct_blocks()));
    }

    #[test]
    fn square_replay_completes_and_counts_all_leaves() {
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_inplace(&a, &b, 4);
        let mut source = ConstantSource::new(16);
        let report = replay_square_profile(&trace, &mut source, Potential::new(8, 4));
        assert_eq!(report.total_progress, trace.leaves());
        assert_eq!(report.n, trace.distinct_blocks());
        assert!(report.boxes_used > 0);
    }

    #[test]
    fn square_replay_single_giant_box() {
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_scan(&a, &b, 4);
        let mut source = ConstantSource::new(1 << 20);
        let report = replay_square_profile(&trace, &mut source, Potential::new(8, 4));
        assert_eq!(report.boxes_used, 1);
        // One cold miss per distinct block.
        assert_eq!(report.total_io, Io::from(trace.distinct_blocks()));
    }

    #[test]
    fn square_replay_smaller_boxes_use_more_boxes() {
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_scan(&a, &b, 4);
        let rho = Potential::new(8, 4);
        let boxes_small = {
            let mut s = ConstantSource::new(8);
            replay_square_profile(&trace, &mut s, rho).boxes_used
        };
        let boxes_large = {
            let mut s = ConstantSource::new(64);
            replay_square_profile(&trace, &mut s, rho).boxes_used
        };
        assert!(boxes_small > boxes_large);
    }

    #[test]
    fn memory_profile_replay_completion() {
        let (a, b) = small_matrices(4);
        let (_, trace) = mm_inplace(&a, &b, 2);
        // Ample profile: constant large cache, long duration.
        let profile = MemoryProfile::from_segments(vec![Segment {
            size: 1 << 16,
            len: 1 << 20,
        }])
        .unwrap();
        let replay = replay_memory_profile(&trace, &profile);
        assert!(replay.completed);
        assert_eq!(replay.io, Io::from(trace.distinct_blocks()));
        assert_eq!(replay.leaves, trace.leaves());
    }

    #[test]
    fn memory_profile_replay_can_run_out() {
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_scan(&a, &b, 2);
        let profile = MemoryProfile::from_segments(vec![Segment { size: 2, len: 10 }]).unwrap();
        let replay = replay_memory_profile(&trace, &profile);
        assert!(!replay.completed);
        assert_eq!(replay.io, 10);
        // The leaves replayed before the access that found m(t) spent.
        assert_eq!(replay.leaves, 3);
    }

    #[test]
    fn shrinking_profile_evicts() {
        // Trace: touch blocks 1..=4, then re-touch them after the cache
        // shrinks; the re-touches must miss.
        let mut tracer = cadapt_trace::Tracer::new(1);
        for blk in [1u64, 2, 3, 4, 1, 2, 3, 4] {
            tracer.touch(blk);
        }
        let trace = tracer.into_trace();
        // Cache: 4 blocks for the first 4 I/Os, then 1 block.
        let profile = MemoryProfile::from_segments(vec![
            Segment { size: 4, len: 4 },
            Segment { size: 1, len: 100 },
        ])
        .unwrap();
        let replay = replay_memory_profile(&trace, &profile);
        assert!(replay.completed);
        // First pass: 4 misses. Second pass: cache shrunk to 1 → 4 misses.
        assert_eq!(replay.io, 8);
    }

    #[test]
    fn cursor_replay_matches_source_replay() {
        use cadapt_core::RunCursorExt;
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_inplace(&a, &b, 4);
        let rho = Potential::new(8, 4);
        let mut source = ConstantSource::new(16);
        let classic = replay_square_profile(&trace, &mut source, rho);
        let mut cursor = ConstantSource::new(16).into_cursor();
        let streamed = replay_square_cursor(&trace, &mut cursor, rho).unwrap();
        assert_eq!(classic, streamed);
        // Through a no-op combinator stack the numbers are unchanged.
        let mut piped = ConstantSource::new(16).into_cursor().throttle(16);
        let piped = replay_square_cursor(&trace, &mut piped, rho).unwrap();
        assert_eq!(classic, piped);
    }

    #[test]
    fn cursor_replay_exhausted_profile_is_typed() {
        use cadapt_core::counters::Recording;
        use cadapt_core::RunCursorExt;
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_scan(&a, &b, 4);
        let rho = Potential::new(8, 4);
        let (_, history) = replay_square_profile_history(&trace, &mut ConstantSource::new(8), rho);
        // Two boxes of 8 can't finish this trace; the replay stops having
        // counted exactly those two.
        assert!(history.len() > 2);
        let mut cursor = ConstantSource::new(8).into_cursor().take_boxes(2);
        let rec = Recording::start();
        let err = replay_square_cursor(&trace, &mut cursor, rho).unwrap_err();
        let counts = rec.finish();
        assert_eq!(err, ReplayError::ProfileExhausted { after_boxes: 2 });
        assert_eq!(counts.boxes_advanced, 2);
        let used: Io = history.iter().take(2).map(|r| r.used).sum();
        assert_eq!(Io::from(counts.ios_charged), used);
        assert_eq!(counts.cache_evictions, 0);
    }

    #[test]
    fn cursor_replay_pre_cancelled_token_stops_at_zero_boxes() {
        use cadapt_core::{CancelToken, RunCursorExt};
        let (a, b) = small_matrices(4);
        let (_, trace) = mm_inplace(&a, &b, 2);
        let token = CancelToken::new();
        token.cancel();
        let mut cursor = ConstantSource::new(16).into_cursor().cancellable(token);
        let err = replay_square_cursor(&trace, &mut cursor, Potential::new(8, 4)).unwrap_err();
        assert_eq!(err, ReplayError::Cancelled { after_boxes: 0 });
    }

    #[test]
    fn square_vs_abstract_report_shape() {
        // The trace-level report and the ideal formula agree that a box of
        // the working-set size completes everything in one box.
        let (a, b) = small_matrices(8);
        let (_, trace) = mm_inplace(&a, &b, 4);
        let n = trace.distinct_blocks();
        let mut source = ConstantSource::new(n);
        let report = replay_square_profile(&trace, &mut source, Potential::new(8, 4));
        assert_eq!(report.boxes_used, 1);
        assert!((report.ratio() - 1.0).abs() < 1e-12);
    }
}
