//! The analytical cache model: closed-form fault counts from trace
//! summaries, exactly equal to the LRU simulator.
//!
//! Every replayer in [`crate::replay`] walks the full event stream through
//! a stateful [`LruCache`](crate::lru::LruCache). This module computes the
//! same numbers from a [`TraceSummary`] — the reuse-distance structure
//! `cadapt-trace` extracts once per trace — with no cache state at all:
//!
//! * [`analytic_fixed`] — by the stack-distance theorem, the fault count
//!   of a capacity-C LRU cache is the number of accesses whose stack
//!   distance exceeds C: one O(log A) histogram query per capacity,
//!   against the simulator's O(A) replay.
//! * [`analytic_square_profile`] — inside a box of size x (capacity x,
//!   budget x, cache cleared at the boundary) inserts can never exceed
//!   capacity, so **nothing is evicted within a box** and an access hits
//!   iff its previous access lies inside the same box. Each box is an
//!   arithmetic scan for its first x+1 "cold" accesses over the `prev1`
//!   array; faults, progress, and the box boundary all fall out exactly.
//! * [`analytic_memory_profile`] — under LRU the resident set is always
//!   the top-k of the global recency stack (k shrinks with m(t), grows by
//!   one per insertion), so an access hits iff its precomputed global
//!   stack distance is at most the current k.
//!
//! **Equivalence contract.** On every trace, every box source, and every
//! memory profile, the analytic functions return values equal to their
//! simulator counterparts — per box, not just in aggregate. There is no
//! approximation regime and no divergence regime: the three arguments
//! above are exact theorems about the replay semantics, and the proptest
//! suite (`tests/props_analytic_equivalence.rs`) plus the integration
//! suite (`tests/integration_analytic_equivalence.rs`) enforce equality on
//! arbitrary generated traces and on the real algorithm corpus. The one
//! deliberate observable difference is diagnostic, not semantic: the
//! simulator's `LruCache` ticks the `cache_hits`/`cache_evictions`
//! counters while the analytic model — having no cache — leaves them at
//! zero. The accounting counters (`ios_charged`, `boxes_advanced`) are
//! recorded identically.
//!
//! Degenerate inputs mirror the simulator exactly, including its fixed
//! points: a zero-sized box makes no progress on a pending access, so a
//! constant-zero source loops forever under both backends
//! ([`SquareProfile::new`](cadapt_core::SquareProfile::new) rejects such
//! profiles; only `from_boxes_unchecked` can construct them).

use crate::replay::{FixedReplay, ProfileReplay};
use cadapt_core::{
    cast, AdaptivityReport, Blocks, BoxRecord, BoxSource, Io, MemoryProfile, Potential,
    ProgressLedger,
};
use cadapt_trace::TraceSummary;

/// Fixed-cache (classical DAM) fault count in closed form — equal, field
/// for field, to [`replay_fixed`](crate::replay_fixed) on the summarised
/// trace.
///
/// ```
/// use cadapt_paging::{analytic_fixed, replay_fixed};
/// use cadapt_trace::{summarized, TraceAlgo};
///
/// let st = summarized(TraceAlgo::MmInplace, 8, 4);
/// for m in [0, 4, 64, 1 << 20] {
///     assert_eq!(analytic_fixed(st.summary(), m), replay_fixed(st.program(), m));
/// }
/// ```
#[must_use]
pub fn analytic_fixed(summary: &TraceSummary, cache_blocks: Blocks) -> FixedReplay {
    let io = summary.faults_fixed(cache_blocks);
    cadapt_core::counters::count_io(io);
    FixedReplay {
        cache_blocks,
        io,
        accesses: summary.accesses(),
    }
}

/// Square-profile replay in closed form — the same [`AdaptivityReport`]
/// as [`replay_square_profile`](crate::replay_square_profile), box for box.
#[must_use]
pub fn analytic_square_profile<S: BoxSource>(
    summary: &TraceSummary,
    source: &mut S,
    rho: Potential,
) -> AdaptivityReport {
    let ledger = ProgressLedger::new(rho, summary.distinct_blocks());
    analytic_square_into(summary, source, ledger).finish()
}

/// As [`analytic_square_profile`], additionally returning the per-box
/// history for lock-step comparison against
/// [`replay_square_profile_history`](crate::replay_square_profile_history).
#[must_use]
pub fn analytic_square_profile_history<S: BoxSource>(
    summary: &TraceSummary,
    source: &mut S,
    rho: Potential,
) -> (AdaptivityReport, Vec<BoxRecord>) {
    let ledger = ProgressLedger::retaining(rho, summary.distinct_blocks());
    let ledger = analytic_square_into(summary, source, ledger);
    let history = ledger.history().unwrap_or_default().to_vec();
    (ledger.finish(), history)
}

fn analytic_square_into<S: BoxSource>(
    summary: &TraceSummary,
    source: &mut S,
    mut ledger: ProgressLedger,
) -> ProgressLedger {
    let accesses = summary.accesses();
    let prev1 = summary.prev1();
    let leaf_before = summary.leaves_before();
    let total_leaves = summary.leaves();
    // `start`: first access the current box sees; `leaves_done`: leaf
    // marks consumed by previous boxes.
    let mut start: u64 = 0;
    let mut leaves_done = 0;
    while start < accesses || leaves_done < total_leaves {
        let size = source.next_box();
        // The box consumes accesses until (exclusive) its (size+1)-th
        // *cold* access — one whose previous access precedes the box, and
        // which therefore misses the box-local cache. Warm accesses hit
        // (no eviction can have removed them) and cost nothing, even
        // after the budget is spent.
        let mut used: u64 = 0;
        let mut j = start;
        let end = loop {
            if j == accesses {
                break accesses;
            }
            // cadapt-lint: allow(panic-reach) -- j < accesses == prev1.len() here (the j == accesses arm broke out above)
            if prev1[cast::usize_from_u64(j)] <= start {
                if used == size {
                    break j;
                }
                used += 1;
            }
            j += 1;
        };
        // Leaf marks attach to the preceding access: everything up to the
        // blocking access (or the end of the trace) lands in this box.
        let consumed = leaf_before[cast::usize_from_u64(end)]; // cadapt-lint: allow(panic-reach) -- end <= accesses and leaf_before has accesses+1 entries
        let progress = consumed - leaves_done;
        leaves_done = consumed;
        start = end;
        cadapt_core::counters::count_boxes(1);
        cadapt_core::counters::count_io(Io::from(used));
        ledger.record(BoxRecord {
            size,
            progress,
            used: Io::from(used),
        });
    }
    ledger
}

/// Arbitrary-profile replay in closed form — the same [`ProfileReplay`]
/// as [`replay_memory_profile`](crate::replay_memory_profile). One O(A)
/// pass over the stack distances, reading m(t) through a forward
/// [`ProfileCursor`](cadapt_core::ProfileCursor).
#[must_use]
pub fn analytic_memory_profile(summary: &TraceSummary, profile: &MemoryProfile) -> ProfileReplay {
    let accesses = summary.accesses();
    let mut m_at = profile.cursor();
    if m_at.value_at(0).is_none() {
        // Mirror the simulator: an empty profile completes only the
        // access-free trace, and counts nothing (not even leaves).
        return ProfileReplay {
            io: 0,
            completed: accesses == 0,
            leaves: 0,
        };
    }
    let depth = summary.depths();
    let leaf_before = summary.leaves_before();
    let mut io: Io = 0;
    // Invariant: the simulator's resident set after any prefix is exactly
    // the `resident` most recently used distinct blocks (the top of the
    // global recency stack) — shrinking evicts from the cold end, hits
    // permute only the top, and a miss inserts at the top after evicting
    // the bottom iff the cache is full.
    let mut resident: u64 = 0;
    for j in 0..cast::usize_from_u64(accesses) {
        let Some(m) = m_at.value_at(io) else {
            cadapt_core::counters::count_io(io);
            return ProfileReplay {
                io,
                completed: false,
                leaves: leaf_before[j],
            };
        };
        resident = resident.min(m);
        let d = depth[j];
        if d != 0 && d <= resident {
            continue; // hit: the block is within the top-`resident`
        }
        io += 1;
        resident = (resident + 1).min(m);
    }
    cadapt_core::counters::count_io(io);
    ProfileReplay {
        io,
        completed: true,
        leaves: summary.leaves(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{
        replay_fixed, replay_memory_profile, replay_square_profile, replay_square_profile_history,
    };
    use cadapt_core::counters::Recording;
    use cadapt_core::memory_profile::Segment;
    use cadapt_core::profile::ConstantSource;
    use cadapt_core::SquareProfile;
    use cadapt_trace::{summarized, SummarizedTrace, TraceAlgo, Tracer};

    fn summarise(blocks: &[u64]) -> SummarizedTrace {
        let mut t = Tracer::new(1);
        for &b in blocks {
            t.touch(b);
        }
        SummarizedTrace::new(t.into_trace())
    }

    #[test]
    fn fixed_matches_simulator_on_corpus_traces() {
        for algo in TraceAlgo::ALL {
            let st = summarized(algo, 8, 4);
            for m in [0u64, 1, 2, 4, 7, 16, 64, 256, 1 << 20] {
                assert_eq!(
                    analytic_fixed(st.summary(), m),
                    replay_fixed(st.program(), m),
                    "{} at capacity {m}",
                    algo.label()
                );
            }
        }
    }

    #[test]
    fn square_matches_simulator_box_for_box() {
        let st = summarized(TraceAlgo::MmInplace, 8, 4);
        let rho = TraceAlgo::MmInplace.potential();
        for menu in [vec![16u64], vec![1, 3, 9], vec![2, 64, 2, 5]] {
            let profile = SquareProfile::new(menu).unwrap();
            let (sim_report, sim_history) =
                replay_square_profile_history(st.program(), &mut profile.cycle(), rho);
            let (ana_report, ana_history) =
                analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
            assert_eq!(sim_history, ana_history);
            assert_eq!(sim_report.total_io, ana_report.total_io);
            assert_eq!(sim_report.boxes_used, ana_report.boxes_used);
            assert_eq!(
                sim_report.bounded_potential_sum.to_bits(),
                ana_report.bounded_potential_sum.to_bits()
            );
        }
    }

    #[test]
    fn memory_profile_matches_simulator_including_truncation() {
        let st = summarized(TraceAlgo::MmScan, 8, 4);
        for segments in [
            vec![Segment {
                size: 1 << 16,
                len: 1 << 20,
            }],
            vec![Segment { size: 2, len: 10 }],
            vec![
                Segment { size: 64, len: 50 },
                Segment { size: 1, len: 400 },
                Segment {
                    size: 16,
                    len: 1 << 20,
                },
            ],
        ] {
            let profile = MemoryProfile::from_segments(segments).unwrap();
            assert_eq!(
                analytic_memory_profile(st.summary(), &profile),
                replay_memory_profile(st.program(), &profile)
            );
        }
    }

    #[test]
    fn leaf_only_and_empty_traces() {
        let mut t = Tracer::new(1);
        t.leaf();
        t.leaf();
        let st = SummarizedTrace::new(t.into_trace());
        let rho = Potential::new(2, 2);
        let sim = replay_square_profile(st.program(), &mut ConstantSource::new(4), rho);
        let ana = analytic_square_profile(st.summary(), &mut ConstantSource::new(4), rho);
        assert_eq!(sim.boxes_used, 1);
        assert_eq!(ana.boxes_used, 1);
        assert_eq!(sim.total_progress, 2);
        assert_eq!(ana.total_progress, 2);

        let empty = summarise(&[]);
        let sim = replay_square_profile(empty.program(), &mut ConstantSource::new(4), rho);
        let ana = analytic_square_profile(empty.summary(), &mut ConstantSource::new(4), rho);
        assert_eq!(sim.boxes_used, 0);
        assert_eq!(ana.boxes_used, 0);
    }

    #[test]
    fn empty_memory_profile_is_mirrored() {
        let st = summarise(&[1, 2, 1]);
        let profile = MemoryProfile::from_segments(Vec::new()).unwrap();
        assert_eq!(
            analytic_memory_profile(st.summary(), &profile),
            replay_memory_profile(st.program(), &profile)
        );
    }

    #[test]
    fn warm_hits_are_free_even_after_the_budget_is_spent() {
        // Box of size 1: the first access misses and spends the budget;
        // the immediate re-access must still hit and be consumed.
        let st = summarise(&[7, 7, 7, 8]);
        let rho = Potential::new(2, 2);
        let (sim, sim_h) =
            replay_square_profile_history(st.program(), &mut ConstantSource::new(1), rho);
        let (ana, ana_h) =
            analytic_square_profile_history(st.summary(), &mut ConstantSource::new(1), rho);
        assert_eq!(sim_h, ana_h);
        assert_eq!(sim.boxes_used, 2, "7,7,7 in box one; 8 in box two");
        assert_eq!(ana.total_io, sim.total_io);
    }

    #[test]
    fn accounting_counters_match_the_simulator() {
        let st = summarized(TraceAlgo::Strassen, 8, 4);
        let rho = TraceAlgo::Strassen.potential();
        let rec = Recording::start();
        let _ = replay_square_profile(st.program(), &mut ConstantSource::new(8), rho);
        let _ = replay_fixed(st.program(), 32);
        let sim = rec.finish();
        let rec = Recording::start();
        let _ = analytic_square_profile(st.summary(), &mut ConstantSource::new(8), rho);
        let _ = analytic_fixed(st.summary(), 32);
        let ana = rec.finish();
        assert_eq!(sim.ios_charged, ana.ios_charged);
        assert_eq!(sim.boxes_advanced, ana.boxes_advanced);
        // The diagnostic cache counters are the documented divergence:
        // the analytic model has no cache to hit or evict.
        assert!(sim.cache_hits > 0);
        assert_eq!(ana.cache_hits, 0);
        assert_eq!(ana.cache_evictions, 0);
    }
}
