//! Property-based validation of the square-profile replay against a
//! per-box LRU.
//!
//! The replay keeps no cache: a box of x blocks admits at most x misses
//! into x blocks, so it never evicts, and a block is resident exactly when
//! the open box admitted it, which a per-slot box-number stamp records. The
//! reference here replays each box through a fresh [`LruCache`] of the
//! box's size instead, with the rule the LRU-backed replay used: a resident
//! block is a free hit whatever is left of the box's I/Os, a miss spends an
//! I/O while one is left, and otherwise closes the box and retries in the
//! next. Both must give the same [`AdaptivityReport`], the same per-box
//! history and the same box, I/O and hit counts under [`Recording`], with
//! no eviction; a cursor cut after k boxes must stop with
//! `ProfileExhausted { after_boxes: k }` having counted exactly the first k
//! boxes.
//!
//! Ids come from a dense range from 0, from both sides of the 511/512 page
//! edge and of the page directory's flat-table bound (id 2²⁹), and from the
//! top of the id space, `u64::MAX` included. Leaf marks come first, last
//! and in runs, and traces may hold leaves only or nothing at all. Each
//! trace replays both as the recorded `BlockTrace` and as its compiled
//! `TraceProgram`.

// Test-only code: unwraps abort the test (the right failure mode).
#![allow(clippy::unwrap_used)]

use cadapt_core::counters::{CounterSnapshot, Recording};
use cadapt_core::{
    AdaptivityReport, BoxRecord, BoxSource, Io, Leaves, Potential, ProgressLedger, RunCursorExt,
    SquareProfile,
};
use cadapt_paging::{replay_square_cursor, replay_square_profile_history, LruCache, ReplayError};
use cadapt_trace::{compile, TraceEvent, TraceStream, Tracer};
use proptest::prelude::*;

/// The first id past the page directory's flat page table: page 2²⁰.
const FLAT_BOUND: u64 = 1 << 29;

/// What the reference replay reports.
#[derive(Debug)]
struct Expected {
    report: AdaptivityReport,
    history: Vec<BoxRecord>,
    /// Hits per box, in box order.
    hits: Vec<u64>,
}

/// Replay `trace` box by box, each box through a fresh LRU of its size.
fn per_box_lru<T: TraceStream>(trace: &T, profile: &SquareProfile, rho: Potential) -> Expected {
    let mut sizes = profile.cycle();
    let mut ledger = ProgressLedger::retaining(rho, trace.distinct_blocks());
    let mut hits = Vec::new();
    let mut events = trace.events().peekable();
    while events.peek().is_some() {
        let size = sizes.next_box();
        let mut cache = LruCache::new(usize::try_from(size).unwrap());
        let (mut budget, mut used, mut progress, mut box_hits) = (size, 0u64, 0u64, 0u64);
        while let Some(&event) = events.peek() {
            match event {
                TraceEvent::Leaf => progress += 1,
                TraceEvent::Access(block) => {
                    if cache.contains(block) {
                        assert!(cache.access(block));
                        box_hits += 1;
                    } else if budget > 0 {
                        assert!(!cache.access(block));
                        budget -= 1;
                        used += 1;
                    } else {
                        break;
                    }
                }
            }
            events.next();
        }
        hits.push(box_hits);
        ledger.record(BoxRecord {
            size,
            progress: Leaves::from(progress),
            used: Io::from(used),
        });
    }
    let history = ledger.history().unwrap().to_vec();
    Expected {
        report: ledger.finish(),
        history,
        hits,
    }
}

/// The counts the first `k` boxes of `want` account for.
fn counts_of(want: &Expected, k: usize) -> CounterSnapshot {
    let used: Io = want.history.iter().take(k).map(|r| r.used).sum();
    CounterSnapshot {
        boxes_advanced: u64::try_from(k).unwrap(),
        cursor_steps: 0,
        ios_charged: u64::try_from(used).unwrap(),
        cache_hits: want.hits.iter().take(k).sum(),
        cache_evictions: 0,
    }
}

/// Check the stamped replay of `trace` against the reference, whole and
/// cut after `cut` boxes.
fn check<T: TraceStream>(
    trace: &T,
    profile: &SquareProfile,
    rho: Potential,
    cut: usize,
) -> Result<(), TestCaseError> {
    let want = per_box_lru(trace, profile, rho);
    let rec = Recording::start();
    let (report, history) = replay_square_profile_history(trace, &mut profile.cycle(), rho);
    let counts = rec.finish();
    prop_assert_eq!(&history, &want.history);
    prop_assert_eq!(report, want.report);
    prop_assert_eq!(counts, counts_of(&want, want.history.len()));
    if want.history.is_empty() {
        return Ok(());
    }
    // A cursor that runs dry before the trace ends.
    let k = cut % want.history.len();
    let after_boxes = u64::try_from(k).unwrap();
    let mut cursor = profile.cycle().into_cursor().take_boxes(after_boxes);
    let rec = Recording::start();
    let err = replay_square_cursor(trace, &mut cursor, rho).unwrap_err();
    let counts = rec.finish();
    prop_assert_eq!(err, ReplayError::ProfileExhausted { after_boxes });
    prop_assert_eq!(counts, counts_of(&want, k));
    Ok(())
}

/// The ids one trace draws from.
fn pool() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        (1u64..40).prop_map(|n| (0..n).collect::<Vec<u64>>()),
        Just(vec![0, 1, 509, 510, 511, 512, 513, 1023, 1024]),
        Just(vec![
            FLAT_BOUND - 512,
            FLAT_BOUND - 1,
            FLAT_BOUND,
            FLAT_BOUND + 511,
            FLAT_BOUND + 512,
            u64::MAX,
            u64::MAX - 511,
            0,
            511,
        ]),
        (1u64..12).prop_map(|n| {
            let mut ids: Vec<u64> = (0..n).collect();
            ids.extend([FLAT_BOUND - 1, FLAT_BOUND, u64::MAX, 512]);
            ids
        }),
    ]
}

/// Leading leaf marks, then (id, leaf marks after it) pairs, then trailing
/// leaf marks. An empty op list makes a leaf-only or an empty trace.
fn trace_ops() -> impl Strategy<Value = (Vec<u64>, u64, Vec<(usize, u64)>, u64)> {
    (
        pool(),
        0u64..4,
        prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec((0usize..64, leaves_after()), 1..300),
            proptest::collection::vec((0usize..64, leaves_after()), 1..300),
            proptest::collection::vec((0usize..64, leaves_after()), 1..300),
        ],
        0u64..4,
    )
}

/// Leaf marks after an access: none half the time, else a run of 1–3.
fn leaves_after() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..4]
}

/// Box menus, with 1-block boxes common.
fn menu() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(prop_oneof![Just(1u64), 1u64..24, 1u64..24], 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn square_replay_equals_a_per_box_lru(
        (pool, lead, ops, tail) in trace_ops(),
        menu in menu(),
        cut in 0usize..1 << 16,
    ) {
        let mut tracer = Tracer::new(1);
        (0..lead).for_each(|_| tracer.leaf());
        for &(i, leaves) in &ops {
            tracer.touch(pool[i % pool.len()]);
            (0..leaves).for_each(|_| tracer.leaf());
        }
        (0..tail).for_each(|_| tracer.leaf());
        let trace = tracer.into_trace();
        let program = compile(&trace);
        let profile = SquareProfile::new(menu).unwrap();
        let rho = Potential::new(8, 4);
        check(&trace, &profile, rho, cut)?;
        check(&program, &profile, rho, cut)?;
    }
}
