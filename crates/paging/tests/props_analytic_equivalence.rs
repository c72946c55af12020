//! Property-based cross-validation of the analytic cache model against the
//! exact LRU simulator, on arbitrary generated traces.
//!
//! The analytic model's contract is *exact equality* — not approximation —
//! with the simulator on every trace, every capacity, every box menu, and
//! every memory profile (see `cadapt_paging::analytic` for the three
//! theorems that make this possible). These properties enforce the
//! contract on adversarial inputs the corpus algorithms would never
//! produce: tight re-access loops, leaf bursts between accesses, blocks
//! that never repeat, menus mixing size-1 and oversized boxes.
//!
//! There is **no deliberate divergence regime** in the replayed
//! quantities. The only documented difference is diagnostic: the
//! simulator ticks the cache-hit/eviction counters and the analytic model
//! does not, which the unit tests in `cadapt_paging::analytic` pin down.

// Test-only code: unwraps abort the test (the right failure mode).
#![allow(clippy::unwrap_used)]

use cadapt_core::counters::Recording;
use cadapt_core::memory_profile::Segment;
use cadapt_core::{cast, Io, Leaves, MemoryProfile, Potential, SquareProfile};
use cadapt_paging::replay::ProfileReplay;
use cadapt_paging::{
    analytic_fixed, analytic_memory_profile, analytic_square_profile_history, replay_fixed,
    replay_memory_profile, replay_square_profile_history, LruCache,
};
use cadapt_trace::{SummarizedTrace, TraceEvent, TraceStream, Tracer};
use proptest::prelude::*;

/// Build a summarised trace from generated `(block, leaf_after)` pairs.
/// Blocks are drawn from a small universe so re-accesses are common.
fn assemble(ops: &[(u64, bool)]) -> SummarizedTrace {
    let mut tracer = Tracer::new(1);
    for &(block, leaf_after) in ops {
        tracer.touch(block);
        if leaf_after {
            tracer.leaf();
        }
    }
    SummarizedTrace::new(tracer.into_trace())
}

/// Twelve block ids: 0..12 on one page, or, in some cases, the same
/// twelve spread over the 511/512 page edge and the top page, so the
/// simulator's page directory turns pages mid-trace.
fn ops_strategy() -> impl Strategy<Value = Vec<(u64, bool)>> {
    let across_pages = |b: u64| match b {
        0..=3 => b,
        4..=7 => 506 + b,
        _ => u64::MAX - 11 + b,
    };
    (
        proptest::bool::ANY,
        proptest::collection::vec((0u64..12, proptest::bool::ANY), 0..200),
    )
        .prop_map(move |(spread, ops)| {
            if spread {
                ops.into_iter()
                    .map(|(b, leaf)| (across_pages(b), leaf))
                    .collect()
            } else {
                ops
            }
        })
}

/// Raw runs for `MemoryProfile::from_segments`: sizes on both sides of the
/// 12-block universe, each held for up to 23 I/Os (E8's sawtooth holds a
/// size for many I/Os; `from_steps` yields mostly unit-length segments).
/// Zero lengths and equal neighbours occur, and totals range from empty
/// through longer than most traces need, so some replays complete and
/// others run out mid-trace.
fn segments_strategy() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec((1u64..16, 0u64..24), 0..24).prop_map(|runs| {
        runs.into_iter()
            .map(|(size, len)| Segment {
                size,
                len: Io::from(len),
            })
            .collect()
    })
}

/// The arbitrary-profile replay as first written: m(t) re-read from the
/// first segment with `value_at` and the cache resized at every access.
/// The simulator's forward cursor and resize-on-change must match it
/// exactly, counters included.
fn reference_memory_replay<T: TraceStream>(trace: &T, profile: &MemoryProfile) -> ProfileReplay {
    let Some(initial) = profile.value_at(0) else {
        return ProfileReplay {
            io: 0,
            completed: trace.accesses() == 0,
            leaves: 0,
        };
    };
    let mut cache = LruCache::new(cast::usize_from_u64(initial));
    let (mut t, mut leaves): (Io, Leaves) = (0, 0);
    for event in trace.events() {
        match event {
            TraceEvent::Leaf => leaves += 1,
            TraceEvent::Access(block) => {
                let Some(m) = profile.value_at(t) else {
                    return ProfileReplay {
                        io: t,
                        completed: false,
                        leaves,
                    };
                };
                cache.resize(cast::usize_from_u64(m));
                if !cache.access(block) {
                    t += 1;
                    cadapt_core::counters::count_io(1);
                }
            }
        }
    }
    ProfileReplay {
        io: t,
        completed: true,
        leaves,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fixed caches: the stack-distance query equals the LRU replay at
    /// every capacity from degenerate (0) through oversized.
    #[test]
    fn fixed_capacity_sweep_is_exact(ops in ops_strategy()) {
        let st = assemble(&ops);
        for capacity in (0u64..=16).chain([64, 1 << 30]) {
            prop_assert_eq!(
                analytic_fixed(st.summary(), capacity),
                replay_fixed(st.program(), capacity),
                "capacity {}", capacity
            );
        }
    }

    /// Square profiles: the full report and the per-box history are equal
    /// box for box, for arbitrary cycled menus.
    #[test]
    fn square_profiles_are_lock_step(
        ops in ops_strategy(),
        menu in proptest::collection::vec(1u64..20, 1..8),
    ) {
        let st = assemble(&ops);
        let rho = Potential::new(8, 4);
        let profile = SquareProfile::new(menu).unwrap();
        let (sim_report, sim_boxes) =
            replay_square_profile_history(st.program(), &mut profile.cycle(), rho);
        let (ana_report, ana_boxes) =
            analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
        prop_assert_eq!(sim_boxes, ana_boxes);
        prop_assert_eq!(sim_report, ana_report);
    }

    /// Arbitrary m(t) profiles: equal I/O, completion flag, and leaf
    /// count — including truncated replays where the profile runs out —
    /// for per-step profiles and for multi-I/O segments. Both backends
    /// also equal the `value_at` reference replay, and the simulator ticks
    /// the same counters (hits and evictions included) as the reference.
    #[test]
    fn memory_profiles_are_exact(
        ops in ops_strategy(),
        steps in proptest::collection::vec(1u64..10, 1..80),
        segments in segments_strategy(),
    ) {
        let st = assemble(&ops);
        let per_step = MemoryProfile::from_steps(&steps).unwrap();
        let long_runs = MemoryProfile::from_segments(segments).unwrap();
        for profile in [per_step, long_runs] {
            let rec = Recording::start();
            let reference = reference_memory_replay(st.program(), &profile);
            let reference_counts = rec.finish();
            let rec = Recording::start();
            let simulated = replay_memory_profile(st.program(), &profile);
            let simulated_counts = rec.finish();
            prop_assert_eq!(simulated, reference, "profile {:?}", profile.segments());
            prop_assert_eq!(simulated_counts, reference_counts);
            prop_assert_eq!(analytic_memory_profile(st.summary(), &profile), reference);
        }
    }

    /// Dominance: a box-local hit implies a fixed-LRU hit at the same
    /// capacity (distinct blocks inside the box bound the global stack
    /// distance), so the square replay's total I/O is at least the fixed
    /// replay's, which is at least the working-set size; and fixed faults
    /// are monotone non-increasing in capacity.
    #[test]
    fn dominance_chain_holds(
        ops in ops_strategy(),
        x in 1u64..24,
    ) {
        let st = assemble(&ops);
        let rho = Potential::new(8, 4);
        let profile = SquareProfile::new(vec![x]).unwrap();
        let (square, _) =
            analytic_square_profile_history(st.summary(), &mut profile.cycle(), rho);
        let fixed = analytic_fixed(st.summary(), x);
        prop_assert!(square.total_io >= fixed.io);
        prop_assert!(fixed.io >= u128::from(st.summary().distinct_blocks()));
        let mut previous = analytic_fixed(st.summary(), 0).io;
        for capacity in 1u64..=24 {
            let now = analytic_fixed(st.summary(), capacity).io;
            prop_assert!(now <= previous, "faults rose at capacity {}", capacity);
            previous = now;
        }
    }
}
