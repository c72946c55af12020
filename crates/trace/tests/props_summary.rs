//! Property-based validation of [`TraceSummary`] against a naive
//! move-to-front stack.
//!
//! The paging crate's equivalence suites compare the analytic model with
//! the LRU simulator, and both sides there go through the same block-id
//! page directory. The oracle here shares nothing with the summary: it
//! keeps the recency stack as a plain vector, finds a block by linear
//! search, and reads its stack distance off the position. It checks
//! `prev1`, `depths`, `leaves_before` and `faults_fixed` at every capacity
//! from 0 through one past the distinct-block count, and at `u64::MAX`.
//!
//! Streams run to a few thousand accesses, so positions cross many 64-flag
//! words of the summary's latest-occurrence bitmap. Ids come from a dense
//! range from 0 (the corpus programs' layout), from both sides of the
//! 511/512 and 1023/1024 page edges, from scattered values, and from the
//! top of the id space, `u64::MAX` included.

// Test-only code: unwraps abort the test (the right failure mode).
#![allow(clippy::unwrap_used)]

use cadapt_core::{Io, Leaves};
use cadapt_trace::{compile, BlockTrace, TraceSummary, Tracer};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// What the summary must report, computed the slow way.
#[derive(Debug, PartialEq)]
struct Expected {
    distinct: u64,
    prev1: Vec<u64>,
    depths: Vec<u64>,
    leaves_before: Vec<Leaves>,
}

/// Replay `ops` (block, leaves after it) through a move-to-front stack.
/// `lead` leaf marks come before the first access.
fn naive(lead: u64, ops: &[(u64, u64)]) -> Expected {
    let mut stack: Vec<u64> = Vec::new(); // index 0 = most recent
    let mut last: BTreeMap<u64, u64> = BTreeMap::new();
    let mut leaves = Leaves::from(lead);
    let mut out = Expected {
        distinct: 0,
        prev1: Vec::new(),
        depths: Vec::new(),
        leaves_before: Vec::new(),
    };
    for (j, &(block, leaves_after)) in (0u64..).zip(ops) {
        out.leaves_before.push(leaves);
        out.prev1.push(last.insert(block, j).map_or(0, |p| p + 1));
        let depth = match stack.iter().position(|&b| b == block) {
            Some(i) => {
                stack.remove(i);
                i as u64 + 1
            }
            None => 0,
        };
        stack.insert(0, block);
        out.depths.push(depth);
        leaves += Leaves::from(leaves_after);
    }
    out.leaves_before.push(leaves);
    out.distinct = stack.len() as u64;
    out
}

/// Faults of a `capacity`-block LRU cache: first touches, plus re-accesses
/// deeper than the capacity.
fn naive_faults(depths: &[u64], capacity: u64) -> Io {
    depths.iter().filter(|&&d| d == 0 || d > capacity).count() as Io
}

fn record(lead: u64, ops: &[(u64, u64)]) -> BlockTrace {
    let mut t = Tracer::new(1);
    for _ in 0..lead {
        t.leaf();
    }
    for &(block, leaves_after) in ops {
        t.touch(block);
        for _ in 0..leaves_after {
            t.leaf();
        }
    }
    t.into_trace()
}

fn check(summary: &TraceSummary, want: &Expected) -> Result<(), TestCaseError> {
    prop_assert_eq!(summary.accesses(), want.depths.len() as u64);
    prop_assert_eq!(summary.distinct_blocks(), want.distinct);
    prop_assert_eq!(summary.leaves(), *want.leaves_before.last().unwrap());
    prop_assert_eq!(summary.prev1(), &want.prev1[..]);
    prop_assert_eq!(summary.depths(), &want.depths[..]);
    prop_assert_eq!(summary.leaves_before(), &want.leaves_before[..]);
    for capacity in (0..=want.distinct + 1).chain([u64::MAX]) {
        prop_assert_eq!(
            summary.faults_fixed(capacity),
            naive_faults(&want.depths, capacity),
            "capacity {}",
            capacity
        );
    }
    Ok(())
}

/// Both sides of the first two page edges, and the first ids of page 0.
const EDGES: [u64; 12] = [0, 1, 2, 509, 510, 511, 512, 513, 1022, 1023, 1024, 1025];

/// The top page (2⁶⁴ is a multiple of 512) and its neighbour below.
const TOP: [u64; 6] = [
    u64::MAX,
    u64::MAX - 1,
    u64::MAX - 511,
    u64::MAX - 512,
    u64::MAX - 513,
    0,
];

/// The ids one stream draws from.
fn pool() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        // Dense from 0, as `AddressSpace` allocates them.
        (1u64..400).prop_map(|n| (0..n).collect::<Vec<u64>>()),
        Just(EDGES.to_vec()),
        Just(TOP.to_vec()),
        // Scattered over the whole id space, the top id included.
        proptest::collection::vec(0u64..=u64::MAX, 1..48).prop_map(|mut ids| {
            ids.push(u64::MAX);
            ids
        }),
        // Everything at once: a dense run across an edge, edges, the top.
        (0u64..=u64::MAX).prop_map(|x| {
            let mut ids: Vec<u64> = (480..560).collect();
            ids.extend(EDGES);
            ids.extend(TOP);
            ids.push(x);
            ids
        }),
    ]
}

/// A stream: leading leaf marks, then up to a few thousand accesses, each
/// followed by 0–2 leaf marks. Picks index into the pool; a small window
/// of recent picks is favoured so short stack distances occur too.
fn stream() -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    (
        pool(),
        0u64..3,
        proptest::collection::vec((0usize..1 << 20, 0u64..8, 0u64..4), 0..3000),
    )
        .prop_map(|(pool, lead, picks)| {
            let mut ops: Vec<(u64, u64)> = Vec::with_capacity(picks.len());
            for (pick, locality, leaf_roll) in picks {
                let block = if locality < 3 && !ops.is_empty() {
                    // Re-touch one of the last few accesses.
                    ops[ops.len() - 1 - pick % ops.len().min(6)].0
                } else {
                    pool[pick % pool.len()]
                };
                let leaves_after = leaf_roll.saturating_sub(1);
                ops.push((block, leaves_after));
            }
            (lead, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The summary of the recorded trace and of its compiled program both
    /// equal the move-to-front oracle.
    #[test]
    fn summary_equals_a_move_to_front_stack((lead, ops) in stream()) {
        let want = naive(lead, &ops);
        let trace = record(lead, &ops);
        check(&TraceSummary::new(&trace), &want)?;
        let program = compile(&trace);
        prop_assert_eq!(program.distinct_blocks(), want.distinct);
        check(&TraceSummary::new(&program), &want)?;
    }
}

#[test]
fn hand_stream_across_a_page_edge() {
    // a b a c b a with a, b, c on three pages (511, 512, top).
    let (a, b, c) = (511, 512, u64::MAX);
    let ops: Vec<(u64, u64)> = [a, b, a, c, b, a].iter().map(|&x| (x, 0)).collect();
    let want = naive(0, &ops);
    assert_eq!(want.depths, [0, 0, 2, 0, 3, 3]);
    let s = TraceSummary::new(&record(0, &ops));
    check(&s, &want).unwrap();
}
