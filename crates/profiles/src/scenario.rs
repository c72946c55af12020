//! Multi-tenant contention scenarios as streaming cursor pipelines.
//!
//! The cursor combinators in `cadapt-core` (`interleave`, `throttle`,
//! `take_boxes`) are binary; real contention scenarios have N
//! tenants. This module supplies the N-ary generalisation —
//! [`RoundRobin`], a fair time-slicer over boxed cursors — and the
//! fair-share composition [`contended_round_robin`] used by experiment
//! E16: every tenant throttled to its fair share of the cache, then
//! time-sliced in fixed chunks.
//!
//! Everything here obeys the `RunCursor` laws: O(1) state per tenant (at
//! most one pending run), run decomposition equal to the per-box stream,
//! cancellation observed between runs when wrapped in
//! [`cancellable`](cadapt_core::RunCursorExt::cancellable). Nothing is
//! materialised: a scenario over a billion-box adversary holds a few
//! machine words per tenant.

use cadapt_core::cursor::{Cancelled, RunCursor, RunCursorExt};
use cadapt_core::{Blocks, BoxRun};

/// Fair N-way time-slicing: tenants take turns emitting `chunk` boxes
/// each, in index order, skipping exhausted tenants; the scenario ends
/// when every tenant is exhausted. The two-tenant case agrees with
/// [`interleave`](cadapt_core::RunCursorExt::interleave) box for box.
pub struct RoundRobin<'a> {
    tenants: Vec<Box<dyn RunCursor + 'a>>,
    pending: Vec<Option<BoxRun>>,
    done: Vec<bool>,
    chunk: u64,
    current: usize,
    left_in_slice: u64,
}

impl std::fmt::Debug for RoundRobin<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundRobin")
            .field("tenants", &self.tenants.len())
            .field("chunk", &self.chunk)
            .field("current", &self.current)
            .field("left_in_slice", &self.left_in_slice)
            .finish()
    }
}

impl<'a> RoundRobin<'a> {
    /// Time-slice `tenants` in fixed `chunk`-box turns.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or `chunk == 0`.
    #[must_use]
    pub fn new(tenants: Vec<Box<dyn RunCursor + 'a>>, chunk: u64) -> RoundRobin<'a> {
        assert!(!tenants.is_empty(), "a scenario needs at least one tenant");
        assert!(chunk > 0, "slice chunk must be positive");
        let n = tenants.len();
        RoundRobin {
            tenants,
            // cadapt-lint: allow(cursor-materialize) -- one pending slot per tenant, bounded by the tenant count, never by pipeline length
            pending: (0..n).map(|_| None).collect(),
            done: vec![false; n],
            chunk,
            current: 0,
            left_in_slice: chunk,
        }
    }

    /// Refill the current tenant's pending run; `None` marks it exhausted.
    fn fill_current(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        let i = self.current;
        if self.pending[i].is_none() && !self.done[i] {
            self.pending[i] = self.tenants[i].next_run()?;
            self.done[i] = self.pending[i].is_none();
        }
        Ok(self.pending[i])
    }

    /// Advance to the next tenant's slice.
    fn rotate(&mut self) {
        self.current = (self.current + 1) % self.tenants.len();
        self.left_in_slice = self.chunk;
    }
}

impl RunCursor for RoundRobin<'_> {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        loop {
            match self.fill_current()? {
                Some(run) => {
                    let emit = run.repeat.min(self.left_in_slice);
                    self.pending[self.current] = if run.repeat == u64::MAX {
                        // Infinite tails stay infinite under finite slices.
                        Some(run)
                    } else {
                        let rest = run.repeat - emit;
                        (rest > 0).then_some(BoxRun {
                            size: run.size,
                            repeat: rest,
                        })
                    };
                    self.left_in_slice -= emit;
                    if self.left_in_slice == 0 {
                        self.rotate();
                    }
                    return Ok(Some(BoxRun {
                        size: run.size,
                        repeat: emit,
                    }));
                }
                None => {
                    if self.done.iter().all(|&d| d) {
                        return Ok(None);
                    }
                    self.rotate();
                }
            }
        }
    }
}

/// The fair cache share of one tenant among `tenants` sharing `total`
/// blocks: ⌊total / tenants⌋, floored at 1 (boxes must stay positive) —
/// the same convention as [`contention::multi_tenant`](crate::contention).
#[must_use]
pub fn fair_share(total: Blocks, tenants: u64) -> Blocks {
    assert!(tenants >= 1, "need at least one tenant");
    (total / tenants).max(1)
}

/// The full contention scenario: each tenant's boxes are capped at its
/// [`fair_share`] of `total` blocks, then the tenants are time-sliced in
/// `chunk`-box turns. This is the streaming analogue of
/// [`contention::multi_tenant`](crate::contention) with a fixed tenant
/// count — but over *arbitrary* tenant pipelines and without ever
/// materialising a profile.
///
/// # Panics
///
/// Panics if `tenants` is empty or `chunk == 0`.
#[must_use]
pub fn contended_round_robin<'a>(
    tenants: Vec<Box<dyn RunCursor + 'a>>,
    chunk: u64,
    total: Blocks,
) -> RoundRobin<'a> {
    let share = fair_share(total, tenants.len() as u64);
    let capped = tenants
        .into_iter()
        .map(|t| Box::new(t.throttle(share)) as Box<dyn RunCursor + 'a>)
        .collect(); // cadapt-lint: allow(cursor-materialize) -- re-boxes the N tenant cursors once at setup; N is the tenant count, not pipeline length
    RoundRobin::new(capped, chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_core::profile::ConstantSource;
    use cadapt_core::{BoxSource, SquareProfile};

    fn expand<C: RunCursor>(cursor: &mut C, max: usize) -> Vec<Blocks> {
        let mut out = Vec::new();
        while out.len() < max {
            match cursor.next_run().expect("not cancelled") {
                Some(run) => {
                    assert!(run.repeat >= 1 && run.size >= 1);
                    let take = (max - out.len()).min(usize::try_from(run.repeat).unwrap_or(max));
                    out.extend(std::iter::repeat_n(run.size, take));
                }
                None => break,
            }
        }
        out
    }

    fn tenant(size: Blocks, boxes: u64) -> Box<dyn RunCursor> {
        Box::new(ConstantSource::new(size).into_cursor().take_boxes(boxes))
    }

    #[test]
    fn three_tenants_rotate_in_index_order() {
        let mut rr = RoundRobin::new(vec![tenant(1, 4), tenant(2, 4), tenant(3, 4)], 2);
        assert_eq!(
            expand(&mut rr, 100),
            vec![1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3]
        );
        assert_eq!(rr.next_run(), Ok(None));
    }

    #[test]
    fn exhausted_tenants_are_skipped() {
        let mut rr = RoundRobin::new(vec![tenant(1, 1), tenant(2, 5)], 2);
        assert_eq!(expand(&mut rr, 100), vec![1, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn two_tenant_round_robin_matches_interleave() {
        let p = SquareProfile::new(vec![4, 4, 7, 1, 1, 1]).unwrap();
        let rr_a = Box::new(p.cycle().into_cursor().take_boxes(40)) as Box<dyn RunCursor + '_>;
        let rr_b = tenant(9, 13);
        let mut rr = RoundRobin::new(vec![rr_a, rr_b], 3);
        let il_a = p.cycle().into_cursor().take_boxes(40);
        let il_b = ConstantSource::new(9).into_cursor().take_boxes(13);
        let mut il = il_a.interleave(il_b, 3);
        assert_eq!(expand(&mut rr, 200), expand(&mut il, 200));
    }

    #[test]
    fn infinite_tenant_keeps_the_scenario_unbounded() {
        let inf = Box::new(ConstantSource::new(8).into_cursor()) as Box<dyn RunCursor>;
        let mut rr = RoundRobin::new(vec![inf, tenant(2, 5)], 4);
        // The finite tenant drains; the infinite one keeps slicing.
        let boxes = expand(&mut rr, 20);
        assert_eq!(boxes.len(), 20);
        assert_eq!(&boxes[..4], &[8, 8, 8, 8]);
    }

    #[test]
    fn fair_share_floors_at_one() {
        assert_eq!(fair_share(64, 4), 16);
        assert_eq!(fair_share(3, 8), 1);
    }

    #[test]
    fn contended_round_robin_caps_at_the_share() {
        let big =
            Box::new(ConstantSource::new(100).into_cursor().take_boxes(6)) as Box<dyn RunCursor>;
        let small = tenant(2, 6);
        let mut rr = contended_round_robin(vec![big, small], 3, 32);
        // share = 16: the big tenant is throttled from 100 to 16.
        assert_eq!(
            expand(&mut rr, 100),
            vec![16, 16, 16, 2, 2, 2, 16, 16, 16, 2, 2, 2]
        );
    }

    #[test]
    fn decomposition_matches_per_box_reference() {
        // Reference semantics computed by hand-expanding each tenant's
        // stream and slicing in chunk turns.
        let p = SquareProfile::new(vec![3, 5, 5, 2]).unwrap();
        let chunk = 3u64;
        let a_boxes: Vec<Blocks> = (0..17).map(|i| p.boxes()[i % 4]).collect();
        let b_boxes: Vec<Blocks> = vec![7; 8];
        let mut reference = Vec::new();
        let (mut ai, mut bi) = (0usize, 0usize);
        while ai < a_boxes.len() || bi < b_boxes.len() {
            for _ in 0..chunk {
                if ai < a_boxes.len() {
                    reference.push(a_boxes[ai]);
                    ai += 1;
                }
            }
            for _ in 0..chunk {
                if bi < b_boxes.len() {
                    reference.push(b_boxes[bi]);
                    bi += 1;
                }
            }
        }
        let ta = Box::new(p.cycle().into_cursor().take_boxes(17)) as Box<dyn RunCursor + '_>;
        let tb = tenant(7, 8);
        let mut rr = RoundRobin::new(vec![ta, tb], chunk);
        assert_eq!(expand(&mut rr, 200), reference);
    }
}
