//! Streaming run-cursors: composable, constant-memory box pipelines.
//!
//! [`BoxSource`] answers "what is the next box?"; a [`RunCursor`] is the
//! *pipeline* form of the same stream: it yields [`BoxRun`]s lazily, can
//! be finite (`Ok(None)` when exhausted), and checks a shared
//! [`CancelToken`] between runs so a long replay can be stopped
//! cooperatively from another thread — surfaced as the typed [`Cancelled`]
//! error, never a panic or a poisoned lock.
//!
//! Cursors compose by *adaptation*, not materialisation: every combinator
//! ([`take_boxes`](RunCursorExt::take_boxes),
//! [`throttle`](RunCursorExt::throttle),
//! [`interleave`](RunCursorExt::interleave),
//! [`cancellable`](RunCursorExt::cancellable)) holds O(1) state — at most
//! one pending run per upstream — so a pipeline over a billion-box profile
//! is as resident as a pipeline over ten boxes. That is the property the
//! paper's Definition 3 needs operationally: adaptivity is quantified over
//! *infinite* profiles, so nothing in the hot path may scale with profile
//! length.
//!
//! ## Trait laws
//!
//! 1. **Decomposition.** The concatenation of the yielded runs (each run
//!    expanded to `repeat` boxes of `size`) *is* the cursor's box stream.
//!    Runs need not be maximal; they must be non-empty (`repeat ≥ 1`,
//!    `size ≥ 1`).
//! 2. **Discard-on-stop.** A consumer that stops mid-run discards the
//!    remainder; the cursor is never polled again afterwards (inherited
//!    from the [`BoxSource::next_run`] contract).
//! 3. **Cancellation points.** Cancellation is observed *between* runs
//!    (the check is in [`Cancellable::next_run`]), so a closed-form batch
//!    advance is never torn in half; after `Err(Cancelled)` the cursor
//!    must not be polled again.

use crate::profile::{BoxRun, BoxSource};
use crate::Blocks;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The typed cancellation signal: a pipeline observed its [`CancelToken`]
/// between runs and stopped. Carried up as `Err(Cancelled)` so every layer
/// can distinguish "asked to stop" from "failed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline cancelled cooperatively")
    }
}

impl std::error::Error for Cancelled {}

/// A shared cancellation flag (an `Arc<AtomicBool>` under the hood).
///
/// Clone the token into every pipeline that should stop together; any
/// clone's [`CancelToken::cancel`] is observed by all of them at their
/// next between-runs check. Relaxed ordering is sufficient: the flag
/// carries no data, only "stop soon", and determinism is unaffected
/// because cancellation aborts a run rather than changing its results.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A streaming cursor over a (possibly infinite) box stream, yielding
/// run-length batches. See the module docs for the trait laws.
pub trait RunCursor {
    /// Yield the next run, `Ok(None)` when the stream is exhausted, or
    /// [`Cancelled`] if a [`CancelToken`] upstream was triggered.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when a token in the pipeline has been cancelled; the
    /// cursor must not be polled again afterwards.
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled>;
}

/// Mirrors `Iterator`: a mutable reference to a cursor is a cursor.
impl<C: RunCursor + ?Sized> RunCursor for &mut C {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        (**self).next_run()
    }
}

/// Boxed cursors are cursors (enables heterogeneous `Box<dyn RunCursor>`
/// pipelines, e.g. a scenario built from differently-typed tenants).
impl<C: RunCursor + ?Sized> RunCursor for Box<C> {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        (**self).next_run()
    }
}

/// The bridge from the source world: any [`BoxSource`] is an infinite
/// [`RunCursor`]. This is the single place the run-positivity invariant is
/// asserted, so every pipeline downstream can rely on it.
#[derive(Debug, Clone)]
pub struct SourceCursor<S> {
    source: S,
}

impl<S: BoxSource> SourceCursor<S> {
    /// Wrap a source as an infinite cursor.
    pub fn new(source: S) -> SourceCursor<S> {
        SourceCursor { source }
    }

    /// Unwrap, returning the inner source.
    pub fn into_inner(self) -> S {
        self.source
    }
}

impl<S: BoxSource> RunCursor for SourceCursor<S> {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        let run = self.source.next_run();
        // Zero-length or zero-sized runs would wedge every consumer loop
        // (no progress, no error); the BoxSource contract forbids them and
        // this adapter is where the whole pipeline checks it once.
        debug_assert!(run.repeat >= 1, "BoxSource yielded an empty run");
        debug_assert!(run.size >= 1, "BoxSource yielded a zero-sized box");
        Ok(Some(run))
    }
}

/// Subtract `emitted` boxes from a pending run, keeping infinite tails
/// infinite; returns the remainder (`None` when the run is spent).
fn run_minus(run: BoxRun, emitted: u64) -> Option<BoxRun> {
    if run.repeat == u64::MAX {
        // "This size forever": any finite prefix leaves it intact.
        return Some(run);
    }
    let left = run.repeat - emitted;
    (left > 0).then_some(BoxRun {
        size: run.size,
        repeat: left,
    })
}

/// Truncate a cursor after `boxes` boxes. See [`RunCursorExt::take_boxes`].
#[derive(Debug, Clone)]
pub struct TakeBoxes<C> {
    inner: C,
    remaining: u64,
}

impl<C: RunCursor> RunCursor for TakeBoxes<C> {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(run) = self.inner.next_run()? else {
            self.remaining = 0;
            return Ok(None);
        };
        // Law 2 (discard-on-stop) lets us drop the tail of the final run:
        // the inner cursor is never polled again after remaining hits 0.
        let emit = run.repeat.min(self.remaining);
        self.remaining -= emit;
        Ok(Some(BoxRun {
            size: run.size,
            repeat: emit,
        }))
    }
}

/// Cap every box size at `cap` blocks. See [`RunCursorExt::throttle`].
#[derive(Debug, Clone)]
pub struct Throttle<C> {
    inner: C,
    cap: Blocks,
}

impl<C: RunCursor> RunCursor for Throttle<C> {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        // Run structure is preserved exactly: capping is pointwise on
        // sizes, so a run of k equal boxes stays a run of k equal boxes
        // (adjacent runs may now share a size; runs need not be maximal).
        Ok(self.inner.next_run()?.map(|run| BoxRun {
            size: run.size.min(self.cap),
            repeat: run.repeat,
        }))
    }
}

/// Alternate fixed-length slices of boxes from two cursors. See
/// [`RunCursorExt::interleave`].
#[derive(Debug, Clone)]
pub struct Interleave<A, B> {
    a: A,
    b: B,
    chunk: u64,
    pending_a: Option<BoxRun>,
    pending_b: Option<BoxRun>,
    done_a: bool,
    done_b: bool,
    /// true = currently slicing from `a`.
    on_a: bool,
    left_in_slice: u64,
}

impl<A: RunCursor, B: RunCursor> Interleave<A, B> {
    /// Pull the current side's pending run, refilling from its cursor;
    /// `Ok(None)` marks that side exhausted.
    fn fill_current(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        if self.on_a {
            if self.pending_a.is_none() && !self.done_a {
                self.pending_a = self.a.next_run()?;
                self.done_a = self.pending_a.is_none();
            }
            Ok(self.pending_a)
        } else {
            if self.pending_b.is_none() && !self.done_b {
                self.pending_b = self.b.next_run()?;
                self.done_b = self.pending_b.is_none();
            }
            Ok(self.pending_b)
        }
    }
}

impl<A: RunCursor, B: RunCursor> RunCursor for Interleave<A, B> {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        loop {
            match self.fill_current()? {
                Some(run) => {
                    let emit = run.repeat.min(self.left_in_slice);
                    let rest = run_minus(run, emit);
                    if self.on_a {
                        self.pending_a = rest;
                    } else {
                        self.pending_b = rest;
                    }
                    self.left_in_slice -= emit;
                    if self.left_in_slice == 0 {
                        self.on_a = !self.on_a;
                        self.left_in_slice = self.chunk;
                    }
                    return Ok(Some(BoxRun {
                        size: run.size,
                        repeat: emit,
                    }));
                }
                None => {
                    // Current side is exhausted: drain the other side in
                    // full slices (or finish when both are done).
                    if self.done_a && self.done_b {
                        return Ok(None);
                    }
                    self.on_a = !self.on_a;
                    self.left_in_slice = self.chunk;
                }
            }
        }
    }
}

/// Observe a [`CancelToken`] between runs. See
/// [`RunCursorExt::cancellable`].
#[derive(Debug, Clone)]
pub struct Cancellable<C> {
    inner: C,
    token: CancelToken,
}

impl<C: RunCursor> RunCursor for Cancellable<C> {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        // The check sits *before* the pull: a cancelled pipeline does no
        // further upstream work, and a run already handed out is never
        // torn (cancellation points are between runs only — law 3).
        if self.token.is_cancelled() {
            return Err(Cancelled);
        }
        self.inner.next_run()
    }
}

/// Combinators on any [`RunCursor`], in the style of `Iterator` adapters.
/// Each returns a new cursor holding O(1) state.
pub trait RunCursorExt: RunCursor + Sized {
    /// Truncate the stream after `boxes` boxes (splitting a run at the
    /// boundary). The resulting cursor is finite.
    fn take_boxes(self, boxes: u64) -> TakeBoxes<Self> {
        TakeBoxes {
            inner: self,
            remaining: boxes,
        }
    }

    /// Cap every box at `cap` blocks — the "co-tenant stole the rest of
    /// the cache" model of memory pressure.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (boxes must stay positive).
    fn throttle(self, cap: Blocks) -> Throttle<Self> {
        assert!(cap > 0, "throttle cap must be positive");
        Throttle { inner: self, cap }
    }

    /// Alternate slices of `chunk` boxes from `self` and `other` — the
    /// time-sliced multi-tenancy model. When one side ends, the other is
    /// drained to completion.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    fn interleave<B: RunCursor>(self, other: B, chunk: u64) -> Interleave<Self, B> {
        assert!(chunk > 0, "interleave chunk must be positive");
        Interleave {
            a: self,
            b: other,
            chunk,
            pending_a: None,
            pending_b: None,
            done_a: false,
            done_b: false,
            on_a: true,
            left_in_slice: chunk,
        }
    }

    /// Observe `token` between runs, yielding `Err(`[`Cancelled`]`)` once
    /// it is cancelled.
    fn cancellable(self, token: CancelToken) -> Cancellable<Self> {
        Cancellable { inner: self, token }
    }
}

impl<C: RunCursor> RunCursorExt for C {}

// Exact equality in tests is deliberate: cursors must reproduce the
// per-box stream bit-for-bit (law 1).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ConstantSource, SquareProfile};

    /// Expand up to `max` boxes of a cursor into a vector (test helper;
    /// production code never materialises pipelines).
    fn expand<C: RunCursor>(cursor: &mut C, max: usize) -> Vec<Blocks> {
        let mut out = Vec::new();
        while out.len() < max {
            match cursor.next_run().expect("not cancelled") {
                Some(run) => {
                    assert!(run.repeat >= 1, "empty run yielded");
                    assert!(run.size >= 1, "zero-sized box yielded");
                    let take = (max - out.len()).min(usize::try_from(run.repeat).unwrap_or(max));
                    out.extend(std::iter::repeat_n(run.size, take));
                }
                None => break,
            }
        }
        out
    }

    fn profile(v: &[Blocks]) -> SquareProfile {
        SquareProfile::new(v.to_vec()).unwrap()
    }

    #[test]
    fn source_cursor_matches_per_box_stream() {
        let p = profile(&[2, 2, 5, 1, 1, 1]);
        let mut cursor = SourceCursor::new(p.cycle());
        let mut by_box = p.cycle();
        let expanded = expand(&mut cursor, 14);
        let direct: Vec<_> = (0..14).map(|_| by_box.next_box()).collect();
        assert_eq!(expanded, direct);
    }

    #[test]
    fn take_boxes_is_exact() {
        let mut c = SourceCursor::new(ConstantSource::new(4)).take_boxes(10);
        assert_eq!(expand(&mut c, 100), vec![4; 10]);
        assert_eq!(c.next_run(), Ok(None));
    }

    #[test]
    fn take_boxes_splits_runs_at_the_boundary() {
        let p = profile(&[7, 7, 7, 7]);
        let mut c = SourceCursor::new(p.cycle()).take_boxes(3);
        assert_eq!(c.next_run(), Ok(Some(BoxRun { size: 7, repeat: 3 })));
        assert_eq!(c.next_run(), Ok(None));
    }

    #[test]
    fn throttle_caps_sizes_and_preserves_runs() {
        let p = profile(&[2, 8, 8, 64]);
        let mut c = SourceCursor::new(p.cycle()).throttle(8).take_boxes(8);
        assert_eq!(expand(&mut c, 100), vec![2, 8, 8, 8, 2, 8, 8, 8]);
    }

    #[test]
    fn interleave_alternates_fixed_slices() {
        let a = SourceCursor::new(ConstantSource::new(1));
        let b = SourceCursor::new(ConstantSource::new(9));
        let mut c = a.interleave(b, 2).take_boxes(9);
        assert_eq!(expand(&mut c, 100), vec![1, 1, 9, 9, 1, 1, 9, 9, 1]);
    }

    #[test]
    fn interleave_splits_runs_at_slice_boundaries() {
        let a = SourceCursor::new(ConstantSource::new(3));
        let b = SourceCursor::new(ConstantSource::new(5));
        let mut c = a.interleave(b, 4);
        // Infinite constant runs are sliced into chunk-sized runs.
        assert_eq!(c.next_run(), Ok(Some(BoxRun { size: 3, repeat: 4 })));
        assert_eq!(c.next_run(), Ok(Some(BoxRun { size: 5, repeat: 4 })));
        assert_eq!(c.next_run(), Ok(Some(BoxRun { size: 3, repeat: 4 })));
    }

    #[test]
    fn interleave_drains_the_longer_side() {
        let a = SourceCursor::new(ConstantSource::new(1)).take_boxes(3);
        let b = SourceCursor::new(ConstantSource::new(9)).take_boxes(7);
        let mut c = a.interleave(b, 2);
        assert_eq!(
            expand(&mut c, 100),
            vec![1, 1, 9, 9, 1, 9, 9, 9, 9, 9],
            "after a is exhausted mid-slice, b is drained to completion"
        );
        assert_eq!(c.next_run(), Ok(None));
    }

    #[test]
    fn cancellation_is_observed_between_runs() {
        let token = CancelToken::new();
        let mut c = SourceCursor::new(ConstantSource::new(4))
            .take_boxes(1000)
            .cancellable(token.clone());
        assert!(matches!(c.next_run(), Ok(Some(_))));
        token.cancel();
        assert_eq!(c.next_run(), Err(Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn dyn_cursors_compose() {
        let a: Box<dyn RunCursor> =
            Box::new(SourceCursor::new(ConstantSource::new(2)).take_boxes(2));
        let b: Box<dyn RunCursor> =
            Box::new(SourceCursor::new(ConstantSource::new(3)).take_boxes(2));
        let mut c = a.interleave(b, 1);
        assert_eq!(expand(&mut c, 100), vec![2, 3, 2, 3]);
    }

    #[test]
    fn mut_ref_is_a_cursor() {
        let mut inner = SourceCursor::new(ConstantSource::new(5)).take_boxes(2);
        let mut c = &mut inner;
        assert_eq!(expand(&mut c, 100), vec![5, 5]);
    }

    #[test]
    fn cancelled_displays() {
        assert!(Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn infinite_tails_survive_combinators() {
        // An ExtendedSource's u64::MAX tail must stay infinite through
        // throttle, and interleave must keep slicing it (run_minus keeps
        // MAX as MAX) long after a finite count would have run out.
        let p = profile(&[3]);
        let mut throttled = SourceCursor::new(p.extended(9)).throttle(6);
        assert_eq!(
            throttled.next_run(),
            Ok(Some(BoxRun { size: 3, repeat: 1 }))
        );
        assert_eq!(
            throttled.next_run(),
            Ok(Some(BoxRun {
                size: 6,
                repeat: u64::MAX
            }))
        );
        let a = SourceCursor::new(p.extended(9)).throttle(6);
        let b = SourceCursor::new(ConstantSource::new(5));
        let mut c = a.interleave(b, 2);
        assert_eq!(c.next_run(), Ok(Some(BoxRun { size: 3, repeat: 1 })));
        assert_eq!(c.next_run(), Ok(Some(BoxRun { size: 6, repeat: 1 })));
        for _ in 0..4 {
            assert_eq!(c.next_run(), Ok(Some(BoxRun { size: 5, repeat: 2 })));
            assert_eq!(c.next_run(), Ok(Some(BoxRun { size: 6, repeat: 2 })));
        }
    }
}
