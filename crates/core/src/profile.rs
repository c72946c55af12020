//! Square profiles: sequences of boxes, finite and infinite.
//!
//! A *square profile* (Definition 1) is a step function where each step is
//! exactly as long (in I/Os) as it is tall (in blocks); the steps are the
//! *boxes* (□). Prior work shows any memory profile can be approximated by a
//! square profile up to constant factors, so boxes are the universal currency
//! of cache-adaptive analysis.
//!
//! * [`SquareProfile`] — a finite, materialised profile. Worst-case profiles
//!   for the problem sizes used in experiments have millions of boxes, so the
//!   representation is a flat `Vec<Blocks>`.
//! * [`BoxSource`] — an infinite stream of boxes, the form consumed by the
//!   execution drivers. Definition 3 of the paper quantifies over *infinite*
//!   square profiles; samplers and generators implement this trait lazily so
//!   nothing unbounded is ever materialised.

use crate::potential::Potential;
use crate::{Blocks, CoreError, Io};

/// A run of identical consecutive boxes in a profile.
///
/// The run-length fast path: instead of handing out one box at a time, a
/// source may report that the next `repeat` boxes all have the same `size`,
/// letting the execution drivers advance through the whole run in closed
/// form. `repeat == u64::MAX` means "this size forever" (constant tails).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxRun {
    /// Size of every box in the run (≥ 1 block).
    pub size: Blocks,
    /// Number of identical boxes (≥ 1); `u64::MAX` for an infinite tail.
    pub repeat: u64,
}

/// An infinite stream of boxes.
///
/// The CA model runs an algorithm against an infinite square profile; the
/// algorithm consumes a prefix. Implementors must always be able to produce
/// a next box (of positive size).
pub trait BoxSource {
    /// Produce the next box in the profile. Must be ≥ 1 block.
    fn next_box(&mut self) -> Blocks;

    /// Produce the next *run* of identical boxes (run-length fast path).
    ///
    /// The default implementation reports runs of length 1, so every source
    /// stays correct; sources with structure (constant tails, worst-case
    /// leaf bursts, repeated i.i.d. draws) override this to expose longer
    /// runs.
    ///
    /// Contract: the concatenation of runs must equal the per-box stream.
    /// A consumer that stops mid-run (the execution completed, or a box
    /// budget intervened) *discards* the remainder of the run — the source
    /// is never polled again afterwards, so it may advance its internal
    /// state past the whole run when it returns it.
    fn next_run(&mut self) -> BoxRun {
        BoxRun {
            size: self.next_box(),
            repeat: 1,
        }
    }

    /// Lift this source into the streaming-pipeline world: an infinite
    /// [`RunCursor`](crate::cursor::RunCursor) yielding this source's
    /// runs, composable with the cursor combinators
    /// ([`RunCursorExt`](crate::cursor::RunCursorExt)).
    fn into_cursor(self) -> crate::cursor::SourceCursor<Self>
    where
        Self: Sized,
    {
        crate::cursor::SourceCursor::new(self)
    }
}

/// Blanket impl so `&mut S` is itself a source (mirrors `Iterator`).
impl<S: BoxSource + ?Sized> BoxSource for &mut S {
    fn next_box(&mut self) -> Blocks {
        (**self).next_box()
    }

    fn next_run(&mut self) -> BoxRun {
        (**self).next_run()
    }
}

/// Boxed sources are sources (enables heterogeneous `Box<dyn BoxSource>`).
impl<S: BoxSource + ?Sized> BoxSource for Box<S> {
    fn next_box(&mut self) -> Blocks {
        (**self).next_box()
    }

    fn next_run(&mut self) -> BoxRun {
        (**self).next_run()
    }
}

/// A finite square profile, optionally extended by a filler box size.
///
/// Finite profiles arise from the recursive worst-case construction
/// M_{a,b}(n) and from square-approximating measured memory profiles. To use
/// one where an infinite profile is required, [`SquareProfile::cycle`] or
/// [`SquareProfile::extended`] lift it to a [`BoxSource`].
///
/// ```
/// use cadapt_core::{Potential, SquareProfile};
///
/// let profile = SquareProfile::new(vec![1, 4, 16])?;
/// assert_eq!(profile.total_time(), 21); // a box of size x lasts x I/Os
///
/// let rho = Potential::new(8, 4); // MM-Scan's ρ(x) = x^{3/2}
/// assert_eq!(profile.total_potential(&rho), 1.0 + 8.0 + 64.0);
/// // Eq. 2 caps each box at the problem size:
/// assert_eq!(profile.bounded_potential(&rho, 4), 1.0 + 8.0 + 8.0);
/// # Ok::<(), cadapt_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SquareProfile {
    boxes: Vec<Blocks>,
}

impl SquareProfile {
    /// Build a profile from explicit box sizes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyBox`] if any box has size zero.
    pub fn new(boxes: Vec<Blocks>) -> Result<Self, CoreError> {
        if let Some(at) = boxes.iter().position(|&b| b == 0) {
            return Err(CoreError::EmptyBox { at });
        }
        Ok(SquareProfile { boxes })
    }

    /// Build a profile without checking box positivity.
    ///
    /// Intended for generators that guarantee positivity by construction.
    ///
    /// # Panics
    ///
    /// Debug builds assert every box is positive.
    #[must_use]
    pub fn from_boxes_unchecked(boxes: Vec<Blocks>) -> Self {
        debug_assert!(boxes.iter().all(|&b| b > 0), "boxes must be positive");
        SquareProfile { boxes }
    }

    /// The empty profile.
    #[must_use]
    pub fn empty() -> Self {
        SquareProfile { boxes: Vec::new() }
    }

    /// Number of boxes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the profile has no boxes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The box sizes.
    #[must_use]
    pub fn boxes(&self) -> &[Blocks] {
        &self.boxes
    }

    /// Consume the profile, returning its boxes.
    #[must_use]
    pub fn into_boxes(self) -> Vec<Blocks> {
        self.boxes
    }

    /// Total duration in I/Os: Σ |□_i| (a box of size x lasts x I/Os).
    #[must_use]
    pub fn total_time(&self) -> Io {
        self.boxes.iter().map(|&b| Io::from(b)).sum()
    }

    /// Total potential Σ ρ(|□_i|) under the given potential function.
    #[must_use]
    pub fn total_potential(&self, rho: &Potential) -> f64 {
        self.boxes.iter().map(|&b| rho.eval(b)).sum()
    }

    /// Total *n-bounded* potential Σ min(n, |□_i|)^{log_b a} (Eq. 2).
    #[must_use]
    pub fn bounded_potential(&self, rho: &Potential, n: Blocks) -> f64 {
        self.boxes.iter().map(|&b| rho.bounded(n, b)).sum()
    }

    /// Largest box in the profile (`None` when empty).
    #[must_use]
    pub fn max_box(&self) -> Option<Blocks> {
        self.boxes.iter().copied().max()
    }

    /// Smallest box in the profile (`None` when empty).
    #[must_use]
    pub fn min_box(&self) -> Option<Blocks> {
        self.boxes.iter().copied().min()
    }

    /// Append another profile's boxes.
    pub fn concat(&mut self, other: &SquareProfile) {
        self.boxes.extend_from_slice(&other.boxes);
    }

    /// Push one box (must be positive).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn push(&mut self, size: Blocks) {
        assert!(size > 0, "boxes must be positive");
        self.boxes.push(size);
    }

    /// Rotate the profile left by `k` boxes (cyclic shift at box
    /// granularity). Used by the start-time perturbation of §4: starting the
    /// algorithm at box k of the cyclic profile is the same as running it on
    /// `rotated_by_boxes(k)`.
    #[must_use]
    pub fn rotated_by_boxes(&self, k: usize) -> SquareProfile {
        if self.boxes.is_empty() {
            return self.clone();
        }
        let k = k % self.boxes.len();
        let mut boxes = Vec::with_capacity(self.boxes.len());
        boxes.extend_from_slice(&self.boxes[k..]);
        boxes.extend_from_slice(&self.boxes[..k]);
        SquareProfile { boxes }
    }

    /// Index of the box containing I/O timestamp `t` (0-based), i.e. the
    /// unique i with Σ_{j<i} |□_j| ≤ t < Σ_{j≤i} |□_j|; `None` if `t` is at
    /// or beyond the end of the profile.
    #[must_use]
    pub fn box_at_time(&self, t: Io) -> Option<usize> {
        let mut acc: Io = 0;
        for (i, &b) in self.boxes.iter().enumerate() {
            acc += Io::from(b);
            if t < acc {
                return Some(i);
            }
        }
        None
    }

    /// Rotate the profile so it starts at the box containing time `t` of the
    /// cyclic profile — the time-weighted variant of the start-time shift
    /// (a uniformly random `t` picks box i with probability |□_i| / Σ |□_j|).
    ///
    /// The shift happens at box granularity: square profiles are closed
    /// under box rotation but not under mid-box truncation.
    #[must_use]
    pub fn rotated_by_time(&self, t: Io) -> SquareProfile {
        let total = self.total_time();
        if total == 0 {
            return self.clone();
        }
        let t = t % total;
        // cadapt-lint: allow(panic-reach) -- invariant: t < total_time after the modulo, so a box always exists
        let idx = self.box_at_time(t).expect("t reduced modulo total time");
        self.rotated_by_boxes(idx)
    }

    /// Lift to an infinite [`BoxSource`] by repeating the profile forever.
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty (an empty profile cannot be cycled).
    #[must_use]
    pub fn cycle(&self) -> CycleSource<&[Blocks]> {
        assert!(!self.boxes.is_empty(), "cannot cycle an empty profile");
        CycleSource {
            boxes: &self.boxes,
            pos: 0,
        }
    }

    /// [`cycle`](Self::cycle) started at the box containing time `t` of
    /// the cyclic profile: the box stream of `rotated_by_time(t).cycle()`,
    /// without copying the profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty.
    #[must_use]
    pub fn cycle_at_time(&self, t: Io) -> CycleSource<&[Blocks]> {
        let mut source = self.cycle();
        // t is reduced modulo the (positive) total time, so a box exists.
        source.pos = self.box_at_time(t % self.total_time()).unwrap_or(0);
        source
    }

    /// The owning form of [`cycle`](Self::cycle), for a profile built per
    /// use (one random profile per Monte-Carlo trial, say).
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty.
    #[must_use]
    pub fn into_cycle(self) -> CycleSource<Vec<Blocks>> {
        assert!(!self.boxes.is_empty(), "cannot cycle an empty profile");
        CycleSource {
            boxes: self.boxes,
            pos: 0,
        }
    }

    /// Lift to an infinite [`BoxSource`] by appending `filler`-sized boxes
    /// after the profile is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `filler == 0`.
    #[must_use]
    pub fn extended(&self, filler: Blocks) -> ExtendedSource<'_> {
        assert!(filler > 0, "filler box must be positive");
        ExtendedSource {
            boxes: &self.boxes,
            pos: 0,
            filler,
        }
    }

    /// Collect `count` boxes from a [`BoxSource`] into a finite profile.
    #[must_use]
    pub fn take_from<S: BoxSource>(source: &mut S, count: usize) -> SquareProfile {
        let mut boxes = Vec::with_capacity(count);
        for _ in 0..count {
            boxes.push(source.next_box());
        }
        SquareProfile { boxes }
    }
}

impl FromIterator<Blocks> for SquareProfile {
    /// Collects boxes; panics (in debug) on zero-sized boxes.
    fn from_iter<T: IntoIterator<Item = Blocks>>(iter: T) -> Self {
        SquareProfile::from_boxes_unchecked(iter.into_iter().collect())
    }
}

/// Infinite source cycling over a finite profile's boxes, borrowed
/// (`B = &[Blocks]`, [`SquareProfile::cycle`]) or owned (`B =
/// Vec<Blocks>`, [`SquareProfile::into_cycle`]).
#[derive(Debug, Clone)]
pub struct CycleSource<B> {
    boxes: B,
    pos: usize,
}

impl<B: AsRef<[Blocks]>> BoxSource for CycleSource<B> {
    fn next_box(&mut self) -> Blocks {
        let boxes = self.boxes.as_ref();
        let b = boxes[self.pos];
        self.pos = (self.pos + 1) % boxes.len();
        b
    }

    fn next_run(&mut self) -> BoxRun {
        // A maximal run of equal boxes from the current position, not
        // crossing the end of the stored boxes (the next call continues
        // from there).
        let boxes = self.boxes.as_ref();
        let b = boxes[self.pos];
        let run = boxes[self.pos..].iter().take_while(|&&x| x == b).count();
        self.pos = (self.pos + run) % boxes.len();
        BoxRun {
            size: b,
            repeat: crate::cast::u64_from_usize(run),
        }
    }
}

/// Infinite source that plays a finite profile then a constant filler.
/// See [`SquareProfile::extended`].
#[derive(Debug, Clone)]
pub struct ExtendedSource<'a> {
    boxes: &'a [Blocks],
    pos: usize,
    filler: Blocks,
}

impl BoxSource for ExtendedSource<'_> {
    fn next_box(&mut self) -> Blocks {
        match self.boxes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                b
            }
            None => self.filler,
        }
    }

    fn next_run(&mut self) -> BoxRun {
        match self.boxes.get(self.pos) {
            Some(&b) => {
                let run = self.boxes[self.pos..]
                    .iter()
                    .take_while(|&&x| x == b)
                    .count();
                self.pos += run;
                BoxRun {
                    size: b,
                    repeat: crate::cast::u64_from_usize(run),
                }
            }
            // Once in the filler tail, it's this size forever.
            None => BoxRun {
                size: self.filler,
                repeat: u64::MAX,
            },
        }
    }
}

/// A source producing one constant box size forever (a "point mass" profile).
#[derive(Debug, Clone, Copy)]
pub struct ConstantSource {
    size: Blocks,
}

impl ConstantSource {
    /// Boxes of fixed `size` forever.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(size: Blocks) -> Self {
        assert!(size > 0, "boxes must be positive");
        ConstantSource { size }
    }
}

impl BoxSource for ConstantSource {
    fn next_box(&mut self) -> Blocks {
        self.size
    }

    fn next_run(&mut self) -> BoxRun {
        BoxRun {
            size: self.size,
            repeat: u64::MAX,
        }
    }
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    fn profile(v: &[Blocks]) -> SquareProfile {
        SquareProfile::new(v.to_vec()).unwrap()
    }

    #[test]
    fn rejects_zero_boxes() {
        assert_eq!(
            SquareProfile::new(vec![4, 0, 2]),
            Err(CoreError::EmptyBox { at: 1 })
        );
    }

    #[test]
    fn totals() {
        let p = profile(&[1, 4, 16]);
        assert_eq!(p.total_time(), 21);
        let rho = Potential::new(8, 4);
        // 1 + 8 + 64
        assert_eq!(p.total_potential(&rho), 73.0);
        // bounded at n = 4: 1 + 8 + 8
        assert_eq!(p.bounded_potential(&rho, 4), 17.0);
    }

    #[test]
    fn min_max() {
        let p = profile(&[3, 9, 1]);
        assert_eq!(p.max_box(), Some(9));
        assert_eq!(p.min_box(), Some(1));
        assert_eq!(SquareProfile::empty().max_box(), None);
    }

    #[test]
    fn rotation_by_boxes() {
        let p = profile(&[1, 2, 3, 4]);
        assert_eq!(p.rotated_by_boxes(0).boxes(), &[1, 2, 3, 4]);
        assert_eq!(p.rotated_by_boxes(1).boxes(), &[2, 3, 4, 1]);
        assert_eq!(p.rotated_by_boxes(4).boxes(), &[1, 2, 3, 4]);
        assert_eq!(p.rotated_by_boxes(6).boxes(), &[3, 4, 1, 2]);
    }

    #[test]
    fn rotation_preserves_multiset_and_time() {
        let p = profile(&[5, 1, 7, 2, 2]);
        for k in 0..10 {
            let r = p.rotated_by_boxes(k);
            assert_eq!(r.total_time(), p.total_time());
            let mut a = r.boxes().to_vec();
            let mut b = p.boxes().to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn box_at_time_boundaries() {
        let p = profile(&[2, 3, 1]);
        assert_eq!(p.box_at_time(0), Some(0));
        assert_eq!(p.box_at_time(1), Some(0));
        assert_eq!(p.box_at_time(2), Some(1));
        assert_eq!(p.box_at_time(4), Some(1));
        assert_eq!(p.box_at_time(5), Some(2));
        assert_eq!(p.box_at_time(6), None);
    }

    #[test]
    fn rotation_by_time() {
        let p = profile(&[2, 3, 1]);
        assert_eq!(p.rotated_by_time(0).boxes(), &[2, 3, 1]);
        assert_eq!(p.rotated_by_time(2).boxes(), &[3, 1, 2]);
        assert_eq!(p.rotated_by_time(5).boxes(), &[1, 2, 3]);
        // wraps modulo total time
        assert_eq!(p.rotated_by_time(6).boxes(), &[2, 3, 1]);
    }

    #[test]
    fn cycle_source_repeats() {
        let p = profile(&[1, 2]);
        let mut s = p.cycle();
        let drawn: Vec<_> = (0..5).map(|_| s.next_box()).collect();
        assert_eq!(drawn, vec![1, 2, 1, 2, 1]);
    }

    #[test]
    fn extended_source_fills() {
        let p = profile(&[3, 4]);
        let mut s = p.extended(9);
        let drawn: Vec<_> = (0..4).map(|_| s.next_box()).collect();
        assert_eq!(drawn, vec![3, 4, 9, 9]);
    }

    #[test]
    fn take_from_collects() {
        let mut c = ConstantSource::new(5);
        let p = SquareProfile::take_from(&mut c, 3);
        assert_eq!(p.boxes(), &[5, 5, 5]);
    }

    #[test]
    fn mut_ref_is_source() {
        fn draw<S: BoxSource>(s: S) -> Blocks {
            let mut s = s;
            s.next_box()
        }
        let mut c = ConstantSource::new(2);
        assert_eq!(draw(&mut c), 2);
        assert_eq!(draw(&mut c), 2);
    }

    #[test]
    fn concat_and_push() {
        let mut p = profile(&[1]);
        p.push(2);
        p.concat(&profile(&[3, 4]));
        assert_eq!(p.boxes(), &[1, 2, 3, 4]);
    }

    #[test]
    fn constant_source_run_is_infinite() {
        let mut c = ConstantSource::new(6);
        let run = c.next_run();
        assert_eq!(
            run,
            BoxRun {
                size: 6,
                repeat: u64::MAX
            }
        );
        // Mixing per-box and run calls is fine.
        assert_eq!(c.next_box(), 6);
    }

    #[test]
    fn cycle_source_runs_match_boxes() {
        let p = profile(&[2, 2, 2, 5, 1, 1]);
        let mut by_run = p.cycle();
        let mut by_box = p.cycle();
        let mut expanded = Vec::new();
        while expanded.len() < 12 {
            let run = by_run.next_run();
            assert!(run.repeat >= 1);
            for _ in 0..run.repeat {
                expanded.push(run.size);
            }
        }
        let direct: Vec<_> = (0..expanded.len()).map(|_| by_box.next_box()).collect();
        assert_eq!(expanded, direct);
    }

    #[test]
    fn extended_source_runs_match_boxes_and_tail_is_infinite() {
        let p = profile(&[3, 3, 4]);
        let mut s = p.extended(9);
        assert_eq!(s.next_run(), BoxRun { size: 3, repeat: 2 });
        assert_eq!(s.next_run(), BoxRun { size: 4, repeat: 1 });
        assert_eq!(
            s.next_run(),
            BoxRun {
                size: 9,
                repeat: u64::MAX
            }
        );
    }

    #[test]
    fn default_next_run_is_single_box() {
        /// A source that implements only `next_box`.
        struct Counting(Blocks);
        impl BoxSource for Counting {
            fn next_box(&mut self) -> Blocks {
                self.0 += 1;
                self.0
            }
        }
        let mut s = Counting(6);
        assert_eq!(s.next_run(), BoxRun { size: 7, repeat: 1 });
        assert_eq!(s.next_run(), BoxRun { size: 8, repeat: 1 });
    }

    /// Expand `boxes` boxes of a source through a mix of run and per-box
    /// calls (a run cut at the end is truncated).
    fn drain_mixed<S: BoxSource>(s: &mut S, boxes: usize) -> Vec<Blocks> {
        let mut out = Vec::new();
        while out.len() < boxes {
            if out.len() % 3 == 0 {
                out.push(s.next_box());
            } else {
                let run = s.next_run();
                let take = usize::try_from(run.repeat).unwrap_or(usize::MAX);
                out.extend(std::iter::repeat_n(run.size, take.min(boxes - out.len())));
            }
        }
        out
    }

    #[test]
    fn owned_and_borrowed_cycles_agree() {
        let p = profile(&[4, 4, 1, 9, 9, 9, 4]);
        let borrowed = drain_mixed(&mut p.cycle(), 40);
        let owned = drain_mixed(&mut p.clone().into_cycle(), 40);
        assert_eq!(owned, borrowed);
        let per_box: Vec<_> = {
            let mut s = p.cycle();
            (0..40).map(|_| s.next_box()).collect()
        };
        assert_eq!(borrowed, per_box);
    }
}
