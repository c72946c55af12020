//! Box-size distributions Σ for the smoothing theorem (Theorem 1/3).
//!
//! The paper's main positive result: for *any* distribution Σ over
//! (sufficiently large) box sizes, a sequence of boxes drawn i.i.d. from Σ
//! makes every (a, b, 1)-regular algorithm with a > b cache-adaptive in
//! expectation. The experiments therefore sweep a deliberately diverse
//! family — point masses, uniform, power-of-b uniform, heavy-tailed Pareto,
//! log-uniform, and (the headline case) the *empirical multiset of the
//! adversarial worst-case profile itself*, reshuffled.
//!
//! Two sampling modes matter:
//! * [`DistSource`] — i.i.d. draws (the theorem's hypothesis);
//! * [`PermutationSource`] — a without-replacement random permutation of a
//!   finite profile's boxes ("random reshuffle"); the ablation comparing
//!   the two is described in DESIGN.md.

use cadapt_core::{Blocks, BoxRun, BoxSource, SquareProfile};
use rand::distributions::{Distribution, Uniform};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Upper bound on how far ahead a source that draws its boxes one by one
/// (i.i.d. or size-perturbed) looks when detecting a run of equal boxes.
/// Bounds the latency of one `next_run` call and keeps degenerate
/// distributions (a point mass samples equal forever) from looping; the
/// consumer just sees the run split into cap-sized pieces.
const RUN_LOOKAHEAD_CAP: u64 = 65_536;

/// Shared run detection for sources whose boxes are drawn one by one:
/// take the buffered box (or draw one), then keep drawing while the boxes
/// stay equal, buffering the first mismatch into `pending`. `draw` is
/// called in exactly the order per-box sampling would call it, so the
/// concatenation of runs reproduces the per-box stream draw for draw; a
/// source's `next_box` must hand out `pending` before drawing.
pub(crate) fn run_with_lookahead(
    pending: &mut Option<Blocks>,
    mut draw: impl FnMut() -> Blocks,
) -> BoxRun {
    let size = pending.take().unwrap_or_else(&mut draw);
    let mut repeat = 1u64;
    while repeat < RUN_LOOKAHEAD_CAP {
        let next = draw();
        if next != size {
            *pending = Some(next);
            break;
        }
        repeat += 1;
    }
    BoxRun { size, repeat }
}

/// A distribution over box sizes.
///
/// Object-safe so experiment configs can hold heterogeneous lists of
/// distributions (`Box<dyn BoxDist>`).
pub trait BoxDist: Send + Sync {
    /// Draw one box size (always ≥ 1).
    fn sample(&self, rng: &mut dyn RngCore) -> Blocks;

    /// Human-readable label for tables.
    fn label(&self) -> String;

    /// The discrete support as (size, probability) pairs, if this
    /// distribution is exactly discrete with small support. Used by the
    /// Lemma-3 recurrence engine to compute expectations in closed form.
    fn discrete_support(&self) -> Option<Vec<(Blocks, f64)>> {
        None
    }
}

/// A borrowed distribution is a distribution, so one [`DistSource`] type
/// serves both concrete and `&dyn BoxDist` (heterogeneous list) uses.
impl<D: BoxDist + ?Sized> BoxDist for &D {
    fn sample(&self, rng: &mut dyn RngCore) -> Blocks {
        (**self).sample(rng)
    }

    fn label(&self) -> String {
        (**self).label()
    }

    fn discrete_support(&self) -> Option<Vec<(Blocks, f64)>> {
        (**self).discrete_support()
    }
}

/// Every box has the same size.
#[derive(Debug, Clone, Copy)]
pub struct PointMass {
    /// The constant box size.
    pub size: Blocks,
}

impl BoxDist for PointMass {
    fn sample(&self, _rng: &mut dyn RngCore) -> Blocks {
        self.size
    }

    fn label(&self) -> String {
        format!("point({})", self.size)
    }

    fn discrete_support(&self) -> Option<Vec<(Blocks, f64)>> {
        Some(vec![(self.size, 1.0)])
    }
}

/// Uniform over the integer range [lo, hi].
#[derive(Debug, Clone, Copy)]
pub struct UniformBoxes {
    /// Smallest box size (≥ 1).
    pub lo: Blocks,
    /// Largest box size (≥ lo).
    pub hi: Blocks,
}

impl UniformBoxes {
    /// Uniform over [lo, hi].
    ///
    /// # Panics
    ///
    /// Panics unless 1 ≤ lo ≤ hi.
    #[must_use]
    pub fn new(lo: Blocks, hi: Blocks) -> Self {
        assert!(lo >= 1 && lo <= hi, "need 1 <= lo <= hi");
        UniformBoxes { lo, hi }
    }
}

impl BoxDist for UniformBoxes {
    fn sample(&self, rng: &mut dyn RngCore) -> Blocks {
        Uniform::new_inclusive(self.lo, self.hi).sample(rng)
    }

    fn label(&self) -> String {
        format!("uniform[{}, {}]", self.lo, self.hi)
    }
}

/// Uniform over powers of b: {b^k_lo, …, b^k_hi} (each exponent equally
/// likely). The natural "canonical sizes" distribution of §4.
#[derive(Debug, Clone, Copy)]
pub struct PowerOfB {
    /// The base b (≥ 2).
    pub b: u64,
    /// Smallest exponent.
    pub k_lo: u32,
    /// Largest exponent.
    pub k_hi: u32,
}

impl PowerOfB {
    /// Uniform over {b^k : k_lo ≤ k ≤ k_hi}.
    ///
    /// # Panics
    ///
    /// Panics unless b ≥ 2 and k_lo ≤ k_hi.
    #[must_use]
    pub fn new(b: u64, k_lo: u32, k_hi: u32) -> Self {
        assert!(b >= 2 && k_lo <= k_hi, "need b >= 2 and k_lo <= k_hi");
        PowerOfB { b, k_lo, k_hi }
    }
}

impl BoxDist for PowerOfB {
    fn sample(&self, rng: &mut dyn RngCore) -> Blocks {
        let k = Uniform::new_inclusive(self.k_lo, self.k_hi).sample(rng);
        self.b.pow(k)
    }

    fn label(&self) -> String {
        format!("pow{}[{}..{}]", self.b, self.k_lo, self.k_hi)
    }

    fn discrete_support(&self) -> Option<Vec<(Blocks, f64)>> {
        let count = (self.k_hi - self.k_lo + 1) as usize;
        let p = 1.0 / count as f64;
        Some(
            (self.k_lo..=self.k_hi)
                .map(|k| (self.b.pow(k), p))
                .collect(),
        )
    }
}

/// Discretised Pareto (heavy tail): P(X ≥ x) = (x_min/x)^α, capped at
/// `cap`. Small α gives occasional enormous boxes — the regime where the
/// smoothing theorem's "any distribution" claim is most surprising.
#[derive(Debug, Clone, Copy)]
pub struct ParetoBoxes {
    /// Tail exponent α > 0.
    pub alpha: f64,
    /// Scale (smallest value).
    pub x_min: Blocks,
    /// Upper cap to keep sizes finite.
    pub cap: Blocks,
}

impl ParetoBoxes {
    /// Pareto(α, x_min) capped at `cap`.
    ///
    /// # Panics
    ///
    /// Panics unless α > 0 and 1 ≤ x_min ≤ cap.
    #[must_use]
    pub fn new(alpha: f64, x_min: Blocks, cap: Blocks) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(x_min >= 1 && x_min <= cap, "need 1 <= x_min <= cap");
        ParetoBoxes { alpha, x_min, cap }
    }
}

impl BoxDist for ParetoBoxes {
    // The f64→u64 cast saturates by design; the clamp below is the contract.
    #[allow(clippy::cast_possible_truncation)]
    fn sample(&self, rng: &mut dyn RngCore) -> Blocks {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let x = self.x_min as f64 / u.powf(1.0 / self.alpha);
        (x.round() as u64).clamp(self.x_min, self.cap)
    }

    fn label(&self) -> String {
        format!(
            "pareto(α={}, min={}, cap={})",
            self.alpha, self.x_min, self.cap
        )
    }
}

/// Log-uniform over [lo, hi]: exp(U[ln lo, ln hi]), rounded. Equal mass per
/// size *scale*.
#[derive(Debug, Clone, Copy)]
pub struct LogUniform {
    /// Smallest box size (≥ 1).
    pub lo: Blocks,
    /// Largest box size (≥ lo).
    pub hi: Blocks,
}

impl LogUniform {
    /// Log-uniform over [lo, hi].
    ///
    /// # Panics
    ///
    /// Panics unless 1 ≤ lo ≤ hi.
    #[must_use]
    pub fn new(lo: Blocks, hi: Blocks) -> Self {
        assert!(lo >= 1 && lo <= hi, "need 1 <= lo <= hi");
        LogUniform { lo, hi }
    }
}

impl BoxDist for LogUniform {
    // The f64→u64 cast saturates by design; the clamp below is the contract.
    #[allow(clippy::cast_possible_truncation)]
    fn sample(&self, rng: &mut dyn RngCore) -> Blocks {
        let (llo, lhi) = ((self.lo as f64).ln(), (self.hi as f64).ln());
        let v = if llo < lhi {
            rng.gen_range(llo..lhi)
        } else {
            llo
        };
        (v.exp().round() as u64).clamp(self.lo, self.hi)
    }

    fn label(&self) -> String {
        format!("loguniform[{}, {}]", self.lo, self.hi)
    }
}

/// Discrete power law over powers of b: Pr[|□| = b^k] ∝ b^{−α·k} for
/// k ∈ [k_lo, k_hi]. A heavy-tailed distribution with an exact discrete
/// support, so the Lemma-3 recurrence engine can consume it directly —
/// the recurrence-friendly sibling of [`ParetoBoxes`].
#[derive(Debug, Clone)]
pub struct PowerLawBoxes {
    b: u64,
    k_lo: u32,
    k_hi: u32,
    alpha: f64,
    /// Cumulative probabilities per exponent offset.
    cumulative: Vec<f64>,
}

impl PowerLawBoxes {
    /// Power law with tail exponent α > 0 over {b^k_lo, …, b^k_hi}.
    ///
    /// # Panics
    ///
    /// Panics unless b ≥ 2, k_lo ≤ k_hi, and α > 0.
    #[must_use]
    pub fn new(b: u64, k_lo: u32, k_hi: u32, alpha: f64) -> Self {
        assert!(b >= 2 && k_lo <= k_hi, "need b >= 2 and k_lo <= k_hi");
        assert!(alpha > 0.0, "alpha must be positive");
        let weights: Vec<f64> = (k_lo..=k_hi)
            .map(|k| (b as f64).powf(-alpha * f64::from(k - k_lo)))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        PowerLawBoxes {
            b,
            k_lo,
            k_hi,
            alpha,
            cumulative,
        }
    }
}

impl BoxDist for PowerLawBoxes {
    fn sample(&self, rng: &mut dyn RngCore) -> Blocks {
        let u: f64 = rng.gen_range(0.0..1.0);
        let idx = self.cumulative.partition_point(|&c| c <= u);
        let k = self.k_lo + cadapt_core::cast::u32_from_usize(idx.min(self.cumulative.len() - 1));
        self.b.pow(k)
    }

    fn label(&self) -> String {
        format!("powerlaw(b={}, α={}, k≤{})", self.b, self.alpha, self.k_hi)
    }

    fn discrete_support(&self) -> Option<Vec<(Blocks, f64)>> {
        let mut prev = 0.0;
        Some(
            (self.k_lo..=self.k_hi)
                .zip(&self.cumulative)
                .map(|(k, &c)| {
                    let p = c - prev;
                    prev = c;
                    (self.b.pow(k), p)
                })
                .collect(),
        )
    }
}

/// The empirical distribution of a (possibly astronomically large) box
/// multiset, given as (size, count) pairs — i.i.d. draws proportional to
/// counts. Built from
/// [`WorstCase::box_multiset`](crate::WorstCase::box_multiset), this is the
/// "reshuffle the adversary's own profile" smoothing of the paper's title
/// result, in its i.i.d. form.
#[derive(Debug, Clone)]
pub struct EmpiricalMultiset {
    sizes: Vec<Blocks>,
    /// Cumulative counts, for weighted sampling.
    cumulative: Vec<u128>,
    total: u128,
    label: String,
}

impl EmpiricalMultiset {
    /// Build from (size, count) pairs.
    ///
    /// # Panics
    ///
    /// Panics if the multiset is empty or any count is zero.
    #[must_use]
    pub fn from_counts(counts: &[(Blocks, u128)], label: impl Into<String>) -> Self {
        assert!(!counts.is_empty(), "multiset must be non-empty");
        let mut sizes = Vec::with_capacity(counts.len());
        let mut cumulative = Vec::with_capacity(counts.len());
        let mut total: u128 = 0;
        for &(size, count) in counts {
            assert!(count > 0, "counts must be positive");
            assert!(size > 0, "boxes must be positive");
            total += count;
            sizes.push(size);
            cumulative.push(total);
        }
        EmpiricalMultiset {
            sizes,
            cumulative,
            total,
            label: label.into(),
        }
    }
}

impl BoxDist for EmpiricalMultiset {
    fn sample(&self, rng: &mut dyn RngCore) -> Blocks {
        // Uniform u128 in [0, total) via rejection-free modulo of a wide
        // draw (the bias for totals << 2^128 is negligible and the
        // experiments only need faithful proportions).
        let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        let target = wide % self.total;
        let idx = self.cumulative.partition_point(|&c| c <= target);
        self.sizes[idx]
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn discrete_support(&self) -> Option<Vec<(Blocks, f64)>> {
        let mut prev = 0u128;
        Some(
            self.sizes
                .iter()
                .zip(&self.cumulative)
                .map(|(&s, &c)| {
                    let p = (c - prev) as f64 / self.total as f64;
                    prev = c;
                    (s, p)
                })
                .collect(),
        )
    }
}

/// An infinite [`BoxSource`] drawing i.i.d. from a [`BoxDist`].
#[derive(Debug)]
pub struct DistSource<D, R> {
    dist: D,
    rng: R,
    /// One-draw lookahead buffer for run detection (see
    /// [`run_with_lookahead`]).
    pending: Option<Blocks>,
}

impl<D: BoxDist, R: RngCore> DistSource<D, R> {
    /// i.i.d. boxes from `dist` using `rng`.
    pub fn new(dist: D, rng: R) -> Self {
        DistSource {
            dist,
            rng,
            pending: None,
        }
    }
}

impl<D: BoxDist, R: RngCore> BoxSource for DistSource<D, R> {
    fn next_box(&mut self) -> Blocks {
        self.pending
            .take()
            .unwrap_or_else(|| self.dist.sample(&mut self.rng))
    }

    fn next_run(&mut self) -> BoxRun {
        run_with_lookahead(&mut self.pending, || self.dist.sample(&mut self.rng))
    }
}

/// Without-replacement random reshuffle of a finite profile: one random
/// permutation per period, a fresh permutation each time the boxes run out.
#[derive(Debug)]
pub struct PermutationSource<R> {
    boxes: Vec<Blocks>,
    pos: usize,
    rng: R,
}

impl<R: Rng> PermutationSource<R> {
    /// Shuffled replay of `profile`'s boxes.
    ///
    /// # Panics
    ///
    /// Panics if the profile is empty.
    pub fn new(profile: &SquareProfile, mut rng: R) -> Self {
        assert!(!profile.is_empty(), "cannot shuffle an empty profile");
        let mut boxes = profile.boxes().to_vec();
        boxes.shuffle(&mut rng);
        PermutationSource { boxes, pos: 0, rng }
    }
}

impl<R: Rng> BoxSource for PermutationSource<R> {
    fn next_box(&mut self) -> Blocks {
        if self.pos == self.boxes.len() {
            self.boxes.shuffle(&mut self.rng);
            self.pos = 0;
        }
        let b = self.boxes[self.pos];
        self.pos += 1;
        b
    }

    fn next_run(&mut self) -> BoxRun {
        // Equal boxes that land adjacent in the shuffle survive as a run
        // (common when the profile is dominated by one size, e.g. the
        // worst-case multiset, which is mostly min-size leaves). Never
        // reads past the current permutation: the reshuffle happens lazily
        // on the next call, exactly as in `next_box`.
        if self.pos == self.boxes.len() {
            self.boxes.shuffle(&mut self.rng);
            self.pos = 0;
        }
        let size = self.boxes[self.pos];
        let run = self.boxes[self.pos..]
            .iter()
            .take_while(|&&x| x == size)
            .count() as u64;
        self.pos += cadapt_core::cast::usize_from_u64(run);
        BoxRun { size, repeat: run }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(12345)
    }

    #[test]
    fn point_mass_is_constant() {
        let d = PointMass { size: 42 };
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 42);
        }
        assert_eq!(d.discrete_support(), Some(vec![(42, 1.0)]));
    }

    #[test]
    fn uniform_stays_in_range_and_covers_it() {
        let d = UniformBoxes::new(3, 6);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((3..=6).contains(&x));
            seen.insert(x);
        }
        assert_eq!(seen.len(), 4, "all four values should appear in 1000 draws");
    }

    #[test]
    fn power_of_b_support() {
        let d = PowerOfB::new(4, 1, 3);
        let mut r = rng();
        for _ in 0..200 {
            let x = d.sample(&mut r);
            assert!([4, 16, 64].contains(&x));
        }
        let support = d.discrete_support().unwrap();
        assert_eq!(support.len(), 3);
        let total: f64 = support.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_respects_bounds_and_has_tail() {
        let d = ParetoBoxes::new(1.2, 4, 1 << 20);
        let mut r = rng();
        let draws: Vec<_> = (0..5000).map(|_| d.sample(&mut r)).collect();
        assert!(draws.iter().all(|&x| (4..=(1 << 20)).contains(&x)));
        // Heavy tail: some draw should exceed 16x the minimum.
        assert!(draws.iter().any(|&x| x > 64));
        // But the median stays near the minimum.
        let mut sorted = draws.clone();
        sorted.sort_unstable();
        assert!(sorted[sorted.len() / 2] < 16);
    }

    #[test]
    fn log_uniform_bounds() {
        let d = LogUniform::new(2, 2048);
        let mut r = rng();
        for _ in 0..2000 {
            let x = d.sample(&mut r);
            assert!((2..=2048).contains(&x));
        }
        // Degenerate range.
        let d = LogUniform::new(5, 5);
        assert_eq!(d.sample(&mut r), 5);
    }

    #[test]
    fn power_law_support_and_proportions() {
        let d = PowerLawBoxes::new(4, 0, 3, 1.0);
        let support = d.discrete_support().unwrap();
        assert_eq!(support.len(), 4);
        let total: f64 = support.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // α = 1, b = 4: weights 1, 1/4, 1/16, 1/64 — Pr[1] = 64/85.
        assert!((support[0].1 - 64.0 / 85.0).abs() < 1e-12);
        assert_eq!(support[3].0, 64);
        // Sampling matches proportions roughly.
        let mut r = rng();
        let draws = 20_000;
        let small = (0..draws).filter(|_| d.sample(&mut r) == 1).count();
        let frac = small as f64 / draws as f64;
        assert!((frac - 64.0 / 85.0).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn power_law_samples_stay_in_support() {
        let d = PowerLawBoxes::new(2, 2, 6, 0.5);
        let mut r = rng();
        for _ in 0..500 {
            let x = d.sample(&mut r);
            assert!([4u64, 8, 16, 32, 64].contains(&x));
        }
    }

    #[test]
    fn empirical_multiset_proportions() {
        // 3/4 of the mass on size 1, 1/4 on size 8.
        let d = EmpiricalMultiset::from_counts(&[(1, 3), (8, 1)], "test");
        let mut r = rng();
        let draws = 40_000;
        let ones = (0..draws).filter(|_| d.sample(&mut r) == 1).count();
        let frac = ones as f64 / draws as f64;
        assert!((frac - 0.75).abs() < 0.02, "got {frac}");
        let support = d.discrete_support().unwrap();
        assert_eq!(support[0], (1, 0.75));
        assert_eq!(support[1], (8, 0.25));
    }

    #[test]
    fn empirical_from_profile() {
        // Built from the adversary's box multiset, as E2 builds it, the
        // distribution carries the size frequencies of the materialised
        // profile.
        let wc = crate::WorstCase::new(8, 4, 1, 2).unwrap();
        let d = EmpiricalMultiset::from_counts(&wc.box_multiset(), "wc");
        let profile = wc.materialize();
        let mut tally = std::collections::BTreeMap::<Blocks, u128>::new();
        for &b in profile.boxes() {
            *tally.entry(b).or_insert(0) += 1;
        }
        let total = profile.boxes().len() as f64;
        let want: Vec<(Blocks, f64)> = tally
            .into_iter()
            .map(|(size, count)| (size, count as f64 / total))
            .collect();
        assert_eq!(d.discrete_support().unwrap(), want);
    }

    #[test]
    fn huge_counts_do_not_overflow() {
        // Counts near u128 scale (the worst-case multiset for deep trees).
        let d = EmpiricalMultiset::from_counts(&[(1, u128::from(u64::MAX)), (1 << 30, 1)], "huge");
        let mut r = rng();
        for _ in 0..100 {
            let x = d.sample(&mut r);
            assert!(x == 1 || x == 1 << 30);
        }
    }

    #[test]
    fn permutation_source_preserves_multiset_per_period() {
        let p = SquareProfile::new(vec![1, 2, 3, 4, 5]).unwrap();
        let mut s = PermutationSource::new(&p, rng());
        let mut first: Vec<_> = (0..5).map(|_| s.next_box()).collect();
        let mut second: Vec<_> = (0..5).map(|_| s.next_box()).collect();
        first.sort_unstable();
        second.sort_unstable();
        assert_eq!(first, vec![1, 2, 3, 4, 5]);
        assert_eq!(second, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn permutation_actually_shuffles() {
        let boxes: Vec<Blocks> = (1..=100).collect();
        let p = SquareProfile::new(boxes.clone()).unwrap();
        let mut s = PermutationSource::new(&p, rng());
        let drawn: Vec<_> = (0..100).map(|_| s.next_box()).collect();
        assert_ne!(
            drawn, boxes,
            "a 100-element shuffle equal to identity is ~impossible"
        );
    }

    #[test]
    fn dist_source_draws_from_dist() {
        let mut s = DistSource::new(PointMass { size: 9 }, rng());
        assert_eq!(s.next_box(), 9);
    }

    #[test]
    fn dyn_dist_source_works() {
        let dist: Box<dyn BoxDist> = Box::new(PointMass { size: 3 });
        let mut s = DistSource::new(dist.as_ref(), rng());
        assert_eq!(s.next_box(), 3);
    }

    #[test]
    fn dist_source_runs_concatenate_to_boxes() {
        // Small support so equal draws are frequent and runs form.
        let dist = PowerOfB::new(2, 0, 1);
        let mut per_box = DistSource::new(dist, rng());
        let boxes: Vec<Blocks> = (0..4000).map(|_| per_box.next_box()).collect();
        let mut by_run = DistSource::new(dist, rng());
        let mut expanded = Vec::new();
        let mut multi = 0;
        while expanded.len() < boxes.len() {
            let run = by_run.next_run();
            assert!(run.repeat >= 1);
            if run.repeat > 1 {
                multi += 1;
            }
            for _ in 0..run.repeat.min((boxes.len() - expanded.len()) as u64) {
                expanded.push(run.size);
            }
        }
        assert_eq!(expanded, boxes);
        assert!(multi > 0, "a two-point support must produce some runs");
    }

    #[test]
    fn dist_source_mixed_run_and_box_calls_preserve_stream() {
        let dist = PowerOfB::new(2, 0, 1);
        let mut per_box = DistSource::new(dist, rng());
        let boxes: Vec<Blocks> = (0..200).map(|_| per_box.next_box()).collect();
        // Alternate next_run / next_box: the pending buffer must hand the
        // lookahead draw to next_box.
        let mut mixed = DistSource::new(dist, rng());
        let mut expanded = Vec::new();
        while expanded.len() < boxes.len() {
            let run = mixed.next_run();
            for _ in 0..run.repeat.min((boxes.len() - expanded.len()) as u64) {
                expanded.push(run.size);
            }
            if expanded.len() < boxes.len() {
                expanded.push(mixed.next_box());
            }
        }
        assert_eq!(expanded, boxes);
    }

    #[test]
    fn point_mass_runs_are_capped_not_infinite() {
        let mut s = DistSource::new(PointMass { size: 7 }, rng());
        let run = s.next_run();
        assert_eq!(run.size, 7);
        assert_eq!(run.repeat, super::RUN_LOOKAHEAD_CAP);
    }

    #[test]
    fn permutation_source_runs_concatenate_to_boxes() {
        // Mostly one size, so adjacent equal boxes survive the shuffle.
        let mut raw = vec![1u64; 60];
        raw.extend([8, 8, 64]);
        let p = SquareProfile::new(raw).unwrap();
        let mut per_box = PermutationSource::new(&p, rng());
        let boxes: Vec<Blocks> = (0..2 * p.len()).map(|_| per_box.next_box()).collect();
        let mut by_run = PermutationSource::new(&p, rng());
        let mut expanded = Vec::new();
        let mut multi = 0;
        while expanded.len() < boxes.len() {
            let run = by_run.next_run();
            assert!(run.repeat >= 1);
            if run.repeat > 1 {
                multi += 1;
            }
            for _ in 0..run.repeat.min((boxes.len() - expanded.len()) as u64) {
                expanded.push(run.size);
            }
        }
        assert_eq!(expanded, boxes);
        assert!(multi > 0, "a 60-of-63 majority size must yield runs");
    }

    #[test]
    fn labels_are_distinct_and_informative() {
        assert_eq!(PointMass { size: 4 }.label(), "point(4)");
        assert!(UniformBoxes::new(1, 9).label().contains('9'));
        assert!(PowerOfB::new(4, 0, 5).label().starts_with("pow4"));
        assert!(ParetoBoxes::new(2.0, 1, 100).label().contains("pareto"));
    }
}
