//! The weak smoothings of §4 — perturbations that do **not** close the gap.
//!
//! The paper's negative results: the worst-case profile M_{a,b}(n) stays
//! worst-case in expectation under
//!
//! 1. **box-size perturbation** — multiply every box by an independent
//!    X_i drawn from any distribution P over [0, t] with E\[X\] = Θ(t),
//!    t ≤ √n ([`SizePerturbedSource`]);
//! 2. **start-time perturbation** — run the algorithm from a uniformly
//!    random start position of the cyclic profile ([`random_cyclic_shift`]);
//! 3. **box-order perturbation** — when constructing M_{a,b}(n)
//!    recursively, place the size-n box after *any* of the a recursive
//!    instances instead of always the last ([`BoxOrderPerturbedSource`]);
//!    the result is worst-case with probability one.
//!
//! Experiments E3–E5 measure the adaptivity ratio under each perturbation
//! and confirm the Θ(log_b n) growth persists, in contrast to the i.i.d.
//! smoothing of [`dist`](crate::dist).

use crate::dist::run_with_lookahead;
use crate::worst_case::WorstCase;
use cadapt_core::profile::CycleSource;
use cadapt_core::{Blocks, BoxRun, BoxSource, SquareProfile};
use rand::{Rng, RngCore};

/// A distribution over multiplicative perturbation factors X ∈ [0, t].
pub trait MultiplierDist: Send + Sync {
    /// Draw one factor (may be fractional; 0 is allowed — perturbed boxes
    /// are clamped to at least one block).
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Human-readable label.
    fn label(&self) -> String;
}

impl<M: MultiplierDist + ?Sized> MultiplierDist for &M {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (**self).sample(rng)
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

/// X ~ U[0, t]: the paper's canonical perturbation (E\[X\] = t/2 = Θ(t)).
#[derive(Debug, Clone, Copy)]
pub struct UniformMultiplier {
    /// Upper end of the factor range.
    pub t: f64,
}

impl MultiplierDist for UniformMultiplier {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        rng.gen_range(0.0..self.t)
    }

    fn label(&self) -> String {
        format!("U[0,{}]", self.t)
    }
}

/// X ∈ {1/s, 1, s} uniformly — a bounded constant-factor jiggle
/// (E\[X\] = Θ(1)); the "randomly tweaking the size of each box by a constant
/// factor" phrasing of the abstract.
#[derive(Debug, Clone, Copy)]
pub struct ConstantFactorJiggle {
    /// The scale s ≥ 1.
    pub s: f64,
}

impl MultiplierDist for ConstantFactorJiggle {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        match rng.gen_range(0u8..3) {
            0 => 1.0 / self.s,
            1 => 1.0,
            _ => self.s,
        }
    }

    fn label(&self) -> String {
        format!("jiggle(x{}/÷{})", self.s, self.s)
    }
}

/// Wraps a box source, multiplying every emitted box by an independent
/// draw from a [`MultiplierDist`] (clamped to ≥ 1 block).
pub struct SizePerturbedSource<S, M, R> {
    inner: S,
    mult: M,
    rng: R,
    /// One-box lookahead buffer for run detection (see
    /// [`run_with_lookahead`]).
    pending: Option<Blocks>,
}

impl<S, M, R> std::fmt::Debug for SizePerturbedSource<S, M, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizePerturbedSource")
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

impl<S: BoxSource, M: MultiplierDist, R: RngCore> SizePerturbedSource<S, M, R> {
    /// Perturb `inner`'s boxes with factors from `mult`.
    pub fn new(inner: S, mult: M, rng: R) -> Self {
        SizePerturbedSource {
            inner,
            mult,
            rng,
            pending: None,
        }
    }
}

/// `base · factor` rounded to whole blocks, clamped to [1, u64::MAX]. A
/// NaN product (a NaN factor, or 0 · ∞) fails both comparisons and clamps
/// to one block like any product below one.
// The f64→u64 cast is range-checked by the branches around it.
#[allow(clippy::cast_possible_truncation)]
fn perturb(base: Blocks, factor: f64) -> Blocks {
    let scaled = (base as f64 * factor).round();
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else if scaled >= 1.0 {
        scaled as u64
    } else {
        1
    }
}

impl<S: BoxSource, M: MultiplierDist, R: RngCore> BoxSource for SizePerturbedSource<S, M, R> {
    fn next_box(&mut self) -> Blocks {
        self.pending
            .take()
            .unwrap_or_else(|| perturb(self.inner.next_box(), self.mult.sample(&mut self.rng)))
    }

    // Every box gets its own multiplier draw, yet neighbours still come
    // out equal often: at t = 2 a unit leaf becomes 1 with probability ¾
    // and 2 with probability ¼, so adjacent leaves agree 62.5% of the
    // time. The lookahead draws box by box in `next_box`'s order.
    fn next_run(&mut self) -> BoxRun {
        run_with_lookahead(&mut self.pending, || {
            perturb(self.inner.next_box(), self.mult.sample(&mut self.rng))
        })
    }
}

/// Start-time perturbation: the cyclic version of a finite profile,
/// started at a uniformly random position at time granularity (so box i
/// becomes the start with probability proportional to |□_i|, matching a
/// uniformly random start *time*).
///
/// Two `next_u64` draws pick the time t; the cycle borrows `profile`, so a
/// shared memoised profile is never copied, and it yields the box stream
/// of `profile.rotated_by_time(t).cycle()`.
///
/// # Panics
///
/// Panics if the profile is empty.
pub fn random_cyclic_shift<'a, R: Rng>(
    profile: &'a SquareProfile,
    rng: &mut R,
) -> CycleSource<&'a [Blocks]> {
    let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
    profile.cycle_at_time(wide)
}

/// How the box-order perturbation picks the placement of each node's box.
pub trait PlacementChooser {
    /// After which child (1-based: 1 ..= a) the node's own box is emitted.
    fn choose(&mut self, level: u32, a: u64) -> u64;
}

/// Uniformly random placement per node (the §4 construction).
pub struct RandomPlacement<R>(pub R);

impl<R> std::fmt::Debug for RandomPlacement<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomPlacement").finish_non_exhaustive()
    }
}

impl<R: Rng> PlacementChooser for RandomPlacement<R> {
    fn choose(&mut self, _level: u32, a: u64) -> u64 {
        self.0.gen_range(1..=a)
    }
}

/// Always after the last child — recovers the canonical M_{a,b}.
#[derive(Debug, Clone, Copy)]
pub struct LastPlacement;

impl PlacementChooser for LastPlacement {
    fn choose(&mut self, _level: u32, _a: u64) -> u64 {
        u64::MAX // clamped to a by the generator
    }
}

/// Always after the first child — the most "misaligned" deterministic
/// variant (an adversarial chooser; §4's result covers these too).
#[derive(Debug, Clone, Copy)]
pub struct FirstPlacement;

impl PlacementChooser for FirstPlacement {
    fn choose(&mut self, _level: u32, _a: u64) -> u64 {
        1
    }
}

#[derive(Debug, Clone, Copy)]
struct OrderNode {
    level: u32,
    emitted: u64,
    /// After this many children, emit the node's own box.
    place_after: u64,
    own_emitted: bool,
}

/// The box-order-perturbed worst-case profile: like
/// [`WorstCase`] but each node's box lands after a chosen
/// child rather than after all of them. Cycles when exhausted.
pub struct BoxOrderPerturbedSource<C> {
    wc: WorstCase,
    chooser: C,
    stack: Vec<OrderNode>,
}

impl<C> std::fmt::Debug for BoxOrderPerturbedSource<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoxOrderPerturbedSource")
            .field("wc", &self.wc)
            .field("stack", &self.stack)
            .finish_non_exhaustive()
    }
}

impl<C: PlacementChooser> BoxOrderPerturbedSource<C> {
    /// Stream the perturbed profile for `wc`, placements drawn from
    /// `chooser`.
    pub fn new(wc: WorstCase, chooser: C) -> Self {
        BoxOrderPerturbedSource {
            wc,
            chooser,
            stack: Vec::new(),
        }
    }

    fn children(&self, level: u32) -> u64 {
        if level == 0 {
            0
        } else {
            self.wc.a()
        }
    }

    fn push_node(&mut self, level: u32) {
        let place_after = if level == 0 {
            0
        } else {
            self.chooser
                .choose(level, self.wc.a())
                .clamp(1, self.wc.a())
        };
        self.stack.push(OrderNode {
            level,
            emitted: 0,
            place_after,
            own_emitted: false,
        });
    }

    fn pop_node(&mut self) {
        self.stack.pop();
        if let Some(p) = self.stack.last_mut() {
            p.emitted += 1;
        }
    }
}

impl<C: PlacementChooser> BoxSource for BoxOrderPerturbedSource<C> {
    fn next_box(&mut self) -> Blocks {
        loop {
            if self.stack.is_empty() {
                let depth = self.wc.depth();
                self.push_node(depth);
            }
            // cadapt-lint: allow(panic-reach) -- invariant: the stack was just refilled if empty, so a top frame exists
            let top = *self.stack.last().expect("nonempty");
            let children = self.children(top.level);
            // Emit the node's own box once `place_after` children are done
            // (immediately for leaves, whose place_after is 0).
            if !top.own_emitted && top.emitted >= top.place_after {
                // cadapt-lint: allow(panic-reach) -- invariant: the stack was just refilled if empty, so a top frame exists
                self.stack.last_mut().expect("nonempty").own_emitted = true;
                let size = self.wc.box_at_level(top.level);
                if top.emitted == children {
                    self.pop_node();
                }
                return size;
            }
            if top.emitted == children {
                // All children done and own box already emitted.
                self.pop_node();
                continue;
            }
            self.push_node(top.level - 1);
        }
    }

    fn next_run(&mut self) -> BoxRun {
        loop {
            if self.stack.is_empty() {
                let depth = self.wc.depth();
                self.push_node(depth);
            }
            // cadapt-lint: allow(panic-reach) -- invariant: the stack was just refilled if empty, so a top frame exists
            let top = *self.stack.last().expect("nonempty");
            let children = self.children(top.level);
            if !top.own_emitted && top.emitted >= top.place_after {
                // cadapt-lint: allow(panic-reach) -- invariant: the stack was just refilled if empty, so a top frame exists
                self.stack.last_mut().expect("nonempty").own_emitted = true;
                let size = self.wc.box_at_level(top.level);
                if top.emitted == children {
                    self.pop_node();
                }
                return BoxRun { size, repeat: 1 };
            }
            if top.emitted == children {
                self.pop_node();
                continue;
            }
            if top.level == 1 {
                // The next children are leaves, emitted back to back until
                // either this node's own box interrupts (at place_after) or
                // the children run out. Leaves draw nothing from the
                // chooser, so jumping `emitted` forward reproduces the
                // per-box stream exactly.
                let until = if top.own_emitted {
                    children
                } else {
                    top.place_after
                };
                let repeat = until - top.emitted;
                // cadapt-lint: allow(panic-reach) -- invariant: the stack was just refilled if empty, so a top frame exists
                self.stack.last_mut().expect("nonempty").emitted = until;
                return BoxRun {
                    size: self.wc.box_at_level(0),
                    repeat,
                };
            }
            self.push_node(top.level - 1);
        }
    }
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_core::profile::ConstantSource;
    use cadapt_core::Potential;
    use cadapt_recursion::{run_on_profile, AbcParams, RunConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(999)
    }

    fn collect<S: BoxSource>(mut s: S, count: usize) -> Vec<Blocks> {
        (0..count).map(|_| s.next_box()).collect()
    }

    #[test]
    fn uniform_multiplier_range_and_mean() {
        let m = UniformMultiplier { t: 8.0 };
        let mut r = rng();
        let draws: Vec<f64> = (0..20_000).map(|_| m.sample(&mut r)).collect();
        assert!(draws.iter().all(|&x| (0.0..8.0).contains(&x)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 4.0).abs() < 0.1, "E[X] should be t/2, got {mean}");
    }

    #[test]
    fn jiggle_values() {
        let m = ConstantFactorJiggle { s: 2.0 };
        let mut r = rng();
        for _ in 0..100 {
            let x = m.sample(&mut r);
            assert!(x == 0.5 || x == 1.0 || x == 2.0);
        }
    }

    #[test]
    fn size_perturbation_clamps_to_one() {
        // A multiplier of ~0 must not produce zero-sized boxes.
        struct Zero;
        impl MultiplierDist for Zero {
            fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
                0.0
            }
            fn label(&self) -> String {
                "zero".into()
            }
        }
        let mut s = SizePerturbedSource::new(ConstantSource::new(100), Zero, rng());
        for _ in 0..10 {
            assert_eq!(s.next_box(), 1);
        }
    }

    #[test]
    fn nan_multiplier_clamps_to_one_block_and_the_run_completes() {
        struct NotANumber;
        impl MultiplierDist for NotANumber {
            fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
                f64::NAN
            }
            fn label(&self) -> String {
                "nan".into()
            }
        }
        let mut s = SizePerturbedSource::new(ConstantSource::new(4), NotANumber, rng());
        assert_eq!(s.next_box(), 1);
        assert_eq!(s.next_run().size, 1);
        let config = RunConfig::default();
        let params = AbcParams::mm_scan();
        let mut perturbed = SizePerturbedSource::new(ConstantSource::new(4), NotANumber, rng());
        let report = run_on_profile(params, 64, &mut perturbed, &config).expect("run completes");
        let ones = run_on_profile(params, 64, &mut ConstantSource::new(1), &config)
            .expect("run completes");
        assert_eq!(report.boxes_used, ones.boxes_used);
    }

    #[test]
    fn perturbed_sizes_saturate_at_both_ends() {
        assert_eq!(perturb(3, f64::INFINITY), u64::MAX);
        assert_eq!(perturb(u64::MAX, 2.0), u64::MAX);
        assert_eq!(perturb(0, f64::INFINITY), 1); // 0 · ∞ is NaN
        assert_eq!(perturb(3, -1.0), 1);
        assert_eq!(perturb(3, 0.5), 2); // 1.5 rounds half away from zero
    }

    #[test]
    fn size_perturbation_scales() {
        struct Double;
        impl MultiplierDist for Double {
            fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
                2.0
            }
            fn label(&self) -> String {
                "x2".into()
            }
        }
        let mut s = SizePerturbedSource::new(ConstantSource::new(7), Double, rng());
        assert_eq!(s.next_box(), 14);
    }

    #[test]
    fn cyclic_shift_preserves_multiset() {
        let p = SquareProfile::new(vec![3, 1, 4, 1, 5, 9, 2, 6]).unwrap();
        let mut r = rng();
        for _ in 0..10 {
            let mut a = collect(random_cyclic_shift(&p, &mut r), p.len());
            let mut b = p.boxes().to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn last_placement_recovers_canonical_worst_case() {
        let wc = WorstCase::new(3, 2, 1, 2).unwrap();
        let canonical = wc.materialize();
        let perturbed = collect(
            BoxOrderPerturbedSource::new(wc, LastPlacement),
            canonical.len(),
        );
        assert_eq!(perturbed, canonical.boxes());
    }

    #[test]
    fn first_placement_moves_big_boxes_early() {
        let wc = WorstCase::new(2, 2, 1, 2).unwrap();
        // Canonical: [1,1,2, 1,1,2, 4]. First-placement: the own box comes
        // after child 1: M'(4) = M'(2) [4] M'(2); M'(2) = [1] [2] [1].
        let boxes = collect(BoxOrderPerturbedSource::new(wc, FirstPlacement), 7);
        assert_eq!(boxes, vec![1, 2, 1, 4, 1, 2, 1]);
    }

    #[test]
    fn box_order_perturbation_preserves_multiset() {
        let wc = WorstCase::new(3, 2, 1, 3).unwrap();
        let count = wc.num_boxes() as usize;
        let mut random = collect(
            BoxOrderPerturbedSource::new(wc, RandomPlacement(rng())),
            count,
        );
        let mut canonical = wc.materialize().into_boxes();
        random.sort_unstable();
        canonical.sort_unstable();
        assert_eq!(random, canonical);
    }

    #[test]
    fn box_order_source_cycles() {
        let wc = WorstCase::new(2, 2, 1, 1).unwrap();
        let boxes = collect(BoxOrderPerturbedSource::new(wc, LastPlacement), 6);
        assert_eq!(&boxes[0..3], &boxes[3..6]);
    }

    #[test]
    fn box_order_runs_concatenate_to_boxes() {
        for depth in [0u32, 1, 3] {
            let wc = WorstCase::new(3, 2, 1, depth).unwrap();
            let count = (2 * wc.num_boxes()) as usize;
            let boxes = collect(
                BoxOrderPerturbedSource::new(wc, RandomPlacement(rng())),
                count,
            );
            let mut by_run = BoxOrderPerturbedSource::new(wc, RandomPlacement(rng()));
            let mut expanded = Vec::new();
            while expanded.len() < boxes.len() {
                let run = by_run.next_run();
                assert!(run.repeat >= 1);
                for _ in 0..run.repeat.min((boxes.len() - expanded.len()) as u64) {
                    expanded.push(run.size);
                }
            }
            assert_eq!(expanded, boxes, "depth {depth}");
        }
    }

    #[test]
    fn box_order_leaf_runs_split_at_placement() {
        // a = 4, placement after child 2: leaves come as runs of 2 and 2
        // around the node's own box.
        struct SecondPlacement;
        impl PlacementChooser for SecondPlacement {
            fn choose(&mut self, _level: u32, _a: u64) -> u64 {
                2
            }
        }
        let wc = WorstCase::new(4, 2, 1, 1).unwrap();
        let mut s = BoxOrderPerturbedSource::new(wc, SecondPlacement);
        assert_eq!(s.next_run(), BoxRun { size: 1, repeat: 2 });
        assert_eq!(s.next_run(), BoxRun { size: 2, repeat: 1 });
        assert_eq!(s.next_run(), BoxRun { size: 1, repeat: 2 });
    }

    #[test]
    fn perturbed_profile_total_potential_unchanged_in_expectation_shape() {
        // Multiset preservation implies identical potential sums.
        let wc = WorstCase::new(3, 2, 1, 4).unwrap();
        let rho = Potential::new(3, 2);
        let count = wc.num_boxes() as usize;
        let boxes = collect(
            BoxOrderPerturbedSource::new(wc, RandomPlacement(rng())),
            count,
        );
        let perturbed = SquareProfile::new(boxes).unwrap();
        let canonical = wc.materialize();
        assert!((perturbed.total_potential(&rho) - canonical.total_potential(&rho)).abs() < 1e-9);
    }
}
