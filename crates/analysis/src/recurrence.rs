//! The Lemma 3 stopping-time recurrence, coded.
//!
//! For an (a, b, 1)-regular algorithm under the §4 simplified model
//! (base-case size 1, box sizes drawn i.i.d. from a discrete Σ), Lemma 3
//! expresses f(n) — the expected number of boxes to complete a problem of
//! size n — in terms of f(n/b):
//!
//! ```text
//!   p     = Pr[|□| ≥ n] · f(n/b)
//!   f(n)  = Σ_{i=1}^{a} (1 − p)^{i−1} · f(n/b)          (subproblems)
//!         + (1 − p)^a · K_scan(n)                        (final scan)
//! ```
//!
//! where K_scan(n), the expected boxes to complete a scan of length n in
//! isolation, satisfies the paper's renewal bound
//! `n ≤ E[K_scan] · E[min(|□|, n)] ≤ 2n − 1`. The scan term is therefore an
//! interval, and [`RecurrenceBounds`] propagates rigorous lower/upper
//! bounds through the recursion. Cache-adaptivity in expectation (Eq. 3)
//! then reads: f(n) ≤ O(n^{log_b a}) / m_n, i.e. the **predicted ratio**
//! f(n) · m_n / n^{log_b a} is O(1).
//!
//! Experiment E6 compares these bounds against the Monte-Carlo measurement
//! of the same quantities.

use cadapt_core::{Blocks, CoreError, Potential};
use cadapt_profiles::dist::BoxDist;

/// A discrete box-size distribution with explicit probabilities — the form
/// the recurrence engine consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteSigma {
    /// (size, probability) pairs, sizes strictly increasing, probabilities
    /// summing to 1.
    support: Vec<(Blocks, f64)>,
}

impl DiscreteSigma {
    /// Build from (size, probability) pairs.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if the support is empty, sizes are
    /// not strictly increasing/positive, any probability is not in (0, 1],
    /// or the probabilities do not sum to 1 (±1e-9).
    pub fn new(mut support: Vec<(Blocks, f64)>) -> Result<Self, CoreError> {
        let invalid = |message: String| CoreError::InvalidParameter {
            name: "support",
            message,
        };
        if support.is_empty() {
            return Err(invalid("support must be non-empty".into()));
        }
        support.sort_by_key(|&(s, _)| s);
        let mut total = 0.0;
        let mut prev = 0;
        for &(size, p) in &support {
            if size == 0 {
                return Err(invalid("box sizes must be positive".into()));
            }
            if size == prev {
                return Err(invalid(format!("duplicate size {size}")));
            }
            prev = size;
            if !(p > 0.0 && p <= 1.0) {
                return Err(invalid(format!("probability {p} out of (0, 1]")));
            }
            total += p;
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(invalid(format!("probabilities sum to {total}, not 1")));
        }
        Ok(DiscreteSigma { support })
    }

    /// From any [`BoxDist`] that exposes a discrete support.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if the distribution has no discrete
    /// support or the support is malformed.
    pub fn from_dist(dist: &dyn BoxDist) -> Result<Self, CoreError> {
        let support = dist.discrete_support().ok_or(CoreError::InvalidParameter {
            name: "dist",
            message: format!("{} has no discrete support", dist.label()),
        })?;
        DiscreteSigma::new(support)
    }

    /// The support.
    #[must_use]
    pub fn support(&self) -> &[(Blocks, f64)] {
        &self.support
    }

    /// Pr[|□| ≥ n].
    #[must_use]
    pub fn prob_at_least(&self, n: Blocks) -> f64 {
        self.support
            .iter()
            .filter(|&&(s, _)| s >= n)
            .map(|&(_, p)| p)
            .sum()
    }

    /// E[min(|□|, n)].
    #[must_use]
    pub fn expected_min(&self, n: Blocks) -> f64 {
        self.support.iter().map(|&(s, p)| p * s.min(n) as f64).sum()
    }

    /// m_n = E[min(|□|, n)^{log_b a}] — the average n-bounded potential.
    #[must_use]
    pub fn average_bounded_potential(&self, rho: &Potential, n: Blocks) -> f64 {
        self.support
            .iter()
            .map(|&(s, p)| p * rho.bounded(n, s))
            .sum()
    }
}

/// Rigorous lower/upper bounds on the Lemma 3 quantities at one problem
/// size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecurrenceBounds {
    /// Problem size n.
    pub n: Blocks,
    /// Lower bound on f(n).
    pub f_lo: f64,
    /// Upper bound on f(n).
    pub f_hi: f64,
    /// Lower bound on f′(n) — the expected boxes to complete the problem
    /// *without* its final scan (the subproblem term of Lemma 3): the
    /// quantity Eq. 7 inducts on.
    pub f_prime_lo: f64,
    /// Upper bound on f′(n).
    pub f_prime_hi: f64,
    /// m_n, the average n-bounded potential.
    pub m_n: f64,
    /// Predicted expected adaptivity-ratio interval: f(n) · m_n / n^e.
    pub ratio_lo: f64,
    /// Upper end of the predicted ratio interval.
    pub ratio_hi: f64,
}

impl RecurrenceBounds {
    /// The Eq. 8 factor f(n)/f′(n) at this level — how much the final scan
    /// inflates the stopping time — evaluated within the upper-bound chain
    /// (f_hi and f′_hi are computed from the same recurrence trajectory,
    /// so their ratio tracks the true inflation rather than compounding
    /// interval slop).
    #[must_use]
    pub fn scan_inflation_hi(&self) -> f64 {
        // cadapt-lint: allow(float-eq) -- sentinel: exact 0.0 denominator; division guard returning infinity
        if self.f_prime_hi == 0.0 {
            return f64::INFINITY;
        }
        self.f_hi / self.f_prime_hi
    }

    /// As [`RecurrenceBounds::scan_inflation_hi`], in the lower-bound chain.
    #[must_use]
    pub fn scan_inflation_lo(&self) -> f64 {
        // cadapt-lint: allow(float-eq) -- sentinel: exact 0.0 denominator; division guard returning infinity
        if self.f_prime_lo == 0.0 {
            return f64::INFINITY;
        }
        self.f_lo / self.f_prime_lo
    }
}

/// Evaluate the recurrence bottom-up for problem sizes 1, b, b², …, b^K.
///
/// ```
/// use cadapt_analysis::recurrence::{recurrence_bounds, DiscreteSigma};
///
/// // Σ = point mass at 64: any problem of size ≤ 64 finishes in one box.
/// let sigma = DiscreteSigma::new(vec![(64, 1.0)])?;
/// let bounds = recurrence_bounds(8, 4, &sigma, 3);
/// let at_64 = bounds.last().unwrap();
/// assert_eq!(at_64.n, 64);
/// assert!((at_64.f_lo - 1.0).abs() < 1e-9);
/// assert!((at_64.f_hi - 1.0).abs() < 1e-9);
/// # Ok::<(), cadapt_core::CoreError>(())
/// ```
///
/// Assumes the §4 conventions: base-case size 1, c = 1, scans at the end.
/// Works for any discrete Σ (box sizes need not be powers of b; the
/// simplified model rounds jumps down to canonical sizes, which only
/// tightens the true f(n) towards `f_hi`). Accepts any a ≥ 1, b ≥ 2.
#[must_use]
pub fn recurrence_bounds(
    a: u64,
    b: u64,
    sigma: &DiscreteSigma,
    max_level: u32,
) -> Vec<RecurrenceBounds> {
    let rho = Potential::new(a, b);
    let mut out = Vec::with_capacity(max_level as usize + 1);
    // Base case: any box (size ≥ 1) completes a size-1 problem.
    let mut f_lo = 1.0;
    let mut f_hi = 1.0;
    let m_1 = sigma.average_bounded_potential(&rho, 1);
    out.push(RecurrenceBounds {
        n: 1,
        f_lo,
        f_hi,
        f_prime_lo: 1.0,
        f_prime_hi: 1.0,
        m_n: m_1,
        ratio_lo: f_lo * m_1,
        ratio_hi: f_hi * m_1,
    });
    let mut n: Blocks = 1;
    for _ in 1..=max_level {
        // cadapt-lint: allow(panic-reach) -- deliberate loud overflow guard: a wrapped size would corrupt the bound tables
        n = n.checked_mul(b).expect("problem size overflows u64");
        let p_ge = sigma.prob_at_least(n);
        // p = Pr[|□| ≥ n] · f(n/b), clamped into [0, 1] (it is a genuine
        // probability, q, in the exact analysis).
        let p_lo = (p_ge * f_lo).clamp(0.0, 1.0);
        let p_hi = (p_ge * f_hi).clamp(0.0, 1.0);
        // Subproblem term: Σ_{i=1}^{a} (1 − p)^{i−1} f(n/b); decreasing
        // in p, so lower bound pairs f_lo with p_hi and vice versa.
        // a is a branching factor (single digits in every preset), so the
        // exponent casts to i32 cannot overflow.
        #[allow(clippy::cast_possible_truncation)]
        let geom = |p: f64| -> f64 { (0..a).map(|i| (1.0 - p).powi(i as i32)).sum() };
        let sub_lo = geom(p_hi) * f_lo;
        let sub_hi = geom(p_lo) * f_hi;
        // Scan term: (1 − p)^a · K_scan with n ≤ K_scan · E[min] ≤ 2n − 1.
        let e_min = sigma.expected_min(n);
        #[allow(clippy::cast_possible_truncation)]
        let scan_lo = (1.0 - p_hi).powi(a as i32) * (n as f64 / e_min);
        #[allow(clippy::cast_possible_truncation)]
        let scan_hi = (1.0 - p_lo).powi(a as i32) * ((2 * n - 1) as f64 / e_min);
        f_lo = sub_lo + scan_lo;
        f_hi = sub_hi + scan_hi;
        let m_n = sigma.average_bounded_potential(&rho, n);
        let req = rho.eval(n);
        out.push(RecurrenceBounds {
            n,
            f_lo,
            f_hi,
            // f′(n) is exactly the subproblem term of Lemma 3.
            f_prime_lo: sub_lo,
            f_prime_hi: sub_hi,
            m_n,
            ratio_lo: f_lo * m_n / req,
            ratio_hi: f_hi * m_n / req,
        });
    }
    out
}

/// The Equation 6 diagnostic at one level: the paper's candidate induction
/// step `f(n)/f(n/b) ≤ b^e · m_{n/b}/m_n` — which *can fail* (the scan term
/// can inflate f(n)), which is exactly why the proof needs the scanless
/// f′(n) (Eq. 7) and the telescoping product bound (Eq. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Equation6Check {
    /// Problem size n (the step compares n against n/b).
    pub n: Blocks,
    /// The measured (or recurrence) ratio f(n)/f(n/b).
    pub growth: f64,
    /// The Eq. 6 right-hand side b^e · m_{n/b} / m_n.
    pub bound: f64,
}

impl Equation6Check {
    /// growth / bound: ≤ 1 means the naive induction step holds here.
    #[must_use]
    pub fn margin(&self) -> f64 {
        self.growth / self.bound
    }

    /// Does the naive induction step hold at this level?
    #[must_use]
    pub fn holds(&self) -> bool {
        self.margin() <= 1.0 + 1e-9
    }
}

/// Evaluate the Eq. 6 diagnostic for a sequence of per-level expected box
/// counts `f[k] ≈ f(b^k)` (measured or analytic), k = 0 ..= K.
///
/// # Panics
///
/// Panics if fewer than two levels are supplied.
#[must_use]
pub fn equation6_checks(
    a: u64,
    b: u64,
    sigma: &DiscreteSigma,
    f_by_level: &[f64],
) -> Vec<Equation6Check> {
    assert!(f_by_level.len() >= 2, "need at least two levels");
    let rho = Potential::new(a, b);
    let growth_factor = rho.eval(b); // b^e = a
    let mut out = Vec::with_capacity(f_by_level.len() - 1);
    let mut n: Blocks = 1;
    for k in 1..f_by_level.len() {
        // cadapt-lint: allow(panic-reach) -- deliberate loud overflow guard: a wrapped size would corrupt the bound tables
        n = n.checked_mul(b).expect("size overflow");
        let m_n = sigma.average_bounded_potential(&rho, n);
        let m_prev = sigma.average_bounded_potential(&rho, n / b);
        out.push(Equation6Check {
            n,
            growth: f_by_level[k] / f_by_level[k - 1], // cadapt-lint: allow(panic-reach) -- k ranges over 1..len, so k and k-1 both index f_by_level
            bound: growth_factor * m_prev / m_n,
        });
    }
    out
}

/// The Eq. 7 induction step at each level: f′(n)/f(n/b) ≤ b^e · m_{n/b}/m_n,
/// evaluated within the upper-bound chain (f′_hi over f_hi at the previous
/// level — a consistent trajectory, so the ratio tracks the true growth
/// instead of compounding interval slop). Unlike Eq. 6, the paper proves
/// this step *does* hold whenever f(n) is near the adaptivity boundary
/// (Eq. 9), because the troublesome final scan is excluded.
#[must_use]
pub fn equation7_checks(a: u64, b: u64, bounds: &[RecurrenceBounds]) -> Vec<Equation6Check> {
    let rho = Potential::new(a, b);
    let growth_factor = rho.eval(b);
    bounds
        .windows(2)
        .map(|w| {
            let (prev, cur) = (&w[0], &w[1]);
            Equation6Check {
                n: cur.n,
                growth: cur.f_prime_hi / prev.f_hi,
                bound: growth_factor * prev.m_n / cur.m_n,
            }
        })
        .collect()
}

/// The Eq. 8 quantity: Π_k f(b^k)/f′(b^k) — the aggregate inflation from
/// final scans across all levels — evaluated in each consistent bound
/// chain. The paper proves the true product is O(1); both chain estimates
/// converge with it, and callers assert a concrete cap.
#[must_use]
pub fn equation8_products(bounds: &[RecurrenceBounds]) -> (f64, f64) {
    let lo = bounds
        .iter()
        .skip(1) // the base case has no scan
        .map(RecurrenceBounds::scan_inflation_lo)
        .product();
    let hi = bounds
        .iter()
        .skip(1)
        .map(RecurrenceBounds::scan_inflation_hi)
        .product();
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_profiles::dist::{PointMass, PowerOfB};

    #[test]
    fn sigma_validation() {
        assert!(DiscreteSigma::new(vec![]).is_err());
        assert!(DiscreteSigma::new(vec![(0, 1.0)]).is_err());
        assert!(DiscreteSigma::new(vec![(1, 0.5), (1, 0.5)]).is_err());
        assert!(DiscreteSigma::new(vec![(1, 0.5), (2, 0.4)]).is_err());
        assert!(DiscreteSigma::new(vec![(1, 0.5), (2, 0.5)]).is_ok());
        // Unsorted input is sorted.
        let s = DiscreteSigma::new(vec![(4, 0.5), (1, 0.5)]).unwrap();
        assert_eq!(s.support()[0].0, 1);
    }

    #[test]
    fn sigma_moments() {
        let s = DiscreteSigma::new(vec![(1, 0.5), (16, 0.5)]).unwrap();
        assert!((s.prob_at_least(1) - 1.0).abs() < 1e-12);
        assert!((s.prob_at_least(2) - 0.5).abs() < 1e-12);
        assert!((s.prob_at_least(17) - 0.0).abs() < 1e-12);
        assert!((s.expected_min(4) - (0.5 + 2.0)).abs() < 1e-12);
        let rho = Potential::new(8, 4);
        // m_4 = 0.5·1 + 0.5·8.
        assert!((s.average_bounded_potential(&rho, 4) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn from_dist_uses_discrete_support() {
        let d = PowerOfB::new(4, 0, 2);
        let s = DiscreteSigma::from_dist(&d).unwrap();
        assert_eq!(s.support().len(), 3);
    }

    #[test]
    fn point_mass_of_problem_size_gives_one_box() {
        // Σ = point mass at n: every problem of size ≤ n finishes in one
        // box, so f(n) = 1 and the ratio is m_n/n^e = 1 at size n.
        let n = 64u64;
        let sigma = DiscreteSigma::from_dist(&PointMass { size: n }).unwrap();
        let bounds = recurrence_bounds(8, 4, &sigma, 3);
        let at_n = bounds.last().unwrap();
        assert_eq!(at_n.n, 64);
        assert!((at_n.f_lo - 1.0).abs() < 1e-9, "f_lo = {}", at_n.f_lo);
        assert!((at_n.f_hi - 1.0).abs() < 1e-9, "f_hi = {}", at_n.f_hi);
        assert!((at_n.ratio_lo - 1.0).abs() < 1e-9);
    }

    #[test]
    fn point_mass_small_boxes_ratio_is_constant() {
        // Σ = point mass at 1: every box completes one leaf or one scan
        // access. f(n) = total time = Θ(n^{3/2}), m_n = 1, and the ratio
        // f(n)/n^{3/2} stays bounded: point-mass profiles are adaptive.
        let sigma = DiscreteSigma::from_dist(&PointMass { size: 1 }).unwrap();
        let bounds = recurrence_bounds(8, 4, &sigma, 8);
        for w in bounds.windows(2).skip(1) {
            // Ratio bounds must not grow with n.
            assert!(
                w[1].ratio_hi <= w[0].ratio_hi * 1.05 + 0.5,
                "ratio_hi grew: {} -> {}",
                w[0].ratio_hi,
                w[1].ratio_hi
            );
        }
        let last = bounds.last().unwrap();
        assert!(last.ratio_hi < 4.0, "ratio_hi = {}", last.ratio_hi);
        assert!(last.ratio_lo >= 0.9, "ratio_lo = {}", last.ratio_lo);
    }

    #[test]
    fn bounds_are_ordered_and_positive() {
        let sigma = DiscreteSigma::from_dist(&PowerOfB::new(4, 0, 6)).unwrap();
        for (a, b) in [(8u64, 4u64), (7, 4), (3, 2), (16, 4)] {
            let bounds = recurrence_bounds(a, b, &sigma, 8);
            for rb in &bounds {
                assert!(rb.f_lo > 0.0);
                assert!(rb.f_lo <= rb.f_hi + 1e-9, "f bounds crossed at n={}", rb.n);
                assert!(rb.ratio_lo <= rb.ratio_hi + 1e-9);
            }
        }
    }

    #[test]
    fn equation8_telescoping_for_small_box_point_mass() {
        // Σ = point(1): f(n) = T(n) = 8 f(n/4) + n, so the Eq. 6 margin at
        // every level is 1 + n/(8 f(n/4)) — *always* slightly violated,
        // with the excess shrinking geometrically. This is precisely the
        // situation Eq. 8 handles: the product of the margins (the
        // aggregate effect of all scans) stays bounded by a constant.
        let sigma = DiscreteSigma::from_dist(&PointMass { size: 1 }).unwrap();
        // f(4^k) = T(4^k) for (8,4,1) with base 1.
        let mut f = vec![1.0];
        let mut n = 1u64;
        for _ in 1..=10 {
            n *= 4;
            f.push(8.0 * f.last().unwrap() + n as f64);
        }
        let checks = equation6_checks(8, 4, &sigma, &f);
        // Every level individually violates Eq. 6…
        assert!(checks.iter().all(|c| !c.holds()));
        // …by a margin that strictly shrinks towards 1…
        for w in checks.windows(2) {
            assert!(w[1].margin() < w[0].margin());
        }
        // …and whose telescoping product (Eq. 8's quantity) is O(1).
        let product: f64 = checks.iter().map(Equation6Check::margin).product();
        assert!(product < 4.0, "telescoped margin product {product}");
    }

    #[test]
    fn equation6_can_fail_while_adaptivity_holds() {
        // The paper's §4 caveat, exhibited concretely: Σ = point(n₀) with
        // n₀ mid-range. At n = b·n₀ the subproblems finish in one box each
        // but the scan needs b more — f jumps by a + b = 12 while the
        // Eq. 6 bound is only b^e = 8. Yet the Eq. 3 ratio stays bounded:
        // exactly the situation that forces the paper's detour through
        // f′(n) and the telescoping product (Eqs. 7–8).
        let n0 = 64u64;
        let sigma = DiscreteSigma::from_dist(&PointMass { size: n0 }).unwrap();
        let levels = 6u32;
        let bounds = recurrence_bounds(8, 4, &sigma, levels);
        // Analytic f for the simplified model under point(n₀):
        // n ≤ n₀ → 1 box; n = 4n₀ → 8 subproblems + scan 4n₀/n₀ = 12; and
        // f(4^j n₀) = 8 f(4^{j-1} n₀) + 4^j.
        let mut f = vec![1.0, 1.0, 1.0, 1.0]; // n = 1, 4, 16, 64
        f.push(8.0 + 4.0); // n = 256
        f.push(8.0 * f[4] + 16.0); // n = 1024
        f.push(8.0 * f[5] + 64.0); // n = 4096
        let checks = equation6_checks(8, 4, &sigma, &f);
        let violated: Vec<_> = checks.iter().filter(|c| !c.holds()).collect();
        assert!(
            !violated.is_empty(),
            "expected an Eq. 6 violation at the n₀ → 4n₀ step"
        );
        // The violating step is the first one past n₀.
        assert!(violated.iter().any(|c| c.n == 4 * n0));
        // …and yet the recurrence's Eq. 3 ratio prediction stays bounded.
        let max_ratio = bounds.iter().map(|b| b.ratio_hi).fold(0.0, f64::max);
        assert!(max_ratio < 8.0, "ratio exploded: {max_ratio}");
    }

    #[test]
    fn theorem_one_prediction_ratio_bounded_for_mixed_sigma() {
        // Theorem 1: ratios stay O(1) as n grows, for any Σ. Check the
        // recurrence prediction stays bounded over 10 levels for a
        // deliberately awkward two-point distribution.
        let sigma = DiscreteSigma::new(vec![(1, 0.9), (4096, 0.1)]).unwrap();
        let bounds = recurrence_bounds(8, 4, &sigma, 10);
        let max_hi = bounds.iter().map(|b| b.ratio_hi).fold(0.0, f64::max);
        assert!(max_hi < 16.0, "predicted ratio exploded: {max_hi}");
    }

    #[test]
    fn f_prime_excludes_the_scan() {
        // Σ = point(1): f(n) = 8 f(n/4) + n and f′(n) = 8 f(n/4) exactly.
        let sigma = DiscreteSigma::from_dist(&PointMass { size: 1 }).unwrap();
        let bounds = recurrence_bounds(8, 4, &sigma, 6);
        for w in bounds.windows(2) {
            let (prev, cur) = (&w[0], &w[1]);
            assert!((cur.f_prime_lo - 8.0 * prev.f_lo).abs() < 1e-6);
            assert!((cur.f_lo - (cur.f_prime_lo + cur.n as f64)).abs() < 1e-6);
        }
    }

    #[test]
    fn equation7_holds_where_equation6_fails() {
        // point(1) violates every Eq. 6 step (see the telescoping test),
        // but the scanless Eq. 7 step holds at every level: the paper's
        // reason for inducting on f′.
        let sigma = DiscreteSigma::from_dist(&PointMass { size: 1 }).unwrap();
        let bounds = recurrence_bounds(8, 4, &sigma, 10);
        let checks = equation7_checks(8, 4, &bounds);
        assert!(
            checks.iter().all(Equation6Check::holds),
            "margins: {:?}",
            checks
                .iter()
                .map(Equation6Check::margin)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn equation8_products_are_bounded_constants() {
        for dist_support in [
            vec![(1u64, 1.0)],
            vec![(1, 0.5), (256, 0.5)],
            vec![(1, 0.9), (4096, 0.1)],
        ] {
            let sigma = DiscreteSigma::new(dist_support.clone()).unwrap();
            let bounds = recurrence_bounds(8, 4, &sigma, 12);
            let (lo, hi) = equation8_products(&bounds);
            assert!(lo >= 1.0 - 1e-9, "{dist_support:?}: lo {lo}");
            assert!(hi < 8.0, "{dist_support:?}: hi {hi}");
            assert!(lo <= hi + 1e-9);
        }
    }
}
