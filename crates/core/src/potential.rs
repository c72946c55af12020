//! The box potential ρ(x) = x^{log_b a} of Lemma 1, and the *n-bounded*
//! potential min(n, x)^{log_b a} that drives the optimality condition.
//!
//! For an (a, b, c)-regular algorithm with a > b and c = 1, Lemma 1 of the
//! paper shows the maximum progress a box of size x can ever make is
//! Θ(x^{log_b a}). The efficiently-cache-adaptive condition (Eq. 2) sums the
//! n-bounded potential over all boxes consumed:
//!
//! ```text
//!     Σ_i min(n, |□_i|)^{log_b a}  ≤  O(n^{log_b a}).
//! ```
//!
//! [`Potential`] caches the exponent e = log_b a and evaluates both forms.
//! Exponents are generally irrational (e.g. Strassen's log_4 7 ≈ 1.4037), so
//! evaluation is in `f64`; for the common case of x a power of b we take an
//! exact integer-exponent path that avoids `powf` rounding.

use crate::Blocks;

/// Evaluator for ρ(x) = x^e with e = log_b a, plus the n-bounded variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Potential {
    a: u64,
    b: u64,
    exponent: f64,
}

impl Potential {
    /// Build the potential function for an (a, b, ·)-regular algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` or `b < 2` — those never describe an
    /// (a, b, c)-regular algorithm (Definition 2 requires b > 1).
    #[must_use]
    pub fn new(a: u64, b: u64) -> Self {
        assert!(a >= 1, "branching factor a must be at least 1");
        assert!(b >= 2, "shrink factor b must exceed 1");
        Potential {
            a,
            b,
            exponent: (a as f64).ln() / (b as f64).ln(),
        }
    }

    /// The branching factor a.
    #[must_use]
    pub fn a(&self) -> u64 {
        self.a
    }

    /// The problem-shrink factor b.
    #[must_use]
    pub fn b(&self) -> u64 {
        self.b
    }

    /// The exponent e = log_b a. For MM-Scan (8, 4) this is 3/2.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// ρ(x) = x^{log_b a}.
    ///
    /// Exact (up to `f64` representation of the result) when `x` is a power
    /// of b: x = b^k gives ρ(x) = a^k, computed by integer exponentiation.
    #[must_use]
    pub fn eval(&self, x: Blocks) -> f64 {
        if x == 0 {
            return 0.0;
        }
        if let Some(k) = exact_log(self.b, x) {
            return pow_u64_f64(self.a, k);
        }
        (x as f64).powf(self.exponent)
    }

    /// The n-bounded potential min(n, x)^{log_b a} from Eq. 2.
    #[must_use]
    pub fn bounded(&self, n: Blocks, x: Blocks) -> f64 {
        self.eval(x.min(n))
    }

    /// The total progress an (a, b, 1)-regular algorithm must make on a
    /// problem of size n: Θ(n^{log_b a}) — the right-hand side of Eq. 1.
    #[must_use]
    pub fn required_progress(&self, n: Blocks) -> f64 {
        self.eval(n)
    }
}

/// If `x` is exactly `base^k`, return `k`.
#[must_use]
pub fn exact_log(base: u64, x: u64) -> Option<u32> {
    debug_assert!(base >= 2);
    if x == 0 {
        return None;
    }
    let mut v = 1u64;
    let mut k = 0u32;
    while v < x {
        v = v.checked_mul(base)?;
        k += 1;
    }
    (v == x).then_some(k)
}

/// `base^k` as f64, via u128 when it fits (exact), falling back to powi.
fn pow_u64_f64(base: u64, k: u32) -> f64 {
    let mut acc: u128 = 1;
    for _ in 0..k {
        match acc.checked_mul(u128::from(base)) {
            Some(v) => acc = v,
            None => return (base as f64).powi(crate::cast::i32_from_u32(k)),
        }
    }
    acc as f64
}

/// Largest power of `base` that is ≤ `x` (requires `x ≥ 1`).
#[must_use]
pub fn floor_power(base: u64, x: u64) -> u64 {
    debug_assert!(base >= 2);
    assert!(x >= 1, "floor_power of zero is undefined");
    let mut v = 1u64;
    loop {
        match v.checked_mul(base) {
            Some(next) if next <= x => v = next,
            _ => return v,
        }
    }
}

/// Smallest power of `base` that is ≥ `x` (requires `x ≥ 1`).
#[must_use]
pub fn ceil_power(base: u64, x: u64) -> u64 {
    debug_assert!(base >= 2);
    assert!(x >= 1, "ceil_power of zero is undefined");
    let mut v = 1u64;
    while v < x {
        // cadapt-lint: allow(panic-reach) -- deliberate loud overflow guard: a wrapped power would corrupt box geometry
        v = v.checked_mul(base).expect("ceil_power overflow");
    }
    v
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_scan_exponent_is_three_halves() {
        let p = Potential::new(8, 4);
        assert!((p.exponent() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn exact_power_path_matches_integer_math() {
        let p = Potential::new(8, 4);
        // ρ(4^k) = 8^k exactly.
        assert_eq!(p.eval(1), 1.0);
        assert_eq!(p.eval(4), 8.0);
        assert_eq!(p.eval(16), 64.0);
        assert_eq!(p.eval(4u64.pow(10)), 8f64.powi(10));
    }

    #[test]
    fn non_power_uses_powf_and_is_monotone() {
        let p = Potential::new(8, 4);
        let mut prev = 0.0;
        for x in 1..200u64 {
            let v = p.eval(x);
            assert!(v > prev, "potential must be strictly increasing");
            prev = v;
        }
    }

    #[test]
    fn bounded_caps_at_n() {
        let p = Potential::new(8, 4);
        assert_eq!(p.bounded(16, 64), p.eval(16));
        assert_eq!(p.bounded(64, 16), p.eval(16));
        assert_eq!(p.bounded(64, 64), p.eval(64));
    }

    #[test]
    fn zero_box_has_zero_potential() {
        let p = Potential::new(8, 4);
        assert_eq!(p.eval(0), 0.0);
        assert_eq!(p.bounded(10, 0), 0.0);
    }

    #[test]
    fn strassen_exponent() {
        let p = Potential::new(7, 4);
        assert!((p.exponent() - 7f64.ln() / 4f64.ln()).abs() < 1e-15);
        // log_4 7 ≈ 1.4037.
        assert!((p.exponent() - 1.4036774610288).abs() < 1e-10);
    }

    #[test]
    fn exact_log_detects_powers() {
        assert_eq!(exact_log(4, 1), Some(0));
        assert_eq!(exact_log(4, 4), Some(1));
        assert_eq!(exact_log(4, 64), Some(3));
        assert_eq!(exact_log(4, 5), None);
        assert_eq!(exact_log(4, 0), None);
        assert_eq!(exact_log(2, 1 << 62), Some(62));
    }

    #[test]
    fn floor_and_ceil_power() {
        assert_eq!(floor_power(4, 1), 1);
        assert_eq!(floor_power(4, 3), 1);
        assert_eq!(floor_power(4, 4), 4);
        assert_eq!(floor_power(4, 100), 64);
        assert_eq!(ceil_power(4, 1), 1);
        assert_eq!(ceil_power(4, 3), 4);
        assert_eq!(ceil_power(4, 5), 16);
        assert_eq!(ceil_power(4, 64), 64);
    }

    #[test]
    fn floor_power_handles_near_overflow() {
        // Must not overflow even when the next power would exceed u64::MAX.
        let x = u64::MAX;
        let fp = floor_power(2, x);
        assert_eq!(fp, 1u64 << 63);
    }

    #[test]
    #[should_panic(expected = "shrink factor")]
    fn rejects_b_one() {
        let _ = Potential::new(8, 1);
    }

    #[test]
    fn required_progress_matches_eval() {
        let p = Potential::new(8, 4);
        assert_eq!(p.required_progress(256), p.eval(256));
    }
}
