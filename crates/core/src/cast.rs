//! Checked integer conversions for accounting code.
//!
//! The accounting crates (`cadapt-core`, `cadapt-recursion`,
//! `cadapt-paging`) are forbidden from using bare `as` casts to integer
//! types (the `lossy-cast` rule of `cadapt-lint`): `as` wraps on overflow
//! and truncates float→int silently, and exact I/O / progress totals are
//! the property the paper's theorems and our golden records stand on.
//!
//! These helpers centralise the conversions instead. Each one panics
//! loudly when the value does not fit — in accounting code an overflowing
//! conversion means the totals are already wrong, so aborting beats
//! wrapping — and on 64-bit targets every integer helper compiles to a
//! no-op or a trivially-predictable compare, so the hot cursor paths pay
//! nothing.
//!
//! For lossless widenings prefer plain `T::from(x)` / `Io::from(x)`; use
//! the helpers where `From` does not exist (`u64 → usize`, `usize → u64`,
//! float → int).

/// `u64 → usize`, panicking if the platform's `usize` cannot hold `x`.
///
/// A no-op on 64-bit targets.
#[inline]
#[must_use]
pub fn usize_from_u64(x: u64) -> usize {
    // cadapt-lint: allow(panic-reach) -- cast helpers centralise the deliberate overflow panics
    usize::try_from(x).expect("u64 value exceeds usize on this platform")
}

/// `u32 → usize`, panicking on (hypothetical 16-bit) platforms where it
/// cannot fit. A no-op on 32- and 64-bit targets.
#[inline]
#[must_use]
pub fn usize_from_u32(x: u32) -> usize {
    // cadapt-lint: allow(panic-reach) -- cast helpers centralise the deliberate overflow panics
    usize::try_from(x).expect("u32 value exceeds usize on this platform")
}

/// `usize → u64`, panicking on platforms where `usize` is wider than 64
/// bits (none today). A no-op on 64-bit targets.
#[inline]
#[must_use]
pub fn u64_from_usize(x: usize) -> u64 {
    // cadapt-lint: allow(panic-reach) -- cast helpers centralise the deliberate overflow panics
    u64::try_from(x).expect("usize value exceeds u64 on this platform")
}

/// `u128 → u64`, panicking if the value does not fit. Used where an `Io`
/// total is known (by construction) to fit a single box's budget.
#[inline]
#[must_use]
pub fn u64_from_u128(x: u128) -> u64 {
    // cadapt-lint: allow(panic-reach) -- cast helpers centralise the deliberate overflow panics
    u64::try_from(x).expect("u128 value exceeds u64")
}

/// `usize → u32`, panicking above `u32::MAX`. Used for recursion depths
/// and level counts, which are at most ~64.
#[inline]
#[must_use]
pub fn u32_from_usize(x: usize) -> u32 {
    // cadapt-lint: allow(panic-reach) -- cast helpers centralise the deliberate overflow panics
    u32::try_from(x).expect("usize value exceeds u32")
}

/// `u64 → u8`, panicking above `u8::MAX`. Used for byte emission in the
/// trace bytecode encoder, whose callers mask to 7 bits first — the
/// check compiles to a trivially-predictable compare.
#[inline]
#[must_use]
pub fn u8_from_u64(x: u64) -> u8 {
    // cadapt-lint: allow(panic-reach) -- cast helpers centralise the deliberate overflow panics
    u8::try_from(x).expect("u64 value exceeds u8")
}

/// `u32 → i32`, panicking above `i32::MAX`. Used for exact small-exponent
/// `powi` calls.
#[inline]
#[must_use]
pub fn i32_from_u32(x: u32) -> i32 {
    // cadapt-lint: allow(panic-reach) -- cast helpers centralise the deliberate overflow panics
    i32::try_from(x).expect("u32 exponent exceeds i32::MAX")
}

/// Checked `f64 → u64` for non-negative, integral-after-rounding values.
///
/// Panics when `x` is not finite, is negative, or exceeds `2^53` (the
/// largest range in which every integer is exactly representable, so the
/// conversion is provably exact).
#[inline]
#[must_use]
// The assert above the cast guarantees the value is integral-range safe;
// this is the one sanctioned float→int cast in the workspace.
#[allow(clippy::cast_possible_truncation)]
pub fn u64_from_f64(x: f64) -> u64 {
    const EXACT_MAX: f64 = 9_007_199_254_740_992.0; // 2^53
    assert!(
        x.is_finite() && (0.0..=EXACT_MAX).contains(&x),
        "f64 value {x} is not exactly convertible to u64"
    );
    // cadapt-lint: allow(lossy-cast) -- guarded above: finite, non-negative, ≤ 2^53
    x as u64
}

/// Checked `u128 → u64` for **untrusted** input (hostile record files,
/// corrupted checkpoints). Unlike the panicking helpers above — which
/// guard *internal* accounting where an overflow means the totals are
/// already wrong — these return `None` so parsers can reject bad data
/// with a typed error instead of aborting the process.
#[inline]
#[must_use]
pub fn checked_u64_from_u128(x: u128) -> Option<u64> {
    u64::try_from(x).ok()
}

/// Checked `u128 → u32` for untrusted input (schema versions, counts).
#[inline]
#[must_use]
pub fn checked_u32_from_u128(x: u128) -> Option<u32> {
    u32::try_from(x).ok()
}

/// Checked `u64 → usize` for untrusted input.
#[inline]
#[must_use]
pub fn checked_usize_from_u64(x: u64) -> Option<usize> {
    usize::try_from(x).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_round_trips() {
        assert_eq!(usize_from_u64(42), 42);
        assert_eq!(usize_from_u32(7), 7);
        assert_eq!(u64_from_usize(9), 9);
        assert_eq!(u64_from_u128(1 << 60), 1 << 60);
        assert_eq!(u8_from_u64(255), 255);
        assert_eq!(i32_from_u32(31), 31);
    }

    #[test]
    fn f64_exact_values_convert() {
        assert_eq!(u64_from_f64(0.0), 0);
        assert_eq!(u64_from_f64(4096.0), 4096);
        assert_eq!(u64_from_f64(9_007_199_254_740_992.0), 1 << 53);
    }

    #[test]
    #[should_panic(expected = "not exactly convertible")]
    fn f64_negative_panics() {
        let _ = u64_from_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "not exactly convertible")]
    fn f64_nan_panics() {
        let _ = u64_from_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "exceeds u64")]
    fn u128_overflow_panics() {
        let _ = u64_from_u128(u128::from(u64::MAX) + 1);
    }

    #[test]
    fn checked_variants_reject_instead_of_panicking() {
        assert_eq!(checked_u64_from_u128(42), Some(42));
        assert_eq!(checked_u64_from_u128(u128::from(u64::MAX) + 1), None);
        assert_eq!(checked_u32_from_u128(7), Some(7));
        assert_eq!(checked_u32_from_u128(u128::from(u32::MAX) + 1), None);
        assert_eq!(checked_usize_from_u64(11), Some(11));
    }
}
