//! Documented numeric conversions.
//!
//! The counting-tree and stats crates forbid bare `as` casts (clippy's
//! `as_conversions`, denied in their `lib.rs`): a silent `as` hides whether a
//! conversion truncates, saturates, wraps or is exact. Every helper here
//! names its semantics, asserts its preconditions in debug builds, and is
//! the approved spelling for that conversion.

/// Largest integer count that converts to `f64` exactly (`2^53`).
pub const F64_EXACT_MAX: u64 = 1 << 53;

/// Count → `f64`, exact for counts up to [`F64_EXACT_MAX`].
///
/// Point/cell counts are bounded by the dataset size, far below `2^53`; the
/// debug assertion catches misuse with genuinely huge values.
#[inline]
#[must_use]
pub fn count_to_f64(n: u64) -> f64 {
    debug_assert!(n <= F64_EXACT_MAX, "count {n} loses precision as f64");
    n as f64
}

/// Length/index → `f64`, exact for values up to [`F64_EXACT_MAX`].
#[inline]
#[must_use]
pub fn len_to_f64(n: usize) -> f64 {
    count_to_f64(usize_to_u64(n))
}

/// Grid coordinate → `f64`, rounding to nearest for coordinates beyond
/// `2^53` (deep levels of the counting tree exceed `f64` integer precision
/// by construction; the resulting cell bounds are correct to 1 ulp).
#[inline]
#[must_use]
pub fn grid_to_f64(c: u64) -> f64 {
    c as f64
}

/// `f64` → `u64` by truncation toward zero, saturating at the type bounds
/// (Rust's float-to-int cast semantics, spelled out). NaN maps to 0.
#[inline]
#[must_use]
pub fn trunc_to_u64(x: f64) -> u64 {
    x as u64
}

/// `usize` → `u64`, lossless on every platform this workspace supports
/// (pointer width ≤ 64 bits).
#[inline]
#[must_use]
pub fn usize_to_u64(n: usize) -> u64 {
    n as u64
}

/// `u32` → `usize`, lossless (pointer width ≥ 32 bits).
#[inline]
#[must_use]
pub const fn u32_to_usize(n: u32) -> usize {
    n as usize
}

/// `usize` → `u32` for values the caller has bounded below `2^32`
/// (arena indices, resolution counts).
///
/// # Panics
/// Panics when the value does not fit — that is a broken caller bound, not
/// a recoverable condition.
#[inline]
#[must_use]
#[expect(clippy::expect_used, reason = "callers bound the value below 2^32")]
pub fn bounded_to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("value bounded below 2^32 by caller invariant")
}

/// Small non-negative exponent → `i32` for `powi`.
///
/// # Panics
/// Panics when the exponent exceeds `i32::MAX` — resolution numbers are
/// bounded far below that.
#[inline]
#[must_use]
#[expect(clippy::expect_used, reason = "exponents ≤ MAX_RESOLUTIONS")]
pub fn powi_exp(h: usize) -> i32 {
    i32::try_from(h).expect("exponent bounded by MAX_RESOLUTIONS invariant")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::exactly;

    #[test]
    fn exact_conversions() {
        assert!(exactly(count_to_f64(0), 0.0));
        assert!(exactly(count_to_f64(12_345), 12_345.0));
        assert!(exactly(len_to_f64(7), 7.0));
        assert_eq!(usize_to_u64(usize::MAX), usize::MAX as u64);
        assert_eq!(u32_to_usize(u32::MAX), 4_294_967_295);
    }

    #[test]
    fn truncation_saturates() {
        assert_eq!(trunc_to_u64(3.9), 3);
        assert_eq!(trunc_to_u64(-1.0), 0);
        assert_eq!(trunc_to_u64(f64::NAN), 0);
        assert_eq!(trunc_to_u64(1e300), u64::MAX);
    }

    #[test]
    fn bounded_and_exponent_helpers() {
        assert_eq!(bounded_to_u32(42), 42);
        assert_eq!(powi_exp(63), 63);
    }

    #[test]
    #[should_panic(expected = "invariant")]
    fn bounded_to_u32_panics_past_the_bound() {
        let _ = bounded_to_u32(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }
}
