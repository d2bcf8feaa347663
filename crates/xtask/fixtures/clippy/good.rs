//! Lint fixture: the repo rules waived only with a stated reason, and test
//! code exempt. Every module built from this file must be clippy-clean.

/// A waived `expect` states the invariant that makes it infallible.
///
/// # Panics
/// Panics when `values` is empty.
#[allow(clippy::expect_used, reason = "callers validate non-emptiness")]
pub fn head(values: &[u32]) -> u32 {
    *values.first().expect("non-empty by caller invariant")
}

/// A waived index states the invariant that keeps it in bounds.
///
/// # Panics
/// Panics when `values` is empty.
#[expect(clippy::indexing_slicing, reason = "callers validate non-emptiness")]
pub fn first(values: &[u32]) -> u32 {
    values[0]
}

/// A release-mode precondition check, documented.
///
/// # Panics
/// Panics when `x` is zero.
fn checked(x: u32) -> u32 {
    assert!(x > 0, "x must be positive");
    x
}

/// Keeps the private function above in use.
pub fn calls_checked() -> u32 {
    checked(1)
}

/// A waived exact comparison states why exactness is meant.
#[allow(clippy::float_cmp, reason = "sentinel values compare bit-exactly")]
pub fn is_sentinel(x: f64, sentinel: f64) -> bool {
    x == sentinel
}

/// A waived lossy cast states why it is safe.
#[allow(clippy::as_conversions, reason = "callers clamp x to [0, grid)")]
pub fn grid_index(x: f64) -> usize {
    x as usize
}

/// A documented unsafe block.
pub fn read(x: &u8) -> u8 {
    let p: *const u8 = x;
    // SAFETY: `p` comes from a live shared reference.
    unsafe { *p }
}

#[cfg(test)]
mod tests {
    // Test code may unwrap, expect, cast, index and panic.
    #[test]
    fn test_code_is_exempt() {
        let n: u32 = "7".parse().unwrap();
        assert_eq!("7".parse::<u32>().expect("a number"), n);
        assert_eq!(n as u64, 7);
        assert_eq!([n][0], 7);
        if n == 0 {
            panic!("unreachable in practice");
        }
    }
}
