//! Lint fixture: the repo rules waived only with a stated reason, and test
//! code exempt. Every module built from this file must be clippy-clean.

/// A waived `expect` states the invariant that makes it infallible.
#[allow(clippy::expect_used, reason = "callers validate non-emptiness")]
pub fn head(values: &[u32]) -> u32 {
    *values.first().expect("non-empty by caller invariant")
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
    // Test code may unwrap, expect and cast.
    #[test]
    fn test_code_is_exempt() {
        let n: u32 = "7".parse().unwrap();
        assert_eq!("7".parse::<u32>().expect("a number"), n);
        assert_eq!(n as u64, 7);
    }
}
