//! Lint fixture: one bare violation of each repo rule. Every module built
//! from this file must trip exactly the rules in scope for its crate. The
//! compares with zero and infinity are the `float-eq` cases clippy lets
//! through; `xtask analyze` flags them instead.

/// `unwrap_used`: panics instead of propagating.
pub fn takes_the_panic_shortcut(values: &[u32]) -> u32 {
    *values.first().unwrap()
}

/// `expect_used`: an `expect` with no waiver stating its invariant.
pub fn expects_without_reason(values: &[u32]) -> u32 {
    *values.first().expect("should not happen")
}

/// `float_cmp`: raw float equality.
pub fn raw_float_comparison(x: f64, y: f64) -> bool {
    x == y
}

/// A named float constant.
pub const LIMIT: f64 = 0.5;

/// `float_cmp_const`: raw equality against a named constant.
pub fn raw_constant_comparison(x: f64) -> bool {
    x == LIMIT
}

/// `xtask analyze` `float-eq`: raw equality against zero.
pub fn raw_zero_comparison(x: f64) -> bool {
    x == 0.0
}

/// `xtask analyze` `float-eq`: raw inequality against infinity.
pub fn raw_infinity_comparison(x: f64) -> bool {
    x != f64::INFINITY
}

/// `as_conversions`: a silent lossy cast.
pub fn silent_lossy_cast(x: f64) -> usize {
    x as usize
}

/// `undocumented_unsafe_blocks`: no `SAFETY:` argument.
pub fn undocumented_unsafe(x: &u8) -> u8 {
    let p: *const u8 = x;
    unsafe { *p }
}

/// `allow_attributes_without_reason`: a suppression that says nothing.
#[allow(clippy::needless_return)]
pub fn bare_allow() -> u32 {
    return 1;
}
