//! Lint fixture: one bare violation of each repo rule. Every module built
//! from this file must trip exactly the rules in scope for its crate. The
//! panicking functions document their panics, so `missing_panics_doc` fires
//! only on the private one, which `check-private-items` brings in scope. The
//! compares with zero and infinity are the `float-eq` cases clippy lets
//! through; `xtask analyze` flags them instead.

/// `unwrap_used`: panics instead of propagating.
///
/// # Panics
/// Panics by design: the lint above is the point.
pub fn takes_the_panic_shortcut(values: &[u32]) -> u32 {
    *values.first().unwrap()
}

/// `expect_used`: an `expect` with no waiver stating its invariant.
///
/// # Panics
/// Panics by design: the lint above is the point.
pub fn expects_without_reason(values: &[u32]) -> u32 {
    *values.first().expect("should not happen")
}

/// `indexing_slicing`: a bare index.
///
/// # Panics
/// Panics by design: the lint above is the point.
pub fn bare_index(values: &[u32], i: usize) -> u32 {
    values[i]
}

/// `indexing_slicing`: a bare slice.
///
/// # Panics
/// Panics by design: the lint above is the point.
pub fn bare_slice(values: &[u32], a: usize, b: usize) -> &[u32] {
    &values[a..b]
}

/// `panic`: an explicit panic.
///
/// # Panics
/// Panics by design: the lint above is the point.
pub fn explicit_panic() {
    panic!("gave up");
}

/// `unreachable`: a branch asserted dead.
///
/// # Panics
/// Panics by design: the lint above is the point.
pub fn asserted_dead(flag: bool) -> u32 {
    if flag {
        1
    } else {
        unreachable!("flag is always set")
    }
}

/// `todo`: an unfinished body.
///
/// # Panics
/// Panics by design: the lint above is the point.
pub fn unfinished() -> u32 {
    todo!()
}

/// `unimplemented`: a missing body.
///
/// # Panics
/// Panics by design: the lint above is the point.
pub fn missing() -> u32 {
    unimplemented!()
}

/// `missing_panics_doc`: a release-mode assert with no `# Panics` section,
/// in a private function.
fn undocumented_assert(x: u32) -> u32 {
    assert!(x > 0, "x must be positive");
    x
}

/// Keeps the private function above in use.
pub fn calls_undocumented_assert() -> u32 {
    undocumented_assert(1)
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
