//! `xtask` — the repository's own source checks, run by `cargo test -p xtask`.
//!
//! The source-level repo rules, panic freedom included, are clippy lints,
//! configured in the workspace `Cargo.toml`, the root `clippy.toml` and the
//! crates' `lib.rs`; `tests/clippy_fixtures.rs` checks that they fire. The
//! one rule clippy cannot express is [`float_eq`]: a float compare against
//! zero or infinity, which `float_cmp` skips by design.
//! `tests/float_eq_workspace.rs` scans every workspace source with it and
//! fails on any finding.

#![forbid(unsafe_code)]

pub mod float_eq;
pub mod source;
