//! `xtask` — the repository's analysis driver.
//!
//! ```text
//! cargo run -p xtask -- analyze          # API snapshot and float-eq scan (see `analyze`)
//! cargo run -p xtask -- analyze --bless  # accept API snapshot changes
//! ```
//!
//! `analyze` parses the library crates into their item structure ([`ast`])
//! and runs the public-API drift gate in [`analyze`]. It also scans every
//! workspace source for float compares against zero or infinity, which
//! clippy's `float_cmp` skips. It accepts `--format text|github` (GitHub
//! Actions annotations for CI), and its exit status is nonzero when any
//! finding survives, so CI can gate on it. The source-level repo rules,
//! panic freedom included, are clippy lints, configured in the workspace
//! `Cargo.toml`, the root `clippy.toml` and the crates' `lib.rs`;
//! `tests/clippy_fixtures.rs` checks that they fire.

#![forbid(unsafe_code)]

mod analyze;
mod ast;
mod source;

use analyze::Finding;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Output format for findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Human-readable `path:line: [slug] message` lines (default).
    Text,
    /// GitHub Actions `::error …` workflow annotations.
    Github,
}

/// The flags of `analyze`.
struct Flags {
    format: Format,
    bless: bool,
}

/// Parses `--format <f>` / `--format=<f>` / `--bless`; anything else is an
/// error (`analyze` always runs on the whole workspace).
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        format: Format::Text,
        bless: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let format_value = if arg == "--format" {
            Some(
                iter.next()
                    .ok_or_else(|| "--format requires a value".to_string())?
                    .clone(),
            )
        } else {
            arg.strip_prefix("--format=").map(str::to_string)
        };
        if let Some(value) = format_value {
            flags.format = match value.as_str() {
                "text" => Format::Text,
                "github" => Format::Github,
                other => return Err(format!("unknown format `{other}`; expected text|github")),
            };
        } else if arg == "--bless" {
            flags.bless = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok(flags)
}

/// Prints findings in the chosen format and maps them to an exit code. The
/// summary goes to stderr in the GitHub format so stdout holds only
/// annotations.
fn emit(findings: &[Finding], format: Format) -> ExitCode {
    match format {
        Format::Text => {
            for f in findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("xtask analyze: clean");
            } else {
                println!("xtask analyze: {} finding(s)", findings.len());
            }
        }
        Format::Github => {
            for f in findings {
                println!("{}", analyze::github_annotation(f));
            }
            eprintln!("xtask analyze: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "analyze" => run_analyze(rest),
        Some((other, _)) => {
            eprintln!("unknown subcommand `{other}`; expected analyze");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- analyze [--bless] [--format text|github]");
            ExitCode::FAILURE
        }
    }
}

fn run_analyze(extra: &[String]) -> ExitCode {
    let flags = match parse_flags(extra) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("xtask analyze: {err}");
            return ExitCode::FAILURE;
        }
    };
    let findings = analyze::run(&repo_root(), flags.bless);
    if flags.bless && findings.is_empty() {
        println!("xtask analyze: API snapshots blessed (api/*.txt)");
        return ExitCode::SUCCESS;
    }
    emit(&findings, flags.format)
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/xtask`.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing_covers_formats_and_bless() {
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let f = parse_flags(&args(&["--format", "github", "--bless"])).unwrap();
        assert_eq!(f.format, Format::Github);
        assert!(f.bless);
        assert!(parse_flags(&args(&["a.rs"])).is_err());
        let f = parse_flags(&args(&["--format=text"])).unwrap();
        assert_eq!(f.format, Format::Text);
        assert!(parse_flags(&args(&["--format", "json"])).is_err());
        assert!(parse_flags(&args(&["--format"])).is_err());
        assert!(parse_flags(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn workspace_analyze_is_clean() {
        // The committed API snapshots (api/*.txt) must match the tree this
        // test runs against — the analyze self-test.
        let findings = analyze::run(&repo_root(), false);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
