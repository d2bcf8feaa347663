//! `xtask` — the repository's semantic-analysis and verification driver.
//!
//! ```text
//! cargo run -p xtask -- analyze          # semantic analyses (see `analyze`)
//! cargo run -p xtask -- analyze --bless  # accept API/panic baseline changes
//! cargo run -p xtask -- invariants      # per-crate tests with strict-invariants
//! ```
//!
//! `analyze` parses the library crates into their item structure ([`ast`])
//! and runs the cross-file analyses in [`analyze`]: the panic-path audit and
//! the public-API drift gate. It also scans every workspace source for float
//! compares against zero or infinity, which clippy's `float_cmp` skips. It accepts `--format text|json|github` (JSON
//! records for tooling, GitHub Actions annotations for CI), and its exit
//! status is nonzero when any finding survives, so CI can gate on it. The
//! source-level repo rules are clippy lints, configured in the workspace
//! `Cargo.toml` and the crates' `lib.rs`; `tests/clippy_fixtures.rs` checks
//! that they fire.

#![forbid(unsafe_code)]

mod analyze;
mod ast;
mod source;

use analyze::Finding;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Output format for findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Human-readable `path:line: [slug] message` lines (default).
    Text,
    /// JSON array of `{file, line, lint, message}` records.
    Json,
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
                "json" => Format::Json,
                "github" => Format::Github,
                other => {
                    return Err(format!(
                        "unknown format `{other}`; expected text|json|github"
                    ))
                }
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
/// summary goes to stderr in machine formats so stdout stays parseable.
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
        Format::Json => {
            println!("{}", analyze::to_json(findings));
            eprintln!("xtask analyze: {} finding(s)", findings.len());
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
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- \
                 <analyze [--bless] [--format text|json|github] | invariants>"
            );
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "analyze" => run_analyze(rest),
        "invariants" => run_invariants(),
        other => {
            eprintln!("unknown subcommand `{other}`; expected analyze | invariants");
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
        println!("xtask analyze: baselines blessed (panic-baseline.txt, api/*.txt)");
        return ExitCode::SUCCESS;
    }
    emit(&findings, flags.format)
}

/// Crates that gain runtime checks under `--features strict-invariants`.
const INVARIANT_CRATES: [&str; 5] = [
    "mrcc-common",
    "mrcc-counting-tree",
    "mrcc-stats",
    "mrcc",
    "mrcc-repro",
];

fn run_invariants() -> ExitCode {
    for pkg in INVARIANT_CRATES {
        let label = format!("cargo test -p {pkg} --features strict-invariants");
        let status = run_step(
            &label,
            &["test", "-q", "-p", pkg, "--features", "strict-invariants"],
        );
        if status != ExitCode::SUCCESS {
            return status;
        }
    }
    ExitCode::SUCCESS
}

fn run_step(label: &str, args: &[&str]) -> ExitCode {
    println!("xtask: {label}");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    match Command::new(cargo).args(args).status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => {
            eprintln!("xtask: `{label}` failed with {status}");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask: could not spawn `{label}`: {err}");
            ExitCode::FAILURE
        }
    }
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

    fn fixture(name: &str) -> PathBuf {
        repo_root().join("crates/xtask/fixtures").join(name)
    }

    #[test]
    fn flag_parsing_covers_formats_and_bless() {
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let f = parse_flags(&args(&["--format", "json", "--bless"])).unwrap();
        assert_eq!(f.format, Format::Json);
        assert!(f.bless);
        assert!(parse_flags(&args(&["a.rs"])).is_err());
        let f = parse_flags(&args(&["--format=github"])).unwrap();
        assert_eq!(f.format, Format::Github);
        assert!(parse_flags(&args(&["--format", "yaml"])).is_err());
        assert!(parse_flags(&args(&["--format"])).is_err());
        assert!(parse_flags(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn analyze_good_fixture_is_clean() {
        let text = std::fs::read_to_string(fixture("analyze/good.rs")).unwrap();
        let crates = vec![analyze::CrateAst::from_sources(
            "mrcc-common",
            &[("crates/common/src/lib.rs", text.as_str())],
        )];
        let audit = analyze::panics::audit(&crates, "");
        assert!(audit.findings.is_empty(), "{:#?}", audit.findings);
    }

    #[test]
    fn analyze_bad_fixture_trips_the_panic_audit() {
        let text = std::fs::read_to_string(fixture("analyze/bad.rs")).unwrap();
        let crates = vec![analyze::CrateAst::from_sources(
            "mrcc-common",
            &[("crates/common/src/lib.rs", text.as_str())],
        )];
        let audit = analyze::panics::audit(&crates, "");
        for key in [
            "mrcc-common boom",
            "mrcc-common outer",
            "mrcc-common index",
            "mrcc-common checked",
        ] {
            assert!(
                audit.current.contains_key(key),
                "`{key}` missing from {:#?}",
                audit.current
            );
        }
        // The private helper is a source but not itself a gated entry.
        assert!(!audit.current.contains_key("mrcc-common helper"));
    }

    #[test]
    fn workspace_analyze_is_clean() {
        // The committed baselines (panic-baseline.txt, api/*.txt) must match
        // the tree this test runs against — the analyze self-test.
        let findings = analyze::run(&repo_root(), false);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
