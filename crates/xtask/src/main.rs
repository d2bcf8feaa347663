//! `xtask` — the repository's static-analysis and verification driver.
//!
//! ```text
//! cargo run -p xtask -- lint             # repo-specific source lints
//! cargo run -p xtask -- lint <paths>     # same lints over explicit files/dirs
//! cargo run -p xtask -- analyze          # semantic analyses (see `analyze`)
//! cargo run -p xtask -- analyze --bless  # accept API/panic baseline changes
//! cargo run -p xtask -- fmt-check        # cargo fmt --all --check
//! cargo run -p xtask -- invariants      # per-crate tests with strict-invariants
//! ```
//!
//! `lint` walks the workspace's own source (`crates/*/src`, the facade
//! `src/`, benches and bins — never `vendor/` or `target/`) and applies the
//! token-level lints in [`lints`] with per-lint path scopes. `analyze` parses
//! the library crates into their item structure ([`ast`]) and runs the
//! cross-file analyses in [`analyze`]: the panic-path audit and the
//! public-API drift gate. Both
//! commands accept `--format text|json|github` (JSON records for tooling,
//! GitHub Actions annotations for CI). Exit status is nonzero when any
//! finding survives, so CI can gate on it.

#![forbid(unsafe_code)]

mod analyze;
mod ast;
mod lints;
mod source;

use lints::Finding;
use source::SourceFile;
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

/// Flags shared by `lint` and `analyze`.
struct Flags {
    format: Format,
    bless: bool,
    /// Non-flag arguments, in order.
    positional: Vec<String>,
}

/// Splits `--format <f>` / `--format=<f>` / `--bless` from positional args.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        format: Format::Text,
        bless: false,
        positional: Vec::new(),
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
            flags.positional.push(arg.clone());
        }
    }
    Ok(flags)
}

/// Prints findings in the chosen format and maps them to an exit code. The
/// summary goes to stderr in machine formats so stdout stays parseable.
fn emit(label: &str, findings: &[Finding], format: Format) -> ExitCode {
    match format {
        Format::Text => {
            for f in findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("xtask {label}: clean");
            } else {
                println!("xtask {label}: {} finding(s)", findings.len());
            }
        }
        Format::Json => {
            println!("{}", lints::to_json(findings));
            eprintln!("xtask {label}: {} finding(s)", findings.len());
        }
        Format::Github => {
            for f in findings {
                println!("{}", lints::github_annotation(f));
            }
            eprintln!("xtask {label}: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Crates whose library code must be panic-free (`no-unwrap` scope).
const PANIC_FREE_CRATES: [&str; 4] = ["common", "stats", "counting-tree", "core"];

/// Crates whose arithmetic must avoid bare `as` casts (`as-cast` scope).
const CAST_STRICT_CRATES: [&str; 2] = ["counting-tree", "stats"];

/// Files allowed to use raw float `==`: the epsilon helpers themselves.
const FLOAT_EQ_APPROVED: [&str; 1] = ["crates/common/src/float.rs"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- \
                 <lint [paths..] | analyze [--bless] | fmt-check | invariants> \
                 [--format text|json|github]"
            );
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "lint" => run_lint(rest),
        "analyze" => run_analyze(rest),
        "fmt-check" => run_fmt_check(),
        "invariants" => run_invariants(),
        other => {
            eprintln!(
                "unknown subcommand `{other}`; expected lint | analyze | fmt-check | invariants"
            );
            ExitCode::FAILURE
        }
    }
}

/// Recursively collects `.rs` files under `dir`, skipping `target/`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name != "target" && name != ".git" {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace's own lintable source roots (vendored shims excluded:
/// they mirror external API surfaces and are not held to repo conventions).
fn workspace_roots(repo: &Path) -> Vec<PathBuf> {
    let mut roots = vec![repo.join("src"), repo.join("tests"), repo.join("examples")];
    if let Ok(entries) = std::fs::read_dir(repo.join("crates")) {
        let mut crate_dirs: Vec<PathBuf> =
            entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            for sub in ["src", "benches", "bin", "tests", "examples"] {
                let p = dir.join(sub);
                if p.is_dir() {
                    roots.push(p);
                }
            }
        }
    }
    roots.into_iter().filter(|p| p.is_dir()).collect()
}

/// `true` when `rel` (repo-relative, `/`-separated) lies in the library
/// source of one of `crates` — benches/bins/tests are exempt from the
/// panic-free and cast-strict scopes.
fn in_crate_src(rel: &str, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Applies every lint (respecting path scopes) to one file.
fn lint_file(rel: &str, file: &SourceFile, scoped: bool, out: &mut Vec<Finding>) {
    if !scoped || in_crate_src(rel, &PANIC_FREE_CRATES) {
        lints::no_unwrap(file, out);
    }
    if !scoped || !FLOAT_EQ_APPROVED.contains(&rel) {
        lints::float_eq(file, out);
    }
    if !scoped || in_crate_src(rel, &CAST_STRICT_CRATES) {
        lints::as_cast(file, out);
    }
    lints::safety_comment(file, out);
}

fn lint_paths(repo: &Path, roots: &[PathBuf], scoped: bool) -> Vec<Finding> {
    let mut files = Vec::new();
    let mut findings = Vec::new();
    for root in roots {
        if root.is_file() {
            files.push(root.clone());
        } else if root.is_dir() {
            collect_rs(root, &mut files);
        } else {
            // A typo'd explicit path must fail loudly, not lint zero files.
            findings.push(Finding {
                path: root.to_string_lossy().replace('\\', "/"),
                line: 0,
                slug: "io",
                message: "path does not exist".to_string(),
            });
        }
    }
    for path in files {
        let rel = path
            .strip_prefix(repo)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let file = SourceFile::parse(&rel, &text);
                lint_file(&rel, &file, scoped, &mut findings);
            }
            Err(err) => findings.push(Finding {
                path: rel,
                line: 0,
                slug: "io",
                message: format!("unreadable: {err}"),
            }),
        }
    }
    findings
}

fn run_lint(extra: &[String]) -> ExitCode {
    let flags = match parse_flags(extra) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("xtask lint: {err}");
            return ExitCode::FAILURE;
        }
    };
    if flags.bless {
        eprintln!("xtask lint: --bless only applies to `analyze`");
        return ExitCode::FAILURE;
    }
    let repo = repo_root();
    let (roots, scoped) = if flags.positional.is_empty() {
        (workspace_roots(&repo), true)
    } else {
        // Explicit paths (fixtures, ad-hoc checks): every lint applies.
        (flags.positional.iter().map(PathBuf::from).collect(), false)
    };
    let findings = lint_paths(&repo, &roots, scoped);
    emit("lint", &findings, flags.format)
}

fn run_analyze(extra: &[String]) -> ExitCode {
    let flags = match parse_flags(extra) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("xtask analyze: {err}");
            return ExitCode::FAILURE;
        }
    };
    if !flags.positional.is_empty() {
        eprintln!(
            "xtask analyze: unexpected argument `{}` (analyze always runs on the workspace)",
            flags.positional[0]
        );
        return ExitCode::FAILURE;
    }
    let findings = analyze::run(&repo_root(), flags.bless);
    if flags.bless && findings.is_empty() {
        println!("xtask analyze: baselines blessed (panic-baseline.txt, api/*.txt)");
        return ExitCode::SUCCESS;
    }
    emit("analyze", &findings, flags.format)
}

fn run_fmt_check() -> ExitCode {
    run_step("cargo fmt --all --check", &["fmt", "--all", "--check"])
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
    fn good_fixtures_are_clean() {
        let repo = repo_root();
        let findings = lint_paths(&repo, &[fixture("good")], false);
        assert!(findings.is_empty(), "unexpected findings: {findings:#?}");
    }

    #[test]
    fn bad_fixtures_trip_every_lint() {
        let repo = repo_root();
        let findings = lint_paths(&repo, &[fixture("bad")], false);
        for slug in ["no-unwrap", "float-eq", "as-cast", "safety-comment"] {
            assert!(
                findings.iter().any(|f| f.slug == slug),
                "lint `{slug}` did not fire on the bad fixtures; got {findings:#?}"
            );
        }
    }

    #[test]
    fn scopes_route_lints_to_the_right_crates() {
        let src = "fn f(x: Option<u32>) -> u64 { x.unwrap() as u64 }\n";
        let file = SourceFile::parse("crates/eval/src/lib.rs", src);
        let mut findings = Vec::new();
        lint_file("crates/eval/src/lib.rs", &file, true, &mut findings);
        // eval is outside both the panic-free and cast-strict scopes.
        assert!(findings.is_empty(), "{findings:#?}");

        let file = SourceFile::parse("crates/counting-tree/src/tree.rs", src);
        let mut findings = Vec::new();
        lint_file(
            "crates/counting-tree/src/tree.rs",
            &file,
            true,
            &mut findings,
        );
        let slugs: Vec<_> = findings.iter().map(|f| f.slug).collect();
        assert!(slugs.contains(&"no-unwrap"), "{findings:#?}");
        assert!(slugs.contains(&"as-cast"), "{findings:#?}");
    }

    #[test]
    fn float_eq_approved_paths_are_exempt() {
        let src = "pub fn approx(a: f64) -> bool { a == 0.0 }\n";
        let rel = "crates/common/src/float.rs";
        let file = SourceFile::parse(rel, src);
        let mut findings = Vec::new();
        lint_file(rel, &file, true, &mut findings);
        assert!(
            findings.iter().all(|f| f.slug != "float-eq"),
            "{findings:#?}"
        );
    }

    #[test]
    fn flag_parsing_covers_formats_and_bless() {
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let f = parse_flags(&args(&["--format", "json", "a.rs", "--bless"])).unwrap();
        assert_eq!(f.format, Format::Json);
        assert!(f.bless);
        assert_eq!(f.positional, vec!["a.rs".to_string()]);
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

    #[test]
    fn workspace_roots_skip_vendor() {
        let roots = workspace_roots(&repo_root());
        assert!(roots
            .iter()
            .all(|r| !r.to_string_lossy().contains("vendor")));
        assert!(roots
            .iter()
            .any(|r| r.ends_with("crates/counting-tree/src")));
    }
}
