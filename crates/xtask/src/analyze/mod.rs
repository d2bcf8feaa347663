//! The semantic (cross-file) analysis layer: `cargo run -p xtask -- analyze`.
//!
//! Two analyses run over the parsed item structure of the workspace's
//! library crates (see [`crate::ast`]), and one token scan over all of the
//! workspace's own sources:
//!
//! | slug             | analysis                                                |
//! |------------------|---------------------------------------------------------|
//! | `panic-path`     | call-graph panic audit: no *new* public function of the |
//! |                  | four core crates may transitively reach a panic source  |
//! |                  | (`panic!`, `unwrap`/`expect`, `assert*`, unchecked `[]` |
//! |                  | indexing); known paths live in the committed baseline   |
//! |                  | `crates/xtask/panic-baseline.txt`                       |
//! | `api-drift`      | each crate's `pub` surface vs the committed snapshot in |
//! |                  | `api/<crate>.txt`; changes require `analyze --bless`    |
//! | `float-eq`       | raw `==`/`!=` against a float zero or infinity, the     |
//! |                  | compares clippy's `float_cmp` does not report           |
//!
//! `--bless` rewrites the panic baseline and the API snapshots from current
//! state. The paper's exact constants are pinned by unit tests in the crates
//! that own them.

pub mod api;
pub mod float_eq;
pub mod panics;

use crate::ast::{self, ParsedFile};
use crate::source::SourceFile;
use std::path::Path;

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File path as reported.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Analysis slug (`panic-path`, `api-drift`, `io`).
    pub slug: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.slug, self.message
        )
    }
}

/// Renders findings as a JSON array of `{file, line, lint, message}` records
/// (hand-rolled: the xtask binary stays dependency-free).
pub fn to_json(findings: &[Finding]) -> String {
    let records: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"file\":{},\"line\":{},\"lint\":{},\"message\":{}}}",
                json_string(&f.path),
                f.line,
                json_string(f.slug),
                json_string(&f.message)
            )
        })
        .collect();
    if records.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n  {}\n]", records.join(",\n  "))
    }
}

/// Escapes and quotes a JSON string value.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders one finding as a GitHub Actions workflow annotation
/// (`::error file=…,line=…::…`), which the Actions runner turns into an
/// inline PR comment.
pub fn github_annotation(f: &Finding) -> String {
    // Property values escape `%`, `\r`, `\n`, `:` and `,`; the message
    // escapes `%`, `\r`, `\n` (GitHub's documented command syntax).
    let prop = |s: &str| {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
            .replace(':', "%3A")
            .replace(',', "%2C")
    };
    let msg = f
        .message
        .replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A");
    format!(
        "::error file={},line={},title={}::{msg}",
        prop(&f.path),
        f.line.max(1),
        prop(f.slug)
    )
}

/// One parsed source file of a crate.
#[derive(Debug)]
pub struct ParsedSource {
    /// The masked source views (path is repo-relative).
    pub file: SourceFile,
    /// The parsed item structure.
    pub parsed: ParsedFile,
}

/// One workspace crate, parsed.
#[derive(Debug)]
pub struct CrateAst {
    /// Package name from `Cargo.toml` (e.g. `mrcc-counting-tree`).
    pub name: String,
    /// Library sources (`src/**/*.rs`, excluding `src/bin/`), sorted by path.
    pub files: Vec<ParsedSource>,
}

impl CrateAst {
    /// Builds a crate AST directly from `(path, text)` pairs — the unit the
    /// fixture tests use.
    #[cfg(test)]
    pub fn from_sources(name: &str, sources: &[(&str, &str)]) -> CrateAst {
        let files = sources
            .iter()
            .map(|(path, text)| {
                let file = SourceFile::parse(path, text);
                let parsed = ast::parse_file(&file);
                ParsedSource { file, parsed }
            })
            .collect();
        CrateAst {
            name: name.to_string(),
            files,
        }
    }
}

/// Loads and parses every library crate under `crates/` (the vendored shims
/// and the xtask binary itself are not analyzed).
pub fn load_workspace(repo: &Path) -> Result<Vec<CrateAst>, String> {
    let crates_dir = repo.join("crates");
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    let mut dirs: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let mut crates = Vec::new();
    for dir in dirs {
        if dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        let manifest = dir.join("Cargo.toml");
        let Ok(toml) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let Some(name) = package_name(&toml) else {
            continue;
        };
        let src = dir.join("src");
        let mut paths = Vec::new();
        collect_rs(&src, false, &mut paths);
        paths.sort();
        let mut files = Vec::new();
        for path in paths {
            let rel = path
                .strip_prefix(repo)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{rel}: unreadable: {e}"))?;
            let file = SourceFile::parse(&rel, &text);
            let parsed = ast::parse_file(&file);
            files.push(ParsedSource { file, parsed });
        }
        crates.push(CrateAst { name, files });
    }
    Ok(crates)
}

/// Extracts `name = "…"` from a `[package]` section.
fn package_name(toml: &str) -> Option<String> {
    for line in toml.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                if !v.is_empty() {
                    return Some(v.to_string());
                }
            }
        }
        if line.starts_with('[') && line != "[package]" {
            break;
        }
    }
    None
}

/// Recursively collects `.rs` files under `dir`. Without `with_bins` it
/// skips `bin/`: binary targets are not library surface.
fn collect_rs(dir: &Path, with_bins: bool, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if with_bins || path.file_name().is_some_and(|n| n != "bin") {
                collect_rs(&path, with_bins, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Runs the three analyses over the repository. With `bless`, rewrites the
/// panic baseline and API snapshots instead of failing on drift.
pub fn run(repo: &Path, bless: bool) -> Vec<Finding> {
    let crates = match load_workspace(repo) {
        Ok(crates) => crates,
        Err(err) => {
            return vec![Finding {
                path: "crates".to_string(),
                line: 0,
                slug: "io",
                message: err,
            }]
        }
    };
    let mut findings = Vec::new();
    findings.extend(panics::audit_repo(repo, &crates, bless));
    findings.extend(api::check_repo(repo, &crates, bless));
    findings.extend(float_eq::check_repo(repo));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_escapes_and_shapes_records() {
        assert_eq!(to_json(&[]), "[]");
        let findings = vec![Finding {
            path: "crates/core/src/lib.rs".to_string(),
            line: 7,
            slug: "panic-path",
            message: "uses `.unwrap()` with \"quotes\"\nand a newline".to_string(),
        }];
        let json = to_json(&findings);
        assert!(
            json.contains("\"file\":\"crates/core/src/lib.rs\""),
            "{json}"
        );
        assert!(json.contains("\"line\":7"), "{json}");
        assert!(json.contains("\\\"quotes\\\"\\nand"), "{json}");
    }

    #[test]
    fn github_annotations_escape_command_syntax() {
        let f = Finding {
            path: "a,b.rs".to_string(),
            line: 0,
            slug: "api-drift",
            message: "50% bad\nsecond line".to_string(),
        };
        let a = github_annotation(&f);
        assert_eq!(
            a,
            "::error file=a%2Cb.rs,line=1,title=api-drift::50%25 bad%0Asecond line"
        );
    }
}
