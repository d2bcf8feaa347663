//! The semantic (cross-file) analysis layer: `cargo run -p xtask -- analyze`.
//!
//! Two analyses run over the parsed item structure of the workspace's
//! library crates (see [`crate::ast`]):
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
//!
//! `--bless` rewrites the panic baseline and the API snapshots from current
//! state. The paper's exact constants are pinned by unit tests in the crates
//! that own them.

pub mod api;
pub mod panics;

use crate::ast::{self, ParsedFile};
use crate::lints::Finding;
use crate::source::SourceFile;
use std::path::Path;

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
        collect_lib_rs(&src, &mut paths);
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

/// Recursively collects `.rs` files under `dir`, skipping `bin/` (binary
/// targets are not library surface).
fn collect_lib_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "bin") {
                collect_lib_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Runs both analyses over the repository. With `bless`, rewrites the
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
    findings
}
