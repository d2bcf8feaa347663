//! `float-eq`: raw `==`/`!=` between a float and zero or infinity.
//!
//! Clippy's `float_cmp` and `float_cmp_const` deny every other exact float
//! comparison, but both let a compare with `0.0` or `±∞` through by design.
//! This scan closes that gap on the masked source: a zero float literal
//! (`0.0`, `0.`, `0e0`, `0f64`, …) or an `…INFINITY` constant directly
//! beside `==`/`!=` is a finding. Such compares go through
//! `mrcc_common::float::exactly`.

use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// One float compare against zero or infinity, or one unreadable file.
#[derive(Debug)]
pub struct Finding {
    /// Path relative to the repository root.
    pub path: String,
    /// 1-based line number (0 for an unreadable file).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.path, self.line, self.message)
    }
}

/// Scans the workspace's own sources: `src`, `tests`, `examples` and
/// `benches` of the root package and of every crate under `crates/`. The
/// vendored shims mirror external APIs and are not held to repo rules, and
/// the frozen `perfbench` package is outside the workspace.
pub fn check_repo(repo: &Path) -> Vec<Finding> {
    let mut packages = vec![repo.to_path_buf()];
    if let Ok(entries) = std::fs::read_dir(repo.join("crates")) {
        packages.extend(entries.filter_map(|e| e.ok().map(|e| e.path())));
    }
    let mut paths: Vec<PathBuf> = Vec::new();
    for package in packages {
        for dir in ["src", "tests", "examples", "benches"] {
            collect_rs(&package.join(dir), &mut paths);
        }
    }
    paths.sort();
    let mut findings = Vec::new();
    for path in paths {
        let rel = path.strip_prefix(repo).unwrap_or(&path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(&path) {
            Ok(text) => findings.extend(scan(&SourceFile::parse(&rel, &text))),
            Err(err) => findings.push(Finding {
                path: rel,
                line: 0,
                message: format!("unreadable: {err}"),
            }),
        }
    }
    findings
}

/// Recursively collects the `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One finding per `==`/`!=` in `file` with a zero or infinity operand.
pub fn scan(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, code) in file.code.iter().enumerate() {
        for op in ["==", "!="] {
            for (pos, _) in code.match_indices(op) {
                let before = code[..pos].trim_end();
                let left = before.rsplit(|c| !is_operand_char(c)).next();
                let after = code[pos + op.len()..].trim_start().trim_start_matches('-');
                let right = after.split(|c| !is_operand_char(c)).next();
                if [left, right].into_iter().flatten().any(is_zero_or_infinity) {
                    findings.push(Finding {
                        path: file.path.clone(),
                        line: idx + 1,
                        message: format!(
                            "[float-eq] raw float `{op}` against zero or infinity (clippy's \
                             `float_cmp` lets it through); use \
                             `mrcc_common::float::exactly`"
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Characters of a literal or a constant path (`f64::INFINITY`, `0.0_f64`).
fn is_operand_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':')
}

/// `true` for `…INFINITY` paths and for float literals whose digits are all
/// zero. Integer literals (`0`) are not floats and stay allowed.
fn is_zero_or_infinity(token: &str) -> bool {
    if token.ends_with("INFINITY") {
        return true;
    }
    let digits = token.trim_end_matches("f64").trim_end_matches("f32");
    let is_float = digits.len() < token.len() || digits.contains(['.', 'e', 'E']);
    let mantissa = digits.split(['e', 'E']).next().unwrap_or("");
    is_float && mantissa.starts_with('0') && mantissa.chars().all(|c| matches!(c, '0' | '.' | '_'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<usize> {
        let file = SourceFile::parse("f.rs", src);
        scan(&file).iter().map(|f| f.line).collect()
    }

    #[test]
    fn flags_zero_and_infinity_in_every_spelling() {
        let bad = "a == 0.0\n0. != b\nc == -0.0\nd != 0e0\ne == 0f64\nf == 0.0_f32\n\
                   g == f64::INFINITY\nstd::f32::NEG_INFINITY != h\nx.fract() == 0.0\n";
        assert_eq!(lines(bad), (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn spares_integers_other_floats_orderings_and_text() {
        let good = "v.len() == 0\nx == 0.5\nx == 1e-9\nx <= 0.0\nx >= 0.0\nt.0 == y\n\
                    let s = \"x == 0.0\"; // x == 0.0\nexactly(x, 0.0)\nx.is_infinite()\n";
        assert!(lines(good).is_empty(), "{:?}", lines(good));
    }

    #[test]
    fn flags_the_bad_fixture_and_spares_the_good_one() {
        let bad = include_str!("../fixtures/clippy/bad.rs");
        let bad = SourceFile::parse("bad.rs", bad);
        let flagged: Vec<&str> = scan(&bad)
            .iter()
            .map(|f| bad.code[f.line - 1].trim())
            .collect();
        assert_eq!(flagged, ["x == 0.0", "x != f64::INFINITY"]);
        let good = SourceFile::parse("good.rs", include_str!("../fixtures/clippy/good.rs"));
        assert!(scan(&good).is_empty());
    }
}
