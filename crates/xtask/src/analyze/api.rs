//! Public-API snapshot: the `pub` surface of every library crate, diffed
//! against a committed baseline.
//!
//! Each crate's surface is rendered into sorted, whitespace-normalized lines
//! (`api/<crate>.txt` at the repo root): public functions with their full
//! signatures (associated functions keyed `Type::name`), structs with their
//! `pub` fields only, enums with every variant, traits, constants, statics,
//! type aliases and `pub use` re-exports. Any difference between the rendered
//! surface and the committed snapshot — a changed signature, a removed
//! variant, a new export — fails `analyze` until the change is accepted with
//! `analyze --bless`, which makes API drift an explicit, reviewable part of
//! every refactor PR.
//!
//! Known over-approximation: module privacy is ignored — a `pub fn` inside a
//! private `mod` is snapshotted even though it is not nameable from outside.
//! That errs toward tracking *more* surface, never less, and this workspace's
//! crates expose their modules publicly anyway.

use crate::ast::{TypeKind, Vis};
use std::path::Path;

use super::{CrateAst, Finding};

/// Repo-relative directory holding the committed snapshots.
pub const SNAPSHOT_DIR: &str = "api";

/// Renders one crate's public surface as sorted snapshot lines.
pub fn render(krate: &CrateAst) -> String {
    let mut lines = vec![format!("# public API surface of `{}`", krate.name)];
    let mut body = Vec::new();
    for src in &krate.files {
        for f in &src.parsed.fns {
            if f.vis != Vis::Pub || f.is_test || f.in_trait_impl {
                continue;
            }
            // `fn name (…)` → `fn Type::name (…)` for associated functions.
            let tail = f
                .signature
                .strip_prefix(&format!("fn {}", f.name))
                .unwrap_or(&f.signature);
            body.push(format!("{}fn {}{tail}", prefix(&f.module), f.key()));
        }
        for t in &src.parsed.types {
            if t.vis != Vis::Pub || t.is_test {
                continue;
            }
            let decl = match t.kind {
                TypeKind::Reexport => format!("pub {}", t.decl),
                _ => t.decl.clone(),
            };
            body.push(format!("{}{decl}", prefix(&t.module)));
        }
    }
    body.sort();
    body.dedup();
    lines.extend(body);
    lines.join("\n") + "\n"
}

/// `outer::inner::` prefix for items in inline modules.
fn prefix(module: &[String]) -> String {
    if module.is_empty() {
        String::new()
    } else {
        format!("{}::", module.join("::"))
    }
}

/// Diffs a rendered surface against the committed snapshot text.
pub fn diff(crate_name: &str, committed: &str, current: &str) -> Vec<Finding> {
    let path = format!("{SNAPSHOT_DIR}/{crate_name}.txt");
    let lines = |text: &str| -> Vec<String> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    };
    let old = lines(committed);
    let new = lines(current);
    if committed.is_empty() {
        return vec![Finding {
            path,
            line: 0,
            slug: "api-drift",
            message: format!(
                "no committed API snapshot for crate `{crate_name}`; \
                 run `cargo run -p xtask -- analyze --bless` and commit it"
            ),
        }];
    }
    let mut findings = Vec::new();
    for line in &new {
        if !old.contains(line) {
            findings.push(Finding {
                path: path.clone(),
                line: 0,
                slug: "api-drift",
                message: format!("public API added or changed: `{line}`; accept with `--bless`"),
            });
        }
    }
    for line in &old {
        if !new.contains(line) {
            findings.push(Finding {
                path: path.clone(),
                line: 0,
                slug: "api-drift",
                message: format!("public API removed or changed: `{line}`; accept with `--bless`"),
            });
        }
    }
    findings
}

/// Filesystem wrapper: diffs every crate against `api/<crate>.txt`, rewriting
/// the snapshots (and pruning stale ones) under `--bless`.
pub fn check_repo(repo: &Path, crates: &[CrateAst], bless: bool) -> Vec<Finding> {
    let dir = repo.join(SNAPSHOT_DIR);
    let mut findings = Vec::new();
    if bless {
        if let Err(err) = std::fs::create_dir_all(&dir) {
            return vec![io_finding(SNAPSHOT_DIR, &err.to_string())];
        }
    }
    for krate in crates {
        let current = render(krate);
        let path = dir.join(format!("{}.txt", krate.name));
        if bless {
            if let Err(err) = std::fs::write(&path, &current) {
                findings.push(io_finding(SNAPSHOT_DIR, &err.to_string()));
            }
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_default();
        findings.extend(diff(&krate.name, &committed, &current));
    }
    // Snapshots for crates that no longer exist.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().to_string();
            let Some(stem) = name.strip_suffix(".txt") else {
                continue;
            };
            if crates.iter().any(|c| c.name == stem) {
                continue;
            }
            if bless {
                let _ = std::fs::remove_file(entry.path());
            } else {
                findings.push(Finding {
                    path: format!("{SNAPSHOT_DIR}/{name}"),
                    line: 0,
                    slug: "api-drift",
                    message: format!(
                        "snapshot for unknown crate `{stem}`; remove it (or run `--bless`)"
                    ),
                });
            }
        }
    }
    findings
}

fn io_finding(path: &str, message: &str) -> Finding {
    Finding {
        path: path.to_string(),
        line: 0,
        slug: "io",
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_crate() -> CrateAst {
        CrateAst::from_sources(
            "mrcc-demo",
            &[(
                "crates/demo/src/lib.rs",
                "pub struct Pt { pub x: f64, y: f64 }\n\
                 impl Pt {\n\
                 \x20   pub fn x(&self) -> f64 { self.x }\n\
                 \x20   fn hidden(&self) {}\n\
                 }\n\
                 impl Clone for Pt { fn clone(&self) -> Pt { Pt { x: self.x, y: self.y } } }\n\
                 pub fn free(a: u32) -> u32 { a }\n\
                 pub const MAX: usize = 64;\n\
                 #[cfg(test)]\nmod tests {\n    pub fn t() {}\n}\n",
            )],
        )
    }

    #[test]
    fn render_lists_only_public_non_test_surface() {
        let s = render(&demo_crate());
        assert!(s.contains("fn Pt::x"), "{s}");
        assert!(s.contains("fn free"), "{s}");
        assert!(s.contains("const MAX : usize"), "{s}");
        assert!(s.contains("pub x : f64"), "{s}");
        assert!(!s.contains("y : f64 }"), "private field leaked: {s}");
        assert!(!s.contains("hidden"), "{s}");
        assert!(!s.contains("clone"), "trait impl leaked: {s}");
        assert!(!s.contains("fn t"), "test fn leaked: {s}");
    }

    #[test]
    fn unchanged_surface_diffs_clean() {
        let s = render(&demo_crate());
        assert!(diff("mrcc-demo", &s, &s).is_empty());
    }

    #[test]
    fn changed_signature_is_both_added_and_removed() {
        let old = render(&demo_crate());
        let new = old.replace("fn free ( a : u32 ) - > u32", "fn free ( a : u64 ) - > u64");
        assert_ne!(old, new, "replacement must hit");
        let findings = diff("mrcc-demo", &old, &new);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings.iter().all(|f| f.slug == "api-drift"));
    }

    #[test]
    fn missing_snapshot_is_one_clear_finding() {
        let findings = diff("mrcc-demo", "", &render(&demo_crate()));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("--bless"));
    }

    #[test]
    fn render_is_stable_and_sorted() {
        let a = render(&demo_crate());
        let b = render(&demo_crate());
        assert_eq!(a, b);
        let body: Vec<&str> = a.lines().filter(|l| !l.starts_with('#')).collect();
        let mut sorted = body.clone();
        sorted.sort_unstable();
        assert_eq!(body, sorted);
    }
}
