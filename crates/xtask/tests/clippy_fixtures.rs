//! The repo's source rules are clippy lints; this test proves they fire.
//!
//! It builds two throwaway crates from `fixtures/clippy/{bad,good}.rs`
//! under the live lint configuration: the `[workspace.lints]` tables of the
//! root `Cargo.toml`, the root `clippy.toml`, and the clippy attributes at
//! the top of every library crate's `lib.rs`, copied onto one module per
//! crate. It runs clippy on
//! each as CI does. Every rule must fire in the bad fixture exactly where its
//! scope says, and the good fixture must pass, so deleting a rule from
//! either place fails this test. A member that stops opting into the
//! workspace table fails it too.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Rules that hold in every crate.
const EVERYWHERE: [&str; 4] = [
    "clippy::float_cmp",
    "clippy::float_cmp_const",
    "clippy::undocumented_unsafe_blocks",
    "clippy::allow_attributes_without_reason",
];

/// Crates whose library code may not unwrap, expect, index, panic or leave
/// a panic undocumented.
const PANIC_FREE_CRATES: [&str; 4] = ["common", "stats", "counting_tree", "core"];

/// Crates whose library code may not use bare `as` casts.
const CAST_STRICT_CRATES: [&str; 2] = ["stats", "counting_tree"];

fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap().to_path_buf()
}

/// The manifest of every workspace member: the root package and each
/// directory of `crates/*` and `vendor/*`.
fn member_manifests(repo: &Path) -> Vec<PathBuf> {
    let mut manifests = vec![repo.join("Cargo.toml")];
    for group in ["crates", "vendor"] {
        for entry in fs::read_dir(repo.join(group)).unwrap() {
            let manifest = entry.unwrap().path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    manifests.sort();
    manifests
}

/// `(module name, lib.rs)` of every workspace library crate: `crates/<dir>`
/// becomes module `<dir>` (`-` → `_`), the root facade becomes `facade`.
fn library_crates(repo: &Path) -> Vec<(String, PathBuf)> {
    let mut libs = vec![("facade".to_string(), repo.join("src/lib.rs"))];
    for entry in fs::read_dir(repo.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let name = dir.file_name().unwrap().to_string_lossy().replace('-', "_");
        if dir.join("src/lib.rs").is_file() {
            libs.push((name, dir.join("src/lib.rs")));
        }
    }
    libs.sort();
    libs
}

/// The body of the `header` table of `toml`, up to the next table.
fn toml_table(toml: &str, header: &str) -> String {
    let body = toml.lines().skip_while(|line| line.trim() != header);
    let body = body.skip(1).take_while(|line| !line.starts_with('['));
    body.map(|line| format!("{line}\n")).collect()
}

/// The clippy attributes of the leading attribute block of `lib_rs` (up to
/// the first blank line), rewritten as outer attributes.
fn clippy_attributes(lib_rs: &str) -> String {
    let head = lib_rs.split("\n\n").next().unwrap();
    let attrs = head.split("#![").filter(|attr| attr.contains("clippy::"));
    attrs.map(|attr| format!("#[{}\n", attr.trim())).collect()
}

/// Writes the `kind` fixture crate under the test's scratch directory.
fn generate(repo: &Path, kind: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("clippy-fixture-{kind}"));
    fs::create_dir_all(&dir).unwrap();
    let root = fs::read_to_string(repo.join("Cargo.toml")).unwrap();
    let manifest = format!(
        "[package]\nname = \"lint-fixture-{kind}\"\n{}\n[lib]\npath = \"lib.rs\"\n\n\
         [workspace]\n\n[lints.rust]\n{}\n[lints.clippy]\n{}",
        toml_table(&root, "[workspace.package]"),
        toml_table(&root, "[workspace.lints.rust]"),
        toml_table(&root, "[workspace.lints.clippy]"),
    );
    fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    fs::copy(repo.join("clippy.toml"), dir.join("clippy.toml")).unwrap();
    let fixture = repo.join(format!("crates/xtask/fixtures/clippy/{kind}.rs"));
    let fixture = fs::read_to_string(fixture).unwrap();
    let mut lib = String::from("//! One fixture module per workspace library crate.\n");
    for (module, lib_rs) in library_crates(repo) {
        let attrs = clippy_attributes(&fs::read_to_string(lib_rs).unwrap());
        lib += &format!("\n/// Under `{module}`'s clippy attributes.\n{attrs}pub mod {module};\n");
        fs::write(dir.join(format!("{module}.rs")), &fixture).unwrap();
    }
    fs::write(dir.join("lib.rs"), lib).unwrap();
    dir
}

/// Runs clippy with CI's flags on the `kind` fixture crate. Returns whether
/// it passed, and the diagnostic codes per module (the file of each
/// diagnostic's primary span).
fn clippy(kind: &str) -> (bool, BTreeMap<String, BTreeSet<String>>) {
    let repo = repo_root();
    let dir = generate(&repo, kind);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--all-targets",
            "--keep-going",
        ])
        .args(["--message-format=json", "--manifest-path"])
        .arg(dir.join("Cargo.toml"))
        .args(["--", "-D", "warnings"])
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .output()
        .expect("cargo clippy runs");
    let mut found: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let record: Value = serde_json::from_str(line).unwrap();
        let message = &record["message"];
        let spans = message["spans"].as_array().map_or(&[][..], Vec::as_slice);
        // Summaries ("aborting due to …") have no primary span.
        if let Some(primary) = spans
            .iter()
            .find(|s| s["is_primary"].as_bool() == Some(true))
        {
            let file = Path::new(primary["file_name"].as_str().unwrap());
            let module = file.file_stem().unwrap().to_string_lossy().into_owned();
            let code = message["code"]["code"].as_str().unwrap_or("uncoded");
            found.entry(module).or_default().insert(code.to_string());
        }
    }
    (output.status.success(), found)
}

#[test]
fn bad_fixture_trips_each_rule_where_it_is_in_scope() {
    let (passed, found) = clippy("bad");
    assert!(!passed, "clippy passed on the bad fixture");
    for (module, _) in library_crates(&repo_root()) {
        let mut expected = BTreeSet::from(EVERYWHERE);
        if PANIC_FREE_CRATES.contains(&module.as_str()) {
            expected.extend([
                "clippy::unwrap_used",
                "clippy::expect_used",
                "clippy::indexing_slicing",
                "clippy::panic",
                "clippy::unreachable",
                "clippy::todo",
                "clippy::unimplemented",
                "clippy::missing_panics_doc",
            ]);
        }
        if CAST_STRICT_CRATES.contains(&module.as_str()) {
            expected.insert("clippy::as_conversions");
        }
        let got = found.get(&module).into_iter().flatten();
        let got: BTreeSet<&str> = got.map(String::as_str).collect();
        assert_eq!(got, expected, "lints on the bad fixture under `{module}`");
    }
}

#[test]
fn good_fixture_is_clean() {
    let (passed, found) = clippy("good");
    assert!(found.is_empty(), "clippy on the good fixture: {found:#?}");
    assert!(passed, "clippy failed on the good fixture");
}

#[test]
fn every_member_opts_into_the_workspace_lints() {
    for manifest in member_manifests(&repo_root()) {
        let toml = fs::read_to_string(&manifest).unwrap();
        let lints = toml_table(&toml, "[lints]");
        assert!(
            lints.lines().any(|line| line.trim() == "workspace = true"),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}
