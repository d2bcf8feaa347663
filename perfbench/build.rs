//! Records the compiler version and the repository revision for the host
//! fingerprint every report carries. Both fall back to `unknown` (a source
//! checkout without `.git`, or no `git` on the path).

use std::path::Path;
use std::process::Command;

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        capture(&rustc, &["--version"])
    );
    // `--git-dir` pins the lookup to this repository: a checkout without
    // `.git` reports `unknown` instead of some enclosing repository's HEAD.
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        capture(
            "git",
            &["--git-dir=../.git", "rev-parse", "--short=12", "HEAD"]
        )
    );
    println!("cargo:rerun-if-changed=build.rs");
    for moved_by_commits in ["../.git/HEAD", "../.git/refs/heads"] {
        if Path::new(moved_by_commits).exists() {
            println!("cargo:rerun-if-changed={moved_by_commits}");
        }
    }
}
