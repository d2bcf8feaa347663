//! The malformed-input corpus through the `mrcc` binary: every `bad_*` file
//! of `crates/common/tests/csv_corpus/` makes `cluster` and `info` exit 1
//! with an `error:` line, and none of them panics. The `ok_*` files load.

use std::path::PathBuf;
use std::process::{Command, Output};

fn corpus() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../common/tests/csv_corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

fn is_bad(path: &std::path::Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("bad_"))
}

fn mrcc(command: &str, input: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrcc"))
        .args([command, "--input"])
        .arg(input)
        .output()
        .unwrap()
}

#[test]
fn bad_inputs_exit_one_with_an_error_line() {
    let bad: Vec<PathBuf> = corpus().into_iter().filter(|p| is_bad(p)).collect();
    assert!(bad.len() >= 10, "{bad:?}");
    for input in &bad {
        for command in ["cluster", "info"] {
            let out = mrcc(command, input);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("{command} {}: {stderr}", input.display());
            assert_eq!(out.status.code(), Some(1), "{case}");
            assert!(stderr.starts_with("error:"), "{case}");
            assert!(!stderr.contains("panicked"), "{case}");
        }
    }
}

#[test]
fn good_inputs_load() {
    for input in corpus().iter().filter(|p| !is_bad(p)) {
        let out = mrcc("info", input);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{}", input.display());
        assert!(stdout.contains("2 points x 2 axes"), "{stdout}");
    }
}
