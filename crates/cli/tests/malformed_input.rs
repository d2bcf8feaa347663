//! The malformed-input corpus through the `mrcc` binary: every `bad_*` file
//! of `crates/common/tests/csv_corpus/` makes `cluster` and `info` exit 1
//! with an `error:` line, and none of them panics. The `ok_*` files load.
//! `evaluate` takes label ids of any size and rejects labels below `-1`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mrcc_common::{csv, Dataset};

fn corpus() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../common/tests/csv_corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

fn is_bad(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("bad_"))
}

fn mrcc(command: &str, input: &Path) -> Output {
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

/// Runs `mrcc evaluate` on `found` labels against fixed truth labels over
/// the same 20 points.
fn evaluate(name: &str, found: &[i32]) -> Output {
    let dir = std::env::temp_dir().join("mrcc-cli-evaluate");
    std::fs::create_dir_all(&dir).unwrap();
    let rows: Vec<[f64; 2]> = (0..20).map(|i| [f64::from(i) / 20.0, 0.5]).collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let truth: Vec<i32> = (0..20).map(|i| i32::from(i >= 10)).collect();
    let (found_path, truth_path) = (dir.join(format!("{name}.csv")), dir.join("truth.csv"));
    csv::write_dataset_file(&found_path, &ds, Some(found)).unwrap();
    csv::write_dataset_file(&truth_path, &ds, Some(&truth)).unwrap();
    let arg = |p: &Path| p.to_str().unwrap().to_owned();
    Command::new(env!("CARGO_BIN_EXE_mrcc"))
        .args([
            "evaluate",
            "--found",
            &arg(&found_path),
            "--truth",
            &arg(&truth_path),
        ])
        .output()
        .unwrap()
}

#[test]
fn evaluate_takes_large_label_ids() {
    let found = |big: i32| -> Vec<i32> {
        (0..20)
            .map(|i| match i {
                0..=7 => 0,
                8 | 9 => -1,
                _ => big,
            })
            .collect()
    };
    let small = evaluate("labels_small", &found(1));
    assert!(small.status.success(), "{small:?}");
    let quality = String::from_utf8(small.stdout).unwrap();
    assert!(quality.starts_with("Quality"), "{quality}");
    for big in [2_147_483_647, 400_000_000] {
        let out = evaluate(&format!("labels_{big}"), &found(big));
        assert_eq!(out.status.code(), Some(0), "label {big}: {out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            quality,
            "label {big}"
        );
    }
    let mut bad = found(1);
    bad[3] = -2;
    let out = evaluate("labels_below_noise", &bad);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error:") && stderr.contains("labels must be ≥ -1"),
        "{stderr}"
    );
}
