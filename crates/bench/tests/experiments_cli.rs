//! The `experiments` binary answers a malformed command line with its usage
//! line and exit status 2, before running anything, and a scale too small
//! for a dataset's spec with an error and exit status 1.

use std::process::Command;

#[test]
fn malformed_flags_print_usage_and_exit_2() {
    for args in [
        &["--scale", "abc"][..],
        &["--scale", "-1"],
        &["--scale"],
        &["--timeout", "soon"],
        &["fig5", "--out"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_scale_too_small_for_the_specs_exits_1() {
    let out_dir = std::env::temp_dir().join("mrcc-experiments-tiny-scale");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "0.000001", "--out"])
        .arg(&out_dir)
        .arg("fig4-h")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("experiment fig4-h failed:") && stderr.contains("clusters"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
