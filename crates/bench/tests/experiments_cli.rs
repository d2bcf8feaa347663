//! The `experiments` binary answers a malformed command line with its usage
//! line and exit status 2, before running anything.

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
