//! The `float-eq` rule over the whole workspace: any float compare against
//! zero or infinity in the scanned sources fails this test.

use std::path::Path;

#[test]
fn workspace_has_no_float_eq_compares() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let findings = xtask::float_eq::check_repo(repo);
    let report: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "{}", report.join("\n"));
}
