//! Golden-fixture regression tests for the full MrCC pipeline.
//!
//! Two small committed CSV datasets under `tests/golden/` come with an
//! expected-output JSON capturing the complete clustering: point labels,
//! every β-cluster (level, axes, center, bit-exact bounds) and every
//! correlation cluster (axes, members, size, bit-exact hull). The fit —
//! with the default configuration *and* with `with_threads(4)`, which must
//! not change any output — must reproduce the files exactly.
//!
//! Float fields are stored as hexadecimal [`f64::to_bits`] strings, because
//! the claim under test is representation equality, and JSON numbers (f64 in
//! the vendored parser) cannot carry 64 raw bits losslessly.
//!
//! To regenerate after an intentional algorithm change, run
//!
//! ```text
//! MRCC_BLESS_GOLDEN=1 cargo test --test golden_fixtures
//! ```
//!
//! and commit the rewritten files together with the change that justifies
//! them. Blessing rewrites both the CSVs (from fixed generator specs) and
//! the expected JSON (from a fresh serial fit).

use std::path::PathBuf;

use mrcc_repro::prelude::*;
use serde_json::Value;

/// The two committed workloads: a clustered one and a noise-heavy one.
fn fixtures() -> [(&'static str, SyntheticSpec); 2] {
    [
        (
            "blobs",
            SyntheticSpec::new("golden-blobs", 5, 800, 2, 0.15, 5),
        ),
        (
            "noisy",
            SyntheticSpec::new("golden-noisy", 3, 500, 1, 0.30, 21),
        ),
    ]
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn json_u64(v: &Value, what: &str) -> u64 {
    v.as_u64().unwrap_or_else(|| panic!("{what}: not a u64"))
}

fn json_bits(v: &Value, what: &str) -> u64 {
    let s = v.as_str().unwrap_or_else(|| panic!("{what}: not a string"));
    u64::from_str_radix(s, 16).unwrap_or_else(|_| panic!("{what}: bad bit string {s:?}"))
}

/// Serializes a fit into the golden schema.
fn result_to_json(r: &MrCCResult) -> Value {
    let labels: Vec<Value> = r
        .clustering
        .labels()
        .into_iter()
        .map(|l| Value::Number(f64::from(l)))
        .collect();
    let betas: Vec<Value> = r
        .beta_clusters
        .iter()
        .map(|b| {
            let d = b.bounds.dims();
            Value::Object(vec![
                ("level".to_string(), Value::Number(b.level as f64)),
                (
                    "axes".to_string(),
                    Value::Array(b.axes.iter().map(|j| Value::Number(j as f64)).collect()),
                ),
                (
                    "center".to_string(),
                    Value::Array(
                        b.center_coords
                            .iter()
                            .map(|&c| Value::Number(c as f64))
                            .collect(),
                    ),
                ),
                (
                    "lower_bits".to_string(),
                    Value::Array(
                        (0..d)
                            .map(|j| Value::String(bits_hex(b.bounds.lower(j))))
                            .collect(),
                    ),
                ),
                (
                    "upper_bits".to_string(),
                    Value::Array(
                        (0..d)
                            .map(|j| Value::String(bits_hex(b.bounds.upper(j))))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let clusters: Vec<Value> = r
        .clusters
        .iter()
        .map(|c| {
            let d = c.hull.dims();
            Value::Object(vec![
                (
                    "axes".to_string(),
                    Value::Array(c.axes.iter().map(|j| Value::Number(j as f64)).collect()),
                ),
                (
                    "beta_indices".to_string(),
                    Value::Array(
                        c.beta_indices
                            .iter()
                            .map(|&i| Value::Number(i as f64))
                            .collect(),
                    ),
                ),
                ("size".to_string(), Value::Number(c.size as f64)),
                (
                    "hull_lower_bits".to_string(),
                    Value::Array(
                        (0..d)
                            .map(|j| Value::String(bits_hex(c.hull.lower(j))))
                            .collect(),
                    ),
                ),
                (
                    "hull_upper_bits".to_string(),
                    Value::Array(
                        (0..d)
                            .map(|j| Value::String(bits_hex(c.hull.upper(j))))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("labels".to_string(), Value::Array(labels)),
        ("beta_clusters".to_string(), Value::Array(betas)),
        ("clusters".to_string(), Value::Array(clusters)),
    ])
}

/// Panics unless `r` matches the golden `expected` value exactly.
fn assert_matches_golden(r: &MrCCResult, expected: &Value, context: &str) {
    let labels = expected["labels"]
        .as_array()
        .unwrap_or_else(|| panic!("{context}: golden labels missing"));
    let got = r.clustering.labels();
    assert_eq!(got.len(), labels.len(), "{context}: label count");
    for (i, (g, e)) in got.iter().zip(labels.iter()).enumerate() {
        let e = e.as_f64().unwrap_or_else(|| panic!("{context}: label {i}"));
        assert_eq!(i64::from(*g), e as i64, "{context}: label of point {i}");
    }

    let betas = expected["beta_clusters"]
        .as_array()
        .unwrap_or_else(|| panic!("{context}: golden β list missing"));
    assert_eq!(r.beta_clusters.len(), betas.len(), "{context}: β count");
    for (k, (b, e)) in r.beta_clusters.iter().zip(betas.iter()).enumerate() {
        let what = format!("{context}: β {k}");
        assert_eq!(b.level as u64, json_u64(&e["level"], &what), "{what} level");
        let axes: Vec<u64> = b.axes.iter().map(|j| j as u64).collect();
        let want_axes: Vec<u64> = e["axes"]
            .as_array()
            .unwrap_or_else(|| panic!("{what} axes"))
            .iter()
            .map(|v| json_u64(v, &what))
            .collect();
        assert_eq!(axes, want_axes, "{what} axes");
        let want_center: Vec<u64> = e["center"]
            .as_array()
            .unwrap_or_else(|| panic!("{what} center"))
            .iter()
            .map(|v| json_u64(v, &what))
            .collect();
        assert_eq!(b.center_coords, want_center, "{what} center");
        for j in 0..b.bounds.dims() {
            assert_eq!(
                b.bounds.lower(j).to_bits(),
                json_bits(&e["lower_bits"][j], &what),
                "{what} lower {j}"
            );
            assert_eq!(
                b.bounds.upper(j).to_bits(),
                json_bits(&e["upper_bits"][j], &what),
                "{what} upper {j}"
            );
        }
    }

    let clusters = expected["clusters"]
        .as_array()
        .unwrap_or_else(|| panic!("{context}: golden cluster list missing"));
    assert_eq!(r.clusters.len(), clusters.len(), "{context}: γ count");
    for (k, (c, e)) in r.clusters.iter().zip(clusters.iter()).enumerate() {
        let what = format!("{context}: γ {k}");
        let axes: Vec<u64> = c.axes.iter().map(|j| j as u64).collect();
        let want_axes: Vec<u64> = e["axes"]
            .as_array()
            .unwrap_or_else(|| panic!("{what} axes"))
            .iter()
            .map(|v| json_u64(v, &what))
            .collect();
        assert_eq!(axes, want_axes, "{what} axes");
        let members: Vec<u64> = c.beta_indices.iter().map(|&i| i as u64).collect();
        let want_members: Vec<u64> = e["beta_indices"]
            .as_array()
            .unwrap_or_else(|| panic!("{what} members"))
            .iter()
            .map(|v| json_u64(v, &what))
            .collect();
        assert_eq!(members, want_members, "{what} members");
        assert_eq!(c.size as u64, json_u64(&e["size"], &what), "{what} size");
        for j in 0..c.hull.dims() {
            assert_eq!(
                c.hull.lower(j).to_bits(),
                json_bits(&e["hull_lower_bits"][j], &what),
                "{what} hull lower {j}"
            );
            assert_eq!(
                c.hull.upper(j).to_bits(),
                json_bits(&e["hull_upper_bits"][j], &what),
                "{what} hull upper {j}"
            );
        }
    }
}

fn bless_requested() -> bool {
    std::env::var("MRCC_BLESS_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn golden_fixtures_reproduce_exactly() {
    let dir = golden_dir();
    for (name, spec) in fixtures() {
        let csv_path = dir.join(format!("{name}.csv"));
        let json_path = dir.join(format!("{name}.expected.json"));

        if bless_requested() {
            let synth = generate(&spec);
            std::fs::create_dir_all(&dir).unwrap();
            mrcc_repro::common::csv::write_dataset_file(&csv_path, &synth.dataset, None).unwrap();
        }

        // Always fit the dataset as read back from the CSV, so the committed
        // file (post float→text→float round-trip) is the single source of
        // truth for both bless and verify runs.
        let ds = mrcc_repro::common::csv::read_dataset_file(&csv_path).unwrap_or_else(|e| {
            panic!(
                "{name}: cannot read {} ({e}); run with MRCC_BLESS_GOLDEN=1 to create fixtures",
                csv_path.display()
            )
        });
        let serial = MrCC::new(MrCCConfig::default()).fit(&ds).unwrap();

        if bless_requested() {
            let json = serde_json::to_string_pretty(&result_to_json(&serial)).unwrap();
            std::fs::write(&json_path, json).unwrap();
        }

        let text = std::fs::read_to_string(&json_path)
            .unwrap_or_else(|e| panic!("{name}: cannot read {} ({e})", json_path.display()));
        let expected: Value = serde_json::from_str(&text).unwrap();

        assert_matches_golden(&serial, &expected, &format!("{name} serial"));
        let four_threads = MrCC::new(MrCCConfig::default().with_threads(4))
            .fit(&ds)
            .unwrap();
        assert_matches_golden(&four_threads, &expected, &format!("{name} threads(4)"));
    }
}
