//! Self-test of the benchmark on scaled-down workloads: every metric named
//! in `BENCHMARK.json` is emitted with its unit, the exact counts repeat
//! across runs, and the correctness gate trips on corrupted results.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use mrcc::{MrCC, MrCCConfig};
use mrcc_common::SubspaceClustering;
use perfbench::gate::{quality, quality_floor, same_outcome, Ledger, Outcome};
use perfbench::layers::{self, SERIAL};
use perfbench::trace::Tracer;
use perfbench::workload::{catalogue, find};
use serde_json::Value;

/// Share of each workload's points the smoke runs use.
const SCALE: &str = "0.1";

/// Counts that must repeat exactly between two runs of one seed.
const EXACT: &[&str] = &[
    "tree.cells",
    "search.betas",
    "merge.containments",
    "merge.unions",
    "soft.shared_points",
];

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    benchmark_json()[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark binary and returns its last stdout line, parsed.
fn run(workload: &str, seed: u64, trace: u8) -> Value {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            &trace.to_string(),
            "--scale",
            SCALE,
        ])
        .arg("--work-dir")
        .arg(&work_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

fn check_result(result: &Value, expected: &[(String, String)], what: &str) {
    let keys: Vec<&str> = match result {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("{what}: result is not an object"),
    };
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result["correct"].as_bool(), Some(true), "{what}: {result}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{what}");
    assert!(result["attempted"].as_u64().unwrap() >= 1, "{what}");
    let metrics = &result["metrics"];
    let emitted = match metrics {
        Value::Object(entries) => entries.len(),
        _ => panic!("{what}: metrics is not an object"),
    };
    assert_eq!(emitted, expected.len(), "{what}: {metrics}");
    for (name, unit) in expected {
        let metric = &metrics[name.as_str()];
        assert_eq!(
            metric["unit"].as_str(),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = metric["value"].as_f64();
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {metric}"
        );
    }
}

#[test]
fn every_declared_metric_is_emitted_and_exact_counts_repeat() {
    let workloads: Vec<String> = benchmark_json()["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap().to_string())
        .collect();
    let names: Vec<String> = catalogue().unwrap().into_iter().map(|w| w.name).collect();
    assert_eq!(
        workloads, names,
        "BENCHMARK.json and workloads.json list the same workloads"
    );

    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for name in &workloads {
        let seed = find(name).unwrap().held_out_seed;
        check_result(
            &run(name, seed, 0),
            &end_to_end,
            &format!("{name} --trace 0"),
        );
        let first = run(name, seed, 1);
        check_result(&first, &per_layer, &format!("{name} --trace 1"));
        let second = run(name, seed, 1);
        for count in EXACT {
            let a = first["metrics"][*count]["value"].as_f64();
            let b = second["metrics"][*count]["value"].as_f64();
            assert_eq!(a, b, "{name}: {count} differs between two runs");
        }
    }
}

#[test]
fn correctness_gate_trips_on_corrupted_results() {
    let workload = find("paper14d").unwrap();
    let input = workload.input(workload.held_out_seed, 0.1);
    let ds = &input.dataset;
    let result = MrCC::default().fit(ds).unwrap();
    let good = Outcome::of(&result);

    // The layer-by-layer composition reproduces the fit.
    let composed = layers::compose(&mut Tracer::default(), ds, &MrCCConfig::default(), SERIAL)
        .unwrap()
        .result;
    assert_eq!(same_outcome(&good, &Outcome::of(&composed)), Ok(()));
    let q = quality(&result.clustering, &input.truth);
    assert_eq!(quality_floor(q, workload.quality_floor), Ok(()));

    let mut relabeled = good.clone();
    let clustered = relabeled.labels.iter().position(|&l| l >= 0).unwrap();
    relabeled.labels[clustered] = -1;
    let mut fewer_betas = good.clone();
    fewer_betas.betas -= 1;
    let mut more_clusters = good.clone();
    more_clusters.clusters += 1;

    let mut ledger = Ledger::default();
    ledger.record("labels", same_outcome(&good, &relabeled));
    ledger.record("betas", same_outcome(&good, &fewer_betas));
    ledger.record("clusters", same_outcome(&good, &more_clusters));
    let all_noise = SubspaceClustering::empty(ds.len(), ds.dims());
    ledger.record(
        "quality",
        quality_floor(quality(&all_noise, &input.truth), workload.quality_floor),
    );
    ledger.record("fit", same_outcome(&good, &good));
    assert_eq!(
        (ledger.attempted, ledger.failed),
        (5, 4),
        "{:?}",
        ledger.failures
    );
}
