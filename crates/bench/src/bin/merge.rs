//! η-sweep for the single-scan merge/labeling engine.
//!
//! ```text
//! merge [--points N] [--runs R] [--out FILE]
//! ```
//!
//! Generates one fixed-seed synthetic workload (default 40 000 points,
//! 10 axes, 4 clusters), freezes the β-cluster set found on the *full*
//! workload, then times phase three alone over growing dataset prefixes
//! (η/8, η/4, η/2, η) — best of `R` runs each (default 3). Every timed run
//! is checked bit-identical to the retained quadratic oracle before its
//! timing is recorded, so the sweep doubles as an end-to-end equivalence
//! check.
//!
//! The report (default `BENCH_merge.json`) records seconds-per-point at
//! every η: the paper's bound says merge time is linear in η at fixed β,
//! i.e. `points_per_second` should stay flat across the sweep, and
//! `linearity_ratio` (slowest per-point rate over fastest) should stay
//! near 1. The oracle's own single-run timing is reported alongside for
//! the before/after contrast.

use std::path::PathBuf;

use mrcc::{merge, search, BetaCluster, CorrelationCluster, MergeCache, MrCCConfig};
use mrcc_common::{Dataset, SubspaceClustering};
use mrcc_counting_tree::CountingTree;
use mrcc_datagen::{generate, SyntheticSpec};
use serde_json::{ToJson, Value};

/// One η measurement.
struct Sample {
    n_points: usize,
    best_seconds: f64,
    points_per_second: f64,
    oracle_seconds: f64,
    speedup_vs_oracle: f64,
    identical_to_oracle: bool,
}

impl ToJson for Sample {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("n_points".to_string(), self.n_points.to_json()),
            ("best_seconds".to_string(), self.best_seconds.to_json()),
            (
                "points_per_second".to_string(),
                self.points_per_second.to_json(),
            ),
            ("oracle_seconds".to_string(), self.oracle_seconds.to_json()),
            (
                "speedup_vs_oracle".to_string(),
                self.speedup_vs_oracle.to_json(),
            ),
            (
                "identical_to_oracle".to_string(),
                self.identical_to_oracle.to_json(),
            ),
        ])
    }
}

/// True iff the engine output matches the oracle's bit for bit.
fn matches_oracle(
    engine: &(Vec<CorrelationCluster>, SubspaceClustering, MergeCache),
    oracle: &(Vec<CorrelationCluster>, SubspaceClustering),
) -> bool {
    let (clusters, clustering, _) = engine;
    let (oc, ocl) = oracle;
    clustering.labels() == ocl.labels()
        && clusters.len() == oc.len()
        && clusters.iter().zip(oc).all(|(x, y)| {
            x.axes == y.axes
                && x.beta_indices == y.beta_indices
                && x.size == y.size
                && (0..x.hull.dims()).all(|j| {
                    x.hull.lower(j).to_bits() == y.hull.lower(j).to_bits()
                        && x.hull.upper(j).to_bits() == y.hull.upper(j).to_bits()
                })
        })
}

/// First `n` points of `ds` as their own dataset.
fn prefix(ds: &Dataset, n: usize) -> Dataset {
    let mut out = Dataset::new(ds.dims()).expect("dims");
    for i in 0..n.min(ds.len()) {
        out.push(ds.point(i)).expect("normalized point");
    }
    out
}

fn main() {
    let mut n_points = 40_000usize;
    let mut runs = 3usize;
    let mut out = PathBuf::from("BENCH_merge.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--points" => {
                let v = args.next().expect("--points needs a value");
                n_points = v.parse().expect("--points needs an integer");
            }
            "--runs" => {
                let v = args.next().expect("--runs needs a value");
                runs = v.parse::<usize>().expect("--runs needs an integer").max(1);
            }
            "--out" => {
                out = args.next().expect("--out needs a path").into();
            }
            other => {
                eprintln!("usage: merge [--points N] [--runs R] [--out FILE]");
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    println!("generating {n_points}-point workload...");
    let synth = generate(&SyntheticSpec::new("merge", 10, n_points, 4, 0.15, 42));
    let ds = &synth.dataset;

    // Freeze the β set on the full workload so every η sees the same boxes.
    let config = MrCCConfig::default();
    let mut tree = CountingTree::build(ds, config.resolutions).expect("tree build");
    let betas: Vec<BetaCluster> = search::find_beta_clusters(&mut tree, &config);
    println!("frozen β set: {} clusters", betas.len());

    let sweep: Vec<usize> = [8usize, 4, 2, 1]
        .iter()
        .map(|&f| (n_points / f).max(1))
        .collect();
    let mut samples: Vec<Sample> = Vec::new();
    for &n in &sweep {
        let slice = prefix(ds, n);

        let oracle_start = std::time::Instant::now();
        let oracle = merge::build_correlation_clusters_oracle(&slice, &betas);
        let oracle_seconds = oracle_start.elapsed().as_secs_f64();

        let mut best = f64::INFINITY;
        let mut identical = true;
        for _ in 0..runs {
            let start = std::time::Instant::now();
            let engine = merge::build_correlation_clusters(&slice, &betas, 1);
            best = best.min(start.elapsed().as_secs_f64());
            identical &= matches_oracle(&engine, &oracle);
        }
        assert!(identical, "merge at η={n} differs from the oracle");
        let rate = n as f64 / best;
        println!(
            "merge  η={n:>7}: best {best:.4}s ({rate:.0} pts/s, oracle {oracle_seconds:.4}s, x{:.1})",
            oracle_seconds / best
        );
        samples.push(Sample {
            n_points: n,
            best_seconds: best,
            points_per_second: rate,
            oracle_seconds,
            speedup_vs_oracle: oracle_seconds / best,
            identical_to_oracle: identical,
        });
    }

    // Linearity summary: per-point cost spread across the sweep. Flat rates
    // (ratio near 1) mean merge time is linear in η at fixed β.
    let rates: Vec<f64> = samples.iter().map(|s| s.points_per_second).collect();
    let fastest = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let linearity_ratio = fastest / slowest;
    println!("linearity ratio (fastest/slowest pts/s): {linearity_ratio:.2}");

    let report = Value::Object(vec![
        ("n_points_max".to_string(), n_points.to_json()),
        ("dims".to_string(), ds.dims().to_json()),
        ("n_betas".to_string(), betas.len().to_json()),
        ("runs_per_point".to_string(), runs.to_json()),
        ("linearity_ratio".to_string(), linearity_ratio.to_json()),
        ("samples".to_string(), samples.to_json()),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json).expect("write report");
    println!("wrote {}", out.display());
}
