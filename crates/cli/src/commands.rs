//! Command implementations.
//!
//! Every command writes human-readable (or `--json true`) output to the
//! given writer, so tests can capture it.

use std::io::Write;
use std::path::Path;

use mrcc::{MrCC, MrCCConfig};
use mrcc_baselines::{
    Clique, Doc, DocConfig, Epch, EpchConfig, Harp, HarpConfig, Lac, LacConfig, P3c, Proclus,
    ProclusConfig, Sting, SubspaceClusterer,
};
use mrcc_common::{csv, Dataset, SubspaceClustering};
use mrcc_datagen::{generate, SyntheticSpec};
use mrcc_eval::{quality, subspace_quality};

use crate::args::{Command, MethodChoice};
use crate::CliResult;

/// Runs a parsed command, writing its report to `out`.
///
/// # Errors
/// User-facing error strings (bad files, invalid parameters).
pub fn run(command: Command, out: &mut dyn Write) -> CliResult<()> {
    match command {
        Command::Help => {
            write!(out, "{}", crate::args::USAGE).map_err(|e| e.to_string())?;
            Ok(())
        }
        Command::Info { input } => info(&input, out),
        Command::Generate {
            dims,
            points,
            clusters,
            noise,
            rotations,
            seed,
            output,
        } => generate_cmd(
            dims,
            points,
            clusters,
            noise,
            rotations,
            seed,
            output.as_deref(),
            out,
        ),
        Command::Evaluate { found, truth, json } => evaluate(&found, &truth, json, out),
        Command::Cluster {
            input,
            output,
            method,
            alpha,
            resolutions,
            clusters,
            noise,
            json,
        } => cluster(
            &input,
            output.as_deref(),
            method,
            alpha,
            resolutions,
            clusters,
            noise,
            json,
            out,
        ),
    }
}

fn read_dataset(path: &Path) -> CliResult<Dataset> {
    csv::read_dataset_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn info(input: &Path, out: &mut dyn Write) -> CliResult<()> {
    let ds = read_dataset(input)?;
    let (min, max) = ds.bounds().ok_or("empty dataset")?;
    writeln!(
        out,
        "{}: {} points x {} axes ({})",
        input.display(),
        ds.len(),
        ds.dims(),
        if ds.is_unit_normalized() {
            "unit-normalized"
        } else {
            "raw — `mrcc cluster` will normalize automatically"
        }
    )
    .map_err(|e| e.to_string())?;
    for j in 0..ds.dims() {
        writeln!(out, "  axis e{}: [{:.6}, {:.6}]", j + 1, min[j], max[j])
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[expect(clippy::too_many_arguments, reason = "one parameter per option")]
fn generate_cmd(
    dims: usize,
    points: usize,
    clusters: usize,
    noise: f64,
    rotations: usize,
    seed: u64,
    output: Option<&Path>,
    out: &mut dyn Write,
) -> CliResult<()> {
    let mut spec = SyntheticSpec::new("cli", dims, points, clusters, noise, seed);
    spec.rotations = rotations;
    let synth = generate(&spec);
    let labels = synth.ground_truth.labels();
    match output {
        Some(path) => {
            csv::write_dataset_file(path, &synth.dataset, Some(&labels))
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "wrote {} points x {} axes ({} clusters + noise labels) to {}",
                synth.dataset.len(),
                dims,
                synth.ground_truth.len(),
                path.display()
            )
            .map_err(|e| e.to_string())?;
        }
        None => {
            csv::write_dataset(&mut *out, &synth.dataset, Some(&labels))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn evaluate(
    found_path: &Path,
    truth_path: &Path,
    json: bool,
    out: &mut dyn Write,
) -> CliResult<()> {
    let (found_ds, found_labels) = csv::read_labeled_dataset_file(found_path)
        .map_err(|e| format!("{}: {e}", found_path.display()))?;
    let (truth_ds, truth_labels) = csv::read_labeled_dataset_file(truth_path)
        .map_err(|e| format!("{}: {e}", truth_path.display()))?;
    if found_ds.len() != truth_ds.len() {
        return Err(format!(
            "row count mismatch: {} vs {}",
            found_ds.len(),
            truth_ds.len()
        ));
    }
    let found = clustering_from_labels(&found_labels, found_ds.dims())?;
    let truth = clustering_from_labels(&truth_labels, truth_ds.dims())?;
    let q = quality(&found, &truth);
    if json {
        let payload = serde_json::json!({
            "quality": q.quality,
            "avg_precision": q.avg_precision,
            "avg_recall": q.avg_recall,
            "found_clusters": found.len(),
            "real_clusters": truth.len(),
        });
        writeln!(out, "{payload}").map_err(|e| e.to_string())?;
    } else {
        writeln!(
            out,
            "Quality {:.4} (precision {:.4}, recall {:.4}); {} found vs {} real clusters",
            q.quality,
            q.avg_precision,
            q.avg_recall,
            found.len(),
            truth.len()
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Rebuilds a clustering from a label column (axes unknown → full masks).
fn clustering_from_labels(labels: &[i32], dims: usize) -> CliResult<SubspaceClustering> {
    let k = labels.iter().copied().max().unwrap_or(-1) + 1;
    if labels.iter().any(|&l| l < -1) {
        return Err("labels must be ≥ -1".into());
    }
    let masks = vec![mrcc_common::AxisMask::full(dims); k.max(0) as usize];
    Ok(SubspaceClustering::from_labels(labels, &masks, dims))
}

#[expect(clippy::too_many_arguments, reason = "one parameter per option")]
fn cluster(
    input: &Path,
    output: Option<&Path>,
    method: MethodChoice,
    alpha: f64,
    resolutions: usize,
    clusters: Option<usize>,
    noise: f64,
    json: bool,
    out: &mut dyn Write,
) -> CliResult<()> {
    let mut ds = read_dataset(input)?;
    if !ds.is_unit_normalized() {
        ds.normalize_unit().map_err(|e| e.to_string())?;
    }
    let k = clusters.unwrap_or(1);
    let start = std::time::Instant::now();
    let clustering: SubspaceClustering = match method {
        MethodChoice::MrCC => {
            let config = MrCCConfig::with_params(alpha, resolutions);
            MrCC::new(config)
                .fit(&ds)
                .map_err(|e| e.to_string())?
                .clustering
        }
        MethodChoice::Lac => fit(&Lac::new(LacConfig::new(k)), &ds)?,
        MethodChoice::Epch => fit(&Epch::new(EpchConfig::new(k)), &ds)?,
        MethodChoice::Cfpc => fit(&Doc::new(DocConfig::new(k)), &ds)?,
        MethodChoice::P3c => fit(&P3c::default(), &ds)?,
        MethodChoice::Harp => fit(&Harp::new(HarpConfig::new(k, noise)), &ds)?,
        MethodChoice::Clique => fit(&Clique::default(), &ds)?,
        MethodChoice::Proclus => fit(&Proclus::new(ProclusConfig::new(k, 2.min(ds.dims()))), &ds)?,
        MethodChoice::Sting => fit(&Sting::default(), &ds)?,
    };
    let elapsed = start.elapsed();

    if json {
        let clusters_json: Vec<_> = clustering
            .clusters()
            .iter()
            .map(|c| {
                serde_json::json!({
                    "size": c.len(),
                    "axes": c.axes.iter().collect::<Vec<_>>(),
                })
            })
            .collect();
        let payload = serde_json::json!({
            "method": format!("{method:?}"),
            "clusters": clusters_json,
            "noise_points": clustering.noise().len(),
            "seconds": elapsed.as_secs_f64(),
        });
        writeln!(out, "{payload}").map_err(|e| e.to_string())?;
    } else {
        writeln!(
            out,
            "{method:?}: {} clusters, {} noise points, {:.3}s",
            clustering.len(),
            clustering.noise().len(),
            elapsed.as_secs_f64()
        )
        .map_err(|e| e.to_string())?;
        for (i, c) in clustering.clusters().iter().enumerate() {
            let axes: Vec<String> = c.axes.iter().map(|j| format!("e{}", j + 1)).collect();
            writeln!(
                out,
                "  cluster {i}: {} points, axes {{{}}}",
                c.len(),
                axes.join(",")
            )
            .map_err(|e| e.to_string())?;
        }
    }

    let labels = clustering.labels();
    if let Some(path) = output {
        csv::write_dataset_file(path, &ds, Some(&labels)).map_err(|e| e.to_string())?;
        writeln!(out, "labels written to {}", path.display()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn fit(method: &dyn SubspaceClusterer, ds: &Dataset) -> CliResult<SubspaceClustering> {
    method.fit(ds).map_err(|e| e.to_string())
}

/// Convenience used by tests and the quality gate in `evaluate`.
pub fn subspace_quality_of(found: &SubspaceClustering, truth: &SubspaceClustering) -> f64 {
    subspace_quality(found, truth).quality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mrcc-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    fn run_str(args: &[&str]) -> CliResult<String> {
        let cmd = parse_args(&sv(args))?;
        let mut buf = Vec::new();
        run(cmd, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn generate_info_cluster_evaluate_pipeline() {
        let data = tmp("pipe.csv");
        let labeled = tmp("pipe_out.csv");
        let data_s = data.to_str().unwrap();
        let labeled_s = labeled.to_str().unwrap();

        // generate
        let msg = run_str(&[
            "generate",
            "--dims",
            "6",
            "--points",
            "4000",
            "--clusters",
            "2",
            "--seed",
            "7",
            "--output",
            data_s,
        ])
        .unwrap();
        assert!(msg.contains("4000 points"));

        // info (the generated file has a label column; read as features-only
        // would be ragged-consistent, so regenerate without labels via
        // cluster output instead — info on the labeled file still works
        // because the label column parses as a feature; use it as a shape
        // check only).
        let msg = run_str(&["info", "--input", data_s]).unwrap();
        assert!(msg.contains("4000 points"));

        // cluster the raw features (drop the truth column first).
        let (ds, truth_labels) = csv::read_labeled_dataset_file(&data).unwrap();
        let features = tmp("pipe_features.csv");
        csv::write_dataset_file(&features, &ds, None).unwrap();
        let msg = run_str(&[
            "cluster",
            "--input",
            features.to_str().unwrap(),
            "--output",
            labeled_s,
        ])
        .unwrap();
        assert!(msg.contains("MrCC"), "{msg}");
        assert!(msg.contains("labels written"));

        // evaluate found vs truth.
        let msg = run_str(&["evaluate", "--found", labeled_s, "--truth", data_s]).unwrap();
        assert!(msg.contains("Quality"), "{msg}");
        let q: f64 = msg
            .split("Quality ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(q > 0.7, "pipeline quality {q} too low\n{msg}");
        let _ = truth_labels;
    }

    #[test]
    fn cluster_json_output_is_valid_json() {
        let data = tmp("json.csv");
        run_str(&[
            "generate",
            "--dims",
            "5",
            "--points",
            "2000",
            "--clusters",
            "2",
            "--seed",
            "3",
            "--output",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let (ds, _) = csv::read_labeled_dataset_file(&data).unwrap();
        let features = tmp("json_features.csv");
        csv::write_dataset_file(&features, &ds, None).unwrap();
        let out = run_str(&[
            "cluster",
            "--input",
            features.to_str().unwrap(),
            "--json",
            "true",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(out.lines().next().unwrap()).unwrap();
        assert!(v["clusters"].is_array());
        assert!(v["seconds"].as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn baseline_methods_run_via_cli() {
        let data = tmp("methods.csv");
        run_str(&[
            "generate",
            "--dims",
            "5",
            "--points",
            "1500",
            "--clusters",
            "2",
            "--seed",
            "9",
            "--output",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let (ds, _) = csv::read_labeled_dataset_file(&data).unwrap();
        let features = tmp("methods_features.csv");
        csv::write_dataset_file(&features, &ds, None).unwrap();
        for method in ["lac", "epch", "cfpc", "harp", "proclus"] {
            let out = run_str(&[
                "cluster",
                "--input",
                features.to_str().unwrap(),
                "--method",
                method,
                "--clusters",
                "2",
            ])
            .unwrap();
            assert!(out.contains("clusters"), "{method}: {out}");
        }
        for method in ["p3c", "clique", "sting"] {
            let out = run_str(&[
                "cluster",
                "--input",
                features.to_str().unwrap(),
                "--method",
                method,
            ])
            .unwrap();
            assert!(out.contains("clusters"), "{method}: {out}");
        }
    }

    #[test]
    fn evaluate_rejects_mismatched_files() {
        let a = tmp("mismatch_a.csv");
        let b = tmp("mismatch_b.csv");
        run_str(&[
            "generate",
            "--dims",
            "4",
            "--points",
            "100",
            "--clusters",
            "1",
            "--output",
            a.to_str().unwrap(),
        ])
        .unwrap();
        run_str(&[
            "generate",
            "--dims",
            "4",
            "--points",
            "200",
            "--clusters",
            "1",
            "--output",
            b.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_str(&[
            "evaluate",
            "--found",
            a.to_str().unwrap(),
            "--truth",
            b.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("mismatch"));
    }

    #[test]
    fn missing_file_is_a_friendly_error() {
        let err = run_str(&["info", "--input", "/nonexistent/nope.csv"]).unwrap_err();
        assert!(err.contains("nope.csv"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("usage: mrcc"));
    }
}
