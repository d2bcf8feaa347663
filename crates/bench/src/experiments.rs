//! One driver per figure/table of the paper's evaluation (Section IV).
//!
//! Each experiment generates its workloads (optionally scaled down from the
//! paper's sizes), runs the relevant methods under a budget, and writes
//! `<id>.json` (raw records) plus `<id>.md` (Quality / Subspaces Quality /
//! time / memory tables shaped like the paper's figures) into the results
//! directory. See DESIGN.md's per-experiment index for the mapping to the
//! paper's figures.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use mrcc::{AxisSelection, MrCC, MrCCConfig};
use mrcc_datagen::{
    clusters_group, dims_group, first_group, generate, kdd_cup_2008_surrogate, noise_group,
    points_group, rotated_group, Synthetic, SyntheticSpec, View,
};

use crate::runner::{run_clusterer, run_method, MethodKind, MrCCClusterer, RunRecord};

/// Experiment ids, in DESIGN.md order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig4-alpha",
    "fig4-h",
    "fig5-first",
    "fig5-noise",
    "fig5-points",
    "fig5-clusters",
    "fig5-dims",
    "fig5-rotated",
    "fig5-subspaces",
    "fig5-real",
    "ablations",
    "extra-baselines",
];

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Scale factor on the paper's dataset sizes (1.0 = full size).
    pub scale: f64,
    /// Per-run wall-clock budget.
    pub budget: Duration,
    /// Output directory for `<id>.json` / `<id>.md`.
    pub out_dir: PathBuf,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            scale: 0.1,
            budget: Duration::from_secs(300),
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Runs one experiment by id and returns its records.
///
/// # Errors
/// I/O failures while writing result files; unknown ids.
pub fn run_experiment(id: &str, opts: &ExperimentOptions) -> io::Result<Vec<RunRecord>> {
    let records = match id {
        "fig4-alpha" => fig4_alpha(opts),
        "fig4-h" => fig4_h(opts),
        "fig5-first" => group_experiment(first_group(), opts),
        "fig5-noise" => group_experiment(noise_group(), opts),
        "fig5-points" => group_experiment(points_group(), opts),
        "fig5-clusters" => group_experiment(clusters_group(), opts),
        "fig5-dims" => group_experiment(dims_group(), opts),
        "fig5-rotated" => group_experiment(rotated_group(), opts),
        "fig5-subspaces" => group_experiment(first_group(), opts),
        "fig5-real" => fig5_real(opts),
        "ablations" => ablations(opts),
        "extra-baselines" => extra_baselines(opts),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown experiment `{other}` (known: {ALL_EXPERIMENTS:?})"),
            ))
        }
    };
    write_results(id, &records, opts)?;
    Ok(records)
}

fn generate_scaled(spec: SyntheticSpec, scale: f64) -> Synthetic {
    generate(&spec.scaled(scale))
}

/// Runs all six methods over a dataset group (the figure-5 pattern).
fn group_experiment(specs: Vec<SyntheticSpec>, opts: &ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for spec in specs {
        let synth = generate_scaled(spec, opts.scale);
        eprintln!(
            "  dataset {} ({} pts, {}d)",
            synth.name,
            synth.dataset.len(),
            synth.dataset.dims()
        );
        for method in MethodKind::all() {
            let r = run_method(method, &synth, opts.budget);
            eprintln!(
                "    {:<6} quality {:.3}  time {}  mem {}",
                r.method,
                r.quality,
                r.seconds.map_or("TIMEOUT".into(), |s| format!("{s:.2}s")),
                r.peak_kb.map_or("-".into(), |m| format!("{m:.0}KB")),
            );
            records.push(r);
        }
    }
    records
}

/// Runs one MrCC configuration and labels the record.
fn run_mrcc_config(
    label: String,
    config: MrCCConfig,
    synth: &Synthetic,
    budget: Duration,
) -> RunRecord {
    let clusterer = Box::new(MrCCClusterer(MrCC::new(config)));
    run_clusterer(label, clusterer, true, synth, budget)
}

/// Fig. 4a–c: MrCC sensitivity to the significance level α.
fn fig4_alpha(opts: &ExperimentOptions) -> Vec<RunRecord> {
    let alphas = [1e-3, 1e-5, 1e-10, 1e-20, 1e-40, 1e-80, 1e-160];
    let mut records = Vec::new();
    for spec in first_group() {
        let synth = generate_scaled(spec, opts.scale);
        eprintln!("  dataset {}", synth.name);
        for &alpha in &alphas {
            let config = MrCCConfig::with_params(alpha, 4);
            let r = run_mrcc_config(format!("alpha={alpha:.0e}"), config, &synth, opts.budget);
            eprintln!("    α={alpha:.0e}: quality {:.3}", r.quality);
            records.push(r);
        }
    }
    records
}

/// Fig. 4d–f: MrCC sensitivity to the resolution count H.
///
/// The paper sweeps H up to 80; grid coordinates beyond the f64 mantissa add
/// nothing, so the sweep tops out at the Counting-tree's cap of 64
/// (EXPERIMENTS.md discusses this).
fn fig4_h(opts: &ExperimentOptions) -> Vec<RunRecord> {
    let hs = [4usize, 5, 10, 20, 40, 64];
    let mut records = Vec::new();
    for spec in first_group() {
        let synth = generate_scaled(spec, opts.scale);
        eprintln!("  dataset {}", synth.name);
        for &h in &hs {
            let config = MrCCConfig::with_params(1e-10, h);
            let r = run_mrcc_config(format!("H={h}"), config, &synth, opts.budget);
            eprintln!(
                "    H={h}: quality {:.3} time {}",
                r.quality,
                r.seconds.map_or("TIMEOUT".into(), |s| format!("{s:.2}s"))
            );
            records.push(r);
        }
    }
    records
}

/// Fig. 5t: the real-data table (KDD Cup 2008 surrogate, left-MLO view).
///
/// The real dataset has a fixed size (≈25k ROIs per view), so the global
/// scale option is not applied here.
fn fig5_real(_opts: &ExperimentOptions) -> Vec<RunRecord> {
    let kdd = kdd_cup_2008_surrogate(View::LeftMLO, 1.0);
    let synth = &kdd.synthetic;
    eprintln!(
        "  dataset {} ({} pts, {}d, {} malignant)",
        synth.name,
        synth.dataset.len(),
        synth.dataset.dims(),
        kdd.malignant.iter().filter(|&&m| m).count()
    );
    let mut records = Vec::new();
    for method in MethodKind::all() {
        let r = run_method(method, synth, _opts.budget);
        eprintln!(
            "    {:<6} quality {:.3}  time {}",
            r.method,
            r.quality,
            r.seconds.map_or("TIMEOUT".into(), |s| format!("{s:.2}s"))
        );
        records.push(r);
    }
    records
}

/// Design-choice ablations (DESIGN.md): axis selection, effect-size floor,
/// resolution count.
fn ablations(opts: &ExperimentOptions) -> Vec<RunRecord> {
    // A mid-size, low-d dataset. The spec is unchanged since the first
    // committed run, so `results/ablations.*` stay comparable across runs.
    let spec = SyntheticSpec::new("ablation-8d", 8, 40_000, 4, 0.15, 0xAB1A);
    let synth = generate_scaled(spec, opts.scale.max(0.25));
    let mut variants: Vec<(String, MrCCConfig)> = vec![
        (
            "default (face mask, share-45)".into(),
            MrCCConfig::default(),
        ),
        (
            "MDL cut + floor".into(),
            MrCCConfig {
                axis_selection: AxisSelection::Mdl { floor: 45.0 },
                ..Default::default()
            },
        ),
        (
            "paper-pure MDL (no floor)".into(),
            MrCCConfig {
                axis_selection: AxisSelection::Mdl { floor: 0.0 },
                ..Default::default()
            },
        ),
        (
            "share-70 (over-strict)".into(),
            MrCCConfig {
                axis_selection: AxisSelection::Share(70.0),
                ..Default::default()
            },
        ),
    ];
    for h in [3usize, 4, 6, 8] {
        variants.push((format!("H={h}"), MrCCConfig::with_params(1e-10, h)));
    }
    let mut records = Vec::new();
    for (label, config) in variants {
        let r = run_mrcc_config(label.clone(), config, &synth, opts.budget);
        eprintln!(
            "  {:<28} quality {:.3} time {}",
            label,
            r.quality,
            r.seconds.map_or("TIMEOUT".into(), |s| format!("{s:.2}s"))
        );
        records.push(r);
    }
    records
}

/// Extended comparison: the paper's six methods plus CLIQUE and PROCLUS
/// (the bottom-up and top-down ancestors discussed in Section II) on the
/// first dataset group.
fn extra_baselines(opts: &ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for spec in first_group() {
        let synth = generate_scaled(spec, opts.scale);
        eprintln!("  dataset {}", synth.name);
        for method in MethodKind::extended() {
            let r = run_method(method, &synth, opts.budget);
            eprintln!(
                "    {:<8} quality {:.3}  time {}",
                r.method,
                r.quality,
                r.seconds.map_or("TIMEOUT".into(), |s| format!("{s:.2}s")),
            );
            records.push(r);
        }
    }
    records
}

/// Writes `<id>.json` and `<id>.md` into the output directory.
fn write_results(id: &str, records: &[RunRecord], opts: &ExperimentOptions) -> io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let json = serde_json::to_string_pretty(records).expect("records serialize");
    std::fs::write(opts.out_dir.join(format!("{id}.json")), json)?;
    std::fs::write(
        opts.out_dir.join(format!("{id}.md")),
        render_markdown(id, records),
    )?;
    Ok(())
}

/// Renders the paper-figure-shaped tables.
fn render_markdown(id: &str, records: &[RunRecord]) -> String {
    let mut datasets: Vec<&str> = Vec::new();
    let mut methods: Vec<&str> = Vec::new();
    for r in records {
        if !datasets.contains(&r.dataset.as_str()) {
            datasets.push(&r.dataset);
        }
        if !methods.contains(&r.method.as_str()) {
            methods.push(&r.method);
        }
    }
    let find = |ds: &str, m: &str| records.iter().find(|r| r.dataset == ds && r.method == m);

    let mut out = String::new();
    let _ = writeln!(out, "# Experiment `{id}`\n");
    type CellFmt = Box<dyn Fn(&RunRecord) -> String>;
    let sections: [(&str, CellFmt); 4] = [
        (
            "Quality",
            Box::new(|r: &RunRecord| format!("{:.3}", r.quality)),
        ),
        (
            "Subspaces Quality",
            Box::new(|r: &RunRecord| {
                r.subspace_quality
                    .map_or("-".to_string(), |q| format!("{q:.3}"))
            }),
        ),
        (
            "Wall clock (s)",
            Box::new(|r: &RunRecord| {
                if r.timed_out {
                    "TIMEOUT".to_string()
                } else {
                    r.seconds.map_or("-".to_string(), |s| format!("{s:.3}"))
                }
            }),
        ),
        (
            "Peak memory (KB)",
            Box::new(|r: &RunRecord| r.peak_kb.map_or("-".to_string(), |m| format!("{m:.0}"))),
        ),
    ];
    for (title, fmt) in sections {
        let _ = writeln!(out, "## {title}\n");
        let _ = write!(out, "| dataset |");
        for m in &methods {
            let _ = write!(out, " {m} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &methods {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for ds in &datasets {
            let _ = write!(out, "| {ds} |");
            for m in &methods {
                let cell = find(ds, m).map_or("-".to_string(), &fmt);
                let _ = write!(out, " {cell} |");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(dir: &str) -> ExperimentOptions {
        ExperimentOptions {
            scale: 0.02,
            budget: Duration::from_secs(60),
            out_dir: std::env::temp_dir().join(dir),
        }
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let err = run_experiment("fig9-nope", &quick_opts("mrcc-x")).unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
    }

    #[test]
    fn ablations_run_and_write_files() {
        let opts = quick_opts("mrcc-ablate");
        let records = run_experiment("ablations", &opts).unwrap();
        assert!(records.len() >= 8);
        assert!(opts.out_dir.join("ablations.json").exists());
        let md = std::fs::read_to_string(opts.out_dir.join("ablations.md")).unwrap();
        assert!(md.contains("## Quality"));
        assert!(md.contains("paper-pure MDL"));
    }

    #[test]
    fn group_experiment_runs_all_methods_at_tiny_scale() {
        let opts = quick_opts("mrcc-group");
        let records = run_experiment("fig5-noise", &opts).unwrap();
        // 5 datasets × 6 methods.
        assert_eq!(records.len(), 30);
        let methods: std::collections::HashSet<&str> =
            records.iter().map(|r| r.method.as_str()).collect();
        assert!(methods.contains("MrCC") && methods.contains("P3C"));
        // Every record carries timing unless it timed out.
        for r in &records {
            assert!(
                r.timed_out || r.seconds.is_some(),
                "{} missing time",
                r.method
            );
        }
    }

    #[test]
    fn extra_baselines_include_the_ancestors() {
        let opts = quick_opts("mrcc-extra");
        let records = run_experiment("extra-baselines", &opts).unwrap();
        let methods: std::collections::HashSet<&str> =
            records.iter().map(|r| r.method.as_str()).collect();
        for m in ["CLIQUE", "PROCLUS", "STING", "MrCC"] {
            assert!(methods.contains(m), "{m} missing");
        }
    }

    #[test]
    fn markdown_renders_all_sections() {
        let records = vec![RunRecord {
            dataset: "6d".into(),
            method: "MrCC".into(),
            n_points: 100,
            dims: 6,
            quality: 0.95,
            subspace_quality: Some(0.9),
            seconds: Some(0.5),
            peak_kb: Some(128.0),
            clusters_found: 2,
            timed_out: false,
        }];
        let md = render_markdown("test", &records);
        assert!(md.contains("0.950"));
        assert!(md.contains("0.900"));
        assert!(md.contains("0.500"));
        assert!(md.contains("128"));
    }
}
