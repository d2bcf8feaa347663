//! CLI regenerating every table and figure of the MrCC evaluation.
//!
//! ```text
//! experiments [--scale F] [--timeout SECS] [--out DIR] <id>... | all
//! ```
//!
//! * `--scale` — fraction of the paper's dataset sizes (default 0.1; 1.0
//!   reproduces the full 12k–250k-point workloads).
//! * `--timeout` — per-run wall-clock budget in seconds (default 300; the
//!   paper used 3 h for LAC and a week for P3C).
//! * `--out` — results directory (default `results/`).
//!
//! Peak-memory columns come from the tracking global allocator installed
//! below, mirroring the paper's KB plots.

use std::time::Duration;

use mrcc_bench::{run_experiment, ExperimentOptions, ALL_EXPERIMENTS};
use mrcc_eval::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const USAGE: &str = "usage: experiments [--scale F] [--timeout SECS] [--out DIR] <id>... | all";

/// Prints `message` and the usage line, then exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut opts = ExperimentOptions::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().map(|v| v.parse::<f64>()) {
                Some(Ok(scale)) if scale.is_finite() && scale > 0.0 => opts.scale = scale,
                _ => usage_error("--scale needs a positive number"),
            },
            "--timeout" => match args.next().map(|v| v.parse()) {
                Some(Ok(secs)) => opts.budget = Duration::from_secs(secs),
                _ => usage_error("--timeout needs whole seconds"),
            },
            "--out" => match args.next() {
                Some(dir) => opts.out_dir = dir.into(),
                None => usage_error("--out needs a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("experiments: {}", ALL_EXPERIMENTS.join(", "));
                return;
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_EXPERIMENTS.iter().map(ToString::to_string).collect();
    }

    println!(
        "running {} experiment(s) at scale {} (budget {:?}) -> {}",
        ids.len(),
        opts.scale,
        opts.budget,
        opts.out_dir.display()
    );
    for id in &ids {
        println!("== {id} ==");
        let start = std::time::Instant::now();
        match run_experiment(id, &opts) {
            Ok(records) => println!(
                "== {id}: {} records in {:.1}s ==",
                records.len(),
                start.elapsed().as_secs_f64()
            ),
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
