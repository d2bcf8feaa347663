//! Head-to-head comparison of MrCC against the five baselines of the paper
//! on one synthetic workload — a miniature of Figure 5.
//!
//! ```text
//! cargo run --release --example method_comparison
//! ```

use std::time::Duration;

use mrcc_bench::MethodKind;
use mrcc_repro::datagen::{generate, SyntheticSpec};
use mrcc_repro::eval::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() {
    let spec = SyntheticSpec::new("comparison", 12, 30_000, 5, 0.15, 7);
    let synth = generate(&spec);
    println!(
        "dataset: {} points x {} axes, {} clusters + 15% noise\n",
        synth.dataset.len(),
        synth.dataset.dims(),
        synth.ground_truth.len()
    );
    println!(
        "{:<6} {:>8} {:>10} {:>10} {:>12} {:>8}",
        "method", "quality", "subspaceQ", "time", "peak mem", "clusters"
    );

    for kind in MethodKind::all() {
        let name = kind.name();
        let method = kind.build(
            synth.ground_truth.len(),
            spec.noise_fraction,
            synth.dataset.dims(),
        );
        let ds = synth.dataset.clone();
        let outcome = mrcc_repro::eval::run_with_timeout(Duration::from_secs(300), move || {
            mrcc_repro::eval::measure_peak(move || method.fit(&ds))
        });
        let Some(((fit, mem), elapsed)) = outcome.finished() else {
            println!("{name:<6} {:>8}", "TIMEOUT");
            continue;
        };
        let Ok(clustering) = fit else {
            println!("{name:<6} {:>8}", "ERROR");
            continue;
        };
        let q = mrcc_repro::eval::quality(&clustering, &synth.ground_truth).quality;
        let sq = if kind.reports_subspaces() {
            format!(
                "{:.3}",
                mrcc_repro::eval::subspace_quality(&clustering, &synth.ground_truth).quality
            )
        } else {
            "-".to_string() // LAC only ranks axes (paper, Section IV)
        };
        println!(
            "{name:<6} {q:>8.3} {sq:>10} {:>9.2}s {:>10.0}KB {:>8}",
            elapsed.as_secs_f64(),
            mem.peak_kb(),
            clustering.len()
        );
    }
}
