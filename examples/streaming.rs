//! Streaming ingestion: points arrive in batches (e.g. from a live feed),
//! and a snapshot clustering is wanted after each batch. The Counting-tree
//! build sorts the points once and then each level's cells, so each
//! snapshot rebuilds the tree over everything ingested so far with `CountingTree::build` and hands it to the
//! β-cluster search, using the public phase APIs directly.
//!
//! ```text
//! cargo run --release --example streaming
//! ```

use mrcc_repro::core::{merge, search, MrCCConfig};
use mrcc_repro::counting_tree::CountingTree;
use mrcc_repro::prelude::*;

fn main() {
    let synth = generate(&SyntheticSpec::new("stream", 8, 40_000, 3, 0.15, 17));
    let ds = &synth.dataset;
    let config = MrCCConfig::default();

    let batch = 8_000;
    let mut so_far = Dataset::new(ds.dims()).expect("dims");

    println!("streaming {} points in batches of {batch}:", ds.len());
    while so_far.len() < ds.len() {
        let end = (so_far.len() + batch).min(ds.len());
        for i in so_far.len()..end {
            so_far.push(ds.point(i)).expect("point");
        }
        let seen = so_far.len();

        // Snapshot clustering over everything ingested so far.
        let tree = CountingTree::build(&so_far, config.resolutions).expect("normalized points");
        let betas = search::find_beta_clusters(&tree, &config);
        let (clusters, clustering, _cache) = merge::build_correlation_clusters(&so_far, &betas, 1);

        // Score the snapshot against the ground truth restricted to the
        // ingested prefix.
        let truth_labels: Vec<i32> = synth.ground_truth.labels()[..seen].to_vec();
        let masks: Vec<_> = synth
            .ground_truth
            .clusters()
            .iter()
            .map(|c| c.axes)
            .collect();
        let truth = SubspaceClustering::from_labels(&truth_labels, &masks, ds.dims());
        let q = quality(&clustering, &truth);
        println!(
            "  after {seen:>6} points: {} clusters ({} β), Quality {:.3}",
            clusters.len(),
            betas.len(),
            q.quality
        );
    }
}
