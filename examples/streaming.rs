//! Streaming ingestion: the Counting-tree is a single-scan structure, so it
//! can absorb points one at a time (e.g. from a live feed) and be handed to
//! the β-cluster search whenever a snapshot clustering is wanted. This
//! example drip-feeds a dataset in batches and re-clusters after each batch
//! using the public phase APIs directly. At the end it checks that the grown
//! tree finds exactly the β-clusters of a tree built in one batch by
//! `CountingTree::build`, which sorts the points instead of inserting them.
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

    let mut tree = CountingTree::empty(ds.dims(), config.resolutions).expect("empty tree");
    let batch = 8_000;
    let mut seen = 0usize;
    let mut betas = Vec::new();

    println!("streaming {} points in batches of {batch}:", ds.len());
    while seen < ds.len() {
        let end = (seen + batch).min(ds.len());
        for i in seen..end {
            tree.insert(ds.point(i)).expect("normalized point");
        }
        seen = end;

        // Snapshot clustering over everything ingested so far.
        betas = search::find_beta_clusters(&tree, &config);
        // Labeling needs the points seen so far.
        let mut so_far = Dataset::new(ds.dims()).expect("dims");
        for i in 0..seen {
            so_far.push(ds.point(i)).expect("point");
        }
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

    let batch = CountingTree::build(ds, config.resolutions).expect("normalized dataset");
    let batch_betas = search::find_beta_clusters(&batch, &config);
    assert_eq!(
        format!("{betas:?}"),
        format!("{batch_betas:?}"),
        "the streamed tree and the batch build find different β-clusters"
    );
    println!("streamed tree ≡ batch build: {} β-clusters", betas.len());
}
