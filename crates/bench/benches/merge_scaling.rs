//! Merge/labeling phase scaling (paper: the whole method is O(η) in the
//! point count — Sec. IV). Phase three used to be the bound-breaker at
//! `O(β²·η·d)`; the single-scan engine restores `O(η)` at fixed β, which
//! this group measures directly: the β set is frozen once, then the merge
//! runs against growing dataset prefixes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrcc::{merge, search, BetaCluster, MrCCConfig};
use mrcc_common::Dataset;
use mrcc_counting_tree::CountingTree;
use mrcc_datagen::{generate, SyntheticSpec};

/// Runs phases one and two once, yielding the frozen β set of the workload.
fn fixed_betas(ds: &Dataset) -> Vec<BetaCluster> {
    let config = MrCCConfig::default();
    let mut tree = CountingTree::build(ds, config.resolutions).unwrap();
    search::find_beta_clusters(&mut tree, &config)
}

/// First `n` points of `ds` as their own dataset.
fn prefix(ds: &Dataset, n: usize) -> Dataset {
    let mut out = Dataset::new(ds.dims()).unwrap();
    for i in 0..n.min(ds.len()) {
        out.push(ds.point(i)).unwrap();
    }
    out
}

fn merge_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_scaling");
    group.sample_size(10);
    let synth = generate(&SyntheticSpec::new("m", 10, 40_000, 4, 0.15, 5));
    let betas = fixed_betas(&synth.dataset);

    // Linear in η at fixed β: the same β set merged over growing prefixes.
    for &n in &[5_000usize, 10_000, 20_000, 40_000] {
        let ds = prefix(&synth.dataset, n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("points", n), &ds, |b, ds| {
            b.iter(|| merge::build_correlation_clusters(ds, &betas, 1));
        });
    }

    // The superseded multi-scan path on small prefixes, for the before/after
    // contrast (it re-reads the dataset per β and per overlapping β-pair —
    // keep the sizes small).
    for &n in &[2_000usize, 4_000] {
        let ds = prefix(&synth.dataset, n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("oracle_points", n), &ds, |b, ds| {
            b.iter(|| merge::build_correlation_clusters_oracle(ds, &betas));
        });
    }
    group.finish();
}

criterion_group!(benches, merge_scaling);
criterion_main!(benches);
