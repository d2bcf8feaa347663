//! Counting-tree construction scaling (paper: Algorithm 1 is O(η·H·d) —
//! linear in points, resolutions and dimensionality).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrcc_counting_tree::CountingTree;
use mrcc_datagen::{generate, SyntheticSpec};

fn tree_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    group.sample_size(10);
    // Linear in η.
    for &n in &[5_000usize, 10_000, 20_000, 40_000] {
        let synth = generate(&SyntheticSpec::new("b", 10, n, 4, 0.15, 1));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("points", n), &synth, |b, s| {
            b.iter(|| CountingTree::build(&s.dataset, 4).unwrap());
        });
    }
    // Linear in d.
    for &d in &[5usize, 10, 20, 30] {
        let synth = generate(&SyntheticSpec::new("b", d, 10_000, 4, 0.15, 2));
        group.bench_with_input(BenchmarkId::new("dims", d), &synth, |b, s| {
            b.iter(|| CountingTree::build(&s.dataset, 4).unwrap());
        });
    }
    // Linear in H.
    let synth = generate(&SyntheticSpec::new("b", 10, 10_000, 4, 0.15, 3));
    for &h in &[4usize, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::new("resolutions", h), &h, |b, &h| {
            b.iter(|| CountingTree::build(&synth.dataset, h).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, tree_build);
criterion_main!(benches);
