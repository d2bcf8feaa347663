//! Full MrCC fit scaling (paper claims: linear time/memory in η, linear
//! memory and quasi-linear time in d).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrcc::MrCC;
use mrcc_datagen::{generate, SyntheticSpec};

fn fit_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit_scaling");
    group.sample_size(10);
    for &n in &[5_000usize, 10_000, 20_000, 40_000] {
        let synth = generate(&SyntheticSpec::new("f", 10, n, 4, 0.15, 11));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("points", n), &synth, |b, s| {
            b.iter(|| MrCC::default().fit(&s.dataset).unwrap());
        });
    }
    for &d in &[5usize, 10, 20, 30] {
        let synth = generate(&SyntheticSpec::new("f", d, 10_000, 4, 0.15, 12));
        group.bench_with_input(BenchmarkId::new("dims", d), &synth, |b, s| {
            b.iter(|| MrCC::default().fit(&s.dataset).unwrap());
        });
    }
    for &k in &[2usize, 5, 10, 20] {
        let synth = generate(&SyntheticSpec::new("f", 12, 20_000, k, 0.15, 13));
        group.bench_with_input(BenchmarkId::new("clusters", k), &synth, |b, s| {
            b.iter(|| MrCC::default().fit(&s.dataset).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, fit_scaling);
criterion_main!(benches);
