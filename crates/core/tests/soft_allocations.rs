//! Allocation profile of `MrCCResult::soft_memberships`: a fixed number of
//! allocations per call, whatever the number of points.
//!
//! `mrcc_eval::TrackingAllocator` is the global allocator and counts the
//! allocations. This binary holds a single test, so no other test thread
//! allocates while it measures.

use mrcc::merge::build_correlation_clusters;
use mrcc::{MrCC, MrCCResult};
use mrcc_common::Dataset;
use mrcc_eval::TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// `n` points of a rod on axes {0, 1} crossing a slab on axis 2, with 10 %
/// uniform noise: two clusters whose regions share points.
fn rod_and_slab(n: usize) -> Dataset {
    let mut state = 0xCAFEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<[f64; 3]> = (0..n)
        .map(|i| match i % 10 {
            0 => [next() * 0.99, next() * 0.99, next() * 0.99],
            r if r % 2 == 1 => [
                0.32 + 0.03 * (next() - 0.5),
                0.32 + 0.03 * (next() - 0.5),
                next() * 0.99,
            ],
            _ => [next() * 0.99, next() * 0.99, 0.70 + 0.03 * (next() - 0.5)],
        })
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

/// Allocations of one `soft_memberships` call, and its shared-point count.
fn soft_allocations(result: &MrCCResult, ds: &Dataset) -> (usize, usize) {
    let before = TrackingAllocator::allocations();
    let soft = result.soft_memberships(ds);
    let allocations = TrackingAllocator::allocations() - before;
    (allocations, soft.n_shared_points())
}

#[test]
fn soft_memberships_allocations_do_not_grow_with_points() {
    // The β-clusters of the 4η fit also serve the η prefix, so both calls
    // see the same boxes.
    let large = rod_and_slab(24_000);
    let large_fit = MrCC::default().fit(&large).unwrap();
    assert!(
        large_fit.n_clusters() >= 2,
        "{} clusters",
        large_fit.n_clusters()
    );
    let small = Dataset::from_rows(
        &(0..large.len() / 4)
            .map(|i| large.point(i))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let (clusters, clustering, merge_cache) =
        build_correlation_clusters(&small, &large_fit.beta_clusters, 1);
    let small_fit = MrCCResult {
        clustering,
        clusters,
        beta_clusters: large_fit.beta_clusters.clone(),
        merge_cache,
        stats: large_fit.stats.clone(),
    };
    small_fit.check_invariants();

    let (small_allocations, small_shared) = soft_allocations(&small_fit, &small);
    let (large_allocations, large_shared) = soft_allocations(&large_fit, &large);
    assert!(
        small_shared > 0 && large_shared > 0,
        "shared points: {small_shared} and {large_shared}"
    );
    assert_eq!(
        small_allocations, large_allocations,
        "allocations of one call at η and at 4η"
    );
    // The per-β table, the scratch buffer of a point's boxes and the two
    // CSR arrays.
    assert!(small_allocations <= 4, "{small_allocations} allocations");
}
