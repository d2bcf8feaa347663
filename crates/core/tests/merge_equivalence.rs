//! Single-scan merge engine ↔ quadratic oracle equivalence.
//!
//! The rewritten phase three (`merge::build_correlation_clusters`) promises
//! the exact same output as the superseded multi-scan path, retained as
//! `merge::build_correlation_clusters_oracle` behind the `merge-oracle`
//! feature — bit-identical, floats compared through [`f64::to_bits`]. These
//! proptests pin that contract on adversarial β-box arrangements the
//! [`mrcc_common::BoxIndex`] must not mis-prune: bounds snapped to a coarse
//! grid so boxes constantly touch at faces, nest, coincide, degenerate to
//! zero extent, span the full unit interval on every axis, or contain no
//! points at all.

use mrcc::beta::BetaCluster;
use mrcc::merge::{build_correlation_clusters, build_correlation_clusters_oracle, MergeCache};
use mrcc::CorrelationCluster;
use mrcc_common::{AxisMask, BoundingBox, Dataset, SubspaceClustering};
use proptest::prelude::*;

/// Grid resolution for box bounds and half the point coordinates: coarse
/// enough that distinct boxes share faces (and points sit *on* those faces)
/// with high probability.
const GRID: f64 = 8.0;

/// Decodes one raw `u32` into a coordinate in `[0, 1)`: every fourth value
/// snaps onto the face grid, the rest are fine-grained.
fn coord(raw: u32) -> f64 {
    if raw.is_multiple_of(4) {
        f64::from((raw / 4) % 8) / GRID
    } else {
        f64::from(raw % 1000) / 1000.0
    }
}

/// Decodes per-axis raw bound pairs into a β-cluster. Bounds snap to the
/// `GRID` lattice (`9` maps to the full `[0,1]` span, so whole-axis and
/// unit boxes occur often); zero-extent axes are kept. Relevant axes are
/// the confined ones, or axis 0 for the degenerate unit box.
fn beta(raw_bounds: &[(u8, u8)]) -> BetaCluster {
    let dims = raw_bounds.len();
    let mut lower = Vec::with_capacity(dims);
    let mut upper = Vec::with_capacity(dims);
    for &(a, b) in raw_bounds {
        let (a, b) = (a % 10, b % 10);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if hi >= 9 && lo == 0 || lo >= 9 {
            lower.push(0.0);
            upper.push(1.0);
        } else {
            lower.push(f64::from(lo.min(8)) / GRID);
            upper.push(f64::from(hi.min(8)) / GRID);
        }
    }
    let bounds = BoundingBox::new(lower, upper);
    let confined = (0..dims).filter(|&j| bounds.extent(j) < 1.0);
    let mut axes = AxisMask::from_axes(dims, confined);
    if axes.is_empty() {
        axes = AxisMask::from_axes(dims, std::iter::once(0));
    }
    BetaCluster {
        bounds,
        axes,
        level: 2,
        center_coords: vec![0; dims],
        axis_stats: Vec::new(),
        relevance_threshold: 50.0,
    }
}

/// Asserts the engine output equals the oracle's, bit for bit.
fn assert_matches_oracle(
    engine: &(Vec<CorrelationCluster>, SubspaceClustering, MergeCache),
    oracle: &(Vec<CorrelationCluster>, SubspaceClustering),
    context: &str,
) {
    let (clusters, clustering, _) = engine;
    let (oc, ocl) = oracle;
    assert_eq!(
        clustering.labels(),
        ocl.labels(),
        "{context}: labels differ"
    );
    assert_eq!(clusters.len(), oc.len(), "{context}: cluster count differs");
    for (k, (x, y)) in clusters.iter().zip(oc).enumerate() {
        assert_eq!(x.axes, y.axes, "{context}: γ {k} axes differ");
        assert_eq!(
            x.beta_indices, y.beta_indices,
            "{context}: γ {k} members differ"
        );
        assert_eq!(x.size, y.size, "{context}: γ {k} size differs");
        for j in 0..x.hull.dims() {
            assert_eq!(
                x.hull.lower(j).to_bits(),
                y.hull.lower(j).to_bits(),
                "{context}: γ {k} hull lower {j} differs"
            );
            assert_eq!(
                x.hull.upper(j).to_bits(),
                y.hull.upper(j).to_bits(),
                "{context}: γ {k} hull upper {j} differs"
            );
        }
    }
}

/// Asserts the cache agrees with a brute-force containment evaluation.
fn assert_cache_exact(cache: &MergeCache, ds: &Dataset, betas: &[BetaCluster], context: &str) {
    assert_eq!(cache.n_points(), ds.len(), "{context}: cache point count");
    assert_eq!(cache.n_boxes(), betas.len(), "{context}: cache box count");
    let mut counts = vec![0usize; betas.len()];
    for (i, p) in ds.iter().enumerate() {
        let brute: Vec<u32> = betas
            .iter()
            .enumerate()
            .filter(|(_, b)| b.bounds.contains(p))
            .map(|(m, _)| u32::try_from(m).unwrap())
            .collect();
        assert_eq!(
            cache.containing(i),
            &brute[..],
            "{context}: point {i} containment"
        );
        for &m in &brute {
            counts[m as usize] += 1;
        }
    }
    for (m, &c) in counts.iter().enumerate() {
        assert_eq!(cache.box_count(m), c, "{context}: β {m} count");
    }
}

fn run_case(raw_points: &[Vec<u32>], raw_boxes: &[Vec<(u8, u8)>], dims: usize) {
    let mut ds = Dataset::new(dims).unwrap();
    for raw in raw_points {
        let p: Vec<f64> = raw.iter().map(|&r| coord(r)).collect();
        ds.push(&p).unwrap();
    }
    let betas: Vec<BetaCluster> = raw_boxes.iter().map(|rb| beta(rb)).collect();
    let oracle = build_correlation_clusters_oracle(&ds, &betas);
    let engine = build_correlation_clusters(&ds, &betas, 1);
    let context = format!("{dims}d/{}pts/{}β", ds.len(), betas.len());
    assert_matches_oracle(&engine, &oracle, &context);
    assert_cache_exact(&engine.2, &ds, &betas, &context);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random grid-snapped arrangements: face-touching, nested, duplicated,
    /// zero-extent, whole-axis and point-free boxes all occur; the engine
    /// must match the oracle bit for bit.
    #[test]
    fn engine_matches_oracle_on_random_arrangements(
        dims in 2usize..=4,
        raw_points in proptest::collection::vec(
            proptest::collection::vec(0u32..1_000_000, 4), 0..=300),
        raw_boxes in proptest::collection::vec(
            proptest::collection::vec((0u8..=9, 0u8..=9), 4), 0..=8),
    ) {
        let points: Vec<Vec<u32>> = raw_points
            .iter()
            .map(|p| p.iter().copied().take(dims).collect())
            .collect();
        let boxes: Vec<Vec<(u8, u8)>> = raw_boxes
            .iter()
            .map(|b| b.iter().copied().take(dims).collect())
            .collect();
        run_case(&points, &boxes, dims);
    }
}

#[test]
fn nested_face_touching_and_empty_boxes() {
    // A hand-built worst case: three nested boxes, two face-touching
    // neighbours (points sit exactly on the shared face), one zero-extent
    // box on a populated coordinate, one whole-space box, and one box over
    // an empty region.
    let raw_points: Vec<Vec<u32>> = (0..200u32).map(|i| vec![i * 97, i * 193]).collect();
    let raw_boxes: Vec<Vec<(u8, u8)>> = vec![
        vec![(0, 8), (0, 8)], // whole space
        vec![(1, 7), (1, 7)], // nested
        vec![(2, 4), (2, 4)], // nested deeper
        vec![(0, 4), (0, 2)], // face-touches the next box at x = 0.5
        vec![(4, 8), (0, 2)],
        vec![(3, 3), (3, 3)], // zero extent
        vec![(7, 8), (7, 8)], // likely point-free corner
    ];
    run_case(&raw_points, &raw_boxes, 2);
}

#[test]
fn empty_dataset_and_no_boxes() {
    run_case(&[], &[], 3);
    run_case(&[], &[vec![(0, 4), (0, 4), (0, 9)]], 3);
    let pts: Vec<Vec<u32>> = (0..50u32).map(|i| vec![i * 31, i * 57, i * 11]).collect();
    run_case(&pts, &[], 3);
}
