//! Single-scan merge engine ↔ quadratic oracle equivalence.
//!
//! The single-scan phase three (`merge::build_correlation_clusters`)
//! promises the exact same output as the superseded multi-scan path, kept
//! here as the private [`build_correlation_clusters_oracle`] —
//! bit-identical, floats compared through [`f64::to_bits`]. The proptests
//! pin that contract on adversarial arrangements of up to 64 β-boxes, whose
//! containment the engine tests axis by axis, narrowest first: bounds
//! snapped to a coarse grid so boxes constantly touch at faces, nest,
//! coincide, degenerate to zero extent, span the full unit interval on
//! every axis, or contain no points at all. Hand-built cases check the
//! merge semantics and points and boxes outside the unit cube, and one case
//! checks β-boxes found by a real search.

use mrcc::beta::BetaCluster;
use mrcc::merge::{build_correlation_clusters, MergeCache};
use mrcc::{search, CorrelationCluster, MrCCConfig};
use mrcc_common::float::exactly;
use mrcc_common::{AxisMask, BoundingBox, Dataset, SubspaceCluster, SubspaceClustering};
use mrcc_counting_tree::CountingTree;
use mrcc_datagen::{generate, SyntheticSpec};
use proptest::prelude::*;

/// Fraction of the smaller box's points the shared region must hold for two
/// β-clusters to merge (the engine's `JUNCTION_DENSITY`).
const JUNCTION_DENSITY: f64 = 0.20;

/// The superseded `O(β²·η·d)` phase three, the reference the engine must
/// match: one dataset scan per β-cluster for the box counts, one per
/// space-sharing pair for the junction count, and one labeling pass.
/// Groups come from a plain relabel loop in which each β's label is the
/// smallest member id, so the reference shares no grouping code with the
/// engine it checks.
fn build_correlation_clusters_oracle(
    dataset: &Dataset,
    betas: &[BetaCluster],
) -> (Vec<CorrelationCluster>, SubspaceClustering) {
    let dims = dataset.dims();
    let count = |inside: &dyn Fn(&[f64]) -> bool| dataset.iter().filter(|p| inside(p)).count();
    let box_counts: Vec<usize> = betas
        .iter()
        .map(|b| count(&|p| b.bounds.contains(p)))
        .collect();
    let mut label: Vec<usize> = (0..betas.len()).collect();
    for (i, bi) in betas.iter().enumerate() {
        for (j, bj) in betas.iter().enumerate().skip(i + 1) {
            if !bi.shares_space(bj) {
                continue;
            }
            let junction = count(&|p| bi.bounds.contains(p) && bj.bounds.contains(p));
            let needed = (box_counts[i].min(box_counts[j]) as f64 * JUNCTION_DENSITY).ceil();
            if junction as f64 >= needed.max(1.0) {
                let (keep, gone) = (label[i].min(label[j]), label[i].max(label[j]));
                for l in &mut label {
                    if *l == gone {
                        *l = keep;
                    }
                }
            }
        }
    }

    // Each group's smallest member labels it, so leaders come in ascending
    // order of their smallest member.
    let mut clusters: Vec<CorrelationCluster> = (0..betas.len())
        .filter(|&k| label[k] == k)
        .map(|leader| {
            let members: Vec<usize> = (0..betas.len()).filter(|&m| label[m] == leader).collect();
            let mut axes = AxisMask::empty(dims);
            let mut hull = betas[leader].bounds.clone();
            for &m in &members {
                axes = axes.union(&betas[m].axes);
                hull = hull.hull(&betas[m].bounds);
            }
            CorrelationCluster {
                axes,
                beta_indices: members,
                hull,
                size: 0,
            }
        })
        .collect();

    // A point goes to the first cluster with a member box containing it.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];
    for (i, p) in dataset.iter().enumerate() {
        let first = clusters
            .iter()
            .position(|c| c.beta_indices.iter().any(|&m| betas[m].bounds.contains(p)));
        if let Some(k) = first {
            members[k].push(i);
        }
    }
    for (cluster, m) in clusters.iter_mut().zip(&members) {
        cluster.size = m.len();
    }
    let subspace_clusters = clusters
        .iter()
        .zip(members)
        .map(|(c, pts)| SubspaceCluster::new(pts, c.axes))
        .collect();
    let clustering = SubspaceClustering::new(dataset.len(), dims, subspace_clusters);
    (clusters, clustering)
}

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

/// Runs the engine on `ds`/`betas`, asserts it matches the oracle bit for
/// bit and its cache matches brute force, and returns the engine's output.
fn build_checked(
    ds: &Dataset,
    betas: &[BetaCluster],
) -> (Vec<CorrelationCluster>, SubspaceClustering, MergeCache) {
    let context = format!("{}d/{}pts/{}β", ds.dims(), ds.len(), betas.len());
    let engine = build_correlation_clusters(ds, betas, 1);
    assert_matches_oracle(
        &engine,
        &build_correlation_clusters_oracle(ds, betas),
        &context,
    );
    assert_cache_exact(&engine.2, ds, betas, &context);
    engine
}

fn run_case(raw_points: &[Vec<u32>], raw_boxes: &[Vec<(u8, u8)>], dims: usize) {
    let mut ds = Dataset::new(dims).unwrap();
    for raw in raw_points {
        let p: Vec<f64> = raw.iter().map(|&r| coord(r)).collect();
        ds.push(&p).unwrap();
    }
    let betas: Vec<BetaCluster> = raw_boxes.iter().map(|rb| beta(rb)).collect();
    let _ = build_checked(&ds, &betas);
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
            proptest::collection::vec((0u8..=9, 0u8..=9), 4), 0..=64),
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

/// A hand-built β-cluster with the given box and relevant axes.
fn beta_box(lo: &[f64], hi: &[f64], axes: &[usize]) -> BetaCluster {
    let d = lo.len();
    BetaCluster {
        bounds: BoundingBox::new(lo.to_vec(), hi.to_vec()),
        axes: AxisMask::from_axes(d, axes.iter().copied()),
        level: 2,
        center_coords: vec![0; d],
        axis_stats: Vec::new(),
        relevance_threshold: 50.0,
    }
}

/// 100 points on a 10 × 10 grid over `[0, 0.9]²`.
fn grid_dataset() -> Dataset {
    let mut rows = Vec::new();
    for i in 0..10 {
        for j in 0..10 {
            rows.push([f64::from(i) / 10.0, f64::from(j) / 10.0]);
        }
    }
    Dataset::from_rows(&rows).unwrap()
}

#[test]
fn no_betas_all_noise() {
    let ds = grid_dataset();
    let (clusters, clustering, cache) = build_checked(&ds, &[]);
    assert!(clusters.is_empty());
    assert_eq!(clustering.noise().len(), ds.len());
    assert_eq!(cache.n_points(), ds.len());
    assert!(cache.containing(0).is_empty());
}

#[test]
fn overlapping_betas_merge() {
    let ds = grid_dataset();
    let betas = vec![
        beta_box(&[0.0, 0.0], &[0.3, 0.3], &[0]),
        beta_box(&[0.15, 0.15], &[0.5, 0.5], &[0, 1]), // overlaps + shares e1
        beta_box(&[0.8, 0.8], &[0.95, 0.95], &[0, 1]), // separate
    ];
    let (clusters, clustering, _) = build_checked(&ds, &betas);
    assert_eq!(clusters.len(), 2);
    // Merged cluster carries the union of relevant axes.
    assert_eq!(clusters[0].beta_indices, vec![0, 1]);
    assert_eq!(clusters[0].axes.count(), 2);
    assert_eq!(clusters[1].beta_indices, vec![2]);
    assert_eq!(clustering.len(), 2);
}

#[test]
fn transitive_merge_through_a_chain() {
    let ds = grid_dataset();
    // a–b overlap, b–c overlap, a–c do not: all three must merge.
    let betas = vec![
        beta_box(&[0.0, 0.0], &[0.2, 0.2], &[0]),
        beta_box(&[0.05, 0.05], &[0.45, 0.45], &[0]),
        beta_box(&[0.3, 0.3], &[0.6, 0.6], &[0, 1]),
    ];
    let (clusters, _, _) = build_checked(&ds, &betas);
    assert_eq!(clusters.len(), 1);
    assert_eq!(clusters[0].beta_indices, vec![0, 1, 2]);
}

#[test]
fn points_label_after_member_boxes() {
    let ds = grid_dataset();
    let betas = vec![beta_box(&[0.0, 0.0], &[0.25, 0.25], &[0, 1])];
    let (clusters, clustering, cache) = build_checked(&ds, &betas);
    // Points with both coordinates in {0.0, 0.1, 0.2} → 9 points.
    assert_eq!(clusters[0].size, 9);
    assert_eq!(clustering.clusters()[0].len(), 9);
    assert_eq!(clustering.noise().len(), 100 - 9);
    assert_eq!(cache.box_count(0), 9);
}

#[test]
fn touching_boxes_stay_separate_and_labels_stay_disjoint() {
    let ds = grid_dataset();
    // Boxes sharing only a face have zero-volume intersection → two
    // clusters; the boundary point goes to the first match and is never
    // double-assigned.
    let betas = vec![
        beta_box(&[0.0, 0.0], &[0.5, 0.5], &[0]),
        beta_box(&[0.5, 0.0], &[0.9, 0.5], &[0]),
    ];
    let (clusters, clustering, _) = build_checked(&ds, &betas);
    assert_eq!(clusters.len(), 2);
    let total: usize = clustering.clusters().iter().map(SubspaceCluster::len).sum();
    assert_eq!(total + clustering.noise().len(), ds.len());
}

#[test]
fn hull_covers_members() {
    let ds = grid_dataset();
    let betas = vec![
        beta_box(&[0.0, 0.0], &[0.2, 0.2], &[0]),
        beta_box(&[0.1, 0.1], &[0.5, 0.6], &[0, 1]),
    ];
    let (clusters, _, _) = build_checked(&ds, &betas);
    let h = &clusters[0].hull;
    assert!(exactly(h.lower(0), 0.0));
    assert!(exactly(h.upper(1), 0.6));
}

#[test]
fn points_and_boxes_outside_the_unit_cube() {
    // `build_correlation_clusters` accepts any finite coordinates, so
    // points beyond `[0,1]` must be tested on every axis, including axes on
    // which a box spans the whole unit interval.
    let mut rows = Vec::new();
    for x in [-0.5, -0.25, 0.0, 0.5, 1.0, 1.25, 1.5] {
        for y in [-0.5, 0.0, 0.25, 0.75, 1.0, 1.5] {
            rows.push([x, y]);
        }
    }
    let ds = Dataset::from_rows(&rows).unwrap();
    let betas = vec![
        beta_box(&[0.0, 0.0], &[1.0, 1.0], &[0]), // the unit box
        beta_box(&[0.0, 0.0], &[0.5, 1.0], &[0]), // [0,1] on axis 1
        beta_box(&[-1.0, 0.0], &[0.0, 0.25], &[0, 1]), // leaves [0,1] below
        beta_box(&[1.0, -0.5], &[2.0, 0.0], &[0, 1]), // leaves [0,1] above
        beta_box(&[-0.5, -0.5], &[1.5, 1.5], &[0]), // holds every point
    ];
    let (_, _, cache) = build_checked(&ds, &betas);
    assert_eq!(cache.box_count(0), 3 * 4);
    assert_eq!(cache.box_count(4), ds.len());
    // Row 5 is (-0.5, 1.5), outside the unit cube on both axes.
    assert_eq!(cache.containing(5), &[4]);
}

#[test]
fn cache_containment_matches_brute_force() {
    let ds = grid_dataset();
    let betas = vec![
        beta_box(&[0.0, 0.0], &[0.3, 0.3], &[0]),
        beta_box(&[0.2, 0.2], &[0.7, 0.7], &[0, 1]),
        beta_box(&[0.0, 0.0], &[1.0, 1.0], &[0]), // everything
    ];
    // `build_checked` compares every containment list with brute force.
    let (_, _, cache) = build_checked(&ds, &betas);
    assert_eq!(cache.box_count(2), 100);
}

/// β-boxes from a real search, frozen on the full workload and merged over
/// the η/8, η/4, η/2 and η prefixes. This is the only case whose boxes come
/// from `search::find_beta_clusters`; the others arrange boxes by hand.
#[test]
fn engine_matches_oracle_on_searched_betas_across_prefixes() {
    let synth = generate(&SyntheticSpec::new("merge", 10, 8_000, 4, 0.15, 42));
    let ds = &synth.dataset;
    let config = MrCCConfig::default();
    let tree = CountingTree::build(ds, config.resolutions).unwrap();
    let betas = search::find_beta_clusters(&tree, &config);
    assert!(betas.len() >= 2, "search found {} β-clusters", betas.len());
    for n in [ds.len() / 8, ds.len() / 4, ds.len() / 2, ds.len()] {
        let mut prefix = Dataset::new(ds.dims()).unwrap();
        for i in 0..n {
            prefix.push(ds.point(i)).unwrap();
        }
        let _ = build_checked(&prefix, &betas);
    }
}
