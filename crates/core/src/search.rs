//! Phase two: finding β-clusters (Algorithm 2).
//!
//! Starting at the coarsest useful resolution (level 2) and refining, the
//! search convolves the Laplacian mask over every not-yet-used cell that does
//! not share space with a previously found β-cluster, takes the cell with the
//! largest convolved value — the densest region at this resolution outside
//! known clusters — and checks whether it *stands out in a statistical
//! sense*: per axis, the points of the centre cell's parent neighborhood are
//! split into six consecutive equal-size regions, and the centre region's
//! count `cP_j` is tested one-sided against `Binomial(nP_j, 1/6)`. A cell
//! significant on at least one axis seeds a new β-cluster; its relevant axes
//! come from an MDL cut over the per-axis relevances and its bounds from the
//! centre cell refined by its face neighbors.
//!
//! Algorithm 2 restarts from level 2 after every find and stops after a full
//! sweep finds nothing. Read literally, every sweep re-convolves every cell;
//! this implementation convolves each cell exactly once instead. A convolved
//! value depends only on cell counts, which the search never changes, and a
//! cell's eligibility (not yet used, no strict overlap with a found β-box)
//! can only be lost, never regained. So each level is ranked once by the
//! total order *(convolved value descending, `CellId` ascending)* — a full
//! scan's "first maximum wins" over ascending ids — and a per-level cursor walks that
//! ranking: a sweep's winner at a level is the first eligible cell past the
//! cursor, and every cell the cursor passes stays ineligible for good.

use std::cmp::Reverse;

use mrcc_common::{AxisMask, BoundingBox};
use mrcc_counting_tree::{Cell, CellId, CountingTree, Direction, Level};
use mrcc_stats::{binomial_critical_value, mdl_cut};

use crate::beta::{AxisStats, BetaCluster};
use crate::config::{AxisSelection, MaskKind, MrCCConfig};
use crate::convolution::convolve;

/// Number of consecutive equal-size regions the parent neighborhood is split
/// into along each axis (Section III-B): the parent's two halves plus the two
/// halves of each face neighbor.
pub const NEIGHBORHOOD_REGIONS: u64 = 6;

/// The uniform null hypothesis gives each of the six regions an equal share
/// of the neighborhood mass: `cP_j ~ Binomial(nP_j, 1/6)`.
pub const NULL_REGION_SHARE: f64 = 1.0 / 6.0;

/// Runs the full β-cluster search over a freshly built Counting-tree.
///
/// Marks every tested winner's `usedCell` flag.
pub fn find_beta_clusters(tree: &mut CountingTree, config: &MrCCConfig) -> Vec<BetaCluster> {
    let dims = tree.dims();
    let h_max = tree.deepest_level();
    // One cursor per convolvable level 2..=H−1, over its ranked cell ids.
    let mut cursors: Vec<_> = (2..=h_max)
        .map(|h| ranked_cells(tree.level(h), dims, config.mask).into_iter())
        .collect();
    let mut betas: Vec<BetaCluster> = Vec::new();
    'search: loop {
        // One sweep from the coarsest convolvable level down.
        for (h, cursor) in (2..=h_max).zip(cursors.iter_mut()) {
            let level = tree.level(h);
            let side = level.side();
            // `find` steps the cursor past every cell it rejects and past
            // the winner itself.
            let Some(winner) = cursor.find(|&id| {
                let cell = level.cell(id);
                !cell.used() && !shares_space_with_any(cell, side, dims, &betas)
            }) else {
                continue;
            };
            tree.level_mut(h).set_used(winner, true);
            if let Some(beta) = confirm_beta_cluster(tree, h, winner, config) {
                betas.push(beta);
                continue 'search; // restart at level 2 (Algorithm 2, line 2)
            }
        }
        break; // full sweep, no new β-cluster (line 31)
    }
    betas
}

/// Every cell id of `level`, convolved once and ordered by the strict total
/// order *(convolved value descending, `CellId` ascending)*: the order in
/// which the restart-scan of Algorithm 2 would pick them as winners.
fn ranked_cells(level: &Level, dims: usize, mask: MaskKind) -> Vec<CellId> {
    let mut ranked: Vec<(Reverse<i64>, CellId)> = level
        .iter()
        .map(|(id, _)| (Reverse(convolve(level, id, dims, mask)), id))
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, id)| id).collect()
}

/// The cell-vs-β-cluster share-space predicate (strict interior overlap; a
/// cell that merely touches a β-box face is outside it and stays eligible —
/// grid-aligned bounds make touching ubiquitous, see
/// [`BoundingBox::overlaps_strict`]).
fn shares_space_with_any(cell: Cell<'_>, side: f64, dims: usize, betas: &[BetaCluster]) -> bool {
    betas.iter().any(|beta| {
        (0..dims).all(|j| {
            cell.upper_bound(j, side) > beta.bounds.lower(j)
                && cell.lower_bound(j, side) < beta.bounds.upper(j)
        })
    })
}

/// Statistics of the six-region neighborhood of `winner` along every axis.
fn neighborhood_stats(tree: &CountingTree, h: usize, winner: CellId, alpha: f64) -> Vec<AxisStats> {
    let dims = tree.dims();
    let level = tree.level(h);
    let cell = level.cell(winner);
    let parent_level = tree.level(h - 1);
    let parent_id = level.parent(winner);
    let parent = parent_level.cell(parent_id);

    (0..dims)
        .map(|j| {
            // Predecessor + its two face neighbors along e_j (the paper's
            // internal and external neighbors N I / N E of a_{h−1}): three
            // consecutive level-(h−1) cells, i.e. six half-cell regions.
            let neighborhood = parent.n()
                + parent_level.neighbor_count(parent_id, j, Direction::Lower)
                + parent_level.neighbor_count(parent_id, j, Direction::Upper);
            // Centre region: the half of the parent that contains the winner.
            // Half-space count P[j] is the parent's lower half, so take it
            // directly when the winner's loc bit is 0, its complement when 1.
            let center = if cell.loc_bit(j) {
                parent.n() - parent.half_count(j)
            } else {
                parent.half_count(j)
            };
            let critical = binomial_critical_value(neighborhood, NULL_REGION_SHARE, alpha);
            let relevance = if neighborhood > 0 {
                100.0 * center as f64 / neighborhood as f64
            } else {
                0.0
            };
            AxisStats {
                neighborhood,
                center,
                critical,
                relevance,
            }
        })
        .collect()
}

/// Applies the significance test at `winner`; on success builds the full
/// β-cluster description (relevant axes + refined bounds).
fn confirm_beta_cluster(
    tree: &CountingTree,
    h: usize,
    winner: CellId,
    config: &MrCCConfig,
) -> Option<BetaCluster> {
    let stats = neighborhood_stats(tree, h, winner, config.alpha);
    if !stats.iter().any(AxisStats::significant) {
        return None;
    }
    let dims = tree.dims();

    // Relevant-axis threshold: an absolute majority-share cut (default) or
    // the paper's MDL cut floored by the effect-size guard (see
    // AxisSelection and MrCCConfig::relevance_floor).
    let cut = match config.axis_selection {
        AxisSelection::Mdl => {
            let mut ordered: Vec<f64> = stats.iter().map(|s| s.relevance).collect();
            #[expect(clippy::expect_used, reason = "relevance ratios are finite")]
            ordered.sort_by(|a, b| {
                a.partial_cmp(b)
                    .expect("relevance ratios are finite by construction invariant")
            });
            mdl_cut(&ordered).threshold.max(config.relevance_floor)
        }
        AxisSelection::Share(t) => t,
    };
    let axes = AxisMask::from_bools(&stats.iter().map(|s| s.relevance >= cut).collect::<Vec<_>>());
    if axes.is_empty() {
        // Statistically significant but with no usable effect on any axis —
        // a diffuse bump, not a cluster.
        return None;
    }

    // Bounds: irrelevant axes span [0,1]; relevant axes take the winner
    // cell's bounds, stretched by one cell side toward face neighbors that
    // hold a meaningful share of the cluster's mass (Algorithm 2, lines
    // 23–28, says "containing at least one point"; at realistic scales
    // background noise puts at least one point in *every* coarse neighbor,
    // which would balloon every box to three cells per axis — we require the
    // neighbor to carry at least a few percent of the centre cell's count,
    // which degenerates to the paper's ≥1 rule exactly when the centre is
    // small; see DESIGN.md).
    let level = tree.level(h);
    let cell = level.cell(winner);
    let side = level.side();
    let spill_threshold = (cell.n() / 20).max(1);
    let mut bounds = BoundingBox::unit(dims);
    for j in axes.iter() {
        let mut lo = cell.lower_bound(j, side);
        let mut hi = cell.upper_bound(j, side);
        if level.neighbor_count(winner, j, Direction::Lower) >= spill_threshold {
            lo = (lo - side).max(0.0);
        }
        if level.neighbor_count(winner, j, Direction::Upper) >= spill_threshold {
            hi = (hi + side).min(1.0);
        }
        bounds.set_lower(j, lo);
        bounds.set_upper(j, hi);
    }

    Some(BetaCluster {
        bounds,
        axes,
        level: h,
        center_coords: cell.coords().to_vec(),
        axis_stats: stats,
        relevance_threshold: cut,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::Dataset;

    #[test]
    fn null_model_matches_the_paper() {
        // Sec. III-B: six equal regions per axis, `cP_j ~ Binomial(nP_j, 1/6)`.
        assert_eq!(NEIGHBORHOOD_REGIONS, 6);
        assert_eq!(NULL_REGION_SHARE.to_bits(), (1.0f64 / 6.0).to_bits());
    }

    /// ~1400 points: a tight 2-d Gaussian-ish blob plus a uniform grid of
    /// noise. The blob should produce exactly one β-cluster relevant on both
    /// axes.
    fn blob_and_noise() -> Dataset {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        // Deterministic pseudo-random blob centred at (0.3, 0.7), σ ≈ 0.02.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..1000 {
            // Irwin–Hall(4) − 2 ≈ Gaussian(0, 0.577).
            let g1: f64 = (0..4).map(|_| next()).sum::<f64>() - 2.0;
            let g2: f64 = (0..4).map(|_| next()).sum::<f64>() - 2.0;
            rows.push([
                (0.3 + 0.03 * g1).clamp(0.0, 0.999),
                (0.7 + 0.03 * g2).clamp(0.0, 0.999),
            ]);
        }
        for _ in 0..400 {
            rows.push([next() * 0.999, next() * 0.999]);
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn finds_the_blob_as_a_beta_cluster() {
        let ds = blob_and_noise();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&mut tree, &MrCCConfig::default());
        assert!(!betas.is_empty(), "no β-cluster found");
        // The first (densest) β-cluster covers the blob centre.
        let b = &betas[0];
        assert!(
            b.bounds.contains(&[0.3, 0.7]),
            "bounds {:?} miss the blob centre",
            b.bounds
        );
        assert!(b.axes.contains(0) && b.axes.contains(1));
    }

    #[test]
    fn uniform_data_yields_no_beta_cluster() {
        // A uniform grid has no density bump that can reject the null at
        // α = 1e−10.
        let mut rows = Vec::new();
        for i in 0..32 {
            for j in 0..32 {
                rows.push([i as f64 / 32.0, j as f64 / 32.0]);
            }
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&mut tree, &MrCCConfig::default());
        assert!(
            betas.is_empty(),
            "found {} spurious β-clusters",
            betas.len()
        );
    }

    #[test]
    fn search_is_deterministic() {
        let ds = blob_and_noise();
        let run = || {
            let mut tree = CountingTree::build(&ds, 4).unwrap();
            find_beta_clusters(&mut tree, &MrCCConfig::default())
                .iter()
                .map(|b| (b.level, b.center_coords.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The restart-scan the cursor search replaced, kept as the reference it
    /// must reproduce: every sweep convolves every eligible cell of a level
    /// and keeps the first maximum in ascending id order.
    fn reference_find_beta_clusters(
        tree: &mut CountingTree,
        config: &MrCCConfig,
    ) -> Vec<BetaCluster> {
        let dims = tree.dims();
        let mut betas: Vec<BetaCluster> = Vec::new();
        'search: loop {
            for h in 2..=tree.deepest_level() {
                let level = tree.level(h);
                let side = level.side();
                let mut best: Option<(CellId, i64)> = None;
                for (id, cell) in level.iter() {
                    if cell.used() || shares_space_with_any(cell, side, dims, &betas) {
                        continue;
                    }
                    let value = convolve(level, id, dims, config.mask);
                    if best.is_none_or(|(_, top)| value > top) {
                        best = Some((id, value));
                    }
                }
                let Some((winner, _)) = best else {
                    continue;
                };
                tree.level_mut(h).set_used(winner, true);
                if let Some(beta) = confirm_beta_cluster(tree, h, winner, config) {
                    betas.push(beta);
                    continue 'search;
                }
            }
            break;
        }
        betas
    }

    /// Everything a β-cluster reports, floats as bit patterns, so `==` means
    /// bit-identical.
    #[expect(clippy::type_complexity, reason = "flat tuples compare field by field")]
    fn fingerprint(
        b: &BetaCluster,
    ) -> (
        usize,
        Vec<u64>,
        Vec<usize>,
        u64,
        Vec<(u64, u64)>,
        Vec<(u64, u64, u64, u64)>,
    ) {
        (
            b.level,
            b.center_coords.clone(),
            b.axes.iter().collect(),
            b.relevance_threshold.to_bits(),
            (0..b.bounds.dims())
                .map(|j| (b.bounds.lower(j).to_bits(), b.bounds.upper(j).to_bits()))
                .collect(),
            b.axis_stats
                .iter()
                .map(|s| (s.neighborhood, s.center, s.critical, s.relevance.to_bits()))
                .collect(),
        )
    }

    #[expect(clippy::type_complexity, reason = "flat tuples compare field by field")]
    fn fingerprints(
        betas: &[BetaCluster],
    ) -> Vec<(
        usize,
        Vec<u64>,
        Vec<usize>,
        u64,
        Vec<(u64, u64)>,
        Vec<(u64, u64, u64, u64)>,
    )> {
        betas.iter().map(fingerprint).collect()
    }

    /// The `usedCell` flags of every level, in arena order.
    fn used_flags(tree: &CountingTree) -> Vec<Vec<bool>> {
        tree.levels()
            .map(|level| level.iter().map(|(_, cell)| cell.used()).collect())
            .collect()
    }

    mod cursor_equals_restart_scan {
        use super::*;
        use mrcc_datagen::{generate, SyntheticSpec};
        use proptest::prelude::*;

        /// Random blob-plus-noise workload, tree height and configuration.
        /// The full mask enumerates `3^d` offsets per cell, so it draws
        /// `d ≤ 5` to keep the reference's repeated sweeps fast.
        fn case_strategy() -> impl Strategy<Value = (SyntheticSpec, MrCCConfig)> {
            (
                (2usize..=8, 200usize..=1_200, 1usize..=3, 1u64..=1_000),
                (3usize..=5, any::<bool>(), any::<bool>(), any::<bool>()),
            )
                .prop_map(|((dims, points, clusters, seed), (h, full, mdl, loose))| {
                    let (mask, dims) = if full {
                        (MaskKind::Full, 2 + dims % 4)
                    } else {
                        (MaskKind::FaceOnly, dims)
                    };
                    let axis_selection = if mdl {
                        AxisSelection::Mdl
                    } else {
                        AxisSelection::Share(45.0)
                    };
                    let alpha = if loose { 1e-2 } else { 1e-10 };
                    let spec = SyntheticSpec::new("search", dims, points, clusters, 0.15, seed);
                    let config = MrCCConfig::with_params(alpha, h)
                        .with_mask(mask)
                        .with_axis_selection(axis_selection);
                    (spec, config)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The cursor search returns the reference's β-clusters bit for
            /// bit and leaves the same `usedCell` flags.
            #[test]
            fn same_betas_and_used_flags((spec, config) in case_strategy()) {
                let ds = generate(&spec).dataset;
                let h = config.resolutions;
                let mut reference_tree = CountingTree::build(&ds, h).unwrap();
                let reference = reference_find_beta_clusters(&mut reference_tree, &config);
                let mut tree = CountingTree::build(&ds, h).unwrap();
                let betas = find_beta_clusters(&mut tree, &config);
                let context = format!("{spec:?} {config:?}");
                prop_assert_eq!(fingerprints(&betas), fingerprints(&reference), "{}", context);
                prop_assert_eq!(used_flags(&tree), used_flags(&reference_tree), "{}", context);
            }
        }
    }

    #[test]
    fn beta_clusters_do_not_share_space_pairwise_centers() {
        // Found β-clusters carve space: no later centre cell may fall inside
        // an earlier β-cluster's box.
        let ds = blob_and_noise();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&mut tree, &MrCCConfig::default());
        for (i, b) in betas.iter().enumerate() {
            let side = (0.5f64).powi(b.level as i32);
            for earlier in &betas[..i] {
                let disjoint = (0..2).any(|j| {
                    let lo = b.center_coords[j] as f64 * side;
                    let hi = lo + side;
                    hi < earlier.bounds.lower(j) || lo > earlier.bounds.upper(j)
                });
                assert!(disjoint, "β-cluster {i} centre inside an earlier box");
            }
        }
    }

    #[test]
    fn loose_alpha_finds_more_clusters_than_tight_alpha() {
        let ds = blob_and_noise();
        let count = |alpha: f64| {
            let mut tree = CountingTree::build(&ds, 4).unwrap();
            find_beta_clusters(&mut tree, &MrCCConfig::with_params(alpha, 4)).len()
        };
        assert!(count(1e-2) >= count(1e-40));
    }
}
