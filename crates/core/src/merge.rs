//! Phase three: building correlation clusters (Algorithm 3).
//!
//! β-clusters sharing space in the full `d`-dimensional data space are
//! transitively grouped into one correlation cluster; the cluster's relevant
//! axes are those relevant to *any* member β-cluster. Points are then labeled
//! after the regions covered by the correlation clusters — a point belongs to
//! cluster `k` iff it falls inside the box of some member β-cluster — and
//! everything else is noise. Because distinct correlation clusters never
//! share space, the labeling is unambiguous and the clusters partition the
//! clustered points (Definition 2's disjointness).
//!
//! # Single-scan engine
//!
//! The paper's headline bound (Sec. IV) is time linear in the number of
//! points `η`. A naive phase three breaks it: one full-dataset containment
//! scan per β-cluster for the box populations, another per overlapping
//! β-pair for the junction-density numerators, and a third pass for
//! labeling — `O(β²·η·d)` overall. This module instead performs **exactly
//! one dataset pass**: each point is tested against every β-box in turn,
//! narrowest axis first and stopping at the first axis it lies outside, and
//! the pass accumulates per-β point counts, sparse pairwise co-containment
//! counts and the per-point containment lists from the boxes that contain
//! it. At fixed β that is linear in `η`: `O(η·β·k)`, where `k` is the number
//! of axes a box tests before it rejects a point. Union–find,
//! axis union, hulls and point labels are all derived from that recorded
//! pass with zero further dataset scans, and the per-β counts plus per-point
//! containment are handed to the caller as a [`MergeCache`] so downstream
//! consumers (soft memberships) never re-scan either. The pass is a single
//! serial loop over the points.
//!
//! The superseded multi-scan implementation lives on only as the
//! equivalence oracle in `tests/merge_equivalence.rs`, which checks this
//! engine against it bit for bit.

#[cfg(test)]
use std::cell::Cell;
use std::collections::HashMap;

use mrcc_common::{AxisMask, BoundingBox, Dataset, SubspaceCluster, SubspaceClustering};

use crate::beta::BetaCluster;

/// Fraction of the smaller box's points that must sit in the shared region
/// for two β-clusters to merge (see `build_correlation_clusters`).
const JUNCTION_DENSITY: f64 = 0.20;

#[cfg(test)]
thread_local! {
    /// Test scan counter, see [`dataset_scan_count`].
    static DATASET_SCANS: Cell<u64> = const { Cell::new(0) };
}

/// Test instrumentation: how many full-dataset counting passes the merge /
/// soft-labeling layer has performed **on the calling thread** since it
/// started. The single-scan contract says one fit increments this by
/// exactly 1 during phase three and `soft_memberships` by 0; unit tests
/// here and in `soft.rs` pin both. Thread-local so concurrently running
/// tests cannot observe each other's passes.
#[cfg(test)]
#[must_use]
pub(crate) fn dataset_scan_count() -> u64 {
    DATASET_SCANS.with(Cell::get)
}

/// Records one full-dataset counting pass (see [`dataset_scan_count`]).
#[cfg(test)]
fn note_dataset_scan() {
    DATASET_SCANS.with(|c| c.set(c.get() + 1));
}

/// A final correlation cluster `δ_γC_k = (δ_γE_k, δ_γS_k)`.
#[derive(Debug, Clone)]
pub struct CorrelationCluster {
    /// Relevant axes: union over member β-clusters.
    pub axes: AxisMask,
    /// Indices (into the β-cluster list) of the members, ascending.
    pub beta_indices: Vec<usize>,
    /// Bounding hull of the member boxes (reporting only; membership uses
    /// the exact union of member boxes).
    pub hull: BoundingBox,
    /// Number of points labeled into this cluster.
    pub size: usize,
}

/// The artifacts of the merge phase's single dataset pass, cached on
/// [`crate::MrCCResult`] so later consumers (notably
/// [`crate::MrCCResult::soft_memberships`]) reuse them instead of
/// re-scanning the dataset.
///
/// Holds the per-β-cluster point counts and, in compressed sparse row
/// form, each point's containing-box set (ascending β indices per point).
#[derive(Debug, Clone)]
pub struct MergeCache {
    /// `box_counts[k]`: points inside β-cluster `k`'s box.
    box_counts: Vec<usize>,
    /// CSR offsets into `ids`: point `i`'s containment list is
    /// `ids[offsets[i]..offsets[i + 1]]`. Length `η + 1`.
    offsets: Vec<usize>,
    /// Concatenated containing-box ids, ascending within each point.
    ids: Vec<u32>,
}

impl MergeCache {
    /// Number of points the cache covers.
    #[must_use]
    pub fn n_points(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of β-cluster boxes the cache covers.
    #[must_use]
    pub fn n_boxes(&self) -> usize {
        self.box_counts.len()
    }

    /// Points inside β-cluster `k`'s box (the merge pass's exact count).
    ///
    /// # Panics
    /// Panics when `k` is not a valid β-cluster index.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn box_count(&self, k: usize) -> usize {
        self.box_counts[k]
    }

    /// Total length of all containment lists: the number of (point,
    /// containing box) pairs.
    #[must_use]
    pub(crate) fn n_containments(&self) -> usize {
        self.ids.len()
    }

    /// The β-clusters whose boxes contain point `i`, ascending.
    ///
    /// # Panics
    /// Panics when `i` is not a valid point index.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn containing(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Everything the single pass produces: the cacheable artifacts plus the
/// sparse junction numerators (only needed transiently by the merge).
struct ScanResult {
    cache: MergeCache,
    /// `pair_counts[(a, b)]` with `a < b`: points inside both boxes.
    pair_counts: HashMap<(u32, u32), usize>,
}

/// The single dataset pass: walks every point exactly once, testing it
/// against each β-box in id order, and records its containing-box set while
/// counting every box and every co-containing pair. Each box's `(axis,
/// lower, upper)` tests sit narrowest interval first in one flat table, so
/// a point outside a box is usually rejected on the first test. Every axis
/// is tested, which makes the test [`BoundingBox::contains`] for any point.
///
/// # Panics
/// Panics on a box/dataset dims mismatch or more β-clusters than `u32` ids.
fn scan_dataset(dataset: &Dataset, betas: &[BetaCluster]) -> ScanResult {
    #[cfg(test)]
    note_dataset_scan();
    let dims = dataset.dims();
    assert!(u32::try_from(betas.len()).is_ok(), "β ids exceed u32");
    let mut tests: Vec<(usize, f64, f64)> = Vec::with_capacity(betas.len() * dims);
    for (k, beta) in betas.iter().enumerate() {
        let b = &beta.bounds;
        assert_eq!(b.dims(), dims, "β-cluster {k}: box/dataset dims mismatch");
        let mut axes: Vec<usize> = (0..dims).collect();
        axes.sort_by(|&i, &j| b.extent(i).total_cmp(&b.extent(j)));
        tests.extend(axes.into_iter().map(|j| (j, b.lower(j), b.upper(j))));
    }
    let mut cache = MergeCache {
        box_counts: vec![0; betas.len()],
        offsets: Vec::with_capacity(dataset.len() + 1),
        ids: Vec::new(),
    };
    cache.offsets.push(0);
    let mut pair_counts: HashMap<(u32, u32), usize> = HashMap::new();
    let mut buf: Vec<u32> = Vec::new();
    for point in dataset.iter() {
        buf.clear();
        // Ids ascend with the boxes, so `buf` comes out ascending.
        for (id, box_tests) in (0u32..).zip(tests.chunks_exact(dims)) {
            #[expect(clippy::indexing_slicing, reason = "each box has the point's dims")]
            if box_tests
                .iter()
                .all(|&(j, lo, hi)| (lo..=hi).contains(&point[j]))
            {
                buf.push(id);
            }
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "ids are minted from β indices < betas.len(), and pos < buf.len()"
        )]
        for (pos, &a) in buf.iter().enumerate() {
            cache.box_counts[a as usize] += 1;
            for &b in &buf[pos + 1..] {
                // `buf` is ascending, so (a, b) is already ordered.
                *pair_counts.entry((a, b)).or_insert(0) += 1;
            }
        }
        cache.ids.extend_from_slice(&buf);
        cache.offsets.push(cache.ids.len());
    }
    ScanResult { cache, pair_counts }
}

/// Minimal union–find with path halving and union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    // Indexing invariant: `parent` and `size` are length-`n` arrays whose
    // entries are always indices `< n` (`new` seeds them that way and `union`
    // only stores roots returned by `find`), so element access cannot go out
    // of bounds for any `x < n`.
    #[expect(clippy::indexing_slicing, reason = "parent entries are indices < n")]
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    #[expect(clippy::indexing_slicing, reason = "`find` returns roots < n")]
    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// Collects union–find groups in deterministic order (by smallest member
/// index), returning the member lists and each β-cluster's group id.
fn collect_groups(uf: &mut UnionFind, n: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut root_to_group: Vec<Option<usize>> = vec![None; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let root = uf.find(i);
        #[expect(
            clippy::indexing_slicing,
            reason = "`find` returns an index < n, and group ids are only handed out by the push below"
        )]
        let g = match root_to_group[root] {
            Some(g) => {
                groups[g].push(i);
                g
            }
            None => {
                let g = groups.len();
                root_to_group[root] = Some(g);
                groups.push(vec![i]);
                g
            }
        };
        group_of.push(g);
    }
    (groups, group_of)
}

/// Builds the cluster descriptions (axis unions and hulls) from the groups.
#[expect(
    clippy::indexing_slicing,
    reason = "every group is non-empty and its members are indices into `betas`"
)]
fn describe_groups(
    groups: &[Vec<usize>],
    betas: &[BetaCluster],
    dims: usize,
) -> Vec<CorrelationCluster> {
    groups
        .iter()
        .map(|members| {
            let mut axes = AxisMask::empty(dims);
            let mut hull = betas[members[0]].bounds.clone();
            for &m in members {
                axes = axes.union(&betas[m].axes);
                hull = hull.hull(&betas[m].bounds);
            }
            CorrelationCluster {
                axes,
                beta_indices: members.clone(),
                hull,
                size: 0,
            }
        })
        .collect()
}

/// Groups β-clusters into correlation clusters and labels every dataset
/// point, using **one** dataset pass (see the module docs). Returns the
/// clusters (ordered by smallest member β index), the resulting partition,
/// and the [`MergeCache`] of reusable scan artifacts.
///
/// `_threads` is ignored: the pass is serial. The parameter stays only
/// because the `perfbench` benchmark still passes a thread count.
///
/// # Panics
/// Panics when a β-cluster's box has a different dimensionality than the
/// dataset, or when there are more β-clusters than `u32` can number.
pub fn build_correlation_clusters(
    dataset: &Dataset,
    betas: &[BetaCluster],
    _threads: usize,
) -> (Vec<CorrelationCluster>, SubspaceClustering, MergeCache) {
    let dims = dataset.dims();
    let ScanResult { cache, pair_counts } = scan_dataset(dataset, betas);

    // Pairwise share-space → union (Algorithm 3, lines 1–5), with a
    // junction-density check: two β-boxes only describe the same cluster
    // when the region they share actually holds a meaningful slice of the
    // smaller box's points. Fragments of one (possibly rotated) cluster meet
    // where the cluster is — dense junctions — while boxes of *different*
    // clusters that happen to cross geometrically meet in mostly-empty
    // space (a coarse-level box spans `[0,1]` on its irrelevant axes, so
    // such crossings are unavoidable). See DESIGN.md. The junction counts
    // come from the recorded pass; no β-pair ever re-reads the dataset.
    // The scan numbers the β-clusters in `u32` (`scan_dataset` checks that
    // they fit), so zipping with `0u32..` pairs each β with its id.
    let mut uf = UnionFind::new(betas.len());
    for ((i, beta_i), a) in betas.iter().enumerate().zip(0u32..) {
        for ((j, beta_j), b) in betas.iter().enumerate().zip(0u32..).skip(i + 1) {
            if !beta_i.shares_space(beta_j) {
                continue;
            }
            let junction = pair_counts.get(&(a, b)).copied().unwrap_or(0);
            let needed =
                (cache.box_count(i).min(cache.box_count(j)) as f64 * JUNCTION_DENSITY).ceil();
            if junction as f64 >= needed.max(1.0) {
                uf.union(i, j);
            }
        }
    }

    let (groups, group_of) = collect_groups(&mut uf, betas.len());
    let mut clusters = describe_groups(&groups, betas, dims);

    // Label points after the covered regions; the first matching cluster
    // wins (regions of distinct correlation clusters are disjoint up to
    // shared boundaries). "First cluster whose member box contains the
    // point" is exactly the smallest group id over the point's recorded
    // containing-box set — no containment is re-evaluated.
    #[expect(clippy::indexing_slicing, reason = "containment ids index `betas`")]
    let label = |i: usize| {
        cache
            .containing(i)
            .iter()
            .map(|&b| group_of[b as usize])
            .min()
    };
    // One pass counts each cluster's points, so the second fills member
    // lists of exactly their size.
    for i in 0..dataset.len() {
        #[expect(clippy::indexing_slicing, reason = "group ids index `clusters`")]
        if let Some(g) = label(i) {
            clusters[g].size += 1;
        }
    }
    let mut members: Vec<Vec<usize>> = clusters
        .iter()
        .map(|c| Vec::with_capacity(c.size))
        .collect();
    for i in 0..dataset.len() {
        #[expect(clippy::indexing_slicing, reason = "group ids index `members`")]
        if let Some(g) = label(i) {
            members[g].push(i);
        }
    }

    let subspace_clusters: Vec<SubspaceCluster> = clusters
        .iter()
        .zip(members)
        .map(|(c, pts)| SubspaceCluster::new(pts, c.axes))
        .collect();
    let clustering = SubspaceClustering::new(dataset.len(), dims, subspace_clusters);
    (clusters, clustering, cache)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beta(lo: &[f64], hi: &[f64], axes: &[usize]) -> BetaCluster {
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

    fn grid_dataset() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                rows.push([i as f64 / 10.0, j as f64 / 10.0]);
            }
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn merge_phase_performs_exactly_one_dataset_pass() {
        let ds = grid_dataset();
        let betas = vec![
            beta(&[0.0, 0.0], &[0.3, 0.3], &[0]),
            beta(&[0.2, 0.2], &[0.5, 0.5], &[0, 1]),
        ];
        let before = dataset_scan_count();
        let _ = build_correlation_clusters(&ds, &betas, 1);
        assert_eq!(dataset_scan_count() - before, 1, "engine must scan once");
    }
}
