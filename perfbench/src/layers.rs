//! `MrCC::fit` taken apart: the layer functions called in the order `fit`
//! calls them, each inside a span, plus the layer probes that have no call
//! of their own inside `fit` (one convolution pass, the statistics replay).

use std::hint::black_box;
use std::time::Duration;

use mrcc::search::NULL_REGION_SHARE;
use mrcc::{convolution, merge, search, BetaCluster, FitStats, MrCCConfig, MrCCResult};
use mrcc_common::Dataset;
use mrcc_counting_tree::CountingTree;
use mrcc_stats::{binomial_critical_value, mdl_cut};

use crate::trace::Tracer;

/// Span names of one composition: the whole fit and its three phases.
#[derive(Debug, Clone, Copy)]
pub struct PhaseNames {
    /// The enclosing span, the traced counterpart of one `fit` call.
    pub fit: &'static str,
    /// `CountingTree::build` / `build_sharded`.
    pub build: &'static str,
    /// `search::find_beta_clusters`.
    pub search: &'static str,
    /// `merge::build_correlation_clusters`.
    pub merge: &'static str,
}

/// Span names of the serial composition.
pub const SERIAL: PhaseNames = PhaseNames {
    fit: "fit",
    build: "tree.build",
    search: "search",
    merge: "merge",
};

/// Span names of the composition at the parallel thread count.
pub const PARALLEL: PhaseNames = PhaseNames {
    fit: "fit.par",
    build: "tree.build.par",
    search: "search.par",
    merge: "merge.par",
};

/// A composed fit: the result `fit` would return, plus the tree the search
/// ran on (its `used` flags are set, its counts are those of the build).
#[derive(Debug)]
pub struct Composed {
    /// The fit result, assembled from the phase outputs.
    pub result: MrCCResult,
    /// The Counting-tree after phase two.
    pub tree: CountingTree,
}

/// Runs the three phases of `MrCC::fit` one by one, each in its own span,
/// at `config.threads`.
///
/// # Errors
/// Configuration or tree-construction errors, as `fit` would return them.
pub fn compose(
    tracer: &mut Tracer,
    ds: &Dataset,
    config: &MrCCConfig,
    names: PhaseNames,
) -> Result<Composed, String> {
    config.validate().map_err(|e| e.to_string())?;
    tracer.open(names.fit);
    let built = tracer.span(names.build, || {
        if config.threads > 1 {
            CountingTree::build_sharded(ds, config.resolutions, config.threads)
        } else {
            CountingTree::build(ds, config.resolutions)
        }
    });
    let mut tree = match built {
        Ok(tree) => tree,
        Err(e) => {
            tracer.close();
            return Err(e.to_string());
        }
    };
    let betas = tracer.span(names.search, || {
        search::find_beta_clusters(&mut tree, config)
    });
    let (clusters, clustering, merge_cache) = tracer.span(names.merge, || {
        merge::build_correlation_clusters(ds, &betas, config.threads)
    });
    tracer.close();
    let result = MrCCResult {
        clustering,
        clusters,
        beta_clusters: betas,
        merge_cache,
        // The phase times of this composition are its spans.
        stats: FitStats {
            tree_memory_bytes: tree.memory_bytes(),
            tree_build: Duration::ZERO,
            beta_search: Duration::ZERO,
            merge_phase: Duration::ZERO,
        },
    };
    Ok(Composed { result, tree })
}

/// Cells of the convolvable levels `2..=H−1`, the cells a search sweep
/// visits.
pub fn convolvable_cells(tree: &CountingTree) -> usize {
    (2..=tree.deepest_level())
        .map(|h| tree.level(h).n_cells())
        .sum()
}

/// One convolution of every convolvable cell; returns the sum of the
/// convolved values so the work cannot be optimised away.
pub fn convolution_pass(tree: &CountingTree, config: &MrCCConfig) -> i64 {
    let dims = tree.dims();
    let mut acc = 0i64;
    for h in 2..=tree.deepest_level() {
        let level = tree.level(h);
        for (id, _) in level.iter() {
            acc = acc.wrapping_add(convolution::convolve(level, id, dims, config.mask));
        }
    }
    black_box(acc)
}

/// Replays the statistics layer on every accepted β-cluster: the binomial
/// critical value of each axis and the MDL cut over its relevances.
/// Returns `(tests, mismatches)`: binomial tests run, and how many
/// recomputed critical values differ from the ones the search recorded.
pub fn stats_replay(betas: &[BetaCluster], config: &MrCCConfig) -> (usize, usize) {
    let mut tests = 0;
    let mut mismatches = 0;
    for beta in betas {
        for axis in &beta.axis_stats {
            let critical =
                binomial_critical_value(axis.neighborhood, NULL_REGION_SHARE, config.alpha);
            tests += 1;
            if black_box(critical) != axis.critical {
                mismatches += 1;
            }
        }
        let mut relevances: Vec<f64> = beta.axis_stats.iter().map(|a| a.relevance).collect();
        relevances.sort_by(f64::total_cmp);
        black_box(mdl_cut(&relevances));
    }
    (tests, mismatches)
}

/// Σ over points of the merge cache's containing-box list lengths.
pub fn containments(result: &MrCCResult) -> usize {
    (0..result.merge_cache.n_points())
        .map(|i| result.merge_cache.containing(i).len())
        .sum()
}

/// β-clusters absorbed by merging: `β − clusters`.
pub fn unions(result: &MrCCResult) -> usize {
    result.n_beta_clusters() - result.n_clusters()
}
