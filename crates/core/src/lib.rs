#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::missing_panics_doc
    )
)]

//! **MrCC — Multi-resolution Correlation Clustering** (Cordeiro, Traina,
//! Faloutsos, Traina Jr., ICDE 2010).
//!
//! MrCC finds *correlation clusters* — clusters that exist only in subspaces
//! of a multi-dimensional space — together with the axes relevant to each
//! cluster, in time and memory linear in the number of points. It never
//! computes a distance; instead it
//!
//! 1. builds a [Counting-tree](mrcc_counting_tree) over the data
//!    (Algorithm 1),
//! 2. convolves every resolution level with an integer Laplacian mask to
//!    locate density bumps, confirms each bump with a one-sided binomial
//!    test against a uniform null, and picks the bump's relevant axes with
//!    an MDL-tuned threshold — yielding **β-clusters** (Algorithm 2), and
//! 3. merges space-sharing β-clusters into final **correlation clusters**
//!    and labels every point, leaving the rest as noise (Algorithm 3).
//!
//! # Quickstart
//!
//! ```
//! use mrcc::{MrCC, MrCCConfig};
//! use mrcc_common::Dataset;
//!
//! // A toy dataset: a tight blob in axis 0 around 0.3, spread along axis 1.
//! let mut rows = Vec::new();
//! for i in 0..400 {
//!     let t = i as f64 / 400.0;
//!     rows.push([0.30 + 0.02 * (t - 0.5), t * 0.999]);
//! }
//! // Background noise.
//! for i in 0..100 {
//!     let t = i as f64 / 100.0;
//!     rows.push([(t * 7.31) % 1.0, (t * 3.17) % 1.0]);
//! }
//! let ds = Dataset::from_rows(&rows).unwrap();
//!
//! let result = MrCC::new(MrCCConfig::default()).fit(&ds).unwrap();
//! assert!(!result.clustering.is_empty());
//! // The cluster is correlated along axis e1 (index 0).
//! assert!(result.clusters[0].axes.contains(0));
//! ```

pub mod beta;
pub mod config;
pub mod convolution;
pub mod merge;
pub mod result;
pub mod search;
pub mod soft;

pub use beta::BetaCluster;
pub use config::{AxisSelection, MaskKind, MrCCConfig, MAX_THREADS};
pub use merge::{CorrelationCluster, MergeCache};
pub use result::{FitStats, MrCCResult};
pub use soft::SoftClustering;

use mrcc_common::{Dataset, Result};
use mrcc_counting_tree::CountingTree;

/// The MrCC clustering method. Construct with a [`MrCCConfig`], then call
/// [`MrCC::fit`].
#[derive(Debug, Clone)]
pub struct MrCC {
    config: MrCCConfig,
}

impl MrCC {
    /// Creates the method with the given configuration.
    pub fn new(config: MrCCConfig) -> Self {
        MrCC { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MrCCConfig {
        &self.config
    }

    /// Runs the full three-phase method over a unit-normalized dataset.
    ///
    /// One serial pass per phase: [`CountingTree::build`], then
    /// [`search::find_beta_clusters`], then the single-scan merge.
    /// `config.threads` is ignored (see DESIGN.md, "Serial execution").
    ///
    /// # Errors
    /// Propagates configuration validation and Counting-tree construction
    /// errors (e.g. data outside `[0,1)` — normalize first, or use
    /// [`MrCC::fit_normalizing`]).
    pub fn fit(&self, dataset: &Dataset) -> Result<MrCCResult> {
        self.config.validate()?;
        let build_start = std::time::Instant::now();
        let tree = CountingTree::build(dataset, self.config.resolutions)?;
        let tree_build = build_start.elapsed();
        let tree_memory = tree.memory_bytes();

        let search_start = std::time::Instant::now();
        let betas = search::find_beta_clusters(&tree, &self.config);
        let beta_search = search_start.elapsed();
        // Nothing reads the tree after the search: free it before the merge.
        drop(tree);

        let merge_start = std::time::Instant::now();
        let (clusters, clustering, merge_cache) =
            merge::build_correlation_clusters(dataset, &betas, 1);
        let merge_phase = merge_start.elapsed();

        Ok(MrCCResult {
            clustering,
            clusters,
            beta_clusters: betas,
            merge_cache,
            stats: FitStats {
                tree_memory_bytes: tree_memory,
                tree_build,
                beta_search,
                merge_phase,
            },
        })
    }

    /// Convenience wrapper that clones the dataset, min–max normalizes it
    /// into `[0,1)^d` and fits. Cluster bounds are reported in normalized
    /// coordinates.
    pub fn fit_normalizing(&self, dataset: &Dataset) -> Result<MrCCResult> {
        if dataset.is_unit_normalized() {
            return self.fit(dataset);
        }
        let mut ds = dataset.clone();
        ds.normalize_unit()?;
        self.fit(&ds)
    }
}

impl Default for MrCC {
    fn default() -> Self {
        MrCC::new(MrCCConfig::default())
    }
}
