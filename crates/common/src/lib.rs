#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Common dataset substrate for the MrCC reproduction.
//!
//! This crate hosts everything that the clustering method, the baselines, the
//! generators and the evaluation harness all agree on:
//!
//! * [`Dataset`] — a dense, row-major store of `d`-dimensional points,
//!   together with normalization into the unit hyper-cube `[0,1)^d` that the
//!   paper assumes (Definition 1).
//! * [`AxisMask`] — a compact set of axes (`δ_γE_k` in the paper), used both
//!   for a cluster's *relevant axes* and for subspace bookkeeping.
//! * [`BoundingBox`] — an axis-aligned hyper-rectangle, the geometric
//!   description of a β-cluster / correlation cluster (matrices `L`/`U`).
//! * [`BoxIndex`] — point-stabbing index over a set of boxes (per-axis
//!   interval stabbing), powering the single-scan merge/labeling phase.
//! * [`SubspaceCluster`] / [`SubspaceClustering`] — the output type shared by
//!   MrCC and every baseline: disjoint point sets plus per-cluster relevant
//!   axes, with everything unassigned being noise.
//! * CSV import/export so examples can round-trip data.

pub mod bbox;
pub mod boxindex;
pub mod clustering;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod float;
pub mod mask;
pub mod num;

pub use bbox::BoundingBox;
pub use boxindex::BoxIndex;
pub use clustering::{SubspaceCluster, SubspaceClustering, NOISE};
pub use dataset::{Dataset, NormalizeInfo};
pub use error::{Error, Result};
pub use mask::AxisMask;
