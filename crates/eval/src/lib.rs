#![warn(missing_docs)]

//! Evaluation harness for the MrCC reproduction (paper Section IV-A).
//!
//! * [`quality`](mod@quality) — per-cluster precision/recall against ground truth
//!   (Equations 1–2), the averaged **Quality** (harmonic mean of averaged
//!   precision over found clusters and averaged recall over real clusters)
//!   and the **Subspaces Quality** (the same construction over relevant-axis
//!   sets).
//! * [`memory`] — a tracking global allocator measuring live and peak heap
//!   bytes, so the experiment harness can report memory like the paper's KB
//!   columns.
//! * [`timing`] — wall-clock measurement and a thread-based timeout runner
//!   (the paper gave LAC three hours and P3C a week; we give everything a
//!   configurable budget).

pub mod memory;
pub mod quality;
pub mod timing;

pub use memory::{measure_peak, MemoryReport, TrackingAllocator};
pub use quality::{quality, subspace_quality, ClusterMatch, QualityReport};
pub use timing::{run_with_timeout, Timeout};
