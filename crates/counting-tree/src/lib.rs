#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::as_conversions)
)]

//! The **Counting-tree** (MrCC, Section III-A).
//!
//! A multi-resolution description of a dataset embedded in the unit
//! hyper-cube `[0,1)^d`. Level `h` covers the space with a hyper-grid of
//! cells of side `ξ_h = 1/2^h`; each cell knows how many points it contains
//! (`n`), how many of them sit in its lower half along every axis (the
//! *half-space counts* `P[j]`), and whether the clustering pass has already
//! consumed it (`usedCell`). Only non-empty cells are materialized, so each
//! level stores at most `η` cells and the whole structure is `O(H·η·d)`
//! space; it is built in a single scan of the data, `O(η·H·d)` time
//! (Algorithm 1 of the paper).
//!
//! ## Representation
//!
//! The paper implements each tree node as a linked list of cells carrying a
//! *relative* position `loc` (one bit per axis) and a pointer to the refined
//! node, and resolves a cell's *external* face neighbors by walking the tree
//! from the root. It then notes that, "intending to make it easier to
//! understand", nodes can equivalently be treated as arrays of cells. We take
//! the flat view: each level keeps one array per cell field, addressed by
//! [`CellId`], plus an open-addressing index keyed by the cell's **absolute
//! grid coordinates** (one integer per axis, coordinate ∈ `[0, 2^h)`). All
//! the tree navigation of the paper becomes integer arithmetic —
//!
//! * relative position `loc` bit of axis `j` = low bit of `coords[j]`,
//! * immediate parent = `coords >> 1` one level up, recorded at insertion,
//! * the *internal* face neighbor of the paper (same parent) and the
//!   *external* one (different parent) are both `coords[j] ± 1`; keys are
//!   additive (`Σ_j c_j·K_j`), so the neighbor's key is `key ± K_j`.
//!
//! The per-cell payload (`n`, `P[d]`, `usedCell`) is exactly the paper's.

pub mod cell;
pub mod level;
pub mod tree;

pub use cell::{Cell, CellId};
pub use level::{Direction, Level};
pub use tree::{CountingTree, MAX_RESOLUTIONS, MIN_RESOLUTIONS};
