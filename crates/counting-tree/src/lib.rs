#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::as_conversions,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::missing_panics_doc
    )
)]

//! The **Counting-tree** (MrCC, Section III-A).
//!
//! A multi-resolution description of a dataset embedded in the unit
//! hyper-cube `[0,1)^d`. Level `h` covers the space with a hyper-grid of
//! cells of side `ξ_h = 1/2^h`; each cell knows how many points it contains
//! (`n`) and, on every level but the deepest, how many of them sit in its
//! lower half along every axis (the *half-space counts* `P[j]`). Only
//! non-empty cells are materialized, so each level stores at most `η`
//! cells and the whole structure is `O(H·η·d)` space. Algorithm 1 of the
//! paper builds it in a single scan of the data; [`CountingTree::build`]
//! gets the same counts from one sort of per-point keys, in
//! `O(η·H·d + η·H log η)` time (see "Building" below).
//!
//! ## Representation
//!
//! The paper implements each tree node as a linked list of cells carrying a
//! *relative* position `loc` (one bit per axis) and a pointer to the refined
//! node, and resolves a cell's *external* face neighbors by walking the tree
//! from the root. It then notes that, "intending to make it easier to
//! understand", nodes can equivalently be treated as arrays of cells. We take
//! the flat view: each level keeps one array per cell field, addressed by
//! [`CellId`], with the cells sorted by their **packed grid position**
//! (coordinate ∈ `[0, 2^h)` per axis), so a lookup is a binary search. All
//! the tree navigation of the paper becomes integer arithmetic —
//!
//! * the key packs `h` bits per coordinate, `⌊64/h⌋` coordinates per `u64`
//!   word, none crossing a word, so at the default `H = 4` a cell of up to
//!   21 dimensions is one word; the key is exact, so it *is* the position,
//!   and a coordinate decodes with a shift and a mask;
//! * relative position `loc` bit of axis `j` = low bit of coordinate `j`,
//! * immediate parent = `coords >> 1` one level up, recorded by the build,
//! * the *internal* face neighbor of the paper (same parent) and the
//!   *external* one (different parent) are both `coords[j] ± 1`: one field
//!   of one word steps by one, after an explicit border check (a field at
//!   `0` or `2^h − 1` would otherwise borrow from or carry into the next
//!   axis);
//! * the face-only convolution of a whole level needs no lookup at all:
//!   [`Level::face_neighbor_sums`] merges the sorted keys against
//!   themselves stepped by `+e_j`, one linear pass per axis.
//!
//! ## Building
//!
//! [`CountingTree::build`] gives each point one *level-major* key: the
//! level-1 bit of every axis, then the level-2 bits, and so on down to the
//! deepest level's, `⌈d·(H−1)/64⌉` words. After one sort of the
//! keys, the cells of level `h` are the runs of equal `h·d`-bit prefixes. One
//! sweep over the runs appends every level's cells in that order, with
//! their parents (the enclosing run one level up) and their counts. Each
//! level is then sorted once into packed-key order, and its children's
//! parents are renamed to the sorted ids. A tree is a function of the set
//! of points: no field records the order of the dataset's rows.
//!
//! The per-cell payload (`n`, `P[d]`) is the paper's, with the counts stored
//! as `u32`: a tree counts at most [`MAX_POINTS`]. The deepest level, `H − 1`,
//! stores no `P`: the β-cluster search reads the half-space counts of a
//! winner's parent only, and the deepest level is never a parent. There
//! [`Cell::half_counts`] is empty. The paper's third field,
//! `usedCell`, records which cells the β-cluster search has consumed; that is
//! search state, so the search's per-level cursors hold it and a built tree
//! never changes.

pub mod cell;
mod keys;
pub mod level;
pub mod tree;

pub use cell::{Cell, CellId};
pub use level::{Direction, Level};
pub use tree::{CountingTree, MAX_POINTS, MAX_RESOLUTIONS, MIN_RESOLUTIONS};
