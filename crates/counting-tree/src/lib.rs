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
//! (`n`), and its parent is the cell one level up that contains it. Only
//! non-empty cells are
//! materialized, so each level stores at most `η` cells and the whole
//! structure is `O(H·η·d)` space. Algorithm 1 of the
//! paper builds it in a single scan of the data; [`CountingTree::build`]
//! gets the same counts from one sort per level, bottom-up, in
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
//! * immediate parent = `coords >> 1` one level up, found by a binary
//!   search, and its children = the cells between the keys of `2·parent`
//!   and `2·parent + 1` whose fields equal `2·parent` but for the low bit:
//!   the paper's `ptr` is a key range, not a stored pointer;
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
//! [`CountingTree::build`] builds the levels deepest first, each in
//! packed-key order from the start. It packs every point's deepest-level
//! coordinates into that level's key and sorts the keys once: each run of
//! equal keys is one cell, counting the run's points. Each coarser level
//! `h` packs the coordinates `>> 1` of every level-`(h+1)` cell into a
//! level-`h` key and sorts those: each run is one cell, the parent of the
//! run's children, whose count is the sum of theirs. No parent is
//! recorded, so a cell costs `8·W + 4` bytes: its key words and its count.
//! One key format, the packed key, serves the sorts, the lookups and the
//! β-search's tie rule. A tree is a function of the set of points: no
//! field records the order of the dataset's rows.
//!
//! The per-cell payload is the paper's `n`, stored as `u32`: a tree counts
//! at most [`MAX_POINTS`]. The paper's half-space counts `P[d]` (points in
//! the lower half along each axis) are not stored: the β-cluster search
//! reads them only at a tested winner's parent, so [`Level::half_counts`]
//! walks the parent's key range in the child level and sums `P[j]` over
//! the children with an even coordinate `j`. The paper's third field,
//! `usedCell`, records which cells the β-cluster search has consumed; that
//! is search state, so the search's per-level cursors hold it and a built
//! tree never changes.

pub mod cell;
mod keys;
pub mod level;
pub mod tree;

pub use cell::{Cell, CellId};
pub use level::{Direction, Level};
pub use tree::{CountingTree, MAX_POINTS, MAX_RESOLUTIONS, MIN_RESOLUTIONS};
