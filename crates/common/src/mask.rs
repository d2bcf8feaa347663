//! Compact axis sets.
//!
//! A cluster's *relevant axes* (`δ_γE_k` in Definition 2) are a subset of the
//! `d` original axes. With `d ≤ 64` the set packs into a single `u64`.

use crate::dataset::MAX_DIMS;

/// A set of axes out of a `d`-dimensional space, packed into a `u64`.
///
/// ```
/// use mrcc_common::AxisMask;
///
/// let a = AxisMask::from_axes(8, [0, 3, 5]);
/// let b = AxisMask::from_axes(8, [3, 7]);
/// assert_eq!(a.count(), 3);
/// assert!(a.contains(3) && !a.contains(1));
/// assert_eq!(a.intersection_count(&b), 1);
/// assert_eq!(a.union(&b).count(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AxisMask {
    bits: u64,
    dims: u8,
}

impl AxisMask {
    /// The empty axis set in a `d`-dimensional space.
    ///
    /// # Panics
    /// Panics if `dims` is 0 or exceeds [`MAX_DIMS`]; dimensionality is
    /// validated once at [`crate::Dataset`] construction, so a violation here
    /// is a programming error.
    pub fn empty(dims: usize) -> Self {
        assert!(dims > 0 && dims <= MAX_DIMS, "dims out of range: {dims}");
        AxisMask {
            bits: 0,
            dims: dims as u8,
        }
    }

    /// The full axis set `{e_1, …, e_d}`.
    ///
    /// # Panics
    /// Panics if `dims` is 0 or exceeds [`MAX_DIMS`] (see [`AxisMask::empty`]).
    pub fn full(dims: usize) -> Self {
        let mut m = AxisMask::empty(dims);
        m.bits = if dims == 64 {
            u64::MAX
        } else {
            (1u64 << dims) - 1
        };
        m
    }

    /// Builds a mask from an iterator of axis indices.
    ///
    /// # Panics
    /// Panics if `dims` is out of range (see [`AxisMask::empty`]) or an axis
    /// is `>= dims`.
    pub fn from_axes(dims: usize, axes: impl IntoIterator<Item = usize>) -> Self {
        let mut m = AxisMask::empty(dims);
        for a in axes {
            m.insert(a);
        }
        m
    }

    /// Builds a mask from a boolean per-axis slice (`V[k]` in the paper).
    ///
    /// # Panics
    /// Panics if `flags` is empty or longer than [`MAX_DIMS`] (see
    /// [`AxisMask::empty`]).
    pub fn from_bools(flags: &[bool]) -> Self {
        let mut m = AxisMask::empty(flags.len());
        for (j, &f) in flags.iter().enumerate() {
            if f {
                m.insert(j);
            }
        }
        m
    }

    /// Dimensionality of the embedding space (not the set cardinality).
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// Adds axis `j` to the set.
    ///
    /// # Panics
    /// Panics if `j >= dims`.
    #[inline]
    pub fn insert(&mut self, j: usize) {
        assert!(j < self.dims(), "axis {j} out of range");
        self.bits |= 1u64 << j;
    }

    /// Removes axis `j` from the set.
    ///
    /// # Panics
    /// Panics if `j >= dims`.
    #[inline]
    pub fn remove(&mut self, j: usize) {
        assert!(j < self.dims(), "axis {j} out of range");
        self.bits &= !(1u64 << j);
    }

    /// True when axis `j` is in the set.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        j < self.dims() && (self.bits >> j) & 1 == 1
    }

    /// Cardinality `δ` — the dimensionality of the cluster.
    #[inline]
    pub fn count(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// True when no axis is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Set union (used when merging β-clusters into correlation clusters:
    /// relevant axes are those relevant to *any* member β-cluster).
    #[inline]
    pub fn union(&self, other: &AxisMask) -> AxisMask {
        debug_assert_eq!(self.dims, other.dims);
        AxisMask {
            bits: self.bits | other.bits,
            dims: self.dims,
        }
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(&self, other: &AxisMask) -> AxisMask {
        debug_assert_eq!(self.dims, other.dims);
        AxisMask {
            bits: self.bits & other.bits,
            dims: self.dims,
        }
    }

    /// Number of axes in both sets (used by the Subspaces Quality metric).
    #[inline]
    pub fn intersection_count(&self, other: &AxisMask) -> usize {
        (self.bits & other.bits).count_ones() as usize
    }

    /// Iterator over the member axis indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.bits;
        (0..self.dims()).filter(move |&j| (bits >> j) & 1 == 1)
    }

    /// Per-axis boolean representation.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.dims()).map(|j| self.contains(j)).collect()
    }
}

impl std::fmt::Debug for AxisMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AxisMask{{")?;
        let mut first = true;
        for j in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "e{}", j + 1)?;
            first = false;
        }
        write!(f, "}}/{}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let mut m = AxisMask::empty(10);
        assert!(m.is_empty());
        m.insert(0);
        m.insert(9);
        assert!(m.contains(0) && m.contains(9) && !m.contains(5));
        assert_eq!(m.count(), 2);
        m.remove(0);
        assert_eq!(m.count(), 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn full_and_64_dims() {
        let f = AxisMask::full(64);
        assert_eq!(f.count(), 64);
        let f5 = AxisMask::full(5);
        assert_eq!(f5.count(), 5);
        assert!(!f5.contains(5));
    }

    #[test]
    fn union_intersection() {
        let a = AxisMask::from_axes(8, [0, 1, 2]);
        let b = AxisMask::from_axes(8, [2, 3]);
        assert_eq!(a.union(&b).count(), 4);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(a.intersection_count(&b), 1);
    }

    #[test]
    fn bools_roundtrip() {
        let flags = vec![true, false, true, true];
        let m = AxisMask::from_bools(&flags);
        assert_eq!(m.to_bools(), flags);
    }

    #[test]
    #[should_panic(expected = "axis 8 out of range")]
    fn insert_out_of_range_panics() {
        AxisMask::empty(8).insert(8);
    }

    #[test]
    fn debug_format_names_axes_one_based() {
        let m = AxisMask::from_axes(4, [0, 2]);
        assert_eq!(format!("{m:?}"), "AxisMask{e1,e3}/4");
    }
}
