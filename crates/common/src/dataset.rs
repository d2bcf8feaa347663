//! Dense, row-major dataset store.
//!
//! Definition 1 of the paper: a multi-dimensional dataset `ᵈS` is a set of `η`
//! points in a `d`-dimensional space, with every value in `[0, 1)` so that the
//! whole dataset is embedded in the unit hyper-cube `[0,1)^d`. Real inputs are
//! rarely pre-normalized, so [`Dataset::normalize_unit`] performs the min–max
//! rescale and remembers how to undo it.

use crate::error::{Error, Result};

/// Largest dimensionality the workspace supports.
///
/// The paper targets 5–30 axes; [`crate::AxisMask`] packs axis sets into a
/// `u64`, which comfortably covers that range with headroom.
pub const MAX_DIMS: usize = 64;

/// A dense, row-major collection of `d`-dimensional points.
///
/// ```
/// use mrcc_common::Dataset;
///
/// let mut ds = Dataset::from_rows(&[[1.0, 200.0], [3.0, 150.0]]).unwrap();
/// assert_eq!((ds.len(), ds.dims()), (2, 2));
/// assert!(!ds.is_unit_normalized());
/// let info = ds.normalize_unit().unwrap();
/// assert!(ds.is_unit_normalized());
/// // The transform is invertible.
/// let back = info.denormalize(ds.point(0));
/// assert!((back[0] - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    data: Vec<f64>,
    dims: usize,
}

/// The affine transform applied by [`Dataset::normalize_unit`], kept so points
/// can be mapped back to their original coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizeInfo {
    /// Per-axis minimum of the original data.
    pub min: Vec<f64>,
    /// Per-axis factor `k` applied to both operands of `v − min`: 1, or 0.5
    /// on an axis whose range exceeds `f64::MAX`, where the unhalved
    /// difference would overflow.
    pub factor: Vec<f64>,
    /// Per-axis scale: the range times `k`, stretched so the maximum maps
    /// *just below* 1.0 (the paper's half-open cube `[0,1)`). A value `v`
    /// normalizes to `(k·v − k·min) / scale`.
    pub scale: Vec<f64>,
}

impl NormalizeInfo {
    /// Maps a normalized point back into original coordinates:
    /// `(k·min + v·scale) / k` per axis, which is `min + v·scale` where
    /// `k = 1`.
    pub fn denormalize(&self, point: &[f64]) -> Vec<f64> {
        point
            .iter()
            .zip(self.min.iter().zip(&self.factor).zip(&self.scale))
            .map(|(&v, ((&mn, &k), &sc))| (k * mn + v * sc) / k)
            .collect()
    }
}

/// Factor keeping normalized maxima strictly below 1.0 (`[0,1)` half-open).
const UNIT_SHRINK: f64 = 1.0 - 1e-9;

impl Dataset {
    /// Creates an empty dataset of the given dimensionality.
    ///
    /// # Errors
    /// [`Error::UnsupportedDimensionality`] if `dims` is 0 or above
    /// [`MAX_DIMS`].
    pub fn new(dims: usize) -> Result<Self> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(Error::UnsupportedDimensionality {
                dims,
                max: MAX_DIMS,
            });
        }
        Ok(Dataset {
            data: Vec::new(),
            dims,
        })
    }

    /// Creates a dataset from a flat row-major buffer.
    ///
    /// # Errors
    /// Fails if the buffer length is not a multiple of `dims`, if `dims` is out
    /// of range, or if any value is not finite.
    pub fn from_flat(dims: usize, data: Vec<f64>) -> Result<Self> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(Error::UnsupportedDimensionality {
                dims,
                max: MAX_DIMS,
            });
        }
        if !data.len().is_multiple_of(dims) {
            return Err(Error::DimensionMismatch {
                expected: dims,
                got: data.len() % dims,
            });
        }
        for (i, v) in data.iter().enumerate() {
            if !v.is_finite() {
                return Err(Error::NonFiniteValue {
                    row: i / dims,
                    col: i % dims,
                });
            }
        }
        Ok(Dataset { data, dims })
    }

    /// Creates a dataset from rows.
    ///
    /// # Errors
    /// Fails on ragged rows, out-of-range dimensionality or non-finite values.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self> {
        let dims = rows
            .first()
            .map(|r| r.as_ref().len())
            .ok_or(Error::EmptyDataset)?;
        let mut ds = Dataset::new(dims)?;
        ds.data.reserve(dims * rows.len());
        for row in rows {
            ds.push(row.as_ref())?;
        }
        Ok(ds)
    }

    /// Appends one point.
    ///
    /// # Errors
    /// Fails if the point has the wrong dimensionality or non-finite values.
    pub fn push(&mut self, point: &[f64]) -> Result<()> {
        if point.len() != self.dims {
            return Err(Error::DimensionMismatch {
                expected: self.dims,
                got: point.len(),
            });
        }
        if let Some(col) = point.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue {
                row: self.len(),
                col,
            });
        }
        self.data.extend_from_slice(point);
        Ok(())
    }

    /// Number of points `η`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    /// True when the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality `d` of the embedding space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Borrow point `i` as a slice of `d` coordinates.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Iterator over all points.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dims)
    }

    /// Per-axis minima and maxima, or `None` for an empty dataset.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        let mut points = self.iter();
        let mut min = points.next()?.to_vec();
        let mut max = min.clone();
        for p in points {
            for ((&v, lo), hi) in p.iter().zip(&mut min).zip(&mut max) {
                if v < *lo {
                    *lo = v;
                }
                if v > *hi {
                    *hi = v;
                }
            }
        }
        Some((min, max))
    }

    /// True when every value already lies in `[0, 1)`.
    pub fn is_unit_normalized(&self) -> bool {
        self.data.iter().all(|&v| (0.0..1.0).contains(&v))
    }

    /// Min–max normalizes every axis into `[0, 1)` in place, returning the
    /// applied transform. Constant axes map to `0.0`. An axis whose scale
    /// would exceed `f64::MAX` (say from `-1e308` to `1e308`) is rescaled
    /// on halved operands, which cannot overflow.
    ///
    /// # Errors
    /// [`Error::EmptyDataset`] when there are no points.
    pub fn normalize_unit(&mut self) -> Result<NormalizeInfo> {
        let (min, max) = self.bounds().ok_or(Error::EmptyDataset)?;
        // Per axis: the factor applied to both operands of `v − min`, and
        // the scale of the result.
        let rescale: Vec<(f64, f64)> = min
            .iter()
            .zip(&max)
            .map(|(&mn, &mx)| {
                let range = mx - mn;
                let scale = range / UNIT_SHRINK;
                if !scale.is_finite() {
                    (0.5, (0.5 * mx - 0.5 * mn) / UNIT_SHRINK)
                } else if range > 0.0 {
                    (1.0, scale)
                } else {
                    (1.0, 1.0)
                }
            })
            .collect();
        for p in self.data.chunks_exact_mut(self.dims) {
            for ((v, &mn), &(k, s)) in p.iter_mut().zip(&min).zip(&rescale) {
                let x = (k * *v - k * mn) / s;
                // Guard against floating rounding pushing a maximum to 1.0;
                // a NaN lands on 0.
                *v = if x >= 1.0 {
                    UNIT_SHRINK
                } else if x >= 0.0 {
                    x
                } else {
                    0.0
                };
            }
        }
        let (factor, scale) = rescale.into_iter().unzip();
        Ok(NormalizeInfo { min, factor, scale })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::exactly;

    fn sample() -> Dataset {
        Dataset::from_rows(&[[0.0, 10.0], [5.0, 20.0], [10.0, 40.0]]).unwrap()
    }

    #[test]
    fn from_rows_roundtrip() {
        let ds = sample();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dims(), 2);
        assert_eq!(ds.point(1), &[5.0, 20.0]);
        assert_eq!(ds.iter().count(), 3);
    }

    #[test]
    fn rejects_ragged_rows() {
        let mut ds = Dataset::new(2).unwrap();
        ds.push(&[1.0, 2.0]).unwrap();
        assert!(matches!(
            ds.push(&[1.0]),
            Err(Error::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn rejects_nan() {
        let mut ds = Dataset::new(2).unwrap();
        assert!(matches!(
            ds.push(&[f64::NAN, 0.0]),
            Err(Error::NonFiniteValue { row: 0, col: 0 })
        ));
        assert!(Dataset::from_flat(1, vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn rejects_zero_and_huge_dims() {
        assert!(Dataset::new(0).is_err());
        assert!(Dataset::new(MAX_DIMS + 1).is_err());
        assert!(Dataset::new(MAX_DIMS).is_ok());
    }

    #[test]
    fn from_flat_checks_multiple() {
        assert!(Dataset::from_flat(3, vec![0.0; 7]).is_err());
        assert!(Dataset::from_flat(3, vec![0.0; 9]).is_ok());
    }

    #[test]
    fn bounds_are_tight() {
        let ds = sample();
        let (min, max) = ds.bounds().unwrap();
        assert_eq!(min, vec![0.0, 10.0]);
        assert_eq!(max, vec![10.0, 40.0]);
    }

    #[test]
    fn normalize_maps_into_half_open_unit_cube() {
        let mut ds = sample();
        let info = ds.normalize_unit().unwrap();
        assert!(ds.is_unit_normalized());
        // Minimum maps to 0, maximum strictly below 1.
        assert!(exactly(ds.point(0)[0], 0.0));
        assert!(ds.point(2)[0] < 1.0 && ds.point(2)[0] > 0.999);
        // Round trip through the recorded transform.
        let back = info.denormalize(ds.point(1));
        assert!((back[0] - 5.0).abs() < 1e-9);
        assert!((back[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_handles_a_range_beyond_f64_max() {
        let mut ds = Dataset::from_rows(&[[-1e308, 5.0], [1e308, 7.0], [0.0, 6.0]]).unwrap();
        let info = ds.normalize_unit().unwrap();
        assert!(ds.is_unit_normalized());
        let axis0: Vec<f64> = ds.iter().map(|p| p[0]).collect();
        assert!(exactly(axis0[0], 0.0));
        assert!(axis0[2] > 0.49 && axis0[2] < 0.51, "{axis0:?}");
        assert!(axis0[1] > 0.999 && axis0[1] < 1.0, "{axis0:?}");
        // The halved axis inverts through its recorded factor.
        assert!(exactly(info.factor[0], 0.5));
        for (i, x) in [-1e308, 1e308, 0.0].into_iter().enumerate() {
            let back = info.denormalize(ds.point(i))[0];
            assert!((back - x).abs() <= 1e-6 * (1.0 + x.abs()), "{back} vs {x}");
        }
        // The finite axis is rescaled as before.
        assert!(exactly(info.scale[1], 2.0 / UNIT_SHRINK));
        assert!(exactly(ds.point(2)[1], 1.0 / (2.0 / UNIT_SHRINK)));
    }

    #[test]
    fn normalize_constant_axis_goes_to_zero() {
        let mut ds = Dataset::from_rows(&[[3.0, 1.0], [3.0, 2.0]]).unwrap();
        ds.normalize_unit().unwrap();
        assert!(exactly(ds.point(0)[0], 0.0));
        assert!(exactly(ds.point(1)[0], 0.0));
    }

    #[test]
    fn normalize_empty_fails() {
        let mut ds = Dataset::new(2).unwrap();
        assert!(matches!(ds.normalize_unit(), Err(Error::EmptyDataset)));
    }
}
