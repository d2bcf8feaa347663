//! Minimum Description Length cut over sorted relevance values.
//!
//! Section III-B of the paper: once a β-cluster's per-axis relevances
//! `r[j] = 100·cP_j / nP_j` are computed, they are sorted ascending into
//! `o[]` and "submitted to MDL to find the best cut position p, 1 ≤ p ≤ d,
//! that maximizes the homogeneity of values in the partitions
//! `[o_1 … o_{p−1}]` and `[o_p … o_d]`. The value `cThreshold = o[p]` is used
//! to define axis e_j as relevant" iff `r[j] ≥ cThreshold`.
//!
//! The paper does not spell out the coding scheme; following the journal
//! version of this work (Halite, TKDE 2013) we code each non-empty partition
//! by its mean plus the absolute deviations of its members, with
//! `bits(x) = log2(1 + |x|)`. A partition of nearly equal values is then very
//! cheap, so the minimum-cost cut lands exactly at the jump separating the
//! low-relevance plateau from the high-relevance plateau.

/// Result of an MDL cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdlCut {
    /// Index of the first element of the upper (relevant) partition.
    /// `0` means every value is in the upper partition.
    pub cut: usize,
    /// The threshold `o[cut]`: smallest value of the upper partition.
    pub threshold: f64,
    /// Total description cost in bits at the chosen cut.
    pub cost: f64,
}

use mrcc_common::num::len_to_f64;

/// Bits to encode a magnitude: `log2(1 + |x|)`.
#[inline]
fn bits(x: f64) -> f64 {
    (1.0 + x.abs()).log2()
}

/// Description cost of one partition: header (its mean) + member deviations.
fn partition_cost(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / len_to_f64(values.len());
    let dev: f64 = values.iter().map(|&v| bits(v - mean)).sum();
    bits(mean) + dev
}

/// Finds the cut position minimizing the two-partition description cost of an
/// **ascending-sorted** slice, and the resulting threshold.
///
/// The cut index `c` ranges over `0..values.len()`; the partitions are
/// `values[..c]` (may be empty) and `values[c..]` (never empty), matching the
/// paper's `1 ≤ p ≤ d`. Returns the minimizing cut; ties go to the smaller
/// cut (more axes considered relevant). Two costs within
/// [`mrcc_common::float::approx_eq`]'s tolerance — absolute *or relative* —
/// count as tied: an absolute-only epsilon degenerates once costs grow past
/// `~2^40` bits, where `1e-12` drops below one ULP and pure summation-order
/// noise would move the cut.
///
/// ```
/// use mrcc_stats::mdl_cut;
///
/// // Two plateaus: uniform axes near the null share, relevant axes high.
/// let sorted = [16.0, 17.0, 18.0, 91.0, 94.0];
/// let cut = mdl_cut(&sorted);
/// assert_eq!(cut.threshold, 91.0);
/// ```
///
/// # Panics
/// Panics on an empty slice or an unsorted slice (debug only for the latter).
pub fn mdl_cut(values: &[f64]) -> MdlCut {
    assert!(!values.is_empty(), "mdl_cut needs at least one value");
    debug_assert!(
        values.windows(2).all(|w| w[0] <= w[1]),
        "mdl_cut input must be sorted ascending"
    );
    let mut best = MdlCut {
        cut: 0,
        threshold: values[0],
        cost: partition_cost(values),
    };
    for c in 1..values.len() {
        let cost = partition_cost(&values[..c]) + partition_cost(&values[c..]);
        // Strictly-and-meaningfully smaller: near-ties (absolute or
        // relative, so large cost magnitudes behave) keep the earlier cut.
        if cost < best.cost && !mrcc_common::float::approx_eq(cost, best.cost) {
            best = MdlCut {
                cut: c,
                threshold: values[c],
                cost,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;

    #[test]
    fn two_plateaus_cut_at_the_jump() {
        // Low plateau ≈ 16 (uniform axes), high plateau ≈ 90 (relevant axes).
        let o = [15.0, 16.0, 16.5, 17.0, 88.0, 90.0, 92.0];
        let cut = mdl_cut(&o);
        assert_eq!(cut.cut, 4);
        assert!(exactly(cut.threshold, 88.0));
    }

    #[test]
    fn uniform_values_prefer_single_partition() {
        let o = [50.0, 50.0, 50.0, 50.0];
        let cut = mdl_cut(&o);
        // A second partition only adds a header; cut 0 (everything relevant).
        assert_eq!(cut.cut, 0);
    }

    #[test]
    fn single_value() {
        let cut = mdl_cut(&[42.0]);
        assert_eq!(cut.cut, 0);
        assert!(exactly(cut.threshold, 42.0));
    }

    #[test]
    fn outlier_high_value_is_isolated() {
        let o = [10.0, 11.0, 12.0, 13.0, 99.0];
        let cut = mdl_cut(&o);
        assert_eq!(cut.cut, 4);
        assert!(exactly(cut.threshold, 99.0));
    }

    #[test]
    fn threshold_marks_relevant_axes_like_the_paper() {
        // Simulated relevances of a 3-of-8 cluster: irrelevant axes hover at
        // the uniform expectation (100/6 ≈ 16.7), relevant ones near 100.
        let r = [16.0, 17.2, 15.9, 99.0, 16.4, 97.5, 98.2, 16.8];
        let mut o: Vec<f64> = r.to_vec();
        o.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cut = mdl_cut(&o);
        let relevant: Vec<usize> = (0..r.len()).filter(|&j| r[j] >= cut.threshold).collect();
        assert_eq!(relevant, vec![3, 5, 6]);
    }

    #[test]
    fn gradual_slope_still_returns_valid_cut() {
        let o: Vec<f64> = (0..10).map(|i| i as f64 * 10.0).collect();
        let cut = mdl_cut(&o);
        assert!(cut.cut < o.len());
        assert!(exactly(cut.threshold, o[cut.cut]));
        assert!(cut.cost.is_finite());
    }

    #[test]
    fn large_magnitude_plateau_ties_keep_the_earlier_cut() {
        // Three symmetric plateaus at −2^42, 0, +2^42: by symmetry the cuts
        // at 50 (split `−A | 0,+A`) and 80 (split `−A,0 | +A`) have
        // mathematically identical costs, but float summation order makes
        // the later one ≈6e−12 bits cheaper. That gap sits *above* the old
        // absolute `1e-12` epsilon — so the old rule hopped to cut 80 on
        // pure rounding noise — yet is ~1e−15 of the ≈3.4e3-bit total cost.
        // The relative tolerance must call it a tie and keep the earlier
        // cut (more axes considered relevant).
        let a = (2f64).powi(42);
        let mut v = vec![-a; 50];
        v.extend(std::iter::repeat_n(0.0, 30));
        v.extend(std::iter::repeat_n(a, 50));
        let cut = mdl_cut(&v);
        assert_eq!(cut.cut, 50, "noise-level cost difference moved the cut");
        // Sanity: the mirror cut really is the (noise-level) float minimum,
        // i.e. this input does exercise the tie path rather than a genuine
        // improvement.
        let at = |c: usize| partition_cost(&v[..c]) + partition_cost(&v[c..]);
        assert!(at(80) < at(50) && at(50) - at(80) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_input_panics() {
        mdl_cut(&[]);
    }
}
