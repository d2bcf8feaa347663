//! Property-based invariants of the dataset substrate.

use mrcc_common::{csv, AxisMask, BoundingBox, Dataset};
use proptest::prelude::*;

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..=6).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(-1e6f64..1e6, d..=d), 1..60)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Normalization always lands in [0,1) and round-trips through the
    /// recorded transform.
    #[test]
    fn normalize_roundtrip(rows in rows_strategy()) {
        let mut ds = Dataset::from_rows(&rows).unwrap();
        let original = ds.clone();
        let info = ds.normalize_unit().unwrap();
        prop_assert!(ds.is_unit_normalized());
        // Constant axes collapse to 0 and cannot round-trip; skip those.
        let (mins, maxs) = original.bounds().unwrap();
        for i in 0..ds.len() {
            let back = info.denormalize(ds.point(i));
            for j in 0..ds.dims() {
                if maxs[j] > mins[j] {
                    let (a, b) = (back[j], original.point(i)[j]);
                    prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{a} vs {b}");
                }
            }
        }
    }

    /// CSV round-trips datasets and labels bit for bit: `{v}` writes the
    /// shortest form that parses back to the same `f64`.
    #[test]
    fn csv_roundtrip(rows in rows_strategy()) {
        let ds = Dataset::from_rows(&rows).unwrap();
        let labels: Vec<i32> = (0..ds.len()).map(|i| (i % 3) as i32 - 1).collect();
        let mut buf = Vec::new();
        csv::write_dataset(&mut buf, &ds, Some(&labels)).unwrap();
        let (back, back_labels) = csv::read_labeled_dataset(&buf[..]).unwrap();
        prop_assert_eq!(back_labels, labels);
        prop_assert_eq!(back.dims(), ds.dims());
        let bits = |d: &Dataset| d.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back), bits(&ds));
    }

    /// Box overlap is symmetric and strict overlap implies overlap.
    #[test]
    fn bbox_overlap_laws(
        lo1 in proptest::collection::vec(0.0f64..0.9, 3),
        lo2 in proptest::collection::vec(0.0f64..0.9, 3),
        ext1 in proptest::collection::vec(0.01f64..0.5, 3),
        ext2 in proptest::collection::vec(0.01f64..0.5, 3),
    ) {
        let hi1: Vec<f64> = lo1.iter().zip(&ext1).map(|(l, e)| (l + e).min(1.0)).collect();
        let hi2: Vec<f64> = lo2.iter().zip(&ext2).map(|(l, e)| (l + e).min(1.0)).collect();
        let a = BoundingBox::new(lo1, hi1);
        let b = BoundingBox::new(lo2, hi2);
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlaps_strict(&b), b.overlaps_strict(&a));
        if a.overlaps_strict(&b) {
            prop_assert!(a.overlaps(&b));
        }
        // Every box overlaps itself (strictly, since extents are positive).
        prop_assert!(a.overlaps_strict(&a));
    }

    /// Hull contains both inputs' corners.
    #[test]
    fn bbox_hull_contains_corners(
        lo in proptest::collection::vec(0.0f64..0.5, 2),
        ext in proptest::collection::vec(0.01f64..0.4, 2),
    ) {
        let hi: Vec<f64> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let a = BoundingBox::new(lo.clone(), hi.clone());
        let b = BoundingBox::unit(2);
        let h = a.hull(&b);
        prop_assert!(h.contains(&lo));
        prop_assert!(h.contains(&hi));
        prop_assert!(h.contains(&[0.0, 0.0]) && h.contains(&[1.0, 1.0]));
    }

    /// Clusterings built from arbitrary label vectors satisfy the structural
    /// invariants of Definition 2 and round-trip through `labels()`.
    #[test]
    fn clustering_from_labels_is_valid(
        labels in proptest::collection::vec(-1i32..4, 1..80),
        d in 1usize..=8,
    ) {
        use mrcc_common::SubspaceClustering;
        let masks: Vec<AxisMask> = (0..4).map(|k| {
            AxisMask::from_axes(d, [k % d])
        }).collect();
        let c = SubspaceClustering::from_labels(&labels, &masks, d);
        c.check_invariants();
        prop_assert_eq!(c.n_points(), labels.len());
        prop_assert!(c.n_clustered() + c.noise().len() == labels.len());
    }

    /// AxisMask set algebra: union/intersection counts and De Morgan-ish
    /// bounds.
    #[test]
    fn axis_mask_set_laws(
        d in 1usize..=64,
        bits_a in proptest::collection::vec(any::<bool>(), 64),
        bits_b in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let a = AxisMask::from_bools(&bits_a[..d]);
        let b = AxisMask::from_bools(&bits_b[..d]);
        let u = a.union(&b);
        let i = a.intersection(&b);
        prop_assert_eq!(u.count() + i.count(), a.count() + b.count());
        prop_assert_eq!(i.count(), a.intersection_count(&b));
        prop_assert!(u.count() >= a.count().max(b.count()));
        prop_assert!(i.count() <= a.count().min(b.count()));
        for j in 0..d {
            prop_assert_eq!(u.contains(j), a.contains(j) || b.contains(j));
            prop_assert_eq!(i.contains(j), a.contains(j) && b.contains(j));
        }
        // Round trip through bools.
        prop_assert_eq!(AxisMask::from_bools(&a.to_bools()), a);
    }
}
