//! Configuration-matrix integration tests: every public MrCC configuration
//! variant must produce a valid clustering on a standard workload, and the
//! knobs must move the output in the documented direction.

use mrcc::{AxisSelection, MaskKind, MrCC, MrCCConfig};
use mrcc_common::{Dataset, Error};
use mrcc_datagen::{generate, SyntheticSpec};
use mrcc_eval::quality;

fn workload() -> mrcc_datagen::Synthetic {
    generate(&SyntheticSpec::new("cfg", 6, 6_000, 3, 0.15, 77))
}

fn fit_quality(config: MrCCConfig, synth: &mrcc_datagen::Synthetic) -> f64 {
    let result = MrCC::new(config).fit(&synth.dataset).unwrap();
    quality(&result.clustering, &synth.ground_truth).quality
}

#[test]
fn every_mask_variant_works() {
    let synth = workload();
    for mask in [MaskKind::FaceOnly, MaskKind::Full] {
        let q = fit_quality(
            MrCCConfig {
                mask,
                ..Default::default()
            },
            &synth,
        );
        assert!(q > 0.6, "{mask:?}: quality {q}");
    }
}

#[test]
fn every_axis_selection_variant_works() {
    let synth = workload();
    for selection in [
        AxisSelection::Mdl { floor: 45.0 },
        AxisSelection::Share(45.0),
        AxisSelection::Share(60.0),
    ] {
        let q = fit_quality(
            MrCCConfig {
                axis_selection: selection,
                ..Default::default()
            },
            &synth,
        );
        assert!(q > 0.6, "{selection:?}: quality {q}");
    }
}

#[test]
fn paper_pure_configuration_still_runs() {
    // MDL cut, no effect floor — the configuration closest to the paper's
    // text. It must produce a valid (if possibly weaker) clustering.
    let synth = workload();
    let config = MrCCConfig {
        axis_selection: AxisSelection::Mdl { floor: 0.0 },
        ..Default::default()
    };
    let result = MrCC::new(config).fit(&synth.dataset).unwrap();
    let labels = result.clustering.labels();
    assert_eq!(labels.len(), synth.dataset.len());
    assert!(result.n_beta_clusters() >= result.n_clusters());
}

#[test]
fn resolution_count_does_not_change_quality_materially() {
    // Fig. 4d: Quality flat for H ≥ 4.
    let synth = workload();
    let q4 = fit_quality(MrCCConfig::with_params(1e-10, 4), &synth);
    let q8 = fit_quality(MrCCConfig::with_params(1e-10, 8), &synth);
    assert!((q4 - q8).abs() < 0.15, "H=4: {q4}, H=8: {q8}");
}

#[test]
fn phase_timings_are_recorded() {
    let synth = workload();
    let result = MrCC::default().fit(&synth.dataset).unwrap();
    let stats = &result.stats;
    assert!(stats.tree_build.as_nanos() > 0);
    assert!(stats.total_time() >= stats.beta_search);
    assert!(stats.tree_memory_bytes > 0);
}

#[test]
fn invalid_configurations_fail_before_any_work() {
    let synth = workload();
    for config in [
        MrCCConfig::with_params(0.0, 4),
        MrCCConfig::with_params(1e-10, 2),
        MrCCConfig {
            axis_selection: AxisSelection::Mdl { floor: 120.0 },
            ..Default::default()
        },
        MrCCConfig {
            axis_selection: AxisSelection::Share(0.0),
            ..Default::default()
        },
    ] {
        assert!(MrCC::new(config).fit(&synth.dataset).is_err());
    }
}

/// A few points spread over `dims` axes, inside `[0,1)`.
fn spread_points(dims: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..3)
        .map(|i| {
            (0..dims)
                .map(|j| ((i * 7 + j * 3) % 10) as f64 / 10.0)
                .collect()
        })
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

#[test]
fn full_mask_rejects_more_than_ten_axes() {
    let fit = MrCC::new(MrCCConfig::default().with_mask(MaskKind::Full));
    for dims in [11, 40] {
        match fit.fit(&spread_points(dims)) {
            Err(Error::InvalidParameter { name: "mask", .. }) => {}
            other => panic!("d = {dims}: expected a mask error, got {other:?}"),
        }
    }
    // The face-only mask fits the same data, and the full mask still fits
    // at the 10-axis limit.
    let face_only = MrCC::new(MrCCConfig::default());
    assert!(face_only.fit(&spread_points(40)).is_ok());
    assert!(fit.fit(&spread_points(10)).is_ok());
}
