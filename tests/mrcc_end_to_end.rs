//! Cross-crate integration tests: datagen → MrCC → eval.
//!
//! These exercise the whole stack on paper-shaped (but laptop-sized)
//! workloads and assert the paper's qualitative claims: high Quality on
//! Gaussian subspace clusters, robustness to noise and rotation,
//! determinism, and statistical restraint on structure-free data.

use mrcc_repro::prelude::*;

fn small_spec(name: &str, dims: usize, points: usize, clusters: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec::new(name, dims, points, clusters, 0.15, seed)
}

#[test]
fn recovers_subspace_clusters_with_high_quality() {
    let synth = generate(&small_spec("it-8d", 8, 8_000, 4, 11));
    let result = MrCC::default().fit(&synth.dataset).unwrap();
    result.check_invariants();
    assert!(!result.clustering.is_empty(), "found no clusters");
    let q = quality(&result.clustering, &synth.ground_truth);
    assert!(
        q.quality > 0.80,
        "Quality {:.3} below expectation (precision {:.3}, recall {:.3})",
        q.quality,
        q.avg_precision,
        q.avg_recall
    );
}

#[test]
fn subspace_quality_identifies_relevant_axes() {
    let synth = generate(&small_spec("it-10d", 10, 10_000, 3, 23));
    let result = MrCC::default().fit(&synth.dataset).unwrap();
    let sq = subspace_quality(&result.clustering, &synth.ground_truth);
    assert!(
        sq.quality > 0.60,
        "Subspaces Quality {:.3} below expectation",
        sq.quality
    );
}

#[test]
fn deterministic_end_to_end() {
    let synth = generate(&small_spec("it-det", 8, 4_000, 3, 7));
    let run = || {
        let r = MrCC::default().fit(&synth.dataset).unwrap();
        r.clustering.labels()
    };
    assert_eq!(run(), run());
}

#[test]
fn robust_to_noise_levels() {
    // Quality should stay usable from 5% to 25% noise (Fig. 5d).
    for (i, noise) in [0.05, 0.25].into_iter().enumerate() {
        let mut spec = small_spec("it-noise", 8, 24_000, 3, 31 + i as u64);
        spec.noise_fraction = noise;
        let synth = generate(&spec);
        let result = MrCC::default().fit(&synth.dataset).unwrap();
        let q = quality(&result.clustering, &synth.ground_truth);
        assert!(
            q.quality > 0.70,
            "noise {noise}: Quality {:.3} too low",
            q.quality
        );
    }
}

#[test]
fn only_marginally_affected_by_rotation() {
    // The paper reports ≤ ~5% Quality variation under rotation (Fig. 5p).
    // Individual draws can place two clusters so that their subspace ranges
    // cross (unseparable for any grid method — see EXPERIMENTS.md), so we
    // assert the *average* drop over several seeds stays small.
    let fit = |ds: &Dataset| MrCC::default().fit(ds).unwrap().clustering;
    let mut plain_sum = 0.0;
    let mut rot_sum = 0.0;
    let seeds = [11u64, 31, 61];
    for &seed in &seeds {
        let plain = generate(&small_spec("it-rot", 8, 24_000, 3, seed));
        let rotated = generate(&small_spec("it-rot", 8, 24_000, 3, seed).rotated(4));
        plain_sum += quality(&fit(&plain.dataset), &plain.ground_truth).quality;
        rot_sum += quality(&fit(&rotated.dataset), &rotated.ground_truth).quality;
    }
    let (q_plain, q_rot) = (plain_sum / seeds.len() as f64, rot_sum / seeds.len() as f64);
    assert!(q_plain > 0.85, "baseline Quality {q_plain:.3}");
    assert!(
        q_rot > q_plain - 0.15,
        "rotation collapsed Quality: {q_rot:.3} vs {q_plain:.3}"
    );
}

#[test]
fn structure_free_data_mostly_noise() {
    // Uniform data: MrCC must not hallucinate dominant clusters.
    let spec = SyntheticSpec::new("it-uniform", 6, 5_000, 0, 0.5, 3);
    let synth = generate(&spec);
    let result = MrCC::default().fit(&synth.dataset).unwrap();
    assert!(
        result.noise_ratio() > 0.9,
        "claimed {:.1}% of uniform data as clusters",
        100.0 * (1.0 - result.noise_ratio())
    );
}

#[test]
fn beta_cluster_count_tracks_cluster_count() {
    // The paper observes βk stays close to the number of real clusters.
    let synth = generate(&small_spec("it-bk", 8, 8_000, 4, 53));
    let result = MrCC::default().fit(&synth.dataset).unwrap();
    assert!(
        result.n_beta_clusters() <= 4 * synth.ground_truth.len().max(1),
        "βk = {} explodes vs {} real clusters",
        result.n_beta_clusters(),
        synth.ground_truth.len()
    );
}

#[test]
fn handles_kdd_surrogate_shape() {
    let kdd = mrcc_repro::datagen::kdd_cup_2008_surrogate(
        mrcc_repro::datagen::View::LeftMLO,
        0.5, // 12.5k points: inside the statistical power envelope, still fast
    );
    let result = MrCC::default().fit(&kdd.synthetic.dataset).unwrap();
    let q = quality(&result.clustering, &kdd.synthetic.ground_truth);
    assert!(
        q.quality > 0.5,
        "KDD surrogate Quality {:.3} too low",
        q.quality
    );
}

#[test]
fn fit_normalizing_accepts_raw_data() {
    // Same data scaled out of the unit cube must work via fit_normalizing
    // and fail via fit.
    let synth = generate(&small_spec("it-raw", 6, 3_000, 2, 61));
    let mut raw = Dataset::new(6).unwrap();
    for p in synth.dataset.iter() {
        let scaled: Vec<f64> = p.iter().map(|v| v * 250.0 - 60.0).collect();
        raw.push(&scaled).unwrap();
    }
    assert!(MrCC::default().fit(&raw).is_err());
    let result = MrCC::default().fit_normalizing(&raw).unwrap();
    let q = quality(&result.clustering, &synth.ground_truth);
    assert!(q.quality > 0.75, "Quality {:.3}", q.quality);
}

/// Fits `ds` with the default configuration and checks the output covers
/// every point.
fn fit_degenerate(ds: &Dataset) {
    let result = MrCC::default()
        .fit(ds)
        .unwrap_or_else(|e| panic!("fit failed: {e}"));
    assert_eq!(result.clustering.labels().len(), ds.len());
    result.check_invariants();
}

#[test]
fn single_point_dataset() {
    let ds = Dataset::from_rows(&[[0.42, 0.17, 0.93]]).unwrap();
    fit_degenerate(&ds);
}

#[test]
fn three_point_dataset() {
    let ds = Dataset::from_rows(&[[0.1, 0.2], [0.5, 0.6], [0.9, 0.1]]).unwrap();
    fit_degenerate(&ds);
}

#[test]
fn all_noise_dataset() {
    // Structure-free 6-d data: the β-cluster search may find nothing, and
    // the merge must still label every point.
    let spec = SyntheticSpec::new("it-all-noise", 6, 4_000, 0, 0.5, 9);
    let synth = generate(&spec);
    fit_degenerate(&synth.dataset);
}
