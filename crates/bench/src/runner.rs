//! Single-run execution: method construction, budgeted execution, scoring.

use std::time::Duration;

use mrcc::{MrCC, MrCCConfig};
use mrcc_baselines::{
    Clique, Doc, DocConfig, Epch, EpchConfig, Harp, HarpConfig, Lac, LacConfig, P3c, P3cConfig,
    Proclus, ProclusConfig, Sting, SubspaceClusterer,
};
use mrcc_common::SubspaceClustering;
use mrcc_datagen::Synthetic;
use mrcc_eval::{measure_peak, quality, run_with_timeout, subspace_quality, Timeout};
use serde_json::{ToJson, Value};

/// The methods of the paper's comparison (Section IV-E tuning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// MrCC with the paper's fixed `α = 1e−10`, `H = 4`.
    MrCC,
    /// LAC given the true cluster count.
    Lac,
    /// EPCH given the true cluster count.
    Epch,
    /// CFPC (DOC core) given the true cluster count.
    Cfpc,
    /// P3C (parameter-free except the Poisson threshold).
    P3c,
    /// HARP given the true cluster count and noise percentage.
    Harp,
    /// CLIQUE (extended comparison; not in the paper's Figure 5).
    Clique,
    /// PROCLUS given the true cluster count (extended comparison).
    Proclus,
    /// STING (extended comparison; full-space grid, the paper's cited basis).
    Sting,
}

impl MethodKind {
    /// The six methods of the paper's comparison, in reporting order.
    pub fn all() -> [MethodKind; 6] {
        [
            MethodKind::P3c,
            MethodKind::Lac,
            MethodKind::Epch,
            MethodKind::Cfpc,
            MethodKind::Harp,
            MethodKind::MrCC,
        ]
    }

    /// The paper's six plus the historical ancestors (CLIQUE, PROCLUS,
    /// STING).
    pub fn extended() -> [MethodKind; 9] {
        [
            MethodKind::Clique,
            MethodKind::Proclus,
            MethodKind::Sting,
            MethodKind::P3c,
            MethodKind::Lac,
            MethodKind::Epch,
            MethodKind::Cfpc,
            MethodKind::Harp,
            MethodKind::MrCC,
        ]
    }

    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::MrCC => "MrCC",
            MethodKind::Lac => "LAC",
            MethodKind::Epch => "EPCH",
            MethodKind::Cfpc => "CFPC",
            MethodKind::P3c => "P3C",
            MethodKind::Harp => "HARP",
            MethodKind::Clique => "CLIQUE",
            MethodKind::Proclus => "PROCLUS",
            MethodKind::Sting => "STING",
        }
    }

    /// Whether the method defines relevant axes (LAC only ranks them, so the
    /// paper excludes it from Subspaces Quality).
    pub fn reports_subspaces(&self) -> bool {
        !matches!(self, MethodKind::Lac)
    }

    /// Builds the method tuned as in the paper for the given workload
    /// (true cluster count / noise fraction supplied where the paper did).
    pub fn build(&self, n_clusters: usize, noise_fraction: f64) -> Box<dyn SubspaceClusterer> {
        let k = n_clusters.max(1);
        match self {
            MethodKind::MrCC => Box::new(MrCCClusterer(MrCC::new(MrCCConfig::default()))),
            MethodKind::Lac => Box::new(Lac::new(LacConfig::new(k))),
            MethodKind::Epch => Box::new(Epch::new(EpchConfig::new(k))),
            MethodKind::Cfpc => Box::new(Doc::new(DocConfig::new(k))),
            MethodKind::P3c => Box::new(P3c::new(P3cConfig::default())),
            MethodKind::Harp => Box::new(Harp::new(HarpConfig::new(k, noise_fraction))),
            MethodKind::Clique => Box::new(Clique::default()),
            MethodKind::Proclus => Box::new(Proclus::new(ProclusConfig::new(k, 2))),
            MethodKind::Sting => Box::new(Sting::default()),
        }
    }
}

/// Adapter exposing MrCC through the baseline trait.
struct MrCCClusterer(MrCC);

impl SubspaceClusterer for MrCCClusterer {
    fn name(&self) -> &'static str {
        "MrCC"
    }

    fn fit(&self, ds: &mrcc_common::Dataset) -> mrcc_common::Result<SubspaceClustering> {
        Ok(self.0.fit(ds)?.clustering)
    }
}

/// One (dataset, method) measurement.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Dataset name.
    pub dataset: String,
    /// Method name.
    pub method: String,
    /// Points in the dataset.
    pub n_points: usize,
    /// Dimensionality.
    pub dims: usize,
    /// The paper's Quality (0 when the method found nothing / timed out).
    pub quality: f64,
    /// Subspaces Quality (None for LAC and timeouts).
    pub subspace_quality: Option<f64>,
    /// Wall-clock seconds (None on timeout).
    pub seconds: Option<f64>,
    /// Peak heap during the run, KiB (None on timeout or when no tracking
    /// allocator is installed).
    pub peak_kb: Option<f64>,
    /// Clusters found.
    pub clusters_found: usize,
    /// Whether the run missed its budget.
    pub timed_out: bool,
}

// Hand-written because the offline serde_json stand-in has no derive macros
// (see vendor/serde_json).
impl ToJson for RunRecord {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("dataset".to_string(), self.dataset.to_json()),
            ("method".to_string(), self.method.to_json()),
            ("n_points".to_string(), self.n_points.to_json()),
            ("dims".to_string(), self.dims.to_json()),
            ("quality".to_string(), self.quality.to_json()),
            (
                "subspace_quality".to_string(),
                self.subspace_quality.to_json(),
            ),
            ("seconds".to_string(), self.seconds.to_json()),
            ("peak_kb".to_string(), self.peak_kb.to_json()),
            ("clusters_found".to_string(), self.clusters_found.to_json()),
            ("timed_out".to_string(), self.timed_out.to_json()),
        ])
    }
}

/// Runs one method on one synthetic workload under a budget.
pub fn run_method(method: MethodKind, synth: &Synthetic, budget: Duration) -> RunRecord {
    let clusterer = method.build(synth.ground_truth.len(), synth.spec.noise_fraction);
    let dataset = synth.dataset.clone();
    let outcome = run_with_timeout(budget, move || {
        measure_peak(move || clusterer.fit(&dataset))
    });

    let mut record = RunRecord {
        dataset: synth.name.clone(),
        method: method.name().to_string(),
        n_points: synth.dataset.len(),
        dims: synth.dataset.dims(),
        quality: 0.0,
        subspace_quality: None,
        seconds: None,
        peak_kb: None,
        clusters_found: 0,
        timed_out: false,
    };
    match outcome {
        Timeout::TimedOut { .. } => {
            record.timed_out = true;
        }
        Timeout::Finished {
            value: (fit, memory),
            elapsed,
        } => {
            record.seconds = Some(elapsed.as_secs_f64());
            if memory.tracked {
                record.peak_kb = Some(memory.peak_kb());
            }
            if let Ok(clustering) = fit {
                record.clusters_found = clustering.len();
                record.quality = quality(&clustering, &synth.ground_truth).quality;
                if method.reports_subspaces() {
                    record.subspace_quality =
                        Some(subspace_quality(&clustering, &synth.ground_truth).quality);
                }
            }
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;
    use mrcc_datagen::{generate, SyntheticSpec};

    fn tiny() -> Synthetic {
        generate(&SyntheticSpec::new("tiny", 6, 3_000, 2, 0.1, 3))
    }

    #[test]
    fn mrcc_run_produces_scores() {
        let synth = tiny();
        let r = run_method(MethodKind::MrCC, &synth, Duration::from_secs(60));
        assert!(!r.timed_out);
        assert!(r.seconds.is_some());
        assert!(r.quality > 0.5, "quality {}", r.quality);
        assert!(r.subspace_quality.is_some());
    }

    #[test]
    fn lac_has_no_subspace_quality() {
        let synth = tiny();
        let r = run_method(MethodKind::Lac, &synth, Duration::from_secs(60));
        assert!(!r.timed_out);
        assert!(r.subspace_quality.is_none());
        assert!(r.quality > 0.0);
    }

    #[test]
    fn timeout_is_reported_as_missing_data() {
        let synth = tiny();
        let r = run_method(MethodKind::Harp, &synth, Duration::from_nanos(1));
        assert!(r.timed_out);
        assert!(r.seconds.is_none());
        assert!(exactly(r.quality, 0.0));
    }

    #[test]
    fn every_method_finishes_on_a_tiny_workload() {
        let synth = tiny();
        for m in MethodKind::all() {
            let r = run_method(m, &synth, Duration::from_secs(120));
            assert!(!r.timed_out, "{} timed out", m.name());
        }
    }
}
