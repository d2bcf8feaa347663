//! MrCC configuration.
//!
//! The method has exactly two input parameters (Section IV-D): the
//! statistical significance level `α` of the β-cluster test and the number of
//! Counting-tree resolutions `H`. The paper fixes `α = 1e−10`, `H = 4` for
//! every experiment; those are the defaults here. Two additional knobs expose
//! design-choice ablations studied in our EXPERIMENTS.md: the convolution
//! mask variant and the axis-relevance selection rule.

use mrcc_common::{Error, Result};
use mrcc_counting_tree::{MAX_RESOLUTIONS, MIN_RESOLUTIONS};
use serde_json::{FromJson, ToJson, Value};

/// Which Laplacian mask the β-cluster search convolves with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskKind {
    /// Order-3 mask with non-zero entries only at the centre (`2d`) and the
    /// `2d` face elements (`−1`) — the paper's choice, `O(d)` per cell.
    FaceOnly,
    /// Order-3 mask with non-zero entries everywhere: centre `3^d − 1`, all
    /// `3^d − 1` neighbors `−1`. `O(3^d)` per cell; the paper reports it
    /// "improves a little" but costs too much. Kept for the ablation bench;
    /// [`MrCC::fit`](crate::MrCC::fit) rejects it on more than 10 axes.
    Full,
}

/// How the per-axis relevances are cut into relevant / irrelevant sets.
///
/// The relevance `r[j] = 100·cP_j / nP_j` is the share of the six-region
/// neighborhood's mass that sits in the centre region; the uniform null puts
/// ≈16.7 % there, so the statistic has an *absolute* scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisSelection {
    /// MDL-tuned threshold over the sorted relevances — the paper's method
    /// (floored by [`MrCCConfig::relevance_floor`]). The two-partition MDL
    /// cut isolates the *tightest* high plateau; on tri-modal relevance
    /// patterns (clean axes ≈95, straddled/rotated-but-concentrated axes
    /// 50–70, uniform axes ≈17–40) it drops the middle group, leaving boxes
    /// constrained on one or two axes that swallow foreign clusters — the
    /// `axis-selection` ablation quantifies this.
    Mdl,
    /// Absolute share threshold in `(0, 100]`: axis `e_j` is relevant iff
    /// the centre region holds at least this percentage of the neighborhood
    /// mass. The default `Share(45.0)` demands ≈2.7× the null share, which
    /// captures clean relevant axes (≈90+), grid-straddled ones (≈50) and
    /// axes diluted to ≈47–49 by a *second* cluster sitting in the
    /// neighborhood, while rejecting uniform axes (≤ ≈40). Erring toward
    /// inclusion is the safe side: a wrongly kept axis merely tightens the
    /// cluster box, a wrongly dropped one opens it to `[0,1]`.
    Share(f64),
}

/// Full configuration for [`crate::MrCC`].
#[derive(Debug, Clone, PartialEq)]
pub struct MrCCConfig {
    /// Significance level `α` of the one-sided binomial test: the probability
    /// of wrongly rejecting the uniform null per axis. Paper default `1e−10`.
    pub alpha: f64,
    /// Number of distinct resolutions `H` of the Counting-tree (`H ≥ 3`).
    /// Paper default 4.
    pub resolutions: usize,
    /// Convolution mask variant (ablation knob; default [`MaskKind::FaceOnly`]).
    pub mask: MaskKind,
    /// Axis-relevance selection rule (ablation knob; default
    /// [`AxisSelection::Mdl`]).
    pub axis_selection: AxisSelection,
    /// Effect-size floor for axis relevance, in `[0, 100)`: an axis only
    /// counts as relevant (and a β-cluster is only accepted) when its centre
    /// region holds at least this percentage of the neighborhood's points.
    ///
    /// Under the uniform null the centre region holds ≈16.7 %; at large `η`
    /// the binomial test rejects for tiny effects (a 20 % share of a
    /// 10,000-point neighborhood is wildly "significant" yet describes no
    /// usable cluster), producing diffuse β-clusters that chain-merge real
    /// ones. The default 45 demands the centre sixth carry ≈2.7× its null share
    /// of the neighborhood mass. Set 0 to disable
    /// (paper-pure significance-only behaviour; ablation `mdl-vs-fixed`
    /// exercises this knob too).
    pub relevance_floor: f64,
    /// Requested worker threads. Ignored: every fit runs serially and its
    /// output never depends on this value. The field stays only because
    /// the `perfbench` benchmark still sets it; [`MrCCConfig::validate`]
    /// keeps rejecting 0 and values above [`MAX_THREADS`].
    pub threads: usize,
}

/// Largest accepted [`MrCCConfig::threads`] value; a sanity bound so a
/// typo'd thread count fails validation.
pub const MAX_THREADS: usize = 1024;

impl Default for MrCCConfig {
    fn default() -> Self {
        MrCCConfig {
            alpha: 1e-10,
            resolutions: 4,
            mask: MaskKind::FaceOnly,
            axis_selection: AxisSelection::Share(45.0),
            relevance_floor: 45.0,
            threads: 1,
        }
    }
}

impl MrCCConfig {
    /// Convenience constructor for the two paper parameters.
    #[must_use]
    pub fn with_params(alpha: f64, resolutions: usize) -> Self {
        MrCCConfig {
            alpha,
            resolutions,
            ..Default::default()
        }
    }

    /// Returns the configuration with the convolution mask replaced
    /// (builder style; chain off [`Default::default`] or `with_params`).
    #[must_use]
    pub fn with_mask(mut self, mask: MaskKind) -> Self {
        self.mask = mask;
        self
    }

    /// Returns the configuration with the axis-relevance selection rule
    /// replaced.
    #[must_use]
    pub fn with_axis_selection(mut self, axis_selection: AxisSelection) -> Self {
        self.axis_selection = axis_selection;
        self
    }

    /// Returns the configuration with the effect-size floor replaced.
    #[must_use]
    pub fn with_relevance_floor(mut self, relevance_floor: f64) -> Self {
        self.relevance_floor = relevance_floor;
        self
    }

    /// Returns the configuration with [`MrCCConfig::threads`] replaced.
    /// A no-op for the fit, kept only for the `perfbench` benchmark.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates every field.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] describing the first violation found.
    pub fn validate(&self) -> Result<()> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(Error::InvalidParameter {
                name: "alpha",
                message: format!("must be in (0,1), got {}", self.alpha),
            });
        }
        if !(MIN_RESOLUTIONS..=MAX_RESOLUTIONS).contains(&self.resolutions) {
            return Err(Error::InvalidParameter {
                name: "resolutions",
                message: format!(
                    "must be in [{MIN_RESOLUTIONS}, {MAX_RESOLUTIONS}], got {}",
                    self.resolutions
                ),
            });
        }
        if !(0.0..100.0).contains(&self.relevance_floor) {
            return Err(Error::InvalidParameter {
                name: "relevance_floor",
                message: format!("must be in [0,100), got {}", self.relevance_floor),
            });
        }
        if let AxisSelection::Share(t) = self.axis_selection {
            if !(t > 0.0 && t <= 100.0) {
                return Err(Error::InvalidParameter {
                    name: "axis_selection",
                    message: format!("share threshold must be in (0,100], got {t}"),
                });
            }
        }
        if !(1..=MAX_THREADS).contains(&self.threads) {
            return Err(Error::InvalidParameter {
                name: "threads",
                message: format!("must be in [1, {MAX_THREADS}], got {}", self.threads),
            });
        }
        Ok(())
    }
}

// Hand-written JSON round-trip impls: the offline serde_json stand-in has no
// derive macros (see vendor/serde_json). Shapes mirror what serde's derive
// would emit: unit variants as strings, newtype variants as 1-key objects.

impl ToJson for MaskKind {
    fn to_json(&self) -> Value {
        match self {
            MaskKind::FaceOnly => Value::String("FaceOnly".to_string()),
            MaskKind::Full => Value::String("Full".to_string()),
        }
    }
}

impl FromJson for MaskKind {
    fn from_json(value: &Value) -> std::result::Result<Self, serde_json::Error> {
        match value.as_str() {
            Some("FaceOnly") => Ok(MaskKind::FaceOnly),
            Some("Full") => Ok(MaskKind::Full),
            _ => Err(serde_json::Error::msg(format!(
                "expected \"FaceOnly\" or \"Full\", got {value}"
            ))),
        }
    }
}

impl ToJson for AxisSelection {
    fn to_json(&self) -> Value {
        match self {
            AxisSelection::Mdl => Value::String("Mdl".to_string()),
            AxisSelection::Share(t) => {
                Value::Object(vec![("Share".to_string(), Value::Number(*t))])
            }
        }
    }
}

impl FromJson for AxisSelection {
    fn from_json(value: &Value) -> std::result::Result<Self, serde_json::Error> {
        if value.as_str() == Some("Mdl") {
            return Ok(AxisSelection::Mdl);
        }
        if let Some(share) = value.get("Share").and_then(Value::as_f64) {
            return Ok(AxisSelection::Share(share));
        }
        Err(serde_json::Error::msg(format!(
            "expected \"Mdl\" or {{\"Share\": t}}, got {value}"
        )))
    }
}

impl ToJson for MrCCConfig {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("alpha".to_string(), self.alpha.to_json()),
            ("resolutions".to_string(), self.resolutions.to_json()),
            ("mask".to_string(), self.mask.to_json()),
            ("axis_selection".to_string(), self.axis_selection.to_json()),
            (
                "relevance_floor".to_string(),
                self.relevance_floor.to_json(),
            ),
            ("threads".to_string(), self.threads.to_json()),
        ])
    }
}

impl FromJson for MrCCConfig {
    fn from_json(value: &Value) -> std::result::Result<Self, serde_json::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde_json::Error::msg(format!("missing field `{name}`")))
        };
        Ok(MrCCConfig {
            alpha: f64::from_json(field("alpha")?)?,
            resolutions: usize::from_json(field("resolutions")?)?,
            mask: MaskKind::from_json(field("mask")?)?,
            axis_selection: AxisSelection::from_json(field("axis_selection")?)?,
            relevance_floor: f64::from_json(field("relevance_floor")?)?,
            // Absent in configs serialized before the parallel mode existed;
            // default to the serial pipeline.
            threads: match value.get("threads") {
                Some(v) => usize::from_json(v)?,
                None => 1,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;

    #[test]
    fn defaults_match_the_paper() {
        // Sec. IV-D: α = 1e−10 and H = 4.
        let c = MrCCConfig::default();
        assert!(exactly(c.alpha, 1e-10));
        assert_eq!(c.resolutions, 4);
        assert_eq!(c.mask, MaskKind::FaceOnly);
        assert_eq!(c.axis_selection, AxisSelection::Share(45.0));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_bad_alpha() {
        assert!(MrCCConfig::with_params(0.0, 4).validate().is_err());
        assert!(MrCCConfig::with_params(1.0, 4).validate().is_err());
        assert!(MrCCConfig::with_params(-0.5, 4).validate().is_err());
    }

    #[test]
    fn rejects_bad_resolutions() {
        assert!(MrCCConfig::with_params(1e-10, 2).validate().is_err());
        assert!(MrCCConfig::with_params(1e-10, 65).validate().is_err());
        assert!(MrCCConfig::with_params(1e-10, 3).validate().is_ok());
    }

    #[test]
    fn rejects_bad_relevance_floor() {
        let mut c = MrCCConfig {
            relevance_floor: 100.0,
            ..MrCCConfig::default()
        };
        assert!(c.validate().is_err());
        c.relevance_floor = -1.0;
        assert!(c.validate().is_err());
        c.relevance_floor = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_bad_share_threshold() {
        let mut c = MrCCConfig {
            axis_selection: AxisSelection::Share(0.0),
            ..MrCCConfig::default()
        };
        assert!(c.validate().is_err());
        c.axis_selection = AxisSelection::Share(101.0);
        assert!(c.validate().is_err());
        c.axis_selection = AxisSelection::Share(50.0);
        assert!(c.validate().is_ok());
        c.axis_selection = AxisSelection::Mdl;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_replace_one_field_each() {
        let c = MrCCConfig::default()
            .with_mask(MaskKind::Full)
            .with_axis_selection(AxisSelection::Mdl)
            .with_relevance_floor(0.0);
        assert_eq!(c.mask, MaskKind::Full);
        assert_eq!(c.axis_selection, AxisSelection::Mdl);
        assert!(exactly(c.relevance_floor, 0.0));
        // Untouched fields keep their defaults.
        assert!(exactly(c.alpha, 1e-10));
        assert_eq!(c.resolutions, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let c = MrCCConfig::default().with_threads(4);
        let json = serde_json::to_string(&c).unwrap();
        let back: MrCCConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn legacy_json_without_threads_defaults_to_serial() {
        let json = serde_json::to_string(&MrCCConfig::default()).unwrap();
        let stripped = json.replace(",\"threads\":1", "");
        assert!(!stripped.contains("threads"), "{stripped}");
        let back: MrCCConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.threads, 1);
    }

    #[test]
    fn rejects_bad_threads() {
        let c = MrCCConfig::default().with_threads(0);
        assert!(c.validate().is_err());
        let c = MrCCConfig::default().with_threads(MAX_THREADS + 1);
        assert!(c.validate().is_err());
        let c = MrCCConfig::default().with_threads(8);
        assert!(c.validate().is_ok());
    }
}
