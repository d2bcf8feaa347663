//! MrCC configuration.
//!
//! The method has exactly two input parameters (Section IV-D): the
//! statistical significance level `α` of the β-cluster test and the number of
//! Counting-tree resolutions `H`. The paper fixes `α = 1e−10`, `H = 4` for
//! every experiment; those are the defaults here. One additional knob, the
//! axis-relevance selection rule, exposes the design-choice ablation studied
//! in our EXPERIMENTS.md.

use mrcc_common::{Error, Result};
use mrcc_counting_tree::{MAX_RESOLUTIONS, MIN_RESOLUTIONS};

/// The Laplacian mask the β-cluster search convolves with. It has one
/// value; the type stays only because the `perfbench` benchmark still reads
/// [`MrCCConfig::mask`] and passes it to
/// [`convolution::convolve`](crate::convolution::convolve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskKind {
    /// Order-3 mask with non-zero entries only at the centre (`2d`) and the
    /// `2d` face elements (`−1`) — the paper's choice, `O(d)` per cell.
    FaceOnly,
}

/// How the per-axis relevances are cut into relevant / irrelevant sets.
///
/// The relevance `r[j] = 100·cP_j / nP_j` is the share of the six-region
/// neighborhood's mass that sits in the centre region; the uniform null puts
/// ≈16.7 % there, so the statistic has an *absolute* scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisSelection {
    /// MDL-tuned threshold over the sorted relevances — the paper's method —
    /// raised to at least `floor`. The two-partition MDL cut isolates the
    /// *tightest* high plateau; on tri-modal relevance patterns (clean axes
    /// ≈95, straddled/rotated-but-concentrated axes 50–70, uniform axes
    /// ≈17–40) it drops the middle group, leaving boxes constrained on one
    /// or two axes that swallow foreign clusters — the `axis-selection`
    /// ablation quantifies this.
    Mdl {
        /// Effect-size floor in `[0, 100)`. At large `η` the binomial test
        /// rejects for tiny effects (a 20 % share of a 10,000-point
        /// neighborhood is wildly "significant"), producing diffuse
        /// β-clusters that chain-merge real ones; 45 demands ≈2.7× the null
        /// share, 0 is the paper-pure, significance-only cut.
        floor: f64,
    },
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
    /// Convolution mask; always [`MaskKind::FaceOnly`]. The field stays only
    /// because the `perfbench` benchmark still reads it.
    pub mask: MaskKind,
    /// Axis-relevance selection rule (ablation knob; default
    /// `AxisSelection::Share(45.0)`).
    pub axis_selection: AxisSelection,
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

    /// Returns the configuration with the axis-relevance selection rule
    /// replaced (builder style; chain off [`Default::default`] or
    /// `with_params`).
    #[must_use]
    pub fn with_axis_selection(mut self, axis_selection: AxisSelection) -> Self {
        self.axis_selection = axis_selection;
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
        match self.axis_selection {
            AxisSelection::Mdl { floor } if !(0.0..100.0).contains(&floor) => {
                return Err(Error::InvalidParameter {
                    name: "axis_selection",
                    message: format!("MDL floor must be in [0,100), got {floor}"),
                });
            }
            AxisSelection::Share(t) if !(t > 0.0 && t <= 100.0) => {
                return Err(Error::InvalidParameter {
                    name: "axis_selection",
                    message: format!("share threshold must be in (0,100], got {t}"),
                });
            }
            _ => {}
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
    fn rejects_bad_mdl_floor() {
        let mut c = MrCCConfig::default().with_axis_selection(AxisSelection::Mdl { floor: 100.0 });
        assert!(c.validate().is_err());
        c.axis_selection = AxisSelection::Mdl { floor: -1.0 };
        assert!(c.validate().is_err());
        c.axis_selection = AxisSelection::Mdl { floor: 0.0 };
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
    }

    #[test]
    fn builders_replace_one_field_each() {
        let c = MrCCConfig::default().with_axis_selection(AxisSelection::Mdl { floor: 0.0 });
        assert_eq!(c.axis_selection, AxisSelection::Mdl { floor: 0.0 });
        // Untouched fields keep their defaults.
        assert!(exactly(c.alpha, 1e-10));
        assert_eq!(c.resolutions, 4);
        assert!(c.validate().is_ok());
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
