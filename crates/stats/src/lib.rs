#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::as_conversions)
)]

//! Statistics substrate for the MrCC reproduction.
//!
//! Everything numerical the clustering stack needs, implemented from scratch:
//!
//! * [`gamma`] — log-gamma (Lanczos), log-factorials, log binomial
//!   coefficients.
//! * [`beta`] — the regularized incomplete beta function `I_x(a, b)` via the
//!   Lentz continued fraction, which yields *exact* binomial tails at any `n`.
//! * [`gamma_inc`] — regularized incomplete gamma `P(a, x)` / `Q(a, x)`
//!   (series + continued fraction), which yields Poisson tails (used by the
//!   P3C baseline).
//! * [`binomial`] — the binomial distribution, its survival function and the
//!   **critical value** `θ_j^α` of the paper's null-hypothesis test
//!   (`cP_j ~ Binomial(nP_j, 1/6)` under uniformity, Section III-B).
//! * [`poisson`] — Poisson tails for the P3C baseline.
//! * [`mdl`] — the Minimum Description Length cut over a sorted array of axis
//!   relevances that tunes MrCC's relevant-axis threshold `cThreshold`.

pub mod beta;
pub mod binomial;
pub mod gamma;
pub mod gamma_inc;
pub mod mdl;
pub mod poisson;

pub use binomial::{binomial_critical_value, binomial_sf, Binomial};
pub use mdl::{mdl_cut, MdlCut};
