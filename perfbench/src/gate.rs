//! The correctness gate: every checked operation is counted as attempted,
//! and as failed when its output is wrong.

use mrcc::MrCCResult;
use mrcc_common::SubspaceClustering;

/// What a fit produced, reduced to what the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Hard label per point (`-1` = noise).
    pub labels: Vec<i32>,
    /// β-clusters found by phase two.
    pub betas: usize,
    /// Correlation clusters after the merge.
    pub clusters: usize,
}

impl Outcome {
    /// The outcome of a finished fit.
    pub fn of(result: &MrCCResult) -> Self {
        Outcome {
            labels: result.clustering.labels(),
            betas: result.n_beta_clusters(),
            clusters: result.n_clusters(),
        }
    }
}

/// `Ok` when `actual` has the same labels, β count and cluster count as
/// `expected`; otherwise says what differs.
///
/// # Errors
/// The first difference found.
pub fn same_outcome(expected: &Outcome, actual: &Outcome) -> Result<(), String> {
    if actual.betas != expected.betas {
        return Err(format!(
            "{} beta-clusters, expected {}",
            actual.betas, expected.betas
        ));
    }
    if actual.clusters != expected.clusters {
        return Err(format!(
            "{} clusters, expected {}",
            actual.clusters, expected.clusters
        ));
    }
    if actual.labels.len() != expected.labels.len() {
        return Err(format!(
            "{} labels, expected {}",
            actual.labels.len(),
            expected.labels.len()
        ));
    }
    let differing = actual
        .labels
        .iter()
        .zip(&expected.labels)
        .filter(|(a, b)| a != b)
        .count();
    if differing > 0 {
        return Err(format!("{differing} labels differ"));
    }
    Ok(())
}

/// Subspace Quality of `found` against the generator's ground truth.
pub fn quality(found: &SubspaceClustering, truth: &SubspaceClustering) -> f64 {
    mrcc_eval::subspace_quality(found, truth).quality
}

/// `Ok` when `quality` reaches the workload's floor.
///
/// # Errors
/// The quality and the floor it missed.
pub fn quality_floor(quality: f64, floor: f64) -> Result<(), String> {
    if quality >= floor {
        Ok(())
    } else {
        Err(format!("quality {quality:.4} below floor {floor}"))
    }
}

/// Attempted and failed operations of one run, with a reason per failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check, or that errored or panicked.
    pub failed: u64,
    /// `operation: reason` per failure, in order.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation with its check result.
    pub fn record(&mut self, operation: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.failed += 1;
            eprintln!("perfbench: {operation} failed: {reason}");
            self.failures.push(format!("{operation}: {reason}"));
        }
    }
}

/// Runs `f`, turning a panic into an error so it counts as a failed
/// operation instead of ending the run.
///
/// # Errors
/// The error `f` returned, or the panic message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(out) => out,
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .map_or_else(|| "panicked".to_string(), |m| format!("panicked: {m}"))),
    }
}
