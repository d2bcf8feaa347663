//! Wall-clock measurement and budgeted execution.
//!
//! The paper ran every competitor with generous-but-finite budgets (a
//! three-hour timeout for LAC, a week for P3C) and reported timeouts as
//! missing results. [`run_with_timeout`] reproduces that policy for the
//! experiment harness.
//!
//! # Timeout contract
//!
//! Safe Rust cannot kill a thread, so a workload that misses its budget is
//! *detached*, not destroyed. The guarantees, in order of importance:
//!
//! 1. **No cross-measurement poisoning.** Every call owns a dedicated
//!    channel; a straggler's late result is sent into that call's (by then
//!    dropped) channel and discarded. It can never surface as the result of
//!    a *later* `run_with_timeout` call.
//! 2. **Residual CPU interference is possible.** A straggler keeps
//!    computing until it finishes on its own, and while it does it competes
//!    for cores with whatever measurement runs next. Callers who need
//!    pristine timings after a timeout should treat the following
//!    measurement with suspicion (the paper's authors killed straggler
//!    *processes*; in-process that is not possible).

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Outcome of a budgeted run.
#[derive(Debug)]
pub enum Timeout<T> {
    /// The workload finished within the budget.
    Finished {
        /// The workload's output.
        value: T,
        /// Elapsed wall time.
        elapsed: Duration,
    },
    /// The workload missed the budget; it keeps running detached (see the
    /// module docs for the contract).
    TimedOut {
        /// The budget that was exceeded.
        budget: Duration,
    },
}

impl<T> Timeout<T> {
    /// The value, when the run finished.
    pub fn finished(self) -> Option<(T, Duration)> {
        match self {
            Timeout::Finished { value, elapsed } => Some((value, elapsed)),
            Timeout::TimedOut { .. } => None,
        }
    }

    /// True when the budget was missed.
    pub fn timed_out(&self) -> bool {
        matches!(self, Timeout::TimedOut { .. })
    }
}

/// Runs `f` on a helper thread with a wall-clock budget.
///
/// See the module docs for the full timeout contract: on timeout the
/// workload keeps running detached until it finishes on its own.
pub fn run_with_timeout<T: Send + 'static>(
    budget: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Timeout<T> {
    // One dedicated channel per call: a straggler's late send lands in this
    // call's dropped receiver and is discarded, never in a later call's.
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    std::thread::Builder::new()
        .name("budgeted-run".into())
        .spawn(move || {
            // Receiver may be gone after a timeout; that is fine.
            let _ = tx.send(f());
        })
        .expect("spawn budgeted worker");
    match rx.recv_timeout(budget) {
        Ok(value) => Timeout::Finished {
            value,
            elapsed: start.elapsed(),
        },
        Err(_) => Timeout::TimedOut { budget },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_finishes() {
        let out = run_with_timeout(Duration::from_secs(5), || 7u32);
        let (v, _) = out.finished().expect("should finish");
        assert_eq!(v, 7);
    }

    #[test]
    fn slow_run_times_out() {
        let out = run_with_timeout(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(500));
            1u32
        });
        assert!(out.timed_out());
        assert!(out.finished().is_none());
    }

    /// Contract point 1: a straggler from a timed-out call must never leak
    /// its (late) result into a subsequent measurement — each call's channel
    /// is private, so the next run sees exactly its own workload's value.
    #[test]
    fn timed_out_run_does_not_poison_next_measurement() {
        let slow = run_with_timeout(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(200));
            1u32 // would be a poisoned value if it ever surfaced later
        });
        assert!(slow.timed_out());
        // Immediately measure again while the straggler is still running.
        let fast = run_with_timeout(Duration::from_secs(5), || 2u32);
        let (v, elapsed) = fast.finished().expect("fast run should finish");
        assert_eq!(v, 2, "straggler's result leaked into a later call");
        assert!(elapsed < Duration::from_secs(5));
        // And once more after the straggler has surely finished and sent.
        std::thread::sleep(Duration::from_millis(300));
        let third = run_with_timeout(Duration::from_secs(5), || 3u32);
        assert_eq!(third.finished().expect("should finish").0, 3);
    }
}
