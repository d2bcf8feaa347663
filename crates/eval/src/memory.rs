//! Heap tracking for the memory-consumption experiments.
//!
//! The paper reports per-run memory in KB (Figures 4–5). We measure it with a
//! wrapping global allocator that keeps live-byte and peak-byte counters in
//! relaxed atomics. The experiments binary installs it via
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: TrackingAllocator = TrackingAllocator;
//! ```
//!
//! and brackets each algorithm run with [`measure_peak`], which resets the
//! peak to the current live size, runs the closure, and reports how far the
//! peak rose above the starting point — i.e. the run's own net peak usage.
//!
//! It also counts allocations, for the tests that pin how many allocations
//! an operation makes: each `alloc`, `alloc_zeroed` and `realloc` counts as
//! one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A `#[global_allocator]` shim over the system allocator that tracks live
/// and peak heap bytes and counts allocations.
pub struct TrackingAllocator;

impl TrackingAllocator {
    /// Current live heap bytes.
    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Peak heap bytes since the last [`TrackingAllocator::reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Allocations so far: each successful `alloc`, `alloc_zeroed` and
    /// `realloc` counts one.
    pub fn allocations() -> usize {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live size.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Whether a [`TrackingAllocator`] is serving as the global allocator
    /// (set on its first allocation).
    pub fn is_installed() -> bool {
        INSTALLED.load(Ordering::Relaxed)
    }
}

fn on_alloc(size: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: defers all allocation to `System`; the counters are plain atomics
// and never allocate, so no allocator method can recurse into itself.
unsafe impl GlobalAlloc for TrackingAllocator {
    // SAFETY: the method contract is `System::alloc`'s own; this wrapper
    // only adds counter updates around the delegated call.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: contract identical to `System::dealloc`, delegated verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` were produced by a matching alloc on this
        // same allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    // SAFETY: contract identical to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: contract identical to `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout`, and the
        // caller guarantees `new_size` is nonzero — `System`'s own contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// What a [`measure_peak`] run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Net peak heap growth during the run, in bytes. Zero when no tracking
    /// allocator is installed (e.g. under `cargo test` of this crate alone).
    pub peak_bytes: usize,
    /// Whether a tracking allocator was actually measuring.
    pub tracked: bool,
}

impl MemoryReport {
    /// Peak in KiB, the unit the paper plots.
    pub fn peak_kb(&self) -> f64 {
        self.peak_bytes as f64 / 1024.0
    }
}

/// Runs `f` and reports its net peak heap usage.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, MemoryReport) {
    let tracked = TrackingAllocator::is_installed();
    let baseline = TrackingAllocator::live();
    TrackingAllocator::reset_peak();
    let out = f();
    let peak = TrackingAllocator::peak();
    (
        out,
        MemoryReport {
            peak_bytes: peak.saturating_sub(baseline),
            tracked,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is *not* installed in this crate's own tests (that
    // would skew every other test's numbers); install-dependent behaviour is
    // exercised in the bench crate where the allocator is the global one.

    /// Held by every test that moves the shared counters, so a parallel
    /// test's events cannot land between another's reads.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_counters() -> std::sync::MutexGuard<'static, ()> {
        COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_move_with_manual_events() {
        let _counters = lock_counters();
        let before_live = TrackingAllocator::live();
        let before_allocations = TrackingAllocator::allocations();
        on_alloc(1024);
        assert_eq!(TrackingAllocator::live(), before_live + 1024);
        assert!(TrackingAllocator::allocations() > before_allocations);
        assert!(TrackingAllocator::peak() >= before_live + 1024);
        on_dealloc(1024);
        assert_eq!(TrackingAllocator::live(), before_live);
    }

    #[test]
    fn reset_peak_snaps_to_live() {
        let _counters = lock_counters();
        on_alloc(4096);
        on_dealloc(4096);
        TrackingAllocator::reset_peak();
        assert_eq!(TrackingAllocator::peak(), TrackingAllocator::live());
    }

    #[test]
    fn measure_peak_reports_closure_growth() {
        let _counters = lock_counters();
        // Simulate a run that allocates 10 KiB net-zero.
        let (_out, report) = measure_peak(|| {
            on_alloc(10 * 1024);
            on_dealloc(10 * 1024);
        });
        assert!(report.peak_bytes >= 10 * 1024);
        assert!((report.peak_kb() - report.peak_bytes as f64 / 1024.0).abs() < 1e-12);
    }
}
