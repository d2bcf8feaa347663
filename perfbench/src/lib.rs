//! Benchmark of MrCC fits: end-to-end metrics from untraced calls to the
//! public entry points, per-layer metrics from a traced run that calls the
//! layer functions in the order `MrCC::fit` calls them.
//!
//! `src/main.rs` is the command; this library holds the pieces it and the
//! self-test share.

pub mod gate;
pub mod layers;
pub mod trace;
pub mod workload;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("points_per_s", "pts/s"),
    ("soft_s", "s"),
    ("peak_mb", "MB"),
    ("quality", "ratio"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("csv.read_s", "s"),
    ("dataset.normalize_s", "s"),
    ("tree.build_s", "s"),
    ("tree.build.par_s", "s"),
    ("tree.ns_per_point", "ns"),
    ("tree.cells", "count"),
    ("tree.bytes", "bytes"),
    ("conv.pass_s", "s"),
    ("conv.ns_per_cell", "ns"),
    ("search.s", "s"),
    ("search.par_s", "s"),
    ("search.share", "ratio"),
    ("search.reconv_ratio", "ratio"),
    ("search.betas", "count"),
    ("stats.test_s", "s"),
    ("stats.tests", "count"),
    ("merge.s", "s"),
    ("merge.par_s", "s"),
    ("merge.points_per_s", "pts/s"),
    ("merge.containments", "count"),
    ("merge.unions", "count"),
    ("soft.shared_points", "count"),
    ("fit.glue_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Wall-clock and CPU seconds since a common start.
///
/// CPU time is `CLOCK_PROCESS_CPUTIME_ID`: the time every thread of this
/// process ran, user and system. On a virtual machine whose kernel accounts
/// paravirtual steal time, it excludes the time the host ran other guests on
/// this guest's CPUs, which wall time includes.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu: process_cpu_seconds(),
        }
    }

    /// Wall-clock seconds since `start`.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds of this process since `start`, summed over its threads.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_seconds() - self.cpu
    }
}

/// CPU seconds this process has used so far, summed over its threads.
///
/// # Panics
/// Panics if the clock cannot be read, which Linux rules out for this clock.
fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    // The value of `CLOCK_PROCESS_CPUTIME_ID` in Linux's <time.h>.
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec`, whose layout
    // `Timespec` reproduces, through a pointer to a live local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Quantile `q` in `[0, 1]` of `values`, interpolating linearly between
/// the two nearest order statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let below = pos.floor() as usize;
    let above = pos.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (pos - below as f64)
}

/// Median of `values` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let eleven: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&eleven, 0.1), 1.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.1), 1.0);
        assert_eq!(quantile(&[5.0], 0.1), 5.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let watch = Stopwatch::start();
        let mut last = process_cpu_seconds();
        let mut x = 1u64;
        while watch.cpu_s() < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(3));
            let now = process_cpu_seconds();
            assert!(now >= last, "{now} < {last}");
            last = now;
        }
        assert!(watch.wall_s() > 0.0);
    }
}
