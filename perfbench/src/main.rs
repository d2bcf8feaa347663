//! `perfbench`: one run of one workload.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] \
//!     [--scale <f>] [--work-dir <dir>]
//! ```
//!
//! The run generates the workload from the seed, writes it to CSV, and for
//! `--seconds` repeats the user's path: read the CSV and normalize it, fit,
//! compute soft memberships. With `--trace 1` each repetition instead calls
//! the layer functions one by one inside spans (see `layers.rs`) next to one
//! untraced fit. Every fit is checked (see `gate.rs`). Human-readable lines
//! come first on stdout; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A report with the host fingerprint and
//! every sample, and with `--trace 1` the spans, is written to the work
//! directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mrcc::{MrCC, MrCCConfig, MrCCResult};
use mrcc_common::{csv, Dataset, SubspaceClustering};
use mrcc_eval::{measure_peak, TrackingAllocator};
use perfbench::gate::{guarded, quality, quality_floor, same_outcome, Ledger, Outcome};
use perfbench::layers::{self, PARALLEL, SERIAL};
use perfbench::trace::Tracer;
use perfbench::workload::{self, Workload};
use perfbench::{median, quantile, Stopwatch, END_TO_END, PER_LAYER};
use serde_json::Value;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Repetitions a run makes even when `--seconds` has already passed.
const MIN_REPETITIONS: usize = 3;

/// `soft_memberships` is called repeatedly after each fit until the calls
/// add up to this many seconds.
const SOFT_SECONDS_PER_FIT: f64 = 0.1;

/// Quantile of its CPU-time samples an end-to-end time reports for a call
/// on one thread: the minimum. Other tenants of a shared host slow such a
/// call by up to 50 % for seconds to minutes at a time and never speed it
/// up, so the fastest sample is the call's own cost, where the median jumps
/// with the share of a run that was slowed (see README.md, "Noise").
const SERIAL_TIME_QUANTILE: f64 = 0.0;

/// The same for a fit on several threads: the median. Its threads wait for
/// each other, so a host that stalls one of them can make the fit cheaper
/// as well as dearer, and the minimum would be an outlier.
const PARALLEL_TIME_QUANTILE: f64 = 0.5;

/// Threads of the `*.par_s` calls, capped at the host's parallelism.
const PAR_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    scale: f64,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let default_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-work");
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        work_dir: default_dir,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(args.seconds >= 0.0 && args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--seconds must be ≥ 0 and --scale in (0, 1]".to_string());
    }
    Ok(args)
}

/// The host fingerprint every report carries.
struct Host {
    nproc: String,
    available_parallelism: usize,
}

impl Host {
    fn probe() -> Host {
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// What one run needs besides its mode.
struct Bench {
    workload: Workload,
    csv: PathBuf,
    truth: SubspaceClustering,
    n_points: f64,
    threads: usize,
    par_threads: usize,
    seconds: Duration,
}

impl Bench {
    fn keep_going(&self, repetitions: usize, start: Instant) -> bool {
        repetitions < MIN_REPETITIONS || start.elapsed() < self.seconds
    }
}

/// Samples per metric name, in the order taken.
type Samples = BTreeMap<&'static str, Vec<f64>>;

/// What a run measured.
struct Run {
    ledger: Ledger,
    samples: Samples,
    metrics: Vec<(&'static str, &'static str, f64)>,
    tracer: Option<Tracer>,
}

fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

/// Quantile `q` of the samples taken for `name`; NaN when there are none.
fn quantile_of(samples: &Samples, name: &str, q: f64) -> f64 {
    quantile(samples.get(name).map_or(&[], Vec::as_slice), q)
}

/// Wall and CPU seconds of one timed call.
#[derive(Debug, Clone, Copy)]
struct Took {
    wall_s: f64,
    cpu_s: f64,
}

impl Took {
    fn since(watch: Stopwatch) -> Took {
        Took {
            wall_s: watch.wall_s(),
            cpu_s: watch.cpu_s(),
        }
    }

    /// Records the CPU time as `name` and the wall time as `wall_name`.
    fn push(self, samples: &mut Samples, name: &'static str, wall_name: &'static str) {
        push(samples, name, self.cpu_s);
        push(samples, wall_name, self.wall_s);
    }
}

/// The user's set-up: read the CSV, validate, normalize into `[0,1)^d`.
fn load(path: &Path) -> Result<(Dataset, Took), String> {
    let watch = Stopwatch::start();
    let mut ds = csv::read_dataset_file(path).map_err(|e| e.to_string())?;
    ds.normalize_unit().map_err(|e| e.to_string())?;
    Ok((ds, Took::since(watch)))
}

/// One untraced fit: the result, its times and its net heap peak.
fn timed_fit(mrcc: &MrCC, ds: &Dataset) -> Result<(MrCCResult, Took, usize), String> {
    let ((fitted, took), memory) = measure_peak(|| {
        let watch = Stopwatch::start();
        let fitted = guarded(|| mrcc.fit(ds).map_err(|e| e.to_string()));
        (fitted, Took::since(watch))
    });
    fitted.map(|result| (result, took, memory.peak_bytes))
}

/// Times of one `soft_memberships` call.
fn timed_soft(result: &MrCCResult, ds: &Dataset) -> Result<Took, String> {
    guarded(|| {
        let watch = Stopwatch::start();
        std::hint::black_box(result.soft_memberships(ds));
        Ok(Took::since(watch))
    })
}

fn check_quality(b: &Bench, result: &MrCCResult) -> (f64, Result<(), String>) {
    let q = quality(&result.clustering, &b.truth);
    (q, quality_floor(q, b.workload.quality_floor))
}

/// End-to-end run: set-up, fit and soft memberships, untraced, repeated for
/// the run's seconds; then the once-per-run composition and thread checks.
fn untraced(b: &Bench) -> Result<Run, String> {
    let mrcc = MrCC::new(MrCCConfig::default().with_threads(b.threads));
    let mut samples = Samples::new();
    let mut ledger = Ledger::default();
    let mut reference: Option<Outcome> = None;
    let mut last_ds: Option<Dataset> = None;
    let start = Instant::now();
    let mut repetitions = 0;
    while b.keep_going(repetitions, start) {
        repetitions += 1;
        let (ds, setup) = load(&b.csv)?;
        setup.push(&mut samples, "setup_s", "setup_wall_s");
        match timed_fit(&mrcc, &ds) {
            Ok((result, fit, peak_bytes)) => {
                let (q, floor) = check_quality(b, &result);
                ledger.record("fit", floor);
                fit.push(&mut samples, "fit_s", "fit_wall_s");
                push(&mut samples, "peak_mb", peak_bytes as f64 * 1e-6);
                push(&mut samples, "quality", q);
                // A call takes milliseconds on the smaller workloads, so
                // each fit gets several.
                let mut soft_total = 0.0;
                while soft_total < SOFT_SECONDS_PER_FIT {
                    match timed_soft(&result, &ds) {
                        Ok(soft) => {
                            ledger.record("soft_memberships", Ok(()));
                            soft.push(&mut samples, "soft_s", "soft_wall_s");
                            soft_total += soft.wall_s;
                        }
                        Err(e) => {
                            ledger.record("soft_memberships", Err(e));
                            break;
                        }
                    }
                }
                reference.get_or_insert_with(|| Outcome::of(&result));
            }
            Err(e) => ledger.record("fit", Err(e)),
        }
        last_ds = Some(ds);
    }

    // Untimed, once per run: the layer-by-layer composition must reproduce
    // the fit, and a multi-threaded fit must equal the serial one.
    if let (Some(reference), Some(ds)) = (&reference, &last_ds) {
        let names = if b.threads > 1 { PARALLEL } else { SERIAL };
        let config = MrCCConfig::default().with_threads(b.threads);
        let composed = guarded(|| layers::compose(&mut Tracer::default(), ds, &config, names));
        ledger.record(
            "composition",
            composed.and_then(|c| same_outcome(reference, &Outcome::of(&c.result))),
        );
        if b.threads > 1 {
            let serial = guarded(|| MrCC::default().fit(ds).map_err(|e| e.to_string()));
            ledger.record(
                "serial-equivalence",
                serial.and_then(|r| same_outcome(reference, &Outcome::of(&r))),
            );
        }
    }

    let time = |name| quantile_of(&samples, name, SERIAL_TIME_QUANTILE);
    let fit_quantile = if b.threads > 1 {
        PARALLEL_TIME_QUANTILE
    } else {
        SERIAL_TIME_QUANTILE
    };
    let fit_s = quantile_of(&samples, "fit_s", fit_quantile);
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", time("setup_s")),
        ("fit_s", fit_s),
        ("points_per_s", b.n_points / fit_s),
        ("soft_s", time("soft_s")),
        ("peak_mb", quantile_of(&samples, "peak_mb", 0.5)),
        ("quality", quantile_of(&samples, "quality", 0.5)),
    ]);
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, values[name]))
        .collect();
    Ok(Run {
        ledger,
        samples,
        metrics,
        tracer: None,
    })
}

/// Exact counts of one traced repetition; they must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    tree_cells: usize,
    tree_bytes: usize,
    betas: usize,
    stats_tests: usize,
    containments: usize,
    unions: usize,
    shared_points: usize,
}

/// Traced run: each repetition reads and normalizes the CSV, composes the
/// fit serially and at the parallel thread count with a span per layer,
/// adds one convolution pass, the statistics replay and soft memberships,
/// and then makes one untraced fit to compare against.
fn traced(b: &Bench) -> Result<Run, String> {
    let serial_config = MrCCConfig::default();
    let par_config = MrCCConfig::default().with_threads(b.par_threads);
    let mirror = if b.threads > 1 { PARALLEL } else { SERIAL };
    let mrcc = MrCC::new(MrCCConfig::default().with_threads(b.threads));
    let mut tracer = Tracer::default();
    let mut samples = Samples::new();
    let mut ledger = Ledger::default();
    let mut first_counts: Option<Counts> = None;
    let start = Instant::now();
    let mut repetitions = 0;
    while b.keep_going(repetitions, start) {
        repetitions += 1;
        tracer.open("repetition");
        tracer.open("setup");
        let mut ds = tracer
            .span("csv.read", || csv::read_dataset_file(&b.csv))
            .map_err(|e| e.to_string())?;
        tracer
            .span("dataset.normalize", || ds.normalize_unit())
            .map_err(|e| e.to_string())?;
        tracer.close();

        let serial = guarded(|| layers::compose(&mut tracer, &ds, &serial_config, SERIAL));
        let par = guarded(|| layers::compose(&mut tracer, &ds, &par_config, PARALLEL));
        let (serial, par) = match (serial, par) {
            (Ok(serial), Ok(par)) => (serial, par),
            (Err(e), _) | (_, Err(e)) => {
                ledger.record("composition", Err(e));
                tracer.close_to(0);
                break;
            }
        };
        tracer.span("conv.pass", || {
            layers::convolution_pass(&serial.tree, &serial_config)
        });
        let (stats_tests, mismatches) = tracer.span("stats.replay", || {
            layers::stats_replay(&serial.result.beta_clusters, &serial_config)
        });
        ledger.record(
            "stats-replay",
            if mismatches == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{mismatches} critical values differ from the search's"
                ))
            },
        );
        let soft = guarded(|| Ok(tracer.span("soft", || serial.result.soft_memberships(&ds))));
        tracer.close_to(0);
        let shared_points = match soft {
            Ok(soft) => soft.n_shared_points(),
            Err(e) => {
                ledger.record("soft_memberships", Err(e));
                break;
            }
        };
        ledger.record("soft_memberships", Ok(()));

        let counts = Counts {
            tree_cells: layers::convolvable_cells(&serial.tree),
            tree_bytes: serial.result.stats.tree_memory_bytes,
            betas: serial.result.n_beta_clusters(),
            stats_tests,
            containments: layers::containments(&serial.result),
            unions: layers::unions(&serial.result),
            shared_points,
        };
        let first = first_counts.get_or_insert_with(|| counts.clone());
        ledger.record(
            "exact-counts",
            if *first == counts {
                Ok(())
            } else {
                Err(format!(
                    "{counts:?} differ from the first repetition's {first:?}"
                ))
            },
        );

        // The untraced fit the composition must reproduce.
        let (result, fit, _) = match timed_fit(&mrcc, &ds) {
            Ok(fitted) => fitted,
            Err(e) => {
                ledger.record("fit", Err(e));
                break;
            }
        };
        ledger.record("fit", check_quality(b, &result).1);
        // The spans are wall times, so these comparisons use the fit's.
        let fit_s = fit.wall_s;
        push(&mut samples, "fit_s", fit_s);
        push(
            &mut samples,
            "fit.glue_s",
            fit_s - result.stats.total_time().as_secs_f64(),
        );
        // The traced and the untraced fit of one repetition run close
        // together, so their ratio sees the same host load.
        let traced_s = tracer.durations(mirror.fit).last().copied();
        push(
            &mut samples,
            "trace.overhead",
            traced_s.map_or(f64::NAN, |t| t / fit_s - 1.0),
        );
        let reference = Outcome::of(&result);
        let mirrored = if b.threads > 1 { &par } else { &serial };
        ledger.record(
            "composition",
            same_outcome(&reference, &Outcome::of(&mirrored.result)),
        );
        ledger.record(
            "serial-equivalence",
            same_outcome(&Outcome::of(&serial.result), &Outcome::of(&par.result)),
        );
    }

    let span = |name: &str| median(&tracer.durations(name));
    let counts = first_counts.ok_or("no traced repetition completed")?;
    let (build, search, merge) = (span("tree.build"), span("search"), span("merge"));
    let conv = span("conv.pass");
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("csv.read_s", span("csv.read")),
        ("dataset.normalize_s", span("dataset.normalize")),
        ("tree.build_s", build),
        ("tree.build.par_s", span("tree.build.par")),
        ("tree.ns_per_point", build / b.n_points * 1e9),
        ("tree.cells", counts.tree_cells as f64),
        ("tree.bytes", counts.tree_bytes as f64),
        ("conv.pass_s", conv),
        ("conv.ns_per_cell", conv / counts.tree_cells as f64 * 1e9),
        ("search.s", search),
        ("search.par_s", span("search.par")),
        ("search.share", search / (build + search + merge)),
        ("search.reconv_ratio", search / conv),
        ("search.betas", counts.betas as f64),
        ("stats.test_s", span("stats.replay")),
        ("stats.tests", counts.stats_tests as f64),
        ("merge.s", merge),
        ("merge.par_s", span("merge.par")),
        ("merge.points_per_s", b.n_points / merge),
        ("merge.containments", counts.containments as f64),
        ("merge.unions", counts.unions as f64),
        ("soft.shared_points", counts.shared_points as f64),
        ("fit.glue_s", quantile_of(&samples, "fit.glue_s", 0.5)),
        (
            "trace.overhead",
            quantile_of(&samples, "trace.overhead", 0.5),
        ),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values[name]))
        .collect();
    Ok(Run {
        ledger,
        samples,
        metrics,
        tracer: Some(tracer),
    })
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = workload::find(&args.workload)?;
    let seed = args.seed.unwrap_or(workload.default_seed);
    let host = Host::probe();
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let tag = format!("{}-{seed}-trace{}", workload.name, u8::from(args.trace));
    let csv_path = args.work_dir.join(format!("{tag}.csv"));

    let input = workload.input(seed, args.scale);
    csv::write_dataset_file(&csv_path, &input.dataset, None).map_err(|e| e.to_string())?;
    let dims = input.dataset.dims();
    let bench = Bench {
        threads: workload.threads_on(host.available_parallelism),
        par_threads: PAR_THREADS.min(host.available_parallelism),
        n_points: input.dataset.len() as f64,
        truth: input.truth,
        csv: csv_path.clone(),
        seconds: Duration::from_secs_f64(args.seconds),
        workload,
    };
    drop(input.dataset);

    let outcome = if args.trace {
        traced(&bench)
    } else {
        untraced(&bench)
    };
    // The CSV is input only; a failed removal leaves a file under the work
    // directory and is not worth failing the run for.
    let _ = std::fs::remove_file(&csv_path);
    let run = outcome?;

    let rustc = env!("PERFBENCH_RUSTC");
    let git_rev = env!("PERFBENCH_GIT_REV");
    println!(
        "workload {} seed {seed} points {} dims {} threads {} par_threads {} trace {}",
        bench.workload.name,
        bench.n_points,
        dims,
        bench.threads,
        bench.par_threads,
        u8::from(args.trace)
    );
    println!(
        "host nproc {} available_parallelism {} rustc \"{rustc}\" git_rev {git_rev}",
        host.nproc, host.available_parallelism
    );
    for (name, values) in &run.samples {
        println!("samples {name} {}", values.len());
    }
    let self_times: Vec<(String, Value)> = run
        .tracer
        .as_ref()
        .map(|t| {
            t.self_times()
                .into_iter()
                .map(|(name, v)| (name.to_string(), Value::from(median(&v))))
                .collect()
        })
        .unwrap_or_default();
    for (name, value) in &self_times {
        println!("self {name} {value} s");
    }
    for (name, unit, value) in &run.metrics {
        println!("metric {name} {value} {unit}");
    }

    let metrics = Value::Object(
        run.metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::from(value)),
                        ("unit".to_string(), Value::from(unit)),
                    ]),
                )
            })
            .collect(),
    );
    let report = Value::Object(vec![
        (
            "workload".to_string(),
            Value::from(bench.workload.name.as_str()),
        ),
        ("seed".to_string(), Value::from(seed)),
        ("points".to_string(), Value::from(bench.n_points)),
        ("dims".to_string(), Value::from(dims)),
        ("threads".to_string(), Value::from(bench.threads)),
        ("par_threads".to_string(), Value::from(bench.par_threads)),
        ("seconds".to_string(), Value::from(args.seconds)),
        (
            "host".to_string(),
            Value::Object(vec![
                ("nproc".to_string(), Value::from(host.nproc.as_str())),
                (
                    "available_parallelism".to_string(),
                    Value::from(host.available_parallelism),
                ),
                ("rustc".to_string(), Value::from(rustc)),
                ("git_rev".to_string(), Value::from(git_rev)),
            ]),
        ),
        ("metrics".to_string(), metrics.clone()),
        (
            "samples".to_string(),
            Value::Object(
                run.samples
                    .iter()
                    .map(|(name, v)| (name.to_string(), Value::from(v.clone())))
                    .collect(),
            ),
        ),
        ("self_times_s".to_string(), Value::Object(self_times)),
        (
            "failures".to_string(),
            Value::from(run.ledger.failures.clone()),
        ),
    ]);
    let report_path = args.work_dir.join(format!("{tag}.report.json"));
    write_json(&report_path, &report)?;
    println!("report {}", report_path.display());
    if let Some(tracer) = &run.tracer {
        let spans_path = args.work_dir.join(format!("{tag}.spans.json"));
        write_json(&spans_path, &tracer.to_json())?;
        println!("spans {}", spans_path.display());
    }

    let last = Value::Object(vec![
        ("correct".to_string(), Value::from(run.ledger.failed == 0)),
        ("attempted".to_string(), Value::from(run.ledger.attempted)),
        ("failed".to_string(), Value::from(run.ledger.failed)),
        ("metrics".to_string(), metrics),
    ]);
    println!("{last}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
