//! Hand-rolled argument parsing (no external CLI crate).
//!
//! Grammar: `mrcc <command> [--flag value]...`. Every flag takes exactly one
//! value; unknown flags and missing values are hard errors with a hint.

use std::collections::BTreeMap;
use std::path::PathBuf;

use mrcc_bench::MethodKind;

use crate::CliResult;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mrcc cluster`: read a CSV, cluster, write labels.
    Cluster {
        /// Input CSV of raw features.
        input: PathBuf,
        /// Output CSV (features + trailing label column); stdout when absent.
        output: Option<PathBuf>,
        /// Clustering method.
        method: MethodKind,
        /// MrCC significance level α.
        alpha: f64,
        /// MrCC resolution count H.
        resolutions: usize,
        /// Cluster count for methods that need one.
        clusters: Option<usize>,
        /// Known noise fraction (HARP).
        noise: f64,
        /// Emit a JSON cluster summary instead of prose.
        json: bool,
    },
    /// `mrcc generate`: write a synthetic dataset (+ ground-truth labels).
    Generate {
        /// Space dimensionality.
        dims: usize,
        /// Number of points.
        points: usize,
        /// Number of hidden clusters.
        clusters: usize,
        /// Noise fraction.
        noise: f64,
        /// Random plane rotations.
        rotations: usize,
        /// RNG seed.
        seed: u64,
        /// Output CSV path; stdout when absent.
        output: Option<PathBuf>,
    },
    /// `mrcc evaluate`: score a labeled clustering against labeled truth.
    Evaluate {
        /// CSV with found labels in the last column.
        found: PathBuf,
        /// CSV with ground-truth labels in the last column.
        truth: PathBuf,
        /// Emit JSON.
        json: bool,
    },
    /// `mrcc info`: dataset shape and per-axis ranges.
    Info {
        /// Input CSV.
        input: PathBuf,
    },
    /// `mrcc help` or `--help`.
    Help,
}

/// Usage text shown by `mrcc help` and on parse errors.
pub const USAGE: &str = "\
usage: mrcc <command> [options]

commands:
  cluster   --input FILE [--output FILE] [--method mrcc|lac|epch|cfpc|p3c|harp|clique|proclus|sting]
            [--alpha 1e-10] [--resolutions 4] [--clusters K] [--noise 0.15]
            [--json true]
  generate  --dims D --points N --clusters K [--noise 0.15] [--rotations 0]
            [--seed 42] [--output FILE]
  evaluate  --found FILE --truth FILE [--json true]
  info      --input FILE
  help
";

/// Splits `--flag value` pairs into a map; rejects unknown shapes.
fn flag_map(args: &[String]) -> CliResult<BTreeMap<String, String>> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`\n{USAGE}"));
        };
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value\n{USAGE}"));
        };
        if map.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{name} given twice"));
        }
    }
    Ok(map)
}

fn take<T: std::str::FromStr>(
    map: &mut BTreeMap<String, String>,
    name: &str,
) -> CliResult<Option<T>> {
    match map.remove(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
    }
}

fn require<T: std::str::FromStr>(map: &mut BTreeMap<String, String>, name: &str) -> CliResult<T> {
    take(map, name)?.ok_or_else(|| format!("missing required flag --{name}\n{USAGE}"))
}

fn reject_leftovers(map: BTreeMap<String, String>) -> CliResult<()> {
    if let Some(name) = map.into_keys().next() {
        return Err(format!("unknown flag --{name}\n{USAGE}"));
    }
    Ok(())
}

/// The `--method` value as a method, MrCC when absent.
fn parse_method(name: Option<String>) -> CliResult<MethodKind> {
    name.map_or(Ok(MethodKind::MrCC), |name| {
        MethodKind::parse(&name).ok_or_else(|| format!("unknown method `{name}`\n{USAGE}"))
    })
}

/// Parses a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> CliResult<Command> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "cluster" => {
            let mut map = flag_map(rest)?;
            let command = Command::Cluster {
                input: require::<PathBuf>(&mut map, "input")?,
                output: take::<PathBuf>(&mut map, "output")?,
                method: parse_method(take(&mut map, "method")?)?,
                alpha: take(&mut map, "alpha")?.unwrap_or(1e-10),
                resolutions: take(&mut map, "resolutions")?.unwrap_or(4),
                clusters: take(&mut map, "clusters")?,
                noise: take(&mut map, "noise")?.unwrap_or(0.15),
                json: take(&mut map, "json")?.unwrap_or(false),
            };
            reject_leftovers(map)?;
            if let Command::Cluster {
                method, clusters, ..
            } = &command
            {
                if method.needs_k() && clusters.is_none() {
                    return Err(format!("method {method:?} requires --clusters K"));
                }
                if *clusters == Some(0) {
                    return Err("--clusters must be at least 1".to_string());
                }
            }
            Ok(command)
        }
        "generate" => {
            let mut map = flag_map(rest)?;
            let command = Command::Generate {
                dims: require(&mut map, "dims")?,
                points: require(&mut map, "points")?,
                clusters: require(&mut map, "clusters")?,
                noise: take(&mut map, "noise")?.unwrap_or(0.15),
                rotations: take(&mut map, "rotations")?.unwrap_or(0),
                seed: take(&mut map, "seed")?.unwrap_or(42),
                output: take::<PathBuf>(&mut map, "output")?,
            };
            reject_leftovers(map)?;
            Ok(command)
        }
        "evaluate" => {
            let mut map = flag_map(rest)?;
            let command = Command::Evaluate {
                found: require::<PathBuf>(&mut map, "found")?,
                truth: require::<PathBuf>(&mut map, "truth")?,
                json: take(&mut map, "json")?.unwrap_or(false),
            };
            reject_leftovers(map)?;
            Ok(command)
        }
        "info" => {
            let mut map = flag_map(rest)?;
            let command = Command::Info {
                input: require::<PathBuf>(&mut map, "input")?,
            };
            reject_leftovers(map)?;
            Ok(command)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&v(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn cluster_defaults() {
        let c = parse_args(&v(&["cluster", "--input", "a.csv"])).unwrap();
        match c {
            Command::Cluster {
                input,
                method,
                alpha,
                resolutions,
                json,
                ..
            } => {
                assert_eq!(input, PathBuf::from("a.csv"));
                assert_eq!(method, MethodKind::MrCC);
                assert!(exactly(alpha, 1e-10));
                assert_eq!(resolutions, 4);
                assert!(!json);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn cluster_full_flags() {
        let c = parse_args(&v(&[
            "cluster",
            "--input",
            "a.csv",
            "--output",
            "b.csv",
            "--method",
            "lac",
            "--clusters",
            "7",
            "--alpha",
            "1e-5",
            "--json",
            "true",
        ]))
        .unwrap();
        match c {
            Command::Cluster {
                method,
                clusters,
                alpha,
                json,
                output,
                ..
            } => {
                assert_eq!(method, MethodKind::Lac);
                assert_eq!(clusters, Some(7));
                assert!(exactly(alpha, 1e-5));
                assert!(json);
                assert_eq!(output, Some(PathBuf::from("b.csv")));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn k_requiring_methods_enforce_clusters() {
        let err = parse_args(&v(&["cluster", "--input", "a.csv", "--method", "harp"])).unwrap_err();
        assert!(err.contains("--clusters"));
        let args: Vec<_> = "cluster --input a.csv --method lac --clusters 0"
            .split(' ')
            .collect();
        let err = parse_args(&v(&args)).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn unknown_flags_rejected() {
        let err = parse_args(&v(&["cluster", "--input", "a.csv", "--wat", "1"])).unwrap_err();
        assert!(err.contains("--wat"));
        let err = parse_args(&v(&["cluster", "--input"])).unwrap_err();
        assert!(err.contains("needs a value"));
        let err = parse_args(&v(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn duplicate_flags_rejected() {
        let err = parse_args(&v(&["cluster", "--input", "a.csv", "--input", "b.csv"])).unwrap_err();
        assert!(err.contains("twice"));
    }

    #[test]
    fn generate_requires_shape() {
        let err = parse_args(&v(&["generate", "--dims", "5"])).unwrap_err();
        assert!(err.contains("--points"));
        let ok = parse_args(&v(&[
            "generate",
            "--dims",
            "5",
            "--points",
            "100",
            "--clusters",
            "2",
        ]))
        .unwrap();
        assert!(matches!(
            ok,
            Command::Generate {
                dims: 5,
                points: 100,
                clusters: 2,
                ..
            }
        ));
    }

    #[test]
    fn method_aliases() {
        let method = |name: &str| parse_method(Some(name.to_string()));
        assert_eq!(method("doc").unwrap(), MethodKind::Cfpc);
        assert_eq!(method("MrCC").unwrap(), MethodKind::MrCC);
        assert!(method("statpc")
            .unwrap_err()
            .contains("unknown method `statpc`"));
    }
}
