//! Minimal CSV import/export for datasets and label vectors.
//!
//! Deliberately small: comma-separated `f64` columns, optional trailing
//! integer label column, `#`-prefixed comment lines. This is all the examples
//! and the experiment harness need to round-trip data to disk; no external
//! CSV crate is pulled in.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::dataset::Dataset;
use crate::error::{Error, Result};

/// Reads a dataset (no label column) from a reader.
pub fn read_dataset<R: Read>(reader: R) -> Result<Dataset> {
    let (ds, _labels) = read_rows(reader, false)?;
    Ok(ds)
}

/// Reads a dataset whose **last** column is an integer cluster label
/// (`-1` = noise). Returns the feature dataset and the label vector.
#[expect(clippy::expect_used, reason = "read_rows(labeled=true) returns labels")]
pub fn read_labeled_dataset<R: Read>(reader: R) -> Result<(Dataset, Vec<i32>)> {
    let (ds, labels) = read_rows(reader, true)?;
    Ok((
        ds,
        labels.expect("read_rows(labeled=true) returns labels invariant"),
    ))
}

fn read_rows<R: Read>(reader: R, labeled: bool) -> Result<(Dataset, Option<Vec<i32>>)> {
    let reader = BufReader::new(reader);
    let mut data: Vec<f64> = Vec::new();
    let mut labels: Vec<i32> = Vec::new();
    let mut dims: Option<usize> = None;
    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        let n_features = if labeled {
            fields.len().checked_sub(1).ok_or(Error::Csv {
                line: line_no + 1,
                message: "labeled row needs at least 2 columns".into(),
            })?
        } else {
            fields.len()
        };
        match dims {
            None => dims = Some(n_features),
            Some(d) if d != n_features => {
                return Err(Error::Csv {
                    line: line_no + 1,
                    message: format!("expected {d} feature columns, got {n_features}"),
                })
            }
            _ => {}
        }
        for field in &fields[..n_features] {
            let v: f64 = field.parse().map_err(|_| Error::Csv {
                line: line_no + 1,
                message: format!("bad float `{field}`"),
            })?;
            data.push(v);
        }
        if labeled {
            let l: i32 = fields[n_features].parse().map_err(|_| Error::Csv {
                line: line_no + 1,
                message: format!("bad label `{}`", fields[n_features]),
            })?;
            labels.push(l);
        }
    }
    let dims = dims.ok_or(Error::EmptyDataset)?;
    let ds = Dataset::from_flat(dims, data)?;
    Ok((ds, labeled.then_some(labels)))
}

/// Writes a dataset, optionally with a trailing label column.
pub fn write_dataset<W: Write>(writer: W, ds: &Dataset, labels: Option<&[i32]>) -> Result<()> {
    if let Some(l) = labels {
        assert_eq!(l.len(), ds.len(), "labels length mismatch");
    }
    let mut w = BufWriter::new(writer);
    for (i, p) in ds.iter().enumerate() {
        for (j, v) in p.iter().enumerate() {
            if j > 0 {
                write!(w, ",")?;
            }
            write!(w, "{v}")?;
        }
        if let Some(l) = labels {
            write!(w, ",{}", l[i])?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Convenience: read a dataset from a file path.
pub fn read_dataset_file<P: AsRef<Path>>(path: P) -> Result<Dataset> {
    read_dataset(std::fs::File::open(path)?)
}

/// Convenience: read a labeled dataset from a file path.
pub fn read_labeled_dataset_file<P: AsRef<Path>>(path: P) -> Result<(Dataset, Vec<i32>)> {
    read_labeled_dataset(std::fs::File::open(path)?)
}

/// Convenience: write a dataset (and optional labels) to a file path.
pub fn write_dataset_file<P: AsRef<Path>>(
    path: P,
    ds: &Dataset,
    labels: Option<&[i32]>,
) -> Result<()> {
    write_dataset(std::fs::File::create(path)?, ds, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_unlabeled() {
        let ds = Dataset::from_rows(&[[0.25, 0.5], [0.75, 0.125]]).unwrap();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &ds, None).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn roundtrip_labeled() {
        let ds = Dataset::from_rows(&[[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]).unwrap();
        let labels = vec![0, -1, 1];
        let mut buf = Vec::new();
        write_dataset(&mut buf, &ds, Some(&labels)).unwrap();
        let (back, back_labels) = read_labeled_dataset(&buf[..]).unwrap();
        assert_eq!(back, ds);
        assert_eq!(back_labels, labels);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n0.1,0.2\n  # another\n0.3,0.4\n";
        let ds = read_dataset(text.as_bytes()).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn ragged_rows_rejected() {
        let text = "0.1,0.2\n0.3\n";
        let err = read_dataset(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn bad_float_reported_with_line() {
        let text = "0.1,oops\n";
        let err = read_dataset(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("oops"));
    }

    #[test]
    fn empty_input_is_empty_dataset_error() {
        assert!(matches!(
            read_dataset("".as_bytes()),
            Err(Error::EmptyDataset)
        ));
    }
}
