//! Minimal CSV import/export for datasets and label vectors.
//!
//! Deliberately small; no external CSV crate is pulled in. The accepted
//! dialect:
//!
//! - comma-separated `f64` fields, each with optional surrounding
//!   whitespace; every value must be finite (`NaN` and `inf` are rejected
//!   with their line number);
//! - `#` comment lines and blank lines, skipped anywhere;
//! - LF or CRLF line endings;
//! - an optional leading UTF-8 byte-order mark;
//! - no quoting and no header row (put a header behind `#`);
//! - for the labeled readers, a trailing `i32` label column (`-1` = noise).
//!
//! Every row must have as many fields as the first data row. Errors carry
//! the 1-based line of the file, comment and blank lines included.
//!
//! The reader streams: it holds one reused line buffer, never the whole
//! file, and allocates nothing per line.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::dataset::Dataset;
use crate::error::{Error, Result};

/// The UTF-8 byte-order mark some spreadsheet exports put first.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// Reads a dataset (no label column) from a reader.
///
/// # Errors
/// [`Error::Csv`] with the offending line for a malformed or non-finite
/// field, a ragged row or invalid UTF-8; [`Error::EmptyDataset`] without a
/// data row; [`Error::Io`] when the reader fails; and whatever
/// [`Dataset::from_flat`] rejects (e.g. more than [`MAX_DIMS`](crate::dataset::MAX_DIMS)
/// columns).
pub fn read_dataset<R: Read>(reader: R) -> Result<Dataset> {
    read_rows(reader, None)
}

/// Reads a dataset whose **last** column is an integer cluster label
/// (`-1` = noise). Returns the feature dataset and the label vector.
///
/// # Errors
/// As [`read_dataset`], plus [`Error::Csv`] for a label that is not an
/// `i32`. A row of one field has a label and no feature columns.
pub fn read_labeled_dataset<R: Read>(reader: R) -> Result<(Dataset, Vec<i32>)> {
    let mut labels = Vec::new();
    let ds = read_rows(reader, Some(&mut labels))?;
    Ok((ds, labels))
}

fn csv_error(line: usize, message: impl Into<String>) -> Error {
    Error::Csv {
        line,
        message: message.into(),
    }
}

/// The one reader behind both entry points: the label column is split off
/// and parsed into `labels` when it is given.
fn read_rows<R: Read>(reader: R, mut labels: Option<&mut Vec<i32>>) -> Result<Dataset> {
    let mut reader = BufReader::new(reader);
    let mut buf: Vec<u8> = Vec::new();
    let mut data: Vec<f64> = Vec::new();
    let mut dims: Option<usize> = None;
    let mut line_no = 0;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let bytes = match buf.strip_prefix(BOM) {
            Some(rest) if line_no == 1 => rest,
            _ => &buf,
        };
        let line = std::str::from_utf8(bytes)
            .map_err(|_| csv_error(line_no, "invalid UTF-8"))?
            .trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (features, label) = match (labels.is_some(), line.rsplit_once(',')) {
            (false, _) => (Some(line), None),
            (true, Some((features, label))) => (Some(features), Some(label.trim())),
            // A lone field is the label: the row has no feature column.
            (true, None) => (None, Some(line)),
        };
        let fields = || features.into_iter().flat_map(|f| f.split(','));
        // A ragged row is reported before any bad field in it, so the
        // width is checked on the error path as well as after the row.
        let ragged = |n_features: usize| match dims {
            Some(d) if d != n_features => Some(csv_error(
                line_no,
                format!("expected {d} feature columns, got {n_features}"),
            )),
            _ => None,
        };
        let row_start = data.len();
        for field in fields().map(str::trim) {
            let message = match field.parse::<f64>() {
                Ok(v) if v.is_finite() => {
                    data.push(v);
                    continue;
                }
                Ok(_) => format!("non-finite value `{field}`"),
                Err(_) => format!("bad float `{field}`"),
            };
            return Err(ragged(fields().count()).unwrap_or_else(|| csv_error(line_no, message)));
        }
        let n_features = data.len() - row_start;
        if let Some(e) = ragged(n_features) {
            return Err(e);
        }
        dims = Some(n_features);
        if let (Some(labels), Some(label)) = (labels.as_deref_mut(), label) {
            let l = label
                .parse()
                .map_err(|_| csv_error(line_no, format!("bad label `{label}`")))?;
            labels.push(l);
        }
    }
    let dims = dims.ok_or(Error::EmptyDataset)?;
    Dataset::from_flat(dims, data)
}

/// Writes a dataset, optionally with a trailing label column. Each value is
/// written in its shortest round-trip form, so reading the file back gives
/// bit-identical values.
///
/// # Errors
/// [`Error::DimensionMismatch`] when `labels` does not hold one label per
/// point; [`Error::Io`] when the writer fails.
pub fn write_dataset<W: Write>(writer: W, ds: &Dataset, labels: Option<&[i32]>) -> Result<()> {
    if let Some(l) = labels {
        if l.len() != ds.len() {
            return Err(Error::DimensionMismatch {
                expected: ds.len(),
                got: l.len(),
            });
        }
    }
    let mut w = BufWriter::new(writer);
    let mut labels = labels.map(<[i32]>::iter);
    for p in ds.iter() {
        for (j, v) in p.iter().enumerate() {
            if j > 0 {
                write!(w, ",")?;
            }
            write!(w, "{v}")?;
        }
        if let Some(l) = labels.as_mut().and_then(Iterator::next) {
            write!(w, ",{l}")?;
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
    fn labels_length_mismatch_is_an_error() {
        let ds = Dataset::from_rows(&[[0.1], [0.2]]).unwrap();
        let err = write_dataset(Vec::new(), &ds, Some(&[0])).unwrap_err();
        assert!(matches!(
            err,
            Error::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn ragged_row_reported_before_its_bad_field() {
        let err = read_dataset("0.1,0.2\n0.3,x,0.5\n".as_bytes()).unwrap_err();
        assert!(err
            .to_string()
            .contains("expected 2 feature columns, got 3"));
    }

    #[test]
    fn empty_input_is_empty_dataset_error() {
        assert!(matches!(
            read_dataset("".as_bytes()),
            Err(Error::EmptyDataset)
        ));
    }
}
