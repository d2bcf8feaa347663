//! The streaming CSV reader against the line-by-line reader it replaced.
//!
//! `line_reader` below is that reader, kept here as the reference: one
//! `String` per line from `BufRead::lines`, fields collected into a `Vec`.
//! On random text, both must give bit-equal datasets and labels, or the same
//! error. The new reader differs on purpose in exactly three ways, each
//! checked by name in [`Fix`]:
//!
//! - a leading UTF-8 byte-order mark is skipped;
//! - invalid UTF-8 is `Error::Csv` at its line, not a line-less I/O error;
//! - `NaN` and `inf` are `Error::Csv` at their line, not
//!   `Error::NonFiniteValue` from `Dataset::from_flat` with a data-row index.

use std::io::{BufRead, BufReader, ErrorKind, Read};

use mrcc_common::{csv, Dataset, Error, Result};
use proptest::prelude::*;

const BOM: &[u8] = b"\xEF\xBB\xBF";

/// The reader as it was before it streamed through one reused buffer.
fn line_reader<R: Read>(reader: R, labeled: bool) -> Result<(Dataset, Option<Vec<i32>>)> {
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

fn new_reader(text: &[u8], labeled: bool) -> Result<(Dataset, Option<Vec<i32>>)> {
    if labeled {
        csv::read_labeled_dataset(text).map(|(ds, labels)| (ds, Some(labels)))
    } else {
        csv::read_dataset(text).map(|ds| (ds, None))
    }
}

/// The deliberate differences between the two readers.
#[derive(Debug)]
enum Fix {
    InvalidUtf8,
    NonFinite,
}

/// The first `n` lines of `text`, newlines included.
fn first_lines(text: &[u8], n: usize) -> &[u8] {
    let Some(last) = n.checked_sub(1) else {
        return &[];
    };
    let end = text
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(last)
        .map_or(text.len(), |(i, _)| i + 1);
    &text[..end]
}

/// Checks that the new reader on `text` agrees with the reference on `text`
/// without a leading BOM (the first fix), up to the other two fixes.
fn check(text: &[u8], labeled: bool) -> Option<Fix> {
    let body = text.strip_prefix(BOM).unwrap_or(text);
    let new = new_reader(text, labeled);
    let old = line_reader(body, labeled);
    match (new, old) {
        (Ok((a, la)), Ok((b, lb))) => {
            assert_eq!(a.dims(), b.dims());
            let bits = |ds: &Dataset| ds.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
            assert_eq!(la, lb);
            None
        }
        (Err(Error::Csv { line, message }), old) if message == "invalid UTF-8" => {
            // The reference stops with an I/O error at the same line: every
            // line before it is valid UTF-8 and reads the same.
            assert!(
                matches!(&old, Err(Error::Io(e)) if e.kind() == ErrorKind::InvalidData),
                "{old:?}"
            );
            let before = first_lines(body, line - 1);
            assert!(std::str::from_utf8(before).is_ok());
            assert!(std::str::from_utf8(first_lines(body, line)).is_err());
            Some(Fix::InvalidUtf8)
        }
        (Err(Error::Csv { line, message }), _) if message.starts_with("non-finite value") => {
            // The reference reads up to that line and either rejects the
            // value in `from_flat`, at the data row the line holds, or
            // fails on another field of the same line.
            match line_reader(first_lines(body, line), labeled) {
                Err(Error::NonFiniteValue { row, .. }) => {
                    let data_rows_before = std::str::from_utf8(first_lines(body, line - 1))
                        .unwrap()
                        .lines()
                        .map(str::trim)
                        .filter(|l| !l.is_empty() && !l.starts_with('#'))
                        .count();
                    assert_eq!(row, data_rows_before);
                }
                Err(Error::Csv { line: l, .. }) => assert_eq!(l, line),
                other => panic!("reference on the first {line} lines: {other:?}"),
            }
            Some(Fix::NonFinite)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string());
            None
        }
        (new, old) => panic!("new reader {new:?}, reference {old:?}"),
    }
}

/// One generated line: a kind and the material to build it from.
type LineSpec = (u8, Vec<f64>, i32, u8);

fn render(d: usize, labeled: bool, lines: &[LineSpec], crlf: bool) -> Vec<u8> {
    let mut text = String::new();
    let pad = |style: u8| ["", " ", "\t", "  "][usize::from(style % 4)];
    for (kind, values, label, style) in lines {
        let p = pad(*style);
        let fields = |n: usize| -> Vec<String> {
            (0..n)
                .map(|j| format!("{p}{}{}", values[j % values.len()], pad(style / 4)))
                .collect()
        };
        let mut row = match kind {
            0 => format!("{p}# comment, {}", values[0]),
            1 => p.to_string(),
            // A ragged row.
            2 => fields(d + 1 + usize::from(*style % 2)).join(","),
            // A non-finite or unparsable field.
            3 => {
                let mut f = fields(d);
                f[usize::from(*style) % d] =
                    ["NaN", "inf", "-inf", "1e400", "x", ""][usize::from(*style % 6)].into();
                f.join(",")
            }
            _ => fields(d).join(","),
        };
        if labeled && *kind > 1 {
            row.push_str(&format!(",{p}{label}"));
        }
        text.push_str(&row);
        text.push_str(if crlf { "\r\n" } else { "\n" });
    }
    text.into_bytes()
}

fn text_strategy() -> impl Strategy<Value = (Vec<u8>, bool)> {
    let line = (
        // Mostly data rows; comments, blanks, ragged and bad rows now and then.
        (0u8..20).prop_map(|k| if k < 4 { k } else { 4 }),
        proptest::collection::vec(-1e3f64..1e3, 1..=4),
        -1i32..5,
        any::<u8>(),
    );
    (
        1usize..=4,
        any::<bool>(),
        proptest::collection::vec(line, 0..12),
        any::<bool>(),
        (
            0u8..4,
            proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        ),
        any::<bool>(),
    )
        .prop_map(|(d, labeled, lines, crlf, (bom, corruptions), trailing)| {
            let mut text = render(d, labeled, &lines, crlf);
            if !trailing {
                while text.last().is_some_and(|b| b"\r\n".contains(b)) {
                    text.pop();
                }
            }
            // Random byte corruptions: often invalid UTF-8, sometimes a
            // stray comma, digit or newline.
            for (at, byte) in corruptions {
                if !text.is_empty() {
                    let at = at % text.len();
                    text[at] = byte;
                }
            }
            if bom == 0 {
                text.splice(0..0, BOM.iter().copied());
            }
            (text, labeled)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Both readers, both modes, on random near-CSV text.
    #[test]
    fn streaming_reader_matches_line_reader((text, labeled) in text_strategy()) {
        check(&text, labeled);
        check(&text, !labeled);
    }
}

/// The generator reaches every branch of [`check`]: agreement on datasets,
/// agreement on errors, and both fixes.
#[test]
fn generator_exercises_every_outcome() {
    use proptest::test_runner::TestRng;
    let strategy = text_strategy();
    let (mut parsed, mut errors, mut utf8, mut non_finite, mut bom) = (0, 0, 0, 0, 0);
    for case in 0..2048 {
        let (text, labeled) = strategy.generate(&mut TestRng::for_case(case));
        bom += usize::from(text.starts_with(BOM));
        match check(&text, labeled) {
            Some(Fix::InvalidUtf8) => utf8 += 1,
            Some(Fix::NonFinite) => non_finite += 1,
            None if new_reader(&text, labeled).is_ok() => parsed += 1,
            None => errors += 1,
        }
    }
    let counts = [parsed, errors, utf8, non_finite, bom];
    assert!(counts.iter().all(|&n| n >= 50), "{counts:?}");
}
