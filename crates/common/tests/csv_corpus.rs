//! The malformed-input corpus: every file under `tests/csv_corpus/` read by
//! both readers, each with its expected dataset or its expected error.
//!
//! Files named `bad_*` must fail with a typed error; `ok_*` files must parse.
//! The `mrcc` binary runs the same `bad_*` files in
//! `crates/cli/tests/malformed_input.rs`.

use std::path::PathBuf;

use mrcc_common::dataset::MAX_DIMS;
use mrcc_common::{csv, Dataset, Error};

/// What reading a corpus file must give.
enum Expect {
    /// These rows.
    Rows(&'static [[f64; 2]]),
    /// `Error::Csv` at this 1-based line, with a message containing the text.
    Csv(usize, &'static str),
    /// `Error::EmptyDataset`.
    Empty,
    /// `Error::UnsupportedDimensionality` for this many columns.
    TooWide(usize),
}

const CASES: &[(&str, Expect)] = &[
    ("bad_nan.csv", Expect::Csv(3, "non-finite value `NaN`")),
    ("bad_inf.csv", Expect::Csv(2, "non-finite value `-inf`")),
    (
        "bad_overflow.csv",
        Expect::Csv(3, "non-finite value `1e400`"),
    ),
    (
        "bad_ragged.csv",
        Expect::Csv(3, "expected 2 feature columns, got 1"),
    ),
    ("bad_header_only.csv", Expect::Csv(1, "bad float `x`")),
    ("bad_empty.csv", Expect::Empty),
    ("bad_comments_only.csv", Expect::Empty),
    ("bad_trailing_comma.csv", Expect::Csv(1, "bad float ``")),
    ("bad_invalid_utf8.csv", Expect::Csv(3, "invalid UTF-8")),
    ("bad_65_columns.csv", Expect::TooWide(65)),
    ("ok_crlf.csv", Expect::Rows(&[[0.1, 0.2], [0.3, 0.4]])),
    ("ok_bom.csv", Expect::Rows(&[[0.1, 0.2], [0.3, 0.4]])),
];

fn corpus_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/csv_corpus")
        .join(name)
}

/// Whether `got` is the outcome `expect` asks for.
fn meets(expect: &Expect, got: &Result<Dataset, Error>) -> bool {
    match (expect, got) {
        (Expect::Rows(rows), Ok(ds)) => *ds == Dataset::from_rows(rows).unwrap(),
        (Expect::Csv(line, text), Err(Error::Csv { line: l, message })) => {
            l == line && message.contains(text)
        }
        (Expect::Empty, Err(Error::EmptyDataset)) => true,
        (Expect::TooWide(d), Err(Error::UnsupportedDimensionality { dims, max })) => {
            (dims, max) == (d, &MAX_DIMS)
        }
        _ => false,
    }
}

#[test]
fn every_corpus_file_is_covered() {
    let mut files: Vec<String> = std::fs::read_dir(corpus_file(""))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut named: Vec<String> = CASES.iter().map(|(n, _)| (*n).to_string()).collect();
    named.sort();
    assert_eq!(files, named);
    for (name, expect) in CASES {
        assert_eq!(
            name.starts_with("ok_"),
            matches!(expect, Expect::Rows(_)),
            "{name}: only ok_ files parse"
        );
    }
}

/// Every file is read, and every miss is reported at once.
#[test]
fn unlabeled_reader_gives_the_expected_outcome() {
    let misses: Vec<String> = CASES
        .iter()
        .filter_map(|(name, expect)| {
            let got = csv::read_dataset_file(corpus_file(name));
            (!meets(expect, &got)).then(|| format!("{name}: {got:?}"))
        })
        .collect();
    assert!(misses.is_empty(), "{misses:#?}");
}

/// The labeled reader's own failures, on inline text: each case is its
/// text, the 1-based line of the error and a fragment of its message.
#[test]
fn labeled_reader_errors_carry_their_line() {
    let cases: &[(&[u8], usize, &str)] = &[
        (b"0.1,1\n# c\nNaN,2\n", 3, "non-finite value `NaN`"),
        (b"0.1,1\n2\n", 2, "expected 1 feature columns, got 0"),
        (b"0.1,1\n0.2,0.5\n", 2, "bad label `0.5`"),
        (
            b"0.1,0.2,1\n0.3,2\n",
            2,
            "expected 2 feature columns, got 1",
        ),
        (b"0.1,1\n0.2,\xC3\n", 2, "invalid UTF-8"),
    ];
    let misses: Vec<String> = cases
        .iter()
        .filter_map(|&(text, line, fragment)| {
            let got = csv::read_labeled_dataset(text).map(|(ds, _)| ds);
            let expect = Expect::Csv(line, fragment);
            (!meets(&expect, &got)).then(|| format!("{fragment}: {got:?}"))
        })
        .collect();
    assert!(misses.is_empty(), "{misses:#?}");
}

#[test]
fn labeled_bom_and_crlf_input_parses() {
    let text = b"\xEF\xBB\xBF# x,y,label\r\n0.1, 0.2, 1\r\n0.3,0.4,-1\r\n";
    let (ds, labels) = csv::read_labeled_dataset(&text[..]).unwrap();
    assert_eq!(ds, Dataset::from_rows(&[[0.1, 0.2], [0.3, 0.4]]).unwrap());
    assert_eq!(labels, [1, -1]);
}

#[test]
fn bom_is_skipped_only_at_the_start() {
    let err = csv::read_dataset(&b"0.1\n\xEF\xBB\xBF0.2\n"[..]).unwrap_err();
    assert!(
        matches!(err, Error::Csv { line: 2, ref message } if message.starts_with("bad float")),
        "{err}"
    );
}
