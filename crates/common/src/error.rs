//! Error type shared across the workspace.

use std::fmt;

/// Result alias using the workspace [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while building datasets or running the clustering stack.
#[derive(Debug)]
pub enum Error {
    /// A point had a different dimensionality than the dataset.
    DimensionMismatch {
        /// Dimensionality the dataset expects.
        expected: usize,
        /// Dimensionality that was supplied.
        got: usize,
    },
    /// The dataset is empty but the operation needs at least one point.
    EmptyDataset,
    /// Dimensionality outside the supported range.
    UnsupportedDimensionality {
        /// The offending dimensionality.
        dims: usize,
        /// Maximum supported dimensionality.
        max: usize,
    },
    /// An input parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// A value was not finite (NaN or infinite) where a finite value is required.
    NonFiniteValue {
        /// Row index of the offending value.
        row: usize,
        /// Column (axis) index of the offending value.
        col: usize,
    },
    /// Failure while parsing CSV input.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Description of the parse failure.
        message: String,
    },
    /// More points than a structure can count.
    TooManyPoints {
        /// The most points it accepts.
        max: usize,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            Error::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            Error::UnsupportedDimensionality { dims, max } => {
                write!(f, "dimensionality {dims} unsupported (max {max})")
            }
            Error::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            Error::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at row {row}, column {col}")
            }
            Error::Csv { line, message } => write!(f, "csv parse error at line {line}: {message}"),
            Error::TooManyPoints { max } => write!(f, "more than {max} points"),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::DimensionMismatch {
            expected: 3,
            got: 5,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3, got 5");
        let e = Error::Csv {
            line: 7,
            message: "bad float".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(e.source().is_some());
    }
}
