//! Errors surfaced by the FREERIDE runtime.

use std::fmt;

/// Runtime errors.
#[derive(Debug)]
pub enum FreerideError {
    /// A flat buffer could not be viewed as rows of `unit` slots.
    BadUnit {
        /// Requested row width.
        unit: usize,
        /// Buffer length in slots.
        len: usize,
    },
    /// An I/O error from a file-backed data source.
    Io(std::io::Error),
    /// A file-backed dataset had an invalid header or truncated payload.
    BadDataset {
        /// Description of the problem.
        reason: String,
    },
    /// A serialized reduction-object frame was malformed, truncated, or
    /// of an unsupported version (see [`crate::robj`]'s codec).
    Codec {
        /// Description of the problem.
        reason: String,
    },
    /// The streaming I/O pipeline failed structurally (e.g. a reader
    /// thread died mid-run) rather than on a specific read.
    Stream {
        /// Description of the problem.
        reason: String,
    },
    /// An iterative job was asked to resume at a pass it does not have
    /// (the index came from a checkpoint of a longer job).
    BadResume {
        /// Pass the caller asked to start at.
        first_pass: usize,
        /// Passes the job has.
        iters: usize,
    },
}

impl fmt::Display for FreerideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreerideError::BadUnit { unit, len } => {
                write!(
                    f,
                    "buffer of {len} slots cannot be viewed as rows of {unit}"
                )
            }
            FreerideError::Io(e) => write!(f, "dataset I/O error: {e}"),
            FreerideError::BadDataset { reason } => write!(f, "bad dataset: {reason}"),
            FreerideError::Codec { reason } => write!(f, "bad reduction-object frame: {reason}"),
            FreerideError::Stream { reason } => write!(f, "streaming I/O failed: {reason}"),
            FreerideError::BadResume { first_pass, iters } => {
                write!(
                    f,
                    "resume pass {first_pass} is past the job's {iters} passes"
                )
            }
        }
    }
}

impl std::error::Error for FreerideError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FreerideError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<obs::codec::DecodeError> for FreerideError {
    fn from(e: obs::codec::DecodeError) -> FreerideError {
        FreerideError::Codec {
            reason: e.to_string(),
        }
    }
}

impl From<std::io::Error> for FreerideError {
    fn from(e: std::io::Error) -> Self {
        FreerideError::Io(e)
    }
}

impl From<freeride_io::IoError> for FreerideError {
    fn from(e: freeride_io::IoError) -> Self {
        match e {
            freeride_io::IoError::Io(e) => FreerideError::Io(e),
            freeride_io::IoError::OutOfRange {
                first_row,
                count,
                rows,
            } => FreerideError::BadDataset {
                reason: format!(
                    "row range {first_row}..{} exceeds {rows} rows",
                    first_row + count
                ),
            },
            freeride_io::IoError::ReaderPanicked => FreerideError::Stream {
                reason: "I/O reader thread died mid-run".into(),
            },
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn display() {
        let e = FreerideError::BadUnit { unit: 3, len: 10 };
        assert!(e.to_string().contains("10 slots"));
        let e = FreerideError::BadDataset {
            reason: "short read".into(),
        };
        assert!(e.to_string().contains("short read"));
        let e = FreerideError::Codec {
            reason: "truncated frame".into(),
        };
        assert!(e.to_string().contains("truncated frame"));
        let e = FreerideError::Stream {
            reason: "reader died".into(),
        };
        assert!(e.to_string().contains("reader died"));
    }

    #[test]
    fn io_layer_errors_convert_to_typed_variants() {
        let e: FreerideError =
            FreerideError::from(freeride_io::IoError::Io(std::io::Error::other("disk")));
        assert!(matches!(e, FreerideError::Io(_)), "{e}");
        let e = FreerideError::from(freeride_io::IoError::OutOfRange {
            first_row: 5,
            count: 10,
            rows: 8,
        });
        assert!(matches!(e, FreerideError::BadDataset { .. }), "{e}");
        let e = FreerideError::from(freeride_io::IoError::ReaderPanicked);
        assert!(matches!(e, FreerideError::Stream { .. }), "{e}");
    }
}
