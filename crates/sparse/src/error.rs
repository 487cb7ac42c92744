//! Typed errors for the sparse tier. Decoding malformed or truncated
//! FRSP input must surface one of these — never a panic.

use std::fmt;

use obs::codec::DecodeError;

/// Everything that can go wrong constructing, encoding, or decoding a
/// sparse dataset.
#[derive(Debug)]
pub enum SparseError {
    /// An underlying file operation failed.
    Io(std::io::Error),
    /// The input does not start with the `FRSP` magic.
    BadMagic,
    /// The file declares a format version this build does not read.
    BadVersion(u32),
    /// The file declares an unknown structure kind (not CSR or COO).
    BadKind(u32),
    /// The input ends before a declared field or array; `need` is the
    /// byte offset the decoder wanted to reach, `have` the input size.
    Truncated { need: u64, have: u64 },
    /// A declared count or dimension is too large to address.
    TooLarge { field: &'static str, value: u64 },
    /// The structure decodes but violates a format invariant
    /// (non-monotone `indptr`, index out of range, length mismatch…).
    Invalid { reason: String },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::Io(e) => write!(f, "sparse i/o error: {e}"),
            SparseError::BadMagic => write!(f, "not an FRSP file (bad magic)"),
            SparseError::BadVersion(v) => write!(f, "unsupported FRSP version {v}"),
            SparseError::BadKind(k) => write!(f, "unknown FRSP structure kind {k}"),
            SparseError::Truncated { need, have } => {
                write!(f, "truncated FRSP input: need {need} bytes, have {have}")
            }
            SparseError::TooLarge { field, value } => {
                write!(f, "FRSP field {field} = {value} is too large to address")
            }
            SparseError::Invalid { reason } => write!(f, "invalid sparse structure: {reason}"),
        }
    }
}

impl std::error::Error for SparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> SparseError {
        SparseError::Io(e)
    }
}

impl From<DecodeError> for SparseError {
    fn from(e: DecodeError) -> SparseError {
        match e {
            DecodeError::Truncated { need, have, .. } => SparseError::Truncated { need, have },
            DecodeError::TooLarge { what, value, .. } => {
                SparseError::TooLarge { field: what, value }
            }
            DecodeError::BadMagic { .. } => SparseError::BadMagic,
            DecodeError::BadVersion { found, .. } => SparseError::BadVersion(found as u32),
            other => invalid(other.to_string()),
        }
    }
}

/// Shorthand for an [`SparseError::Invalid`] with a formatted reason.
pub(crate) fn invalid(reason: String) -> SparseError {
    SparseError::Invalid { reason }
}
