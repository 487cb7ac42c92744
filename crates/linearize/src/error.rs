//! Errors produced by linearization and index mapping.

use std::fmt;

/// Everything that can go wrong when linearizing values or resolving
/// access paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearizeError {
    /// A value did not structurally match the expected shape.
    ShapeMismatch {
        /// Description of the expected shape.
        shape: String,
    },
    /// An access path selected something the shape does not provide.
    PathMismatch {
        /// Nesting level at which resolution failed.
        level: usize,
        /// What the shape had at that point.
        found: String,
        /// What the path required.
        expected: String,
    },
    /// An array index was out of range.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The container length.
        len: usize,
    },
    /// Indexed into a non-array value.
    NotAnArray,
    /// Selected a field of a non-record value.
    NotARecord,
    /// A flat buffer's length did not match the shape's slot count.
    BufferSize {
        /// Slots required by the shape.
        expected: usize,
        /// Slots provided.
        found: usize,
    },
}

impl fmt::Display for LinearizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearizeError::ShapeMismatch { shape } => {
                write!(f, "value does not match shape {shape}")
            }
            LinearizeError::PathMismatch {
                level,
                found,
                expected,
            } => write!(
                f,
                "access path mismatch at level {level}: found {found}, expected {expected}"
            ),
            LinearizeError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            LinearizeError::NotAnArray => write!(f, "indexed into a non-array value"),
            LinearizeError::NotARecord => write!(f, "selected a field of a non-record value"),
            LinearizeError::BufferSize { expected, found } => {
                write!(f, "buffer has {found} slots, shape requires {expected}")
            }
        }
    }
}

impl std::error::Error for LinearizeError {}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = LinearizeError::IndexOutOfBounds { index: 5, len: 3 };
        assert_eq!(e.to_string(), "index 5 out of bounds for length 3");
        let e = LinearizeError::BufferSize {
            expected: 10,
            found: 9,
        };
        assert!(e.to_string().contains("9 slots"));
    }
}
