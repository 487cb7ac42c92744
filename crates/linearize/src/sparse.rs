//! Sparse linearization: the fixed-width padded row encoding that maps
//! compressed sparse rows onto FREERIDE's dense 2-D view.
//!
//! FREERIDE partitions work over rows of a *fixed* unit, so ragged
//! sparse rows cannot ride the engine directly. The sparse tier
//! (`crates/sparse`) linearizes a CSR row with `len` stored entries as
//!
//! ```text
//! [len, c0, v0, c1, v1, …]   zero-padded to unit = 1 + 2 * max_nnz
//! ```
//!
//! which keeps the 2-D view intact: shard cutting, streaming I/O, and
//! the distributed machinery all work unchanged, while per-row *compute*
//! still varies with `len` (hence the weight-balanced splitter and
//! nnz-balanced shard bounds). A zero-nnz row encodes as all zeros and
//! decodes to an empty entry list — an identity contribution, never an
//! error.
//!
//! This module is the codec only; file formats, inspection, and
//! planning live in `crates/sparse`.

use crate::error::LinearizeError;

/// Engine unit (slots per row) of a padded sparse dataset whose widest
/// row stores `max_nnz` entries.
pub fn padded_unit(max_nnz: usize) -> usize {
    1 + 2 * max_nnz
}

/// Largest entry count a row of `unit` slots can store.
pub fn padded_capacity(unit: usize) -> usize {
    unit.saturating_sub(1) / 2
}

/// Append one padded sparse row to `out`: `entries` are `(column,
/// value)` pairs. Errors if the entries do not fit in `unit` slots.
pub fn encode_padded_row(
    out: &mut Vec<f64>,
    unit: usize,
    entries: &[(u64, f64)],
) -> Result<(), LinearizeError> {
    if entries.len() > padded_capacity(unit) {
        return Err(LinearizeError::BufferSize {
            expected: padded_unit(entries.len()),
            found: unit,
        });
    }
    out.push(entries.len() as f64);
    for &(col, val) in entries {
        out.push(col as f64);
        out.push(val);
    }
    out.resize(out.len() + (unit - 1 - 2 * entries.len()), 0.0);
    Ok(())
}

/// Iterate the `(column, value)` entries of one padded sparse row.
///
/// Kernel-hot and total: the stored length is clamped to the row's
/// capacity, so a malformed or truncated row yields a short (possibly
/// empty) iteration instead of a panic. An empty slice iterates empty.
#[inline]
pub fn padded_row_entries(row: &[f64]) -> impl Iterator<Item = (usize, f64)> + '_ {
    let cap = padded_capacity(row.len());
    let len = if row.is_empty() {
        0
    } else {
        (row[0].max(0.0) as usize).min(cap)
    };
    (0..len).map(move |t| (row[1 + 2 * t].max(0.0) as usize, row[2 + 2 * t]))
}

#[cfg(test)]
mod sparse_tests {
    use super::*;

    #[test]
    fn padded_row_round_trips() {
        let unit = padded_unit(3);
        let mut buf = Vec::new();
        encode_padded_row(&mut buf, unit, &[(4, 2.0), (9, -1.5)]).unwrap();
        assert_eq!(buf.len(), unit);
        let got: Vec<(usize, f64)> = padded_row_entries(&buf).collect();
        assert_eq!(got, vec![(4, 2.0), (9, -1.5)]);
    }

    #[test]
    fn zero_nnz_row_is_identity_not_error() {
        let unit = padded_unit(2);
        let mut buf = Vec::new();
        encode_padded_row(&mut buf, unit, &[]).unwrap();
        assert_eq!(buf, vec![0.0; unit]);
        assert_eq!(padded_row_entries(&buf).count(), 0);
    }

    #[test]
    fn overfull_row_is_a_typed_error() {
        let mut buf = Vec::new();
        let err = encode_padded_row(&mut buf, padded_unit(1), &[(0, 1.0), (1, 1.0)]);
        assert!(err.is_err());
    }

    #[test]
    fn malformed_rows_never_panic() {
        // Length slot beyond capacity: clamped.
        let row = [99.0, 1.0, 2.0];
        assert_eq!(padded_row_entries(&row).count(), 1);
        // Negative or NaN-ish garbage: clamped to empty.
        assert_eq!(padded_row_entries(&[-3.0, 0.0, 0.0]).count(), 0);
        assert_eq!(padded_row_entries(&[f64::NAN, 0.0, 0.0]).count(), 0);
        // Empty slice.
        assert_eq!(padded_row_entries(&[]).count(), 0);
    }
}
