//! In-memory sparse structures and the self-describing `FRSP` file
//! format.
//!
//! `FRSP` is a sidecar that rides alongside a linearized `.frds`
//! dataset: the `.frds` holds the padded dense 2-D view the engine
//! reads, the `.frsp` holds the exact index structure (CSR `indptr`/
//! `indices`/`values` or COO coordinates) that the planner needs for
//! nnz-balanced sharding and inspector/executor decisions. Layout
//! (little-endian throughout, mirroring the FRDS/FRRO/FRCK codecs):
//!
//! ```text
//! magic   b"FRSP"
//! version u32 = 1
//! kind    u32           1 = CSR matrix, 2 = COO 3-mode tensor
//! CSR: rows u64, cols u64, nnz u64,
//!      indptr  (rows+1) × u64,
//!      indices nnz × u64,
//!      values  nnz × f64
//! COO: dims 3 × u64, nnz u64,
//!      coords  nnz × 3 × u64   (i, j, k per entry)
//!      values  nnz × f64
//! ```
//!
//! Decoding is total: malformed, truncated, or mutated input yields a
//! typed [`SparseError`], never a panic, and every declared count is
//! bounds-checked against the input size *before* any allocation.

use std::path::{Path, PathBuf};

use obs::codec::{expect_version, put_f64_array, put_u32, put_u64, Cursor};

use crate::error::{invalid, SparseError};

/// File magic, first four bytes of every `.frsp` file.
pub const FRSP_MAGIC: &[u8; 4] = b"FRSP";
/// Format version this build reads and writes.
pub const FRSP_VERSION: u32 = 1;
/// Structure kind tag: compressed sparse row matrix.
pub const KIND_CSR: u32 = 1;
/// Structure kind tag: coordinate-format 3-mode tensor.
pub const KIND_COO: u32 = 2;

/// A validated compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub rows: u64,
    /// Number of columns (exclusive bound on every stored index).
    pub cols: u64,
    /// Row pointer array, `rows + 1` entries, `indptr[0] == 0`,
    /// monotone non-decreasing, `indptr[rows] == nnz`.
    pub indptr: Vec<u64>,
    /// Column index of each stored entry, grouped by row.
    pub indices: Vec<u64>,
    /// Value of each stored entry.
    pub values: Vec<f64>,
}

/// A validated coordinate-format 3-mode tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    /// Mode sizes `(I, J, K)`; exclusive bounds on the coordinates.
    pub dims: [u64; 3],
    /// `(i, j, k)` coordinate of each stored entry.
    pub coords: Vec<[u64; 3]>,
    /// Value of each stored entry.
    pub values: Vec<f64>,
}

/// Either sparse structure, as decoded from an `.frsp` file.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseData {
    /// A CSR matrix (`kind == 1`).
    Csr(CsrMatrix),
    /// A COO 3-tensor (`kind == 2`).
    Coo(CooTensor),
}

impl CsrMatrix {
    /// Build and validate a CSR matrix from its parts.
    pub fn new(
        rows: u64,
        cols: u64,
        indptr: Vec<u64>,
        indices: Vec<u64>,
        values: Vec<f64>,
    ) -> Result<CsrMatrix, SparseError> {
        let m = CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> u64 {
        self.indices.len() as u64
    }

    /// The widest row's stored entry count.
    pub fn max_nnz_row(&self) -> usize {
        self.indptr
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The `(column, value)` entries of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let lo = self.indptr[i] as usize;
        let hi = self.indptr[i + 1] as usize;
        self.indices[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Check every CSR invariant, returning the first violation.
    pub fn validate(&self) -> Result<(), SparseError> {
        let rows = usize::try_from(self.rows).map_err(|_| SparseError::TooLarge {
            field: "rows",
            value: self.rows,
        })?;
        if self.indptr.len() != rows + 1 {
            return Err(invalid(format!(
                "indptr has {} entries, want rows + 1 = {}",
                self.indptr.len(),
                rows + 1
            )));
        }
        if self.indptr[0] != 0 {
            return Err(invalid(format!("indptr[0] = {}, want 0", self.indptr[0])));
        }
        if let Some(i) = self.indptr.windows(2).position(|w| w[1] < w[0]) {
            return Err(invalid(format!(
                "indptr not monotone at row {i}: {} then {}",
                self.indptr[i],
                self.indptr[i + 1]
            )));
        }
        let nnz = self.indptr[rows];
        if nnz != self.indices.len() as u64 || nnz != self.values.len() as u64 {
            return Err(invalid(format!(
                "indptr declares {} entries but {} indices / {} values are present",
                nnz,
                self.indices.len(),
                self.values.len()
            )));
        }
        if let Some(&c) = self.indices.iter().find(|&&c| c >= self.cols) {
            return Err(invalid(format!(
                "column index {c} out of range for {} columns",
                self.cols
            )));
        }
        Ok(())
    }
}

impl CooTensor {
    /// Build and validate a COO tensor from its parts.
    pub fn new(
        dims: [u64; 3],
        coords: Vec<[u64; 3]>,
        values: Vec<f64>,
    ) -> Result<CooTensor, SparseError> {
        let t = CooTensor {
            dims,
            coords,
            values,
        };
        t.validate()?;
        Ok(t)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> u64 {
        self.coords.len() as u64
    }

    /// Check every COO invariant, returning the first violation.
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.coords.len() != self.values.len() {
            return Err(invalid(format!(
                "{} coordinates but {} values",
                self.coords.len(),
                self.values.len()
            )));
        }
        for (n, c) in self.coords.iter().enumerate() {
            for (m, (&coord, &dim)) in c.iter().zip(&self.dims).enumerate() {
                if coord >= dim {
                    return Err(invalid(format!(
                        "entry {n}: coordinate {coord} out of range for mode {m} of size {dim}"
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode a sparse structure into FRSP bytes. The structure is
/// re-validated first so a hand-assembled invalid matrix cannot be
/// laundered into a well-formed-looking file.
pub fn encode_frsp(data: &SparseData) -> Result<Vec<u8>, SparseError> {
    let mut out = Vec::new();
    out.extend_from_slice(FRSP_MAGIC);
    put_u32(&mut out, FRSP_VERSION);
    match data {
        SparseData::Csr(m) => {
            m.validate()?;
            put_u32(&mut out, KIND_CSR);
            put_u64(&mut out, m.rows);
            put_u64(&mut out, m.cols);
            put_u64(&mut out, m.nnz());
            for &x in m.indptr.iter().chain(&m.indices) {
                put_u64(&mut out, x);
            }
            put_f64_array(&mut out, &m.values);
        }
        SparseData::Coo(t) => {
            t.validate()?;
            put_u32(&mut out, KIND_COO);
            for &d in &t.dims {
                put_u64(&mut out, d);
            }
            put_u64(&mut out, t.nnz());
            for &x in t.coords.iter().flatten() {
                put_u64(&mut out, x);
            }
            put_f64_array(&mut out, &t.values);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode FRSP bytes into a validated sparse structure. Total over all
/// inputs: truncation, bit flips, and absurd declared sizes come back
/// as typed errors.
pub fn decode_frsp(buf: &[u8]) -> Result<SparseData, SparseError> {
    let mut r = Cursor::new(buf);
    r.magic(FRSP_MAGIC)?;
    expect_version("FRSP", r.u32("version")?.into(), FRSP_VERSION.into())?;
    match r.u32("kind")? {
        KIND_CSR => {
            let rows = r.u64("rows")?;
            let cols = r.u64("cols")?;
            let nnz = r.u64("nnz")?;
            let np = rows.checked_add(1).ok_or(SparseError::TooLarge {
                field: "rows",
                value: rows,
            })?;
            let np = r.fits(np, 8, "indptr")?;
            let indptr = r.u64_array(np, "indptr")?;
            let nnz = r.fits(nnz, 8, "indices")?;
            let indices = r.u64_array(nnz, "indices")?;
            let values = r.f64_array(nnz, "values")?;
            CsrMatrix::new(rows, cols, indptr, indices, values).map(SparseData::Csr)
        }
        KIND_COO => {
            let dims = [r.u64("dims")?, r.u64("dims")?, r.u64("dims")?];
            let nnz = r.u64("nnz")?;
            let nnz = r.fits(nnz, 24, "coords")?;
            let coords = r
                .u64_array(nnz * 3, "coords")?
                .chunks_exact(3)
                .map(|c| [c[0], c[1], c[2]])
                .collect();
            let values = r.f64_array(nnz, "values")?;
            CooTensor::new(dims, coords, values).map(SparseData::Coo)
        }
        kind => Err(SparseError::BadKind(kind)),
    }
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// The `.frsp` sidecar path of a `.frds` dataset (extension swap).
pub fn sidecar_path(dataset: &Path) -> PathBuf {
    dataset.with_extension("frsp")
}

/// Write a sparse structure to `path` as an FRSP file.
pub fn write_frsp(path: &Path, data: &SparseData) -> Result<(), SparseError> {
    let bytes = encode_frsp(data)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Read and validate an FRSP file.
pub fn read_frsp(path: &Path) -> Result<SparseData, SparseError> {
    let bytes = std::fs::read(path)?;
    decode_frsp(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_csr() -> CsrMatrix {
        CsrMatrix::new(
            3,
            5,
            vec![0, 2, 2, 4],
            vec![0, 4, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn csr_round_trips_through_bytes() {
        let m = small_csr();
        let bytes = encode_frsp(&SparseData::Csr(m.clone())).unwrap();
        assert_eq!(&bytes[..4], FRSP_MAGIC);
        match decode_frsp(&bytes).unwrap() {
            SparseData::Csr(got) => assert_eq!(got, m),
            other => panic!("decoded wrong kind: {other:?}"),
        }
    }

    #[test]
    fn coo_round_trips_through_bytes() {
        let t = CooTensor::new(
            [4, 3, 2],
            vec![[0, 0, 0], [3, 2, 1], [1, 1, 1]],
            vec![1.0, -2.0, 0.5],
        )
        .unwrap();
        let bytes = encode_frsp(&SparseData::Coo(t.clone())).unwrap();
        match decode_frsp(&bytes).unwrap() {
            SparseData::Coo(got) => assert_eq!(got, t),
            other => panic!("decoded wrong kind: {other:?}"),
        }
    }

    #[test]
    fn invariant_violations_are_typed() {
        // Non-monotone indptr.
        let e = CsrMatrix::new(2, 4, vec![0, 3, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(e, SparseError::Invalid { .. }), "{e}");
        // Column out of range.
        let e = CsrMatrix::new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        // Coordinate out of range.
        let e = CooTensor::new([2, 2, 2], vec![[0, 2, 0]], vec![1.0]).unwrap_err();
        assert!(matches!(e, SparseError::Invalid { .. }), "{e}");
    }

    #[test]
    fn bad_headers_are_typed() {
        assert!(matches!(decode_frsp(b"NOPE"), Err(SparseError::BadMagic)));
        assert!(matches!(
            decode_frsp(b"FR"),
            Err(SparseError::Truncated { .. })
        ));
        let mut bytes = encode_frsp(&SparseData::Csr(small_csr())).unwrap();
        bytes[4] = 9; // version
        assert!(matches!(
            decode_frsp(&bytes),
            Err(SparseError::BadVersion(_))
        ));
        let mut bytes = encode_frsp(&SparseData::Csr(small_csr())).unwrap();
        bytes[8] = 7; // kind
        assert!(matches!(decode_frsp(&bytes), Err(SparseError::BadKind(7))));
    }

    #[test]
    fn absurd_declared_counts_do_not_allocate() {
        // Header claiming u64::MAX nonzeros over a tiny buffer must be
        // rejected by the pre-allocation bounds check.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(FRSP_MAGIC);
        bytes.extend_from_slice(&FRSP_VERSION.to_le_bytes());
        bytes.extend_from_slice(&KIND_CSR.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes()); // rows
        bytes.extend_from_slice(&1u64.to_le_bytes()); // cols
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // nnz
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let e = decode_frsp(&bytes).unwrap_err();
        assert!(
            matches!(
                e,
                SparseError::Truncated { .. } | SparseError::TooLarge { .. }
            ),
            "{e}"
        );
    }

    #[test]
    fn sidecar_swaps_extension() {
        assert_eq!(
            sidecar_path(Path::new("/tmp/x/data.frds")),
            PathBuf::from("/tmp/x/data.frsp")
        );
    }
}
