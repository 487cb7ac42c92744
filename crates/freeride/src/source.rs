//! Disk-backed datasets.
//!
//! "The order in which data instances are read from the disks is
//! determined by the runtime system" — FREERIDE streams input from disk
//! in splits. This module defines the on-disk format shared with the
//! `cfr-datagen` crate and a reader that serves row ranges on demand, so
//! each worker can read exactly its split.
//!
//! Format (little-endian):
//!
//! ```text
//! magic  b"FRDS"          4 bytes
//! version u32             currently 1
//! rows   u64
//! unit   u32              slots per row
//! payload rows*unit f64
//! ```

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use obs::codec::{expect_version, Cursor, DecodeError};

use crate::FreerideError;

const MAGIC: &[u8; 4] = b"FRDS";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 4 + 4 + 8 + 4;

/// Write a dataset of `unit`-slot rows to `path`.
pub fn write_dataset(path: &Path, unit: usize, data: &[f64]) -> Result<(), FreerideError> {
    if unit == 0 || !data.len().is_multiple_of(unit) {
        return Err(FreerideError::BadUnit {
            unit,
            len: data.len(),
        });
    }
    let rows = (data.len() / unit) as u64;
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&rows.to_le_bytes())?;
    w.write_all(&(unit as u32).to_le_bytes())?;
    for x in data {
        w.write_all(&x.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Parse a dataset header into `(rows, unit)`.
fn parse_header(header: &[u8]) -> Result<(u64, u32), DecodeError> {
    let mut r = Cursor::new(header);
    r.magic(MAGIC)?;
    expect_version("dataset", r.u32("version")?.into(), VERSION.into())?;
    Ok((r.u64("rows")?, r.u32("unit")?))
}

/// A disk-resident dataset serving row ranges on demand.
///
/// Holds one persistent handle opened at validation time; row reads are
/// *positioned* (`read_exact_at` on unix), so any number of workers can
/// read their splits concurrently through the shared handle without a
/// seek-cursor race and without paying an open/close per split.
#[derive(Debug, Clone)]
pub struct FileDataset {
    path: PathBuf,
    rows: u64,
    unit: u32,
    file: Arc<File>,
}

impl FileDataset {
    /// Open and validate a dataset file.
    pub fn open(path: &Path) -> Result<FileDataset, FreerideError> {
        let bad = |reason: String| FreerideError::BadDataset { reason };
        let mut f = File::open(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        f.read_exact(&mut header)
            .map_err(|_| bad("file shorter than header".into()))?;
        let (rows, unit) = parse_header(&header).map_err(|e| bad(e.to_string()))?;
        if unit == 0 {
            return Err(bad("zero unit".into()));
        }
        let expected = rows
            .checked_mul(u64::from(unit) * 8)
            .and_then(|payload| payload.checked_add(HEADER_LEN))
            .ok_or_else(|| {
                bad(format!(
                    "{rows} rows of {unit} slots overflow a file length"
                ))
            })?;
        let actual = f.metadata()?.len();
        if actual < expected {
            return Err(bad(format!(
                "payload truncated: {actual} < {expected} bytes"
            )));
        }
        Ok(FileDataset {
            path: path.to_path_buf(),
            rows,
            unit,
            file: Arc::new(f),
        })
    }

    /// Number of rows (data instances).
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Slots per row.
    pub fn unit(&self) -> usize {
        self.unit as usize
    }

    /// Read a contiguous row range into a fresh buffer — see
    /// [`FileDataset::read_rows_into`] for the allocation-reusing form.
    pub fn read_rows(&self, first_row: usize, count: usize) -> Result<Vec<f64>, FreerideError> {
        let mut out = Vec::new();
        self.read_rows_into(first_row, count, &mut out)?;
        Ok(out)
    }

    /// Read a contiguous row range into `out` (cleared first; capacity
    /// is reused across calls). Reads are positioned on the dataset's
    /// persistent handle, so concurrent callers neither race a seek
    /// cursor nor open a file per call.
    pub fn read_rows_into(
        &self,
        first_row: usize,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), FreerideError> {
        if first_row
            .checked_add(count)
            .is_none_or(|end| end > self.rows())
        {
            return Err(FreerideError::BadDataset {
                reason: format!(
                    "row range {first_row}..{} exceeds {} rows",
                    first_row.saturating_add(count),
                    self.rows
                ),
            });
        }
        let offset = HEADER_LEN + (first_row as u64) * (self.unit as u64) * 8;
        let slots = count * self.unit as usize;
        #[cfg(unix)]
        let file = &*self.file;
        // Positioned reads need the handle's cursor untouched; without
        // them a shared handle would race, so open per call instead.
        #[cfg(not(unix))]
        let file = &File::open(&self.path)?;
        freeride_io::read_f64s_at(file, offset, slots, out)?;
        Ok(())
    }

    /// A [`freeride_io::RowSource`] view of the payload region for the
    /// streaming chunk pipeline: each reader thread opens its own
    /// handle and issues positioned reads.
    pub fn row_source(&self) -> Arc<dyn freeride_io::RowSource> {
        Arc::new(freeride_io::FileSlice::new(
            self.path.clone(),
            HEADER_LEN,
            self.rows(),
            self.unit(),
        ))
    }

    /// Read the whole payload.
    pub fn read_all(&self) -> Result<Vec<f64>, FreerideError> {
        self.read_rows(0, self.rows())
    }

    /// Stream the dataset in chunks of `chunk_rows`, invoking `f` with
    /// each chunk's slots and its first row index — the runtime-driven
    /// read order of the paper.
    pub fn stream_chunks(
        &self,
        chunk_rows: usize,
        mut f: impl FnMut(&[f64], usize),
    ) -> Result<(), FreerideError> {
        let chunk_rows = chunk_rows.max(1);
        let mut first = 0usize;
        while first < self.rows() {
            let count = chunk_rows.min(self.rows() - first);
            let chunk = self.read_rows(first, count)?;
            f(&chunk, first);
            first += count;
        }
        Ok(())
    }
}

#[cfg(test)]
mod source_tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("freeride-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip.frds");
        let data: Vec<f64> = (0..24).map(|i| i as f64 * 0.5).collect();
        write_dataset(&path, 4, &data).unwrap();
        let ds = FileDataset::open(&path).unwrap();
        assert_eq!(ds.rows(), 6);
        assert_eq!(ds.unit(), 4);
        assert_eq!(ds.read_all().unwrap(), data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_reads() {
        let path = tmp("partial.frds");
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        write_dataset(&path, 2, &data).unwrap();
        let ds = FileDataset::open(&path).unwrap();
        let rows = ds.read_rows(3, 2).unwrap();
        assert_eq!(rows, vec![6.0, 7.0, 8.0, 9.0]);
        assert!(ds.read_rows(19, 2).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_covers_everything_in_order() {
        let path = tmp("stream.frds");
        let data: Vec<f64> = (0..30).map(|i| i as f64).collect();
        write_dataset(&path, 3, &data).unwrap();
        let ds = FileDataset::open(&path).unwrap();
        let mut seen: Vec<f64> = Vec::new();
        let mut firsts = Vec::new();
        ds.stream_chunks(4, |chunk, first| {
            seen.extend_from_slice(chunk);
            firsts.push(first);
        })
        .unwrap();
        assert_eq!(seen, data);
        assert_eq!(firsts, vec![0, 4, 8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_rows_into_reuses_the_buffer() {
        let path = tmp("reuse.frds");
        let data: Vec<f64> = (0..60).map(|i| i as f64).collect();
        write_dataset(&path, 3, &data).unwrap();
        let ds = FileDataset::open(&path).unwrap();
        let mut buf = Vec::new();
        ds.read_rows_into(0, 10, &mut buf).unwrap();
        assert_eq!(buf.len(), 30);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        ds.read_rows_into(10, 10, &mut buf).unwrap();
        assert_eq!(buf[0], 30.0);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr, "second read should reuse the allocation");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn row_source_serves_the_payload() {
        let path = tmp("rowsource.frds");
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        write_dataset(&path, 2, &data).unwrap();
        let ds = FileDataset::open(&path).unwrap();
        let src = ds.row_source();
        assert_eq!(src.rows(), 10);
        assert_eq!(src.unit(), 2);
        let mut reader = src.open_reader().unwrap();
        let mut out = Vec::new();
        reader.read_rows_into(3, 2, &mut out).unwrap();
        assert_eq!(out, vec![6.0, 7.0, 8.0, 9.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupt_files() {
        let path = tmp("corrupt.frds");
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(FileDataset::open(&path).is_err());
        // Valid magic but truncated payload.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&100u64.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(FileDataset::open(&path).is_err());
        // A header whose rows x unit overflows the file length is a
        // typed error, not an overflow panic or a giant dataset.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileDataset::open(&path),
            Err(FreerideError::BadDataset { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_write() {
        let path = tmp("badwrite.frds");
        assert!(write_dataset(&path, 0, &[1.0]).is_err());
        assert!(write_dataset(&path, 3, &[1.0; 10]).is_err());
    }
}
