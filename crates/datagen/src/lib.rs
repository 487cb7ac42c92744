//! cfr-datagen — seeded synthetic dataset generators and helpers around
//! the on-disk dataset format.
//!
//! The paper evaluates on a 12 MB and a 1.2 GB k-means file and on
//! 1000×10,000 / 1000×100,000 PCA matrices; those exact files are not
//! available, so this crate generates statistically equivalent synthetic
//! datasets: clustered Gaussian point clouds for k-means and skewed
//! sparse matrices and tensors, all reproducible from a seed, plus writers
//! and readers for the `freeride::source` binary format so experiments
//! can stream from disk like the original middleware.

#![warn(missing_docs)]

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use freeride::source::{write_dataset, FileDataset};
use freeride::FreerideError;

/// A generated dataset: a flat row-major buffer plus its row width.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The slots, row-major.
    pub data: Vec<f64>,
    /// Slots per row.
    pub unit: usize,
}

impl Dataset {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len() / self.unit
    }

    /// Size in bytes (as stored on disk, payload only).
    pub fn bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// One row.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.unit..(r + 1) * self.unit]
    }

    /// Persist in the FREERIDE binary format.
    pub fn write(&self, path: &Path) -> Result<(), FreerideError> {
        write_dataset(path, self.unit, &self.data)
    }

    /// Load a dataset previously written with [`Dataset::write`].
    pub fn read(path: &Path) -> Result<Dataset, FreerideError> {
        let ds = FileDataset::open(path)?;
        Ok(Dataset {
            data: ds.read_all()?,
            unit: ds.unit(),
        })
    }
}

/// Gaussian point cloud around `k` well-separated centres — the k-means
/// workload. Returns the dataset and the true centres (`k × d`).
pub fn clustered_points(
    n: usize,
    d: usize,
    k: usize,
    spread: f64,
    seed: u64,
) -> (Dataset, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = k.max(1);
    // Spread centres uniformly in a [0, 100)^d box.
    let centres: Vec<f64> = (0..k * d).map(|_| rng.gen_range(0.0..100.0)).collect();
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = i % k;
        for j in 0..d {
            data.push(centres[c * d + j] + gaussian(&mut rng) * spread);
        }
    }
    (Dataset { data, unit: d }, centres)
}

/// Power-law (Zipf-like) sparse matrix in CSR form — the sparse tier's
/// irregular workload. Row `i`'s nonzero count follows `1/(i+1)^skew`
/// scaled so the mean is `avg_nnz` (every row keeps at least one entry
/// when `avg_nnz >= 1`); column positions concentrate toward low
/// columns with the same skew. `skew = 0` degenerates to a uniform
/// matrix. Values are integers in `1..=9` so reductions over the
/// matrix are exact in f64 (bit-identical across accumulation orders).
pub fn sparse_csr(
    rows: usize,
    cols: usize,
    avg_nnz: usize,
    skew: f64,
    seed: u64,
) -> cfr_sparse::CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let cols = cols.max(1);
    let weights: Vec<f64> = (0..rows).map(|i| (i as f64 + 1.0).powf(-skew)).collect();
    let total_w: f64 = weights.iter().sum();
    let target = (rows * avg_nnz) as f64;
    let mut indptr = vec![0u64];
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for w in weights {
        let mut len = (target * w / total_w.max(f64::MIN_POSITIVE)).round() as usize;
        if avg_nnz >= 1 {
            len = len.max(1);
        }
        len = len.min(cols);
        for _ in 0..len {
            let u: f64 = rng.gen_range(0.0..1.0);
            // Inverse-CDF-ish draw: skew > 0 piles columns near 0.
            let col = (cols as f64 * u.powf(1.0 + skew)) as usize;
            indices.push(col.min(cols - 1) as u64);
            values.push(rng.gen_range(1u8..=9) as f64);
        }
        indptr.push(indices.len() as u64);
    }
    cfr_sparse::CsrMatrix::new(rows as u64, cols as u64, indptr, indices, values)
        .expect("generated CSR is valid by construction")
}

/// Power-law sparse 3-mode tensor in COO form. Mode-0 slabs follow the
/// skew (hot head slabs), modes 1 and 2 are uniform; values are
/// integers in `1..=9`. Duplicate coordinates are allowed — the
/// reduction accumulates them like any middleware would.
pub fn sparse_coo(dims: [usize; 3], nnz: usize, skew: f64, seed: u64) -> cfr_sparse::CooTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = [dims[0].max(1), dims[1].max(1), dims[2].max(1)];
    let mut coords = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let u: f64 = rng.gen_range(0.0..1.0);
        let i = ((dims[0] as f64 * u.powf(1.0 + skew)) as usize).min(dims[0] - 1);
        coords.push([
            i as u64,
            rng.gen_range(0..dims[1]) as u64,
            rng.gen_range(0..dims[2]) as u64,
        ]);
        values.push(rng.gen_range(1u8..=9) as f64);
    }
    cfr_sparse::CooTensor::new(
        [dims[0] as u64, dims[1] as u64, dims[2] as u64],
        coords,
        values,
    )
    .expect("generated COO is valid by construction")
}

/// Standard-normal sample via the Box–Muller transform (`rand` provides
/// only uniform generation without the `rand_distr` crate, which this
/// workspace deliberately avoids).
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_points_shape_and_determinism() {
        let (a, centres) = clustered_points(300, 4, 5, 1.0, 7);
        assert_eq!(a.rows(), 300);
        assert_eq!(a.unit, 4);
        assert_eq!(centres.len(), 20);
        let (b, _) = clustered_points(300, 4, 5, 1.0, 7);
        assert_eq!(a, b);
        let (c, _) = clustered_points(300, 4, 5, 1.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn points_cluster_near_their_centres() {
        let (ds, centres) = clustered_points(1000, 3, 4, 0.5, 42);
        let mut total_err = 0.0;
        for i in 0..ds.rows() {
            let c = i % 4;
            let row = ds.row(i);
            for j in 0..3 {
                total_err += (row[j] - centres[c * 3 + j]).abs();
            }
        }
        // Mean absolute deviation per coordinate ≈ spread·√(2/π) ≈ 0.4.
        let mad = total_err / (1000.0 * 3.0);
        assert!(mad < 1.0, "points too far from centres: {mad}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sparse_csr_is_seeded_and_skewed() {
        let a = sparse_csr(64, 256, 8, 1.2, 11);
        let b = sparse_csr(64, 256, 8, 1.2, 11);
        assert_eq!(a, b);
        assert_ne!(a, sparse_csr(64, 256, 8, 1.2, 12));
        a.validate().unwrap();
        // Skewed: the first quarter of the rows holds most nonzeros.
        let head = a.indptr[16];
        assert!(
            head * 2 > a.nnz(),
            "head rows hold {head} of {} nonzeros",
            a.nnz()
        );
        // Integer values for exact reductions.
        assert!(a.values.iter().all(|&v| v.fract() == 0.0 && v >= 1.0));
        // skew = 0 is roughly uniform.
        let u = sparse_csr(64, 256, 8, 0.0, 11);
        assert!(u.indptr[16] * 5 < u.nnz() * 2, "uniform head too heavy");
    }

    #[test]
    fn sparse_coo_is_seeded_and_skewed() {
        let a = sparse_coo([128, 16, 16], 2000, 1.5, 5);
        assert_eq!(a, sparse_coo([128, 16, 16], 2000, 1.5, 5));
        a.validate().unwrap();
        // The 16 head slabs (1/8 of mode 0) draw far more than their
        // uniform share of 250 entries.
        let head = a.coords.iter().filter(|c| c[0] < 16).count();
        assert!(head > 600, "head slabs got {head} of 2000");
    }

    #[test]
    fn disk_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("datagen-{}.frds", std::process::id()));
        let (ds, _) = clustered_points(64, 3, 2, 1.0, 3);
        ds.write(&path).unwrap();
        let back = Dataset::read(&path).unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(&path).ok();
    }
}
