//! Closed-form deterministic sparse patterns.
//!
//! The differential gates compare the sparse apps against the
//! mini-Chapel interpreter oracle, so both sides must build the *same*
//! input from scratch. These constructors use only integer arithmetic
//! on the row/entry ordinal — trivially portable to a Chapel source
//! string — and integer-valued nonzeros, so every reduction is exact
//! in f64 and bit-identical regardless of accumulation order.

use crate::format::{CooTensor, CsrMatrix};
use crate::linearize::COO_UNIT;

/// Deterministic CSR matrix: row `i` stores `1 + ((i*i + i) % w)`
/// entries at strided columns `(i % s) + t*s` with `s = cols / w`, and
/// integer values `1 + ((i*3 + t*5) % 7)`. Requires `cols >= w >= 1`.
pub fn synthetic_csr(rows: usize, cols: usize, w: usize) -> CsrMatrix {
    assert!(w >= 1 && cols >= w, "need cols >= w >= 1");
    let s = cols / w;
    let mut indptr = Vec::with_capacity(rows + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    indptr.push(0);
    for i in 0..rows {
        let len = 1 + (i * i + i) % w;
        for t in 0..len {
            indices.push(((i % s) + t * s) as u64);
            values.push((1 + (i * 3 + t * 5) % 7) as f64);
        }
        indptr.push(indices.len() as u64);
    }
    CsrMatrix::new(rows as u64, cols as u64, indptr, indices, values)
        .expect("closed-form CSR is valid by construction")
}

/// Entry `t` of the closed-form skewed COO 3-tensor: every third
/// entry lands in the hot head slab `i = t % hot`, the rest scatter as
/// `i = (t*7 + 3) % dims[0]`; `j = (t*5) % dims[1]`,
/// `k = (t*11) % dims[2]`, integer value `1 + (t*t) % 5`. The one
/// formula behind [`synthetic_coo`] and [`synthetic_quads`], mirrored
/// by the `chapel_frontend::programs::sparse_mttkrp` oracle.
fn coo_entry(t: usize, dims: [usize; 3], hot: usize) -> ([usize; 3], f64) {
    let i = if t.is_multiple_of(3) {
        t % hot
    } else {
        (t * 7 + 3) % dims[0]
    };
    (
        [i, (t * 5) % dims[1], (t * 11) % dims[2]],
        (1 + (t * t) % 5) as f64,
    )
}

fn check_coo_args(dims: [usize; 3], hot: usize) {
    assert!(
        hot >= 1 && hot <= dims[0] && dims.iter().all(|&d| d > 0),
        "need 1 <= hot <= dims[0] and nonzero dims"
    );
}

/// Deterministic skewed COO 3-tensor of `nnz` entries
/// ([`coo_entry`] `0..nnz`). Requires `1 <= hot <= dims[0]` and
/// nonzero mode sizes.
pub fn synthetic_coo(dims: [usize; 3], nnz: usize, hot: usize) -> CooTensor {
    check_coo_args(dims, hot);
    let mut coords = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for t in 0..nnz {
        let (c, v) = coo_entry(t, dims, hot);
        coords.push(c.map(|x| x as u64));
        values.push(v);
    }
    CooTensor::new(
        [dims[0] as u64, dims[1] as u64, dims[2] as u64],
        coords,
        values,
    )
    .expect("closed-form COO is valid by construction")
}

/// The [`synthetic_coo`] tensor built straight into its unit-4
/// `[i, j, k, v]` engine rows (what [`crate::coo_to_quads`] makes of
/// it) in one pass, with `‖X‖²` summed in entry order. Same
/// requirements as [`synthetic_coo`].
pub fn synthetic_quads(dims: [usize; 3], nnz: usize, hot: usize) -> (Vec<f64>, f64) {
    check_coo_args(dims, hot);
    let mut quads = Vec::with_capacity(nnz * COO_UNIT);
    let mut norm_x2 = 0.0;
    for t in 0..nnz {
        let ([i, j, k], v) = coo_entry(t, dims, hot);
        quads.extend_from_slice(&[i as f64, j as f64, k as f64, v]);
        norm_x2 += v * v;
    }
    (quads, norm_x2)
}

/// Deterministic integer-valued factor matrix `rows × rank` used by
/// the MTTKRP oracles: entry `(i, r) = 1 + (i*2 + r*3) % 5`.
pub fn synthetic_factor(rows: usize, rank: usize) -> Vec<f64> {
    let mut f = Vec::with_capacity(rows * rank);
    for i in 0..rows {
        for r in 0..rank {
            f.push((1 + (i * 2 + r * 3) % 5) as f64);
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_csr_is_valid_and_deterministic() {
        let a = synthetic_csr(32, 24, 6);
        let b = synthetic_csr(32, 24, 6);
        assert_eq!(a, b);
        a.validate().unwrap();
        assert!(a.nnz() > 32, "every row has at least one entry");
        assert!(a.max_nnz_row() <= 6);
        assert!(a.values.iter().all(|&v| v >= 1.0 && v.fract() == 0.0));
    }

    #[test]
    fn synthetic_coo_is_skewed_toward_head() {
        let t = synthetic_coo([64, 8, 8], 300, 4);
        t.validate().unwrap();
        let head = t.coords.iter().filter(|c| c[0] < 4).count();
        // A third of the entries are pinned to the 4 head slabs, plus
        // whatever the scatter happens to land there.
        assert!(head >= 100, "head slabs got {head} of 300");
        assert!(t.values.iter().all(|&v| (1.0..=5.0).contains(&v)));
    }

    #[test]
    fn synthetic_quads_match_the_coo_tensor_bitwise() {
        for (dims, nnz, hot) in [
            ([64, 8, 8], 300, 4),
            ([7, 3, 5], 1, 1),
            ([16, 4, 4], 40, 16),
            ([2048, 32, 32], 6000, 16),
            ([1, 1, 1], 17, 1),
        ] {
            let t = synthetic_coo(dims, nnz, hot);
            let want = crate::coo_to_quads(&t).unwrap();
            let (quads, norm_x2) = synthetic_quads(dims, nnz, hot);
            assert_eq!(quads.len(), want.len(), "{dims:?}/{nnz}/{hot}");
            for (a, b) in quads.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "{dims:?}/{nnz}/{hot}");
            }
            let want_x2: f64 = t.values.iter().map(|v| v * v).sum();
            assert_eq!(norm_x2.to_bits(), want_x2.to_bits(), "{dims:?}/{nnz}/{hot}");
        }
        assert_eq!(synthetic_quads([4, 4, 4], 0, 2), (Vec::new(), 0.0));
    }
}
