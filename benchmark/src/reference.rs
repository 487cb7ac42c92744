//! Independent references: plain single-threaded loops that share no
//! code with the layers they check. They are also the
//! `freeride.over_plain_x` baseline.

/// Lloyd's k-means for `iters` iterations over row-major `d`-wide
/// `data` from `init`; returns `(centroids k×d, counts k)`. An empty
/// cluster keeps its previous centre.
pub fn kmeans(
    data: &[f64],
    d: usize,
    k: usize,
    init: &[f64],
    iters: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut cents = init.to_vec();
    let mut counts = vec![0.0; k];
    for _ in 0..iters {
        let mut sums = vec![0.0; k * d];
        counts = vec![0.0; k];
        for row in data.chunks_exact(d) {
            let mut best = 0;
            let mut best_dist = f64::INFINITY;
            for (c, centre) in cents.chunks_exact(d).enumerate() {
                let dist: f64 = row.iter().zip(centre).map(|(x, y)| (x - y) * (x - y)).sum();
                if dist < best_dist {
                    best_dist = dist;
                    best = c;
                }
            }
            for (s, x) in sums[best * d..(best + 1) * d].iter_mut().zip(row) {
                *s += x;
            }
            counts[best] += 1.0;
        }
        for c in 0..k {
            if counts[c] > 0.0 {
                for j in 0..d {
                    cents[c * d + j] = sums[c * d + j] / counts[c];
                }
            }
        }
    }
    (cents, counts)
}

/// PCA's two reductions over `cols` samples of `rows` values, sample
/// `i` (1-based) holding `value(i, a)` at 1-based `a`: the mean vector,
/// then the scatter matrix around it (row-major `rows × rows`).
pub fn pca(rows: usize, cols: usize, value: impl Fn(usize, usize) -> f64) -> (Vec<f64>, Vec<f64>) {
    let mut mean = vec![0.0; rows];
    for i in 1..=cols {
        for (a, m) in mean.iter_mut().enumerate() {
            *m += value(i, a + 1);
        }
    }
    for m in &mut mean {
        *m /= cols as f64;
    }
    let mut cov = vec![0.0; rows * rows];
    let mut centred = vec![0.0; rows];
    for i in 1..=cols {
        for (a, c) in centred.iter_mut().enumerate() {
            *c = value(i, a + 1) - mean[a];
        }
        for a in 0..rows {
            for b in 0..rows {
                cov[a * rows + b] += centred[a] * centred[b];
            }
        }
    }
    (mean, cov)
}

/// Entry `t` of the repository's closed-form skewed COO tensor, from
/// its documented formula: `([i, j, k], value)`.
pub fn coo_entry(t: usize, dims: [usize; 3], hot: usize) -> ([usize; 3], f64) {
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

fn gram(f: &[f64], rank: usize) -> Vec<f64> {
    let mut g = vec![0.0; rank * rank];
    for row in f.chunks_exact(rank) {
        for r in 0..rank {
            for q in 0..rank {
                g[r * rank + q] += row[r] * row[q];
            }
        }
    }
    g
}

fn hadamard(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Gauss–Jordan inverse with partial pivoting of a well-conditioned
/// `n × n` matrix.
fn invert(m: &[f64], n: usize) -> Vec<f64> {
    let mut a = m.to_vec();
    let mut inv = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&x, &y| a[x * n + col].abs().total_cmp(&a[y * n + col].abs()))
            .expect("col < n");
        for j in 0..n {
            a.swap(col * n + j, pivot * n + j);
            inv.swap(col * n + j, pivot * n + j);
        }
        let p = a[col * n + col];
        for j in 0..n {
            a[col * n + j] /= p;
            inv[col * n + j] /= p;
        }
        for r in (0..n).filter(|&r| r != col) {
            let f = a[r * n + col];
            for j in 0..n {
                a[r * n + j] -= f * a[col * n + j];
                inv[r * n + j] -= f * inv[col * n + j];
            }
        }
    }
    inv
}

/// The other two modes, ascending, of the mode being solved.
fn other_modes(mode: usize) -> (usize, usize) {
    [(1, 2), (0, 2), (0, 1)][mode]
}

/// Mode-`mode` MTTKRP over COO `entries`:
/// `M[c[mode], r] += v · f1[c[m1], r] · f2[c[m2], r]`, `(m1, m2)` the
/// other two modes in ascending order.
pub fn mttkrp(
    entries: &[([usize; 3], f64)],
    mode: usize,
    out_dim: usize,
    rank: usize,
    factors: &[Vec<f64>; 3],
) -> Vec<f64> {
    let (m1, m2) = other_modes(mode);
    let mut m = vec![0.0; out_dim * rank];
    for (c, v) in entries {
        for r in 0..rank {
            m[c[mode] * rank + r] +=
                v * factors[m1][c[m1] * rank + r] * factors[m2][c[m2] * rank + r];
        }
    }
    m
}

/// The alternating-least-squares solve for one mode: `M · V⁻¹`, `V` the
/// Hadamard product of the other two factors' Gram matrices.
pub fn als_solve(m: &[f64], f1: &[f64], f2: &[f64], rank: usize) -> Vec<f64> {
    let inv = invert(&hadamard(&gram(f1, rank), &gram(f2, rank)), rank);
    let mut next = vec![0.0; m.len()];
    for (row, out) in m.chunks_exact(rank).zip(next.chunks_exact_mut(rank)) {
        for r in 0..rank {
            out[r] = (0..rank).map(|q| row[q] * inv[q * rank + r]).sum();
        }
    }
    next
}

/// Model fit `1 − ‖X − model‖ / ‖X‖` through the Gram identity, given
/// the final mode-0 MTTKRP `m0`.
pub fn cp_fit(norm_x2: f64, m0: &[f64], factors: &[Vec<f64>; 3], rank: usize) -> f64 {
    let inner: f64 = m0.iter().zip(&factors[0]).map(|(x, y)| x * y).sum();
    let model2: f64 = hadamard(
        &hadamard(&gram(&factors[0], rank), &gram(&factors[1], rank)),
        &gram(&factors[2], rank),
    )
    .iter()
    .sum();
    1.0 - ((norm_x2 - 2.0 * inner + model2).max(0.0) / norm_x2).sqrt()
}

/// `sweeps` rounds of CP-ALS over the closed-form tensor from the
/// closed-form integer factors `1 + (2i + 3r) mod 5`; returns the
/// factors and the fit.
pub fn cp_als(
    dims: [usize; 3],
    nnz: usize,
    hot: usize,
    rank: usize,
    sweeps: usize,
) -> ([Vec<f64>; 3], f64) {
    let entries: Vec<_> = (0..nnz).map(|t| coo_entry(t, dims, hot)).collect();
    let mut factors = dims.map(|rows| {
        (0..rows * rank)
            .map(|x| (1 + ((x / rank) * 2 + (x % rank) * 3) % 5) as f64)
            .collect::<Vec<f64>>()
    });
    for _ in 0..sweeps {
        for mode in 0..3 {
            let m = mttkrp(&entries, mode, dims[mode], rank, &factors);
            let (m1, m2) = other_modes(mode);
            factors[mode] = als_solve(&m, &factors[m1], &factors[m2], rank);
        }
    }
    let m0 = mttkrp(&entries, 0, dims[0], rank, &factors);
    let norm_x2 = entries.iter().map(|(_, v)| v * v).sum();
    let fit = cp_fit(norm_x2, &m0, &factors, rank);
    (factors, fit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_separates_two_blobs() {
        let data = [0.0, 0.0, 1.0, 0.0, 10.0, 10.0, 11.0, 10.0];
        let (cents, counts) = kmeans(&data, 2, 2, &[0.0, 0.0, 10.0, 10.0], 3);
        assert_eq!(cents, vec![0.5, 0.0, 10.5, 10.0]);
        assert_eq!(counts, vec![2.0, 2.0]);
    }

    #[test]
    fn pca_of_a_line_has_rank_one_scatter() {
        let (mean, cov) = pca(2, 3, |i, a| (i * a) as f64);
        assert_eq!(mean, vec![2.0, 4.0]);
        assert_eq!(cov, vec![2.0, 4.0, 4.0, 8.0]);
    }

    #[test]
    fn invert_round_trips() {
        let m = [4.0, 7.0, 2.0, 6.0];
        let inv = invert(&m, 2);
        let want = [0.6, -0.7, -0.2, 0.4];
        assert!(inv.iter().zip(want).all(|(x, y)| (x - y).abs() < 1e-12));
    }
}
