//! Canned Chapel programs: the paper's figures plus the application
//! kernels used throughout the workspace (interpreter oracle, translator
//! input, benchmarks).
//!
//! Sizes are parameters because the experiments sweep them; every
//! function returns a self-contained program in the supported subset.

/// Figure 2: the user-defined sum reduction class.
pub const FIG2_SUM_REDUCE_CLASS: &str = r#"
/* The sum reduction class (paper Figure 2). */
class SumReduceScanOp: ReduceScanOp {
    type eltType;
    var value: real;

    /* The local reduction function. */
    def accumulate(x) {
        value = value + x;
    }

    /* The global reduction function. */
    def combine(x) {
        value = value + x.value;
    }

    /* The function that outputs the final result. */
    def generate() {
        return value;
    }
}
"#;

/// Figure 6: the nested record structure used to explain linearization.
pub fn fig6_records(t: usize, n: usize, m: usize) -> String {
    format!(
        r#"
record A {{ a1: [1..{m}] real; a2: int; }}
record B {{ b1: [1..{n}] A; b2: int; }}
var data: [1..{t}] B;
"#
    )
}

/// Figure 8 (left): the nested reduction loop before linearization,
/// including the Figure 6 declarations.
pub fn fig8_nested_sum(t: usize, n: usize, m: usize) -> String {
    format!(
        r#"
{records}
var sum: real = 0.0;
for i in 1..{t} {{
    for j in 1..{n} {{
        for k in 1..{m} {{
            sum += data[i].b1[j].a1[k];
        }}
    }}
}}
"#,
        records = fig6_records(t, n, m)
    )
}

/// A sum over an array using the built-in `+ reduce` (global-view
/// abstraction).
pub fn sum_reduce(n: usize) -> String {
    format!(
        r#"
var A: [1..{n}] real;
for i in 1..{n} {{ A[i] = i; }}
var total: real = + reduce A;
"#
    )
}

/// `min reduce (A + B)` — the paper's example of a reduction over an
/// iterative expression.
pub fn min_reduce_sum_expr(n: usize) -> String {
    format!(
        r#"
var A: [1..{n}] real;
var B: [1..{n}] real;
for i in 1..{n} {{ A[i] = i; B[i] = {n} - i; }}
var m: real = min reduce (A + B);
"#
    )
}

/// The k-means kernel (Figure 3 expressed as explicit reduction loops):
/// one pass assigns each point to its nearest centroid and accumulates
/// per-centroid coordinate sums and counts into `newCent`.
///
/// `npoints` points of dimension `d`, `k` centroids. The centroids and
/// the accumulator use Chapel records — the "complex structure" whose
/// access cost opt-2 eliminates.
pub fn kmeans(npoints: usize, k: usize, d: usize) -> String {
    format!(
        r#"
/* k-means clustering, one reduction pass (paper Figure 3). */
record Point {{ pos: [1..{d}] real; }}
record Centroid {{ pos: [1..{d}] real; count: int; }}

var data: [1..{npoints}] Point;
var centroids: [1..{k}] Centroid;
var newCent: [1..{k}] Centroid;

/* Initialise points and centroids deterministically. */
for i in 1..{npoints} {{
    for j in 1..{d} {{
        data[i].pos[j] = (i * 31 + j * 7) % 97;
    }}
}}
for c in 1..{k} {{
    for j in 1..{d} {{
        centroids[c].pos[j] = (c * 13 + j * 5) % 97;
    }}
}}

/* The reduction pass. */
for i in 1..{npoints} {{
    var best: int = 1;
    var bestDist: real = 1.0e300;
    for c in 1..{k} {{
        var dist: real = 0.0;
        for j in 1..{d} {{
            var diff: real = data[i].pos[j] - centroids[c].pos[j];
            dist += diff * diff;
        }}
        if dist < bestDist {{
            bestDist = dist;
            best = c;
        }}
    }}
    for j in 1..{d} {{
        newCent[best].pos[j] += data[i].pos[j];
    }}
    newCent[best].count += 1;
}}
"#
    )
}

/// The PCA kernel: two reduction phases — the mean vector and the
/// covariance matrix — over a `rows × cols` data matrix stored as
/// `cols` samples of `rows` values.
pub fn pca(rows: usize, cols: usize) -> String {
    format!(
        r#"
/* PCA: mean vector and covariance matrix (two reduction phases). */
record Sample {{ val: [1..{rows}] real; }}

var data: [1..{cols}] Sample;
var mean: [1..{rows}] real;
var cov: [1..{rows}, 1..{rows}] real;

for i in 1..{cols} {{
    for a in 1..{rows} {{
        data[i].val[a] = (i * 17 + a * 3) % 19;
    }}
}}

/* Phase 1: mean vector. */
for i in 1..{cols} {{
    for a in 1..{rows} {{
        mean[a] += data[i].val[a];
    }}
}}
for a in 1..{rows} {{
    mean[a] /= {cols};
}}

/* Phase 2: covariance matrix. */
for i in 1..{cols} {{
    for a in 1..{rows} {{
        for b in 1..{rows} {{
            cov[a, b] += (data[i].val[a] - mean[a]) * (data[i].val[b] - mean[b]);
        }}
    }}
}}
"#
    )
}

/// Histogram: bucket counts over scalar data (an extension app from the
/// FREERIDE literature).
pub fn histogram(npoints: usize, nbuckets: usize) -> String {
    format!(
        r#"
/* Histogram over [0, 1) data. */
var data: [1..{npoints}] real;
var hist: [1..{nbuckets}] int;

for i in 1..{npoints} {{
    data[i] = ((i * 37) % 100) / 100.0;
}}

for i in 1..{npoints} {{
    var b: int = int(data[i] * {nbuckets}) + 1;
    if b > {nbuckets} {{
        b = {nbuckets};
    }}
    hist[b] += 1;
}}
"#
    )
}

/// Simple linear regression via sufficient statistics (extension app):
/// four scalar reductions in one pass.
pub fn linear_regression(npoints: usize) -> String {
    format!(
        r#"
/* Linear regression: accumulate sufficient statistics. */
var xs: [1..{npoints}] real;
var ys: [1..{npoints}] real;

for i in 1..{npoints} {{
    xs[i] = i;
    ys[i] = 3.0 * i + 1.0;
}}

var sx: real = 0.0;
var sy: real = 0.0;
var sxx: real = 0.0;
var sxy: real = 0.0;
for i in 1..{npoints} {{
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
}}
var n: real = {npoints};
var slope: real = (n * sxy - sx * sy) / (n * sxx - sx * sx);
var intercept: real = (sy - slope * sx) / n;
"#
    )
}

/// Sparse k-means over the closed-form CSR pattern shared with
/// `cfr_sparse::synthetic_csr(rows, cols, w)`: row `i0` (0-based)
/// stores `1 + (i0*i0 + i0) % w` entries at columns `i0 % s + t*s`
/// (`s = cols / w`) with values `1 + (i0*3 + t*5) % 7`. One assignment
/// pass accumulates per-centroid column sums and counts into `newCent`
/// using the expanded distance `cnorm[c] - 2·dot` (the `Σx²` term is
/// row-constant and cancels in the argmin) — the exact operation order
/// of the Rust kernel, so integer-valued inputs make the comparison
/// bitwise.
pub fn sparse_kmeans(rows: usize, cols: usize, w: usize, k: usize) -> String {
    assert!(w >= 1 && cols >= w, "need cols >= w >= 1");
    let s = cols / w;
    let colsp1 = cols + 1;
    format!(
        r#"
/* Sparse k-means: one assignment pass over a closed-form CSR matrix. */
var cent: [1..{k}, 1..{cols}] real;
var cnorm: [1..{k}] real;
var newCent: [1..{k}, 1..{colsp1}] real;

for c in 1..{k} {{
    for j in 1..{cols} {{
        cent[c, j] = (c * 13 + j * 5) % 7;
    }}
}}
for c in 1..{k} {{
    for j in 1..{cols} {{
        cnorm[c] += cent[c, j] * cent[c, j];
    }}
}}

for i in 1..{rows} {{
    var i0: int = i - 1;
    var len: int = 1 + (i0 * i0 + i0) % {w};
    var best: int = 1;
    var bestDist: real = 1.0e300;
    for c in 1..{k} {{
        var dot: real = 0.0;
        var t: int = 0;
        while t < len {{
            var col: int = i0 % {s} + t * {s};
            dot += (1 + (i0 * 3 + t * 5) % 7) * cent[c, col + 1];
            t += 1;
        }}
        var dist: real = cnorm[c] - 2.0 * dot;
        if dist < bestDist {{
            bestDist = dist;
            best = c;
        }}
    }}
    var u: int = 0;
    while u < len {{
        var col: int = i0 % {s} + u * {s};
        newCent[best, col + 1] += 1 + (i0 * 3 + u * 5) % 7;
        u += 1;
    }}
    newCent[best, {colsp1}] += 1;
}}
"#
    )
}

/// Mode-0 MTTKRP over the closed-form COO pattern of
/// `cfr_sparse::synthetic_coo(dims, nnz, hot)` (the one per-entry
/// formula behind it and `synthetic_quads`; the loop body below spells
/// it out term for term) and factors from
/// `cfr_sparse::synthetic_factor`: for every stored entry `(i, j, k, v)`
/// accumulate `M[i, r] += v * B[j, r] * C[k, r]`. All inputs are small
/// integers, so the reduction is exact in f64 and the comparison
/// against the FREERIDE kernel is bitwise.
pub fn sparse_mttkrp(dims: [usize; 3], nnz: usize, hot: usize, rank: usize) -> String {
    assert!(
        hot >= 1 && hot <= dims[0] && dims.iter().all(|&d| d > 0),
        "need 1 <= hot <= dims[0] and nonzero dims"
    );
    let (im, jm, km) = (dims[0], dims[1], dims[2]);
    format!(
        r#"
/* MTTKRP (mode 0) over a closed-form COO 3-tensor. */
var M: [1..{im}, 1..{rank}] real;
var B: [1..{jm}, 1..{rank}] real;
var C: [1..{km}, 1..{rank}] real;

for x in 1..{jm} {{
    for r in 1..{rank} {{
        B[x, r] = 1 + ((x - 1) * 2 + (r - 1) * 3) % 5;
    }}
}}
for x in 1..{km} {{
    for r in 1..{rank} {{
        C[x, r] = 1 + ((x - 1) * 2 + (r - 1) * 3) % 5;
    }}
}}

for t in 1..{nnz} {{
    var t0: int = t - 1;
    var i: int = (t0 * 7 + 3) % {im};
    if t0 % 3 == 0 {{
        i = t0 % {hot};
    }}
    var j: int = (t0 * 5) % {jm};
    var k: int = (t0 * 11) % {km};
    var v: real = 1 + (t0 * t0) % 5;
    for r in 1..{rank} {{
        M[i + 1, r] += v * B[j + 1, r] * C[k + 1, r];
    }}
}}
"#
    )
}

/// k-nearest-neighbours classification of one query point: a top-k
/// selection expressed as a generalized reduction (extension app).
pub fn knn(npoints: usize, d: usize, k: usize) -> String {
    format!(
        r#"
/* kNN: distance of every point to a fixed query, then a k-min pass. */
record Point {{ pos: [1..{d}] real; label: int; }}

var data: [1..{npoints}] Point;
var query: [1..{d}] real;
var bestDist: [1..{k}] real;
var bestLabel: [1..{k}] int;

for i in 1..{npoints} {{
    for j in 1..{d} {{
        data[i].pos[j] = (i * 11 + j * 29) % 53;
    }}
    data[i].label = i % 3;
}}
for j in 1..{d} {{
    query[j] = (j * 19) % 53;
}}
for s in 1..{k} {{
    bestDist[s] = 1.0e300;
}}

for i in 1..{npoints} {{
    var dist: real = 0.0;
    for j in 1..{d} {{
        var diff: real = data[i].pos[j] - query[j];
        dist += diff * diff;
    }}
    /* Insert into the running top-k (insertion into sorted list). */
    var s: int = {k};
    while s >= 1 && bestDist[s] > dist {{
        s -= 1;
    }}
    s += 1;
    if s <= {k} {{
        var t: int = {k};
        while t > s {{
            bestDist[t] = bestDist[t - 1];
            bestLabel[t] = bestLabel[t - 1];
            t -= 1;
        }}
        bestDist[s] = dist;
        bestLabel[s] = data[i].label;
    }}
}}
"#
    )
}

#[cfg(test)]
mod program_tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn all_programs_parse() {
        parse(FIG2_SUM_REDUCE_CLASS).unwrap();
        parse(&fig6_records(2, 3, 4)).unwrap();
        parse(&fig8_nested_sum(2, 3, 4)).unwrap();
        parse(&sum_reduce(10)).unwrap();
        parse(&min_reduce_sum_expr(10)).unwrap();
        parse(&kmeans(20, 3, 2)).unwrap();
        parse(&pca(4, 6)).unwrap();
        parse(&histogram(50, 8)).unwrap();
        parse(&linear_regression(30)).unwrap();
        parse(&knn(20, 2, 3)).unwrap();
        parse(&sparse_kmeans(16, 12, 4, 3)).unwrap();
        parse(&sparse_mttkrp([16, 4, 4], 40, 4, 3)).unwrap();
    }

    #[test]
    fn kmeans_declares_expected_structures() {
        let p = parse(&kmeans(10, 2, 3)).unwrap();
        let records: Vec<&str> = p
            .items
            .iter()
            .filter_map(|i| match i {
                crate::ast::Item::Record(r) => Some(r.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(records, vec!["Point", "Centroid"]);
    }
}
