//! Deterministic dataset builders shared by every version of every
//! application.
//!
//! The formulas here are *identical* to the initialization loops in the
//! canned Chapel programs (`chapel_frontend::programs`), so the
//! interpreter oracle, the translated versions, and the hand-written
//! FREERIDE versions all consume the same values — making results
//! directly comparable across versions. Indices are 1-based, as in the
//! Chapel sources.

use linearize::{Shape, Value};

/// `data[i].pos[j] = (i*31 + j*7) % 97` — the k-means point cloud.
#[inline]
pub fn kmeans_point(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 7) % 97) as f64
}

/// `centroids[c].pos[j] = (c*13 + j*5) % 97` — initial centroids.
#[inline]
pub fn kmeans_centroid(c: usize, j: usize) -> f64 {
    ((c * 13 + j * 5) % 97) as f64
}

/// `data[i].val[a] = (i*17 + a*3) % 19` — the PCA matrix.
#[inline]
pub fn pca_value(i: usize, a: usize) -> f64 {
    ((i * 17 + a * 3) % 19) as f64
}

/// `data[i] = ((i*37) % 100) / 100.0` — histogram samples in [0, 1).
#[inline]
pub fn histogram_value(i: usize) -> f64 {
    ((i * 37) % 100) as f64 / 100.0
}

/// The k-means dataset as a flat row-major buffer (`n` rows of `d`
/// slots) — what the hand-written FREERIDE version consumes.
pub fn kmeans_points_flat(n: usize, d: usize) -> Vec<f64> {
    let mut buf = Vec::with_capacity(n * d);
    for i in 1..=n {
        for j in 1..=d {
            buf.push(kmeans_point(i, j));
        }
    }
    buf
}

/// The k-means dataset as the nested Chapel structure
/// (`[1..n] record Point { pos: [1..d] real }`) — what the translated
/// versions linearize.
pub fn kmeans_points_nested(n: usize, d: usize) -> Value {
    Value::Array(
        (1..=n)
            .map(|i| {
                Value::Record(vec![Value::Array(
                    (1..=d).map(|j| Value::Real(kmeans_point(i, j))).collect(),
                )])
            })
            .collect(),
    )
}

/// Initial centroids as a flat buffer of `d` coordinates per centroid.
pub fn kmeans_centroids_flat(k: usize, d: usize) -> Vec<f64> {
    let mut buf = Vec::with_capacity(k * d);
    for c in 1..=k {
        for j in 1..=d {
            buf.push(kmeans_centroid(c, j));
        }
    }
    buf
}

/// Shape of one k-means point record.
pub fn kmeans_point_shape(d: usize) -> Shape {
    Shape::record(vec![("pos", Shape::array(Shape::Real, d))])
}

/// Shape of the k-means centroid array (with the count field, as in the
/// Chapel program).
pub fn kmeans_centroid_shape(k: usize, d: usize) -> Shape {
    Shape::array(
        Shape::record(vec![
            ("pos", Shape::array(Shape::Real, d)),
            ("count", Shape::Int),
        ]),
        k,
    )
}

/// The PCA dataset as a flat buffer (`cols` rows of `rows` slots).
pub fn pca_matrix_flat(rows: usize, cols: usize) -> Vec<f64> {
    let mut buf = Vec::with_capacity(rows * cols);
    for i in 1..=cols {
        for a in 1..=rows {
            buf.push(pca_value(i, a));
        }
    }
    buf
}

/// The PCA dataset as the nested structure
/// (`[1..cols] record Sample { val: [1..rows] real }`).
pub fn pca_matrix_nested(rows: usize, cols: usize) -> Value {
    Value::Array(
        (1..=cols)
            .map(|i| {
                Value::Record(vec![Value::Array(
                    (1..=rows).map(|a| Value::Real(pca_value(i, a))).collect(),
                )])
            })
            .collect(),
    )
}

/// Histogram samples, flat (unit 1).
pub fn histogram_flat(n: usize) -> Vec<f64> {
    (1..=n).map(histogram_value).collect()
}

/// Histogram samples, nested (`[1..n] real`).
pub fn histogram_nested(n: usize) -> Value {
    Value::Array((1..=n).map(|i| Value::Real(histogram_value(i))).collect())
}

/// Linear-regression samples: `xs[i] = i`, `ys[i] = 3i + 1`, zipped
/// flat (unit 2: x then y).
pub fn linreg_flat(n: usize) -> Vec<f64> {
    let mut buf = Vec::with_capacity(n * 2);
    for i in 1..=n {
        buf.push(i as f64);
        buf.push(3.0 * i as f64 + 1.0);
    }
    buf
}

/// Seeded Gaussian point cloud around `k` well-separated cluster
/// centres (for the realistic example binaries). Box–Muller transform
/// over a splitmix64 stream; `rand` stays a dev-only dependency of the
/// library crates, so this is self-contained.
pub fn gaussian_clusters(n: usize, d: usize, k: usize, spread: f64, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut uniform = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let mut buf = Vec::with_capacity(n * d);
    for i in 0..n {
        let cluster = i % k.max(1);
        for j in 0..d {
            let centre = ((cluster * 37 + j * 11) % 100) as f64;
            // Box–Muller.
            let u1 = uniform().max(f64::MIN_POSITIVE);
            let u2 = uniform();
            let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            buf.push(centre + spread * g);
        }
    }
    buf
}

#[cfg(test)]
mod data_tests {
    use super::*;
    use chapel_frontend::programs;
    use chapel_interp::Interpreter;

    #[test]
    fn kmeans_formulas_match_chapel_init() {
        let (n, k, d) = (12usize, 3usize, 2usize);
        let interp = Interpreter::run_source(&programs::kmeans(n, k, d)).unwrap();
        let data = interp.global("data").unwrap().to_linear().unwrap();
        let lin = linearize::Linearizer::new(&Shape::array(kmeans_point_shape(d), n))
            .linearize(&data)
            .unwrap();
        assert_eq!(lin.buffer, kmeans_points_flat(n, d));
    }

    #[test]
    fn nested_and_flat_agree() {
        let (n, d) = (5usize, 3usize);
        let nested = kmeans_points_nested(n, d);
        let lin = linearize::Linearizer::new(&Shape::array(kmeans_point_shape(d), n))
            .linearize(&nested)
            .unwrap();
        assert_eq!(lin.buffer, kmeans_points_flat(n, d));
    }

    #[test]
    fn pca_formulas_match_chapel_init() {
        let (rows, cols) = (3usize, 4usize);
        let interp = Interpreter::run_source(&programs::pca(rows, cols)).unwrap();
        let data = interp.global("data").unwrap().to_linear().unwrap();
        let shape = Shape::array(
            Shape::record(vec![("val", Shape::array(Shape::Real, rows))]),
            cols,
        );
        let lin = linearize::Linearizer::new(&shape).linearize(&data).unwrap();
        assert_eq!(lin.buffer, pca_matrix_flat(rows, cols));
    }

    #[test]
    fn histogram_formula_matches() {
        let interp = Interpreter::run_source(&programs::histogram(10, 4)).unwrap();
        let data = interp.global("data").unwrap().to_linear().unwrap();
        let lin = linearize::Linearizer::new(&Shape::array(Shape::Real, 10))
            .linearize(&data)
            .unwrap();
        assert_eq!(lin.buffer, histogram_flat(10));
    }

    #[test]
    fn gaussian_clusters_deterministic_and_sized() {
        let a = gaussian_clusters(100, 4, 5, 2.0, 42);
        let b = gaussian_clusters(100, 4, 5, 2.0, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 400);
        let c = gaussian_clusters(100, 4, 5, 2.0, 43);
        assert_ne!(a, c);
    }
}
