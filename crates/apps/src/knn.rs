//! k-nearest-neighbours — the *negative space* of the case study.
//!
//! The kNN top-k insertion kernel writes its globals with
//! order-dependent `=` assignments, so the detector correctly refuses to
//! offload it (see `cfr_core::Detection::rejections`); it runs on the
//! interpreter, or as a hand-written FREERIDE application using a
//! custom combination function (merging two sorted top-k lists —
//! something the default cell-wise combine cannot express).

use std::sync::Arc;
use std::time::Instant;

use freeride::{
    Application, CombineOp, GroupSpec, JobConfig, RObjHandle, ReductionObject, Runtime, Split,
};

use crate::error::AppError;
use crate::timing::AppTiming;

/// Parameters of a kNN run.
#[derive(Debug, Clone)]
pub struct KnnParams {
    /// Number of reference points.
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
    /// Neighbours to keep.
    pub k: usize,
    /// FREERIDE job configuration.
    pub config: JobConfig,
}

impl KnnParams {
    /// Construct with defaults.
    pub fn new(n: usize, d: usize, k: usize) -> KnnParams {
        KnnParams {
            n,
            d,
            k,
            config: JobConfig::with_threads(1),
        }
    }

    /// Set the thread count.
    pub fn threads(mut self, t: usize) -> KnnParams {
        self.config.threads = t;
        self
    }
}

/// Result of a kNN run.
#[derive(Debug, Clone)]
pub struct KnnResult {
    /// Squared distances of the k nearest points, ascending.
    pub dists: Vec<f64>,
    /// Their labels.
    pub labels: Vec<i64>,
    /// Timing breakdown.
    pub timing: AppTiming,
}

/// Same formulas as `chapel_frontend::programs::knn`.
fn point(i: usize, j: usize) -> f64 {
    ((i * 11 + j * 29) % 53) as f64
}
fn query(j: usize) -> f64 {
    ((j * 19) % 53) as f64
}

/// Hand-written FREERIDE kNN using a custom `combination_t`: each
/// thread keeps a local top-k (distance, label) list in its reduction
/// object; combination merges two sorted lists.
pub fn run_manual(params: &KnnParams) -> Result<KnnResult, AppError> {
    let wall = Instant::now();
    let (n, d, k) = (params.n, params.d, params.k);

    // Row layout: d coordinates then the label.
    let mut buffer = Vec::with_capacity(n * (d + 1));
    for i in 1..=n {
        for j in 1..=d {
            buffer.push(point(i, j));
        }
        buffer.push((i % 3) as f64);
    }
    let q: Vec<f64> = (1..=d).map(query).collect();

    let mut rt = Runtime::initialize(params.config.clone());
    // Group 0: distances (identity +inf via Min so empty cells sort
    // last); group 1: labels. Updates happen through `set`-style logic
    // inside the reduction, so the op only matters for identities.
    rt.reduction_object_alloc(vec![
        GroupSpec::new("dist", k, CombineOp::Min),
        GroupSpec::new("label", k, CombineOp::Sum),
    ]);

    let insert = move |robj: &mut dyn RObjHandle, k: usize, dist: f64, label: f64| {
        // Insertion into the sorted top-k held in cells 0..k.
        if dist >= robj.get(0, k - 1) {
            return;
        }
        let mut pos = k - 1;
        while pos > 0 && robj.get(0, pos - 1) > dist {
            let dprev = robj.get(0, pos - 1);
            let lprev = robj.get(1, pos - 1);
            set_cell(robj, pos, dprev, lprev);
            pos -= 1;
        }
        set_cell(robj, pos, dist, label);
    };

    let qref = q.clone();
    rt.register(
        Application::new(Arc::new(
            move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                for row in split.iter_rows() {
                    let mut dist = 0.0;
                    for j in 0..qref.len() {
                        let diff = row[j] - qref[j];
                        dist += diff * diff;
                    }
                    insert(robj, k, dist, row[qref.len()]);
                }
            },
        ))
        .with_combination(Arc::new(
            move |a: &mut ReductionObject, b: &ReductionObject| {
                // Merge two sorted top-k lists.
                let mut merged: Vec<(f64, f64)> = Vec::with_capacity(2 * k);
                for i in 0..k {
                    merged.push((a.get(0, i), a.get(1, i)));
                    merged.push((b.get(0, i), b.get(1, i)));
                }
                merged.sort_by(|x, y| x.0.total_cmp(&y.0));
                for (i, (dist, label)) in merged.into_iter().take(k).enumerate() {
                    a.set(0, i, dist);
                    a.set(1, i, label);
                }
            },
        )),
    );

    let outcome = rt.execute(&buffer, d + 1)?;
    let dists: Vec<f64> = (0..k).map(|i| outcome.robj.get(0, i)).collect();
    let labels: Vec<i64> = (0..k).map(|i| outcome.robj.get(1, i) as i64).collect();
    Ok(KnnResult {
        dists,
        labels,
        timing: AppTiming {
            linearize_ns: 0,
            stats: outcome.stats,
            wall_ns: wall.elapsed().as_nanos() as u64,
            ..Default::default()
        },
    })
}

/// Store `(dist, label)` into slot `pos` of the top-k lists through the
/// accumulate API. Every write during an insertion-shift only ever
/// *lowers* the distance at its target slot (the evicted largest falls
/// off the end), so a Min-fold is an exact store; labels overwrite via a
/// Sum-fold delta — sound under full replication, where each thread owns
/// its private reduction-object copy.
fn set_cell(robj: &mut dyn RObjHandle, pos: usize, dist: f64, label: f64) {
    robj.accumulate(0, pos, dist);
    let cur_l = robj.get(1, pos);
    robj.accumulate(1, pos, label - cur_l);
}

/// Oracle: exact top-k by sorting all distances.
pub fn run_oracle(params: &KnnParams) -> KnnResult {
    let wall = Instant::now();
    let (n, d, k) = (params.n, params.d, params.k);
    let q: Vec<f64> = (1..=d).map(query).collect();
    let mut all: Vec<(f64, i64)> = (1..=n)
        .map(|i| {
            let mut dist = 0.0;
            for j in 1..=d {
                let diff = point(i, j) - q[j - 1];
                dist += diff * diff;
            }
            (dist, (i % 3) as i64)
        })
        .collect();
    all.sort_by(|x, y| x.0.total_cmp(&y.0));
    all.truncate(k);
    KnnResult {
        dists: all.iter().map(|x| x.0).collect(),
        labels: all.iter().map(|x| x.1).collect(),
        timing: AppTiming {
            wall_ns: wall.elapsed().as_nanos() as u64,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod knn_tests {
    use super::*;

    #[test]
    fn manual_top_k_distances_match_oracle() {
        for threads in [1usize, 3] {
            let params = KnnParams::new(80, 3, 5).threads(threads);
            let oracle = run_oracle(&params);
            let manual = run_manual(&params).unwrap();
            assert_eq!(manual.dists, oracle.dists, "t={threads}");
        }
    }

    #[test]
    fn oracle_sorted() {
        let r = run_oracle(&KnnParams::new(50, 2, 6));
        for w in r.dists.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
