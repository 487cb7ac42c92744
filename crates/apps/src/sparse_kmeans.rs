//! Sparse k-means: clustering the rows of a CSR matrix — the first
//! application of the sparse & irregular workload tier.
//!
//! Each data point is one sparse row; distances use the expanded form
//!
//! ```text
//! ‖x − c‖² = ‖x‖² − 2·⟨x, c⟩ + ‖c‖²
//! ```
//!
//! where `‖x‖²` is row-constant and cancels in the argmin, so the
//! kernel computes `cnorm[c] − 2·dot` touching **only the stored
//! entries** — the whole point of staying sparse. The accumulation
//! phase likewise adds only the stored entries into the assigned
//! centroid's cells, so a zero-nnz row contributes exactly its count
//! (an identity update on the coordinate sums, never an error).
//!
//! The input is the closed-form [`cfr_sparse::synthetic_csr`] pattern
//! shared with the `chapel_frontend::programs::sparse_kmeans` oracle:
//! integer-valued nonzeros and integer initial centroids make every
//! reduction cell an exact integer sum in f64, so results are
//! **bit-identical** across thread counts, sync schemes, and cluster
//! shapes — the property the `sparse_diff` gates pin down.
//!
//! Work is distributed by **nonzero count**, not row count: the job
//! config gets [`cfr_sparse::csr_splitter`]'s weighted splitter, so a
//! skewed matrix does not leave most threads idle behind one heavy
//! split. With [`SparseKmeansParams::inspect`] set, the
//! inspector/executor pass scans the padded shard once and installs
//! the scheme it plans (recorded as a `sparse.inspect` span).

use std::sync::Arc;
use std::time::Instant;

use cfr_sparse::{csr_splitter, csr_to_padded, synthetic_csr, PlanParams, SchemePlan};
use freeride::{
    CombineOp, DataView, Engine, GroupSpec, JobConfig, RObjHandle, RObjLayout, RunStats, Split,
};
use linearize::sparse::padded_row_entries;
use obs::Recorder;

use crate::error::AppError;
use crate::timing::AppTiming;

/// Parameters of a sparse k-means run.
#[derive(Debug, Clone)]
pub struct SparseKmeansParams {
    /// Matrix rows (data points).
    pub rows: usize,
    /// Matrix columns (feature dimensionality).
    pub cols: usize,
    /// Row-width modulus of the closed-form pattern (max nnz per row);
    /// requires `cols >= w >= 1`.
    pub w: usize,
    /// Number of centroids.
    pub k: usize,
    /// Outer-loop iterations.
    pub iters: usize,
    /// Run the inspector/executor pass and install its planned scheme
    /// (overrides `config.scheme`).
    pub inspect: bool,
    /// FREERIDE job configuration; the driver installs the nnz-weighted
    /// splitter on top of it.
    pub config: JobConfig,
}

impl SparseKmeansParams {
    /// A small default configuration.
    pub fn new(rows: usize, cols: usize, w: usize, k: usize, iters: usize) -> SparseKmeansParams {
        SparseKmeansParams {
            rows,
            cols,
            w,
            k,
            iters,
            inspect: false,
            config: JobConfig::with_threads(1),
        }
    }

    /// Set the thread count.
    pub fn threads(mut self, t: usize) -> SparseKmeansParams {
        self.config.threads = t;
        self
    }

    /// Enable the inspector/executor pass.
    pub fn with_inspect(mut self) -> SparseKmeansParams {
        self.inspect = true;
        self
    }
}

/// Result of a sparse k-means run.
#[derive(Debug, Clone)]
pub struct SparseKmeansResult {
    /// Final centroid coordinates, row-major `k × cols`.
    pub centroids: Vec<f64>,
    /// Final per-centroid point counts.
    pub counts: Vec<f64>,
    /// Raw reduction cells of the final pass (`k × (cols+1)`: per
    /// centroid, `cols` coordinate sums then a count) — exact integer
    /// sums, which is what the differential oracle compares.
    pub sums: Vec<f64>,
    /// The inspector's plan, when [`SparseKmeansParams::inspect`] ran.
    pub plan: Option<SchemePlan>,
    /// Timing breakdown.
    pub timing: AppTiming,
}

/// Initial centroids of the shared closed form: 0-based `(c0, j0)`
/// holds `((c0+1)*13 + (j0+1)*5) % 7` — identical to the Chapel
/// oracle's 1-based `(c*13 + j*5) % 7`.
pub fn initial_centroids(k: usize, cols: usize) -> Vec<f64> {
    let mut cents = Vec::with_capacity(k * cols);
    for c in 1..=k {
        for j in 1..=cols {
            cents.push(((c * 13 + j * 5) % 7) as f64);
        }
    }
    cents
}

/// The reduction-object layout: one group of `k * (cols+1)` cells.
pub fn robj_layout(k: usize, cols: usize) -> Arc<RObjLayout> {
    RObjLayout::new(vec![GroupSpec::new(
        "newCent",
        k * (cols + 1),
        CombineOp::Sum,
    )])
}

/// One round's kernel over padded CSR rows, capturing the current
/// centroids: assign each sparse row to the centroid minimizing
/// `cnorm[c] − 2·dot` (stored entries only, ties to the lowest `c`),
/// then accumulate the stored entries and a count. Shared verbatim
/// with the `sparse.kmeans` cluster task so single-process, cluster,
/// and oracle runs perform the identical floating-point operations.
pub fn round_kernel(
    cents: Vec<f64>,
    k: usize,
    cols: usize,
) -> impl Fn(&Split<'_>, &mut dyn RObjHandle) + Sync + Send {
    // ‖c‖² once per round, in ascending j — the oracle's order.
    let mut cnorm = vec![0.0f64; k];
    for c in 0..k {
        for j in 0..cols {
            cnorm[c] += cents[c * cols + j] * cents[c * cols + j];
        }
    }
    move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
        for row in split.iter_rows() {
            let mut best = 0usize;
            let mut best_dist = f64::INFINITY;
            for c in 0..k {
                let mut dot = 0.0;
                for (col, v) in padded_row_entries(row) {
                    if col < cols {
                        dot += v * cents[c * cols + col];
                    }
                }
                let dist = cnorm[c] - 2.0 * dot;
                if dist < best_dist {
                    best_dist = dist;
                    best = c;
                }
            }
            for (col, v) in padded_row_entries(row) {
                if col < cols {
                    robj.accumulate(0, best * (cols + 1) + col, v);
                }
            }
            robj.accumulate(0, best * (cols + 1) + cols, 1.0);
        }
    }
}

/// Fold the merged cells into the next round's centroids (empty
/// clusters keep their previous position).
pub fn update_centroids(cells: &[f64], old: &[f64], k: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
    let mut next = old.to_vec();
    let mut counts = vec![0.0; k];
    for c in 0..k {
        let count = cells[c * (cols + 1) + cols];
        counts[c] = count;
        if count > 0.0 {
            for j in 0..cols {
                next[c * cols + j] = cells[c * (cols + 1) + j] / count;
            }
        }
    }
    (next, counts)
}

/// Run sparse k-means over the closed-form synthetic matrix.
pub fn run(params: &SparseKmeansParams) -> Result<SparseKmeansResult, AppError> {
    let wall = Instant::now();
    let (k, cols) = (params.k, params.cols);
    let m = synthetic_csr(params.rows, cols, params.w);

    let lin_start = Instant::now();
    let (buf, unit) = csr_to_padded(&m)?;
    let linearize_ns = lin_start.elapsed().as_nanos() as u64;

    let mut config = params.config.clone();
    config.splitter = csr_splitter(&m);
    let rec = Arc::new(Recorder::new(config.trace));
    let plan = if params.inspect {
        let (_, plan) = cfr_sparse::plan_padded_csr(
            &buf,
            unit,
            cols,
            &PlanParams::new(k * (cols + 1), 1),
            &rec,
        );
        config.scheme = plan.scheme;
        Some(plan)
    } else {
        None
    };

    let layout = robj_layout(k, cols);
    let threads = config.threads;
    let engine = Engine::with_recorder(config, rec.clone());
    let view = DataView::new(&buf, unit)?;

    let mut centroids = initial_centroids(k, cols);
    let mut counts = vec![0.0; k];
    let mut sums = vec![0.0; k * (cols + 1)];
    let mut stats = RunStats {
        logical_threads: threads,
        ..Default::default()
    };

    for _ in 0..params.iters.max(1) {
        let kernel = round_kernel(centroids.clone(), k, cols);
        let outcome = engine.run(view, &layout, &kernel);
        stats.absorb(&outcome.stats);
        sums = outcome.robj.group_slice(0).to_vec();
        let (next, cnt) = update_centroids(&sums, &centroids, k, cols);
        centroids = next;
        counts = cnt;
    }

    Ok(SparseKmeansResult {
        centroids,
        counts,
        sums,
        plan,
        timing: AppTiming::recorded(linearize_ns, stats, wall, &rec),
    })
}

#[cfg(test)]
mod sparse_kmeans_tests {
    use super::*;
    use chapel_frontend::programs;
    use linearize::{Linearizer, Shape};

    #[test]
    fn single_pass_matches_interpreter_oracle_bitwise() {
        let (rows, cols, w, k) = (40usize, 12usize, 4usize, 3usize);
        let interp =
            chapel_interp::Interpreter::run_source(&programs::sparse_kmeans(rows, cols, w, k))
                .unwrap();
        let new_cent = interp.global("newCent").unwrap().to_linear().unwrap();
        let oracle = Linearizer::new(&Shape::array(Shape::array(Shape::Real, cols + 1), k))
            .linearize(&new_cent)
            .unwrap()
            .buffer;

        let r = run(&SparseKmeansParams::new(rows, cols, w, k, 1)).unwrap();
        assert_eq!(r.sums.len(), oracle.len());
        for (i, (got, want)) in r.sums.iter().zip(&oracle).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "cell {i}: {got} vs {want}");
        }
        // Every row lands in exactly one cluster.
        let total: f64 = r.counts.iter().sum();
        assert_eq!(total, rows as f64);
    }

    #[test]
    fn multi_iteration_is_thread_invariant_bitwise() {
        // Accumulated cells are integer sums of the (unchanging) data
        // values, exact in f64, so thread count cannot perturb them.
        let base = run(&SparseKmeansParams::new(60, 16, 5, 4, 3)).unwrap();
        for t in [2, 4] {
            let r = run(&SparseKmeansParams::new(60, 16, 5, 4, 3).threads(t)).unwrap();
            for (a, b) in base.sums.iter().zip(&r.sums) {
                assert_eq!(a.to_bits(), b.to_bits(), "{t} threads");
            }
            assert_eq!(base.centroids, r.centroids, "{t} threads");
        }
    }

    #[test]
    fn inspector_runs_and_records() {
        let mut p = SparseKmeansParams::new(40, 12, 4, 3, 1).with_inspect();
        p.config.trace = obs::TraceLevel::Phases;
        let r = run(&p).unwrap();
        let plan = r.plan.expect("inspector plan");
        // k*(cols+1) = 39 cells: far under the small-object cutoff.
        assert_eq!(plan.reason, "small-object");
        let trace = r.timing.trace.expect("trace");
        assert!(trace.spans.iter().any(|s| s.name == "sparse.inspect"));
        // Inspector choice never changes the answer.
        let plain = run(&SparseKmeansParams::new(40, 12, 4, 3, 1)).unwrap();
        assert_eq!(plain.sums, r.sums);
    }

    #[test]
    fn all_empty_matrix_is_identity_not_error() {
        // w=1 gives every row exactly one entry; instead build an
        // explicitly empty matrix through the same padded path.
        let m = cfr_sparse::CsrMatrix::new(5, 4, vec![0; 6], vec![], vec![]).unwrap();
        let (buf, unit) = csr_to_padded(&m).unwrap();
        let engine = Engine::new(JobConfig::with_threads(2));
        let layout = robj_layout(2, 4);
        let kernel = round_kernel(initial_centroids(2, 4), 2, 4);
        let outcome = engine.run(DataView::new(&buf, unit).unwrap(), &layout, &kernel);
        let cells = outcome.robj.group_slice(0);
        // Zero-nnz rows contribute only their count, to the argmin of
        // cnorm alone — identity on every coordinate sum.
        let coord_sum: f64 = (0..2)
            .flat_map(|c| (0..4).map(move |j| cells[c * 5 + j]))
            .sum();
        assert_eq!(coord_sum, 0.0);
        assert_eq!(cells[4] + cells[9], 5.0);
    }
}
