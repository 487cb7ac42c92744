//! MTTKRP and a small CP-ALS loop over a sparse COO 3-tensor — the
//! irregular-scatter application of the sparse workload tier.
//!
//! The matricized-tensor-times-Khatri-Rao-product is the canonical
//! irregular reduction: each stored entry `(i, j, k, v)` scatters
//! `rank` updates into row `out` of the target factor, where `out` is
//! the entry's coordinate in the mode being solved. Which rows are hot
//! depends entirely on the data, but the sync scheme does not: with
//! [`MttkrpParams::inspect`] set, [`cfr_sparse::plan`]'s size rule
//! replicates the largest mode's output unless every thread's copy
//! together exceeds the replication budget, and shares one atomic copy
//! otherwise; the choice is one `sync.choose` span.
//!
//! [`run`] performs a single mode-0 MTTKRP against the closed-form
//! [`cfr_sparse::synthetic_quads`] tensor and integer
//! [`cfr_sparse::synthetic_factor`] matrices; with integer inputs every
//! reduction cell is an exact integer sum (products are at most
//! `5·5·5`), so the result is **bit-identical** to the
//! `chapel_frontend::programs::sparse_mttkrp` oracle and invariant
//! across threads and sync schemes.
//!
//! [`cp_als`] drives the full alternating-least-squares loop: per mode,
//! an engine MTTKRP pass, the Hadamard product of the other factors'
//! Gram matrices, and a Gauss–Jordan solve for the new factor. After
//! the first solve the factors are fractional, so multi-sweep results
//! are deterministic for a fixed thread count but only
//! tolerance-comparable across thread counts — the `sparse_diff` gates
//! pin bit-identity on [`run`] and tolerance on [`cp_als`].
//!
//! The closed-form factor has period 5 in the rank index, so ranks
//! above 4 make the Gram matrices singular; the solver returns a typed
//! error (pivot `< 1e-12`) instead of dividing by ~0.

use std::sync::Arc;
use std::time::Instant;

use cfr_sparse::{plan, synthetic_factor, synthetic_quads, PlanParams, SchemePlan, COO_UNIT};
use freeride::{CombineOp, DataView, Engine, GroupSpec, JobConfig, RObjLayout, RunStats};
/// The mode-general MTTKRP kernel; the `sparse.mttkrp` cluster task runs
/// it for mode 0.
pub use freeride_dist::tasks::mttkrp_kernel;
use freeride_dist::tasks::other_modes;
use obs::Recorder;

use crate::error::AppError;
use crate::timing::AppTiming;

/// Pivot magnitude below which the Gram system counts as singular.
const PIVOT_EPS: f64 = 1e-12;

/// Parameters of an MTTKRP / CP-ALS run.
#[derive(Debug, Clone)]
pub struct MttkrpParams {
    /// Tensor mode sizes `[I, J, K]`.
    pub dims: [usize; 3],
    /// Stored entries of the closed-form tensor.
    pub nnz: usize,
    /// Hot head slabs of mode 0 (`1 <= hot <= dims[0]`): every third
    /// entry lands in `i < hot`.
    pub hot: usize,
    /// Decomposition rank (the closed-form factors are singular above
    /// rank 4 — see the module docs).
    pub rank: usize,
    /// Choose the sync scheme by [`cfr_sparse::plan`]'s size rule and
    /// install it (overrides `config.scheme`).
    pub inspect: bool,
    /// FREERIDE job configuration.
    pub config: JobConfig,
}

impl MttkrpParams {
    /// A small default configuration.
    pub fn new(dims: [usize; 3], nnz: usize, hot: usize, rank: usize) -> MttkrpParams {
        MttkrpParams {
            dims,
            nnz,
            hot,
            rank,
            inspect: false,
            config: JobConfig::with_threads(1),
        }
    }

    /// Set the thread count.
    pub fn threads(mut self, t: usize) -> MttkrpParams {
        self.config.threads = t;
        self
    }

    /// Choose the sync scheme by the size rule.
    pub fn with_inspect(mut self) -> MttkrpParams {
        self.inspect = true;
        self
    }

    /// What the size rule decides from for a job that builds the
    /// outputs of `modes`: the largest of them (`dims[mode] × rank`
    /// cells) on `config.threads` threads. A single MTTKRP builds mode
    /// 0's; CP-ALS builds all three.
    pub fn plan_params(&self, modes: &[usize]) -> PlanParams {
        let largest = modes.iter().map(|&m| self.dims[m]).max().unwrap_or(0);
        PlanParams::new(largest * self.rank, self.rank).threads(self.config.threads)
    }

    fn validate(&self) -> Result<(), AppError> {
        if self.dims.contains(&0) {
            return Err(AppError::new("mttkrp: every tensor mode must be nonzero"));
        }
        if self.hot == 0 || self.hot > self.dims[0] {
            return Err(AppError::new(format!(
                "mttkrp: need 1 <= hot <= dims[0], got hot={} dims[0]={}",
                self.hot, self.dims[0]
            )));
        }
        if self.rank == 0 {
            return Err(AppError::new("mttkrp: rank must be nonzero"));
        }
        Ok(())
    }
}

/// Result of a single MTTKRP pass.
#[derive(Debug, Clone)]
pub struct MttkrpResult {
    /// The mode-0 MTTKRP output, row-major `dims[0] × rank` — exact
    /// integer sums, which is what the differential oracle compares.
    pub m: Vec<f64>,
    /// The size rule's plan, when [`MttkrpParams::inspect`] is set.
    pub plan: Option<SchemePlan>,
    /// Timing breakdown.
    pub timing: AppTiming,
}

/// Result of a CP-ALS run.
#[derive(Debug, Clone)]
pub struct CpAlsResult {
    /// Final factor matrices, row-major `dims[m] × rank` per mode.
    pub factors: [Vec<f64>; 3],
    /// Final model fit in `(-inf, 1]`: `1 − ‖X − model‖ / ‖X‖`.
    pub fit: f64,
    /// The size rule's plan, when requested.
    pub plan: Option<SchemePlan>,
    /// Timing breakdown across every engine pass.
    pub timing: AppTiming,
}

/// Gram matrix `Fᵀ F` of a row-major `rows × rank` factor, accumulated
/// in ascending row order (deterministic).
pub fn gram(f: &[f64], rank: usize) -> Vec<f64> {
    let rows = f.len() / rank.max(1);
    let mut g = vec![0.0; rank * rank];
    for i in 0..rows {
        let row = &f[i * rank..(i + 1) * rank];
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

/// Invert a `rank × rank` system by Gauss–Jordan with partial
/// pivoting. A pivot below [`PIVOT_EPS`] means the Gram product is
/// (numerically) singular — a typed error, not a NaN cascade.
fn invert(v: &[f64], rank: usize) -> Result<Vec<f64>, AppError> {
    let n = rank;
    let mut a = v.to_vec();
    let mut inv = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&x, &y| a[x * n + col].abs().total_cmp(&a[y * n + col].abs()))
            .unwrap_or(col);
        if a[pivot_row * n + col].abs() < PIVOT_EPS {
            return Err(AppError::new(format!(
                "cp-als: singular Gram system at column {col} (|pivot| < {PIVOT_EPS:e}); \
                 the closed-form factors repeat with period 5 in rank — use rank <= 4"
            )));
        }
        if pivot_row != col {
            for j in 0..n {
                a.swap(col * n + j, pivot_row * n + j);
                inv.swap(col * n + j, pivot_row * n + j);
            }
        }
        let p = a[col * n + col];
        for j in 0..n {
            a[col * n + j] /= p;
            inv[col * n + j] /= p;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r * n + col];
            if f == 0.0 {
                continue;
            }
            for j in 0..n {
                a[r * n + j] -= f * a[col * n + j];
                inv[r * n + j] -= f * inv[col * n + j];
            }
        }
    }
    Ok(inv)
}

struct Driver {
    quads: Vec<f64>,
    norm_x2: f64,
    engine: Engine,
    rec: Arc<Recorder>,
    plan: Option<SchemePlan>,
    stats: RunStats,
    linearize_ns: u64,
}

impl Driver {
    /// A driver for a job that builds the outputs of `modes`.
    fn new(params: &MttkrpParams, modes: &[usize]) -> Result<Driver, AppError> {
        params.validate()?;
        let lin_start = Instant::now();
        let (quads, norm_x2) = synthetic_quads(params.dims, params.nnz, params.hot);
        let linearize_ns = lin_start.elapsed().as_nanos() as u64;

        let mut config = params.config.clone();
        let rec = Arc::new(Recorder::new(config.trace));
        let plan = params.inspect.then(|| {
            let start = rec.now_ns();
            let plan = plan(&params.plan_params(modes));
            plan.record(&rec, start);
            config.scheme = plan.scheme;
            plan
        });
        let stats = RunStats {
            logical_threads: config.threads,
            ..Default::default()
        };
        let engine = Engine::with_recorder(config, rec.clone());
        Ok(Driver {
            quads,
            norm_x2,
            engine,
            rec,
            plan,
            stats,
            linearize_ns,
        })
    }

    /// One engine MTTKRP pass for `mode`, given the other two factors.
    fn pass(
        &mut self,
        mode: usize,
        out_dim: usize,
        rank: usize,
        f1: &[f64],
        f2: &[f64],
    ) -> Result<Vec<f64>, AppError> {
        let layout = RObjLayout::new(vec![GroupSpec::new("M", out_dim * rank, CombineOp::Sum)]);
        let view = DataView::new(&self.quads, COO_UNIT)?;
        let kernel = mttkrp_kernel(mode, rank, out_dim, f1.to_vec(), f2.to_vec());
        let outcome = self.engine.run(view, &layout, &kernel);
        self.stats.absorb(&outcome.stats);
        Ok(outcome.robj.group_slice(0).to_vec())
    }

    fn timing(&self, wall: Instant) -> AppTiming {
        AppTiming::recorded(self.linearize_ns, self.stats.clone(), wall, &self.rec)
    }
}

/// Run one mode-0 MTTKRP over the closed-form tensor and factors.
pub fn run(params: &MttkrpParams) -> Result<MttkrpResult, AppError> {
    let wall = Instant::now();
    let mut d = Driver::new(params, &[0])?;
    let b = synthetic_factor(params.dims[1], params.rank);
    let c = synthetic_factor(params.dims[2], params.rank);
    let m = d.pass(0, params.dims[0], params.rank, &b, &c)?;
    Ok(MttkrpResult {
        m,
        plan: d.plan.take(),
        timing: d.timing(wall),
    })
}

/// Run `sweeps` rounds of CP-ALS: for each mode in order, an engine
/// MTTKRP pass followed by the Gauss–Jordan solve against the Hadamard
/// product of the other factors' Gram matrices.
pub fn cp_als(params: &MttkrpParams, sweeps: usize) -> Result<CpAlsResult, AppError> {
    let wall = Instant::now();
    let mut d = Driver::new(params, &[0, 1, 2])?;
    let rank = params.rank;
    let mut factors = [
        synthetic_factor(params.dims[0], rank),
        synthetic_factor(params.dims[1], rank),
        synthetic_factor(params.dims[2], rank),
    ];

    for _ in 0..sweeps.max(1) {
        for mode in 0..3 {
            let (m1, m2) = other_modes(mode);
            let m = d.pass(mode, params.dims[mode], rank, &factors[m1], &factors[m2])?;
            let v = hadamard(&gram(&factors[m1], rank), &gram(&factors[m2], rank));
            let inv = invert(&v, rank)?;
            let rows = params.dims[mode];
            let mut next = vec![0.0; rows * rank];
            for i in 0..rows {
                for r in 0..rank {
                    let mut x = 0.0;
                    for q in 0..rank {
                        x += m[i * rank + q] * inv[q * rank + r];
                    }
                    next[i * rank + r] = x;
                }
            }
            factors[mode] = next;
        }
    }

    // Fit via the Gram identity: ‖X − model‖² = ‖X‖² − 2⟨X, model⟩
    // + ‖model‖², with ⟨X, model⟩ = Σ M₀ ∘ A and ‖model‖² the sum of
    // the three-way Hadamard Gram product.
    let m0 = d.pass(0, params.dims[0], rank, &factors[1], &factors[2])?;
    let inner: f64 = m0.iter().zip(&factors[0]).map(|(x, y)| x * y).sum();
    let model2: f64 = hadamard(
        &hadamard(&gram(&factors[0], rank), &gram(&factors[1], rank)),
        &gram(&factors[2], rank),
    )
    .iter()
    .sum();
    let resid2 = (d.norm_x2 - 2.0 * inner + model2).max(0.0);
    let fit = if d.norm_x2 > 0.0 {
        1.0 - (resid2 / d.norm_x2).sqrt()
    } else {
        1.0
    };

    Ok(CpAlsResult {
        factors,
        fit,
        plan: d.plan.take(),
        timing: d.timing(wall),
    })
}

#[cfg(test)]
mod mttkrp_tests {
    use super::*;
    use chapel_frontend::programs;
    use linearize::{Linearizer, Shape};

    #[test]
    fn single_pass_matches_interpreter_oracle_bitwise() {
        let (dims, nnz, hot, rank) = ([16usize, 4, 4], 40usize, 4usize, 3usize);
        let interp =
            chapel_interp::Interpreter::run_source(&programs::sparse_mttkrp(dims, nnz, hot, rank))
                .unwrap();
        let m = interp.global("M").unwrap().to_linear().unwrap();
        let oracle = Linearizer::new(&Shape::array(Shape::array(Shape::Real, rank), dims[0]))
            .linearize(&m)
            .unwrap()
            .buffer;

        let r = run(&MttkrpParams::new(dims, nnz, hot, rank)).unwrap();
        assert_eq!(r.m.len(), oracle.len());
        for (i, (got, want)) in r.m.iter().zip(&oracle).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "cell {i}: {got} vs {want}");
        }
    }

    #[test]
    fn single_pass_is_thread_and_scheme_invariant_bitwise() {
        let base = run(&MttkrpParams::new([32, 8, 8], 200, 4, 4)).unwrap();
        for t in [2, 4] {
            let r = run(&MttkrpParams::new([32, 8, 8], 200, 4, 4).threads(t)).unwrap();
            for (a, b) in base.m.iter().zip(&r.m) {
                assert_eq!(a.to_bits(), b.to_bits(), "{t} threads");
            }
        }
        let mut p = MttkrpParams::new([32, 8, 8], 200, 4, 4).threads(4);
        p.config.scheme = freeride::SyncScheme::BucketLocking { stripes: 8 };
        let r = run(&p).unwrap();
        assert_eq!(base.m, r.m);
    }

    #[test]
    fn size_rule_sizes_on_the_outputs_the_job_builds() {
        // Mode 0's 4 × 4 cells replicate; mode 1's 2^22 × 4 cells on 16
        // threads are 2 GiB of copies, over the budget. A single MTTKRP
        // builds mode 0 only, CP-ALS every mode. Arithmetic only: no
        // such tensor is built.
        let p = MttkrpParams::new([4, 1 << 22, 4], 16, 1, 4).threads(16);
        assert_eq!(p.plan_params(&[0]).total_cells, 4 * 4);
        assert_eq!(
            plan(&p.plan_params(&[0])).scheme,
            freeride::SyncScheme::FullReplication
        );
        assert_eq!(p.plan_params(&[0, 1, 2]).total_cells, (1 << 22) * 4);
        assert_eq!(
            plan(&p.plan_params(&[0, 1, 2])).scheme,
            freeride::SyncScheme::Atomic
        );
        let small = MttkrpParams::new([4, 1 << 10, 4], 16, 1, 4).threads(16);
        assert_eq!(
            plan(&small.plan_params(&[0, 1, 2])).scheme,
            freeride::SyncScheme::FullReplication
        );
    }

    #[test]
    fn traced_cp_als_records_one_choice_and_no_regions() {
        let mut p = MttkrpParams::new([64, 8, 8], 600, 8, 4).with_inspect();
        p.config.trace = obs::TraceLevel::Phases;
        let r = cp_als(&p, 2).unwrap();
        assert_eq!(
            r.plan.unwrap().scheme,
            freeride::SyncScheme::FullReplication
        );
        let trace = r.timing.trace.expect("trace");
        let choices = trace.spans.iter().filter(|s| s.name == "sync.choose");
        assert_eq!(choices.count(), 1);
        // No per-region verdicts or scan spans: the rule reads no data.
        assert!(trace.spans.iter().all(|s| !s.name.starts_with("sparse.")));
        // The chosen scheme reproduces the plain result exactly (one
        // thread: fixed accumulation order past the integer first pass).
        let plain = cp_als(&MttkrpParams::new([64, 8, 8], 600, 8, 4), 2).unwrap();
        assert_eq!(plain.factors, r.factors);
    }

    #[test]
    fn cp_als_improves_fit_and_stays_deterministic() {
        let p = MttkrpParams::new([24, 6, 6], 120, 4, 3);
        let one = cp_als(&p, 1).unwrap();
        let three = cp_als(&p, 3).unwrap();
        assert!(one.fit <= 1.0 && three.fit <= 1.0);
        assert!(
            three.fit >= one.fit - 1e-9,
            "fit regressed: {} -> {}",
            one.fit,
            three.fit
        );
        // Same thread count twice: identical to the bit.
        let again = cp_als(&p, 3).unwrap();
        for m in 0..3 {
            assert_eq!(three.factors[m], again.factors[m]);
        }
        // Across thread counts fractional solves only agree to
        // tolerance — that is expected and documented.
        let par = cp_als(&p.clone().threads(4), 3).unwrap();
        for m in 0..3 {
            for (a, b) in three.factors[m].iter().zip(&par.factors[m]) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
        assert!((three.fit - par.fit).abs() <= 1e-9);
    }

    #[test]
    fn singular_rank_is_a_typed_error() {
        // synthetic_factor has period 5 in the rank index, so rank 6
        // repeats a column and the Gram system is singular.
        let err = cp_als(&MttkrpParams::new([16, 4, 4], 60, 4, 6), 1).unwrap_err();
        assert!(err.to_string().contains("singular"), "{err}");
    }

    #[test]
    fn bad_params_are_typed_errors() {
        assert!(run(&MttkrpParams::new([0, 4, 4], 10, 1, 2)).is_err());
        assert!(run(&MttkrpParams::new([4, 4, 4], 10, 9, 2)).is_err());
        assert!(run(&MttkrpParams::new([4, 4, 4], 10, 2, 0)).is_err());
    }
}
