//! Principal Component Analysis — the paper's second evaluation
//! application (Figures 12–13).
//!
//! "There are two reduction phases in PCA: calculating the mean vector
//! and computing the covariance matrix." Both phases run over the same
//! linearized dataset (linearization is paid once); the mean
//! normalization between them is scalar work done by the driver.
//!
//! PCA "does not use complex or nested data structures", so the paper
//! compares only opt-2 and manual; this driver nevertheless supports all
//! four versions (generated/opt-1 exist, they are just not interesting —
//! exactly the paper's observation).

use std::sync::Arc;
use std::time::Instant;

use cfr_core::OptLevel;
use chapel_frontend::programs;
use freeride::{DataView, Engine, JobConfig, RunStats};
use freeride_dist::tasks::Task;
use linearize::Value;
use obs::Recorder;

use crate::error::AppError;
use crate::timing::{AppTiming, Version};
use crate::{data, translated};

/// Parameters of a PCA run. `rows` is the dimensionality, `cols` the
/// number of data elements (the paper's terminology).
#[derive(Debug, Clone)]
pub struct PcaParams {
    /// Dimensionality of each sample.
    pub rows: usize,
    /// Number of samples.
    pub cols: usize,
    /// FREERIDE job configuration.
    pub config: JobConfig,
}

impl PcaParams {
    /// Construct with a thread count.
    pub fn new(rows: usize, cols: usize) -> PcaParams {
        PcaParams {
            rows,
            cols,
            config: JobConfig::with_threads(1),
        }
    }

    /// Set the thread count.
    pub fn threads(mut self, t: usize) -> PcaParams {
        self.config.threads = t;
        self
    }
}

/// Result of a PCA run.
#[derive(Debug, Clone)]
pub struct PcaResult {
    /// The mean vector (`rows` entries).
    pub mean: Vec<f64>,
    /// The covariance matrix, row-major `rows × rows` (unnormalised
    /// scatter matrix, as in the Chapel program).
    pub cov: Vec<f64>,
    /// Timing breakdown.
    pub timing: AppTiming,
}

/// Run PCA in the requested version.
pub fn run(params: &PcaParams, version: Version) -> Result<PcaResult, AppError> {
    match version.translated() {
        Some(opt) => run_translated(params, opt),
        None => run_manual(params),
    }
}

fn run_translated(params: &PcaParams, opt: OptLevel) -> Result<PcaResult, AppError> {
    let (rows, cols) = (params.rows, params.cols);
    let src = programs::pca(rows, cols);
    // Linearize the matrix once; both phases share it.
    let matrix = || vec![data::pca_matrix_nested(rows, cols)];
    let ((mean, cov), timing) =
        translated::run(&src, opt, &params.config, matrix, |loops, passes| {
            let [mean_loop, cov_loop] = loops else {
                return Err(AppError::new(format!(
                    "expected 2 PCA reduction loops, found {}",
                    loops.len()
                )));
            };
            // ---- Phase 1: mean vector. ----
            let sums = passes.run(mean_loop, Vec::new())?;
            let mean: Vec<f64> = sums
                .group_slice(0)
                .iter()
                .map(|s| s / cols as f64)
                .collect();
            // ---- Phase 2: covariance, with the mean as state. ----
            let mean_value = Value::Array(mean.iter().map(|&x| Value::Real(x)).collect());
            let cov = passes.run(cov_loop, vec![mean_value])?;
            Ok((mean, cov.group_slice(0).to_vec()))
        })?;
    Ok(PcaResult { mean, cov, timing })
}

/// The hand-written FREERIDE version: the `pca.mean` and `pca.cov`
/// cluster tasks' layouts and kernels, the mean as the second's state.
fn run_manual(params: &PcaParams) -> Result<PcaResult, AppError> {
    let wall = Instant::now();
    let (rows, cols) = (params.rows, params.cols);
    let buffer = data::pca_matrix_flat(rows, cols);
    let rec = Arc::new(Recorder::new(params.config.trace));
    let engine = Engine::with_recorder(params.config.clone(), rec.clone());
    let view = DataView::new(&buffer, rows)?;
    let mut stats = RunStats {
        logical_threads: params.config.threads,
        ..Default::default()
    };
    let mut pass = |task: Task, state: &[f64]| -> Result<Vec<f64>, AppError> {
        let outcome = engine.run(view, &task.layout(), &task.kernel(state)?);
        stats.absorb(&outcome.stats);
        Ok(outcome.robj.group_slice(0).to_vec())
    };

    let mut mean = pass(Task::PcaMean { rows }, &[])?;
    for m in &mut mean {
        *m /= cols as f64;
    }
    let cov = pass(Task::PcaCov { rows }, &mean)?;

    Ok(PcaResult {
        mean,
        cov,
        timing: AppTiming::recorded(0, stats, wall, &rec),
    })
}

#[cfg(test)]
mod pca_tests {
    use super::*;
    use linearize::Shape;

    fn close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn all_versions_agree() {
        let params = PcaParams::new(4, 30).threads(2);
        let manual = run(&params, Version::Manual).unwrap();
        for v in [Version::Generated, Version::Opt1, Version::Opt2] {
            let r = run(&params, v).unwrap();
            close(&r.mean, &manual.mean, 1e-9, v.label());
            close(&r.cov, &manual.cov, 1e-9, v.label());
        }
    }

    #[test]
    fn matches_interpreter_oracle() {
        let (rows, cols) = (3usize, 8usize);
        let interp = chapel_interp::Interpreter::run_source(&programs::pca(rows, cols)).unwrap();
        let oracle_mean = interp.global("mean").unwrap().to_linear().unwrap();
        let oracle_mean = linearize::Linearizer::new(&Shape::array(Shape::Real, rows))
            .linearize(&oracle_mean)
            .unwrap()
            .buffer;
        let oracle_cov = interp.global("cov").unwrap().to_linear().unwrap();
        let oracle_cov =
            linearize::Linearizer::new(&Shape::array(Shape::array(Shape::Real, rows), rows))
                .linearize(&oracle_cov)
                .unwrap()
                .buffer;

        let r = run(&PcaParams::new(rows, cols), Version::Opt2).unwrap();
        close(&r.mean, &oracle_mean, 1e-12, "mean");
        close(&r.cov, &oracle_cov, 1e-9, "cov");
    }

    #[test]
    fn covariance_is_symmetric_and_psd_diagonal() {
        let r = run(&PcaParams::new(5, 40), Version::Manual).unwrap();
        for a in 0..5 {
            assert!(r.cov[a * 5 + a] >= 0.0, "diagonal");
            for b in 0..5 {
                assert!(
                    (r.cov[a * 5 + b] - r.cov[b * 5 + a]).abs() < 1e-9,
                    "symmetry"
                );
            }
        }
    }

    #[test]
    fn linearize_charged_once_for_both_phases() {
        let r = run(&PcaParams::new(3, 20), Version::Generated).unwrap();
        assert!(r.timing.linearize_ns > 0);
        // Two engine runs happened (one split each at 1 thread).
        assert_eq!(r.timing.stats.splits.len(), 2);
    }
}
