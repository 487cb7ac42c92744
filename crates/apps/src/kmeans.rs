//! k-means clustering — the paper's first evaluation application
//! (Figures 9–11).
//!
//! Four versions share one driver:
//!
//! * the **translated** versions compile the Chapel program of Figure 3
//!   (as `chapel_frontend::programs::kmeans`) once through
//!   `cfr_core::CompiledProgram::compile` at the requested
//!   [`cfr_core::OptLevel`], the translator's one front door;
//! * the **manual** version is hand-written Rust against the FREERIDE
//!   API, exactly as the paper's "manual FR" baseline: the `kmeans`
//!   cluster task's layout and kernel ([`freeride_dist::tasks::Task`]).
//!
//! Every version refines its centroids with that task's step.
//!
//! The outer sequential loop (centroid refinement across iterations) is
//! FREERIDE's `While()` loop, run here in Rust: the dataset is
//! linearized **once** and reused, which is why the single-iteration
//! run of Figure 11 shows the highest relative linearization overhead.
//! Each iteration binds fresh centroid state to the loop's kernel; with
//! the compiled backend that kernel is emitted and loaded once per run,
//! not once per iteration.

use std::sync::Arc;
use std::time::Instant;

use cfr_core::OptLevel;
use chapel_frontend::programs;
use freeride::{DataView, Engine, JobConfig, PassHooks, PassInput, RunStats};
use freeride_dist::tasks::{centroid_counts, centroids_value, Task};
use obs::Recorder;

use crate::error::AppError;
use crate::timing::{AppTiming, Version};
use crate::{data, translated};

/// Parameters of a k-means run.
#[derive(Debug, Clone)]
pub struct KmeansParams {
    /// Number of points.
    pub n: usize,
    /// Point dimensionality.
    pub d: usize,
    /// Number of centroids (the paper's `k`).
    pub k: usize,
    /// Outer-loop iterations (the paper's `i`).
    pub iters: usize,
    /// FREERIDE job configuration (threads, scheme, exec mode).
    pub config: JobConfig,
}

impl KmeansParams {
    /// A small default configuration.
    pub fn new(n: usize, d: usize, k: usize, iters: usize) -> KmeansParams {
        KmeansParams {
            n,
            d,
            k,
            iters,
            config: JobConfig::with_threads(1),
        }
    }

    /// Set the thread count.
    pub fn threads(mut self, t: usize) -> KmeansParams {
        self.config.threads = t;
        self
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// Final centroid coordinates, row-major `k × d`.
    pub centroids: Vec<f64>,
    /// Final per-centroid point counts.
    pub counts: Vec<f64>,
    /// Timing breakdown.
    pub timing: AppTiming,
}

/// Run k-means in the requested version.
pub fn run(params: &KmeansParams, version: Version) -> Result<KmeansResult, AppError> {
    match version.translated() {
        Some(opt) => run_translated(params, opt),
        None => run_manual(params),
    }
}

fn run_translated(params: &KmeansParams, opt: OptLevel) -> Result<KmeansResult, AppError> {
    let (n, d, k) = (params.n, params.d, params.k);
    let task = Task::Kmeans { k, d };
    let src = programs::kmeans(n, k, d);
    let points = || vec![data::kmeans_points_nested(n, d)];
    let ((centroids, counts), timing) =
        translated::run(&src, opt, &params.config, points, |loops, passes| {
            let [c] = loops else {
                return Err(AppError::new("k-means has one reduction loop"));
            };
            let mut centroids = data::kmeans_centroids_flat(k, d);
            let mut counts = vec![0.0; k];
            for _ in 0..params.iters.max(1) {
                let robj = passes.run(c, vec![centroids_value(&centroids, k, d)])?;
                counts = centroid_counts(robj.group_slice(0), k, d);
                centroids = task.step(&centroids, &robj).unwrap_or(centroids);
            }
            Ok((centroids, counts))
        })?;
    Ok(KmeansResult {
        centroids,
        counts,
        timing,
    })
}

/// The manual FREERIDE version over a **disk-resident** `.frds` dataset
/// of `d`-wide points — the out-of-core k-means driver. With
/// `params.config.io` set to [`freeride::IoMode::Streaming`] the engine
/// prefetches chunks through the bounded recycled-buffer pool instead
/// of reading splits synchronously; `params.n` is ignored in favour of
/// the file's row count.
pub fn run_manual_on_file(
    params: &KmeansParams,
    dataset: &std::path::Path,
) -> Result<KmeansResult, AppError> {
    let wall = Instant::now();
    let d = params.d;
    let file = freeride::source::FileDataset::open(dataset)?;
    if file.unit() != d {
        return Err(AppError::new(format!(
            "dataset rows are {}-wide, k-means wants d={d}",
            file.unit()
        )));
    }
    let input = PassInput::File {
        file: &file,
        first_row: 0,
        rows: file.rows(),
    };
    run_manual_over(params, input, wall)
}

/// The hand-written FREERIDE version ("manual FR").
fn run_manual(params: &KmeansParams) -> Result<KmeansResult, AppError> {
    let wall = Instant::now();
    let buffer = data::kmeans_points_flat(params.n, params.d);
    run_manual_over(
        params,
        PassInput::Rows(DataView::new(&buffer, params.d)?),
        wall,
    )
}

/// The manual outer loop over `input`: each iteration, the `kmeans`
/// cluster task's hand-written kernel over the current centroids, then
/// its step.
fn run_manual_over(
    params: &KmeansParams,
    input: PassInput<'_>,
    wall: Instant,
) -> Result<KmeansResult, AppError> {
    let (d, k) = (params.d, params.k);
    let task = Task::Kmeans { k, d };
    let layout = task.layout();
    let rec = Arc::new(Recorder::new(params.config.trace));
    let engine = Engine::with_recorder(params.config.clone(), rec.clone());

    let mut centroids = data::kmeans_centroids_flat(k, d);
    let mut counts = vec![0.0; k];
    let mut stats = RunStats {
        logical_threads: params.config.threads,
        ..Default::default()
    };

    for _ in 0..params.iters.max(1) {
        let kernel = task.kernel(&centroids)?;
        let outcome = engine.run_pass(input, &layout, &kernel, PassHooks::default())?;
        stats.absorb(&outcome.stats);
        counts = centroid_counts(outcome.robj.group_slice(0), k, d);
        centroids = task.step(&centroids, &outcome.robj).unwrap_or(centroids);
    }

    Ok(KmeansResult {
        centroids,
        counts,
        timing: AppTiming::recorded(0, stats, wall, &rec),
    })
}

#[cfg(test)]
mod kmeans_tests {
    use super::*;

    fn assert_slices_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len(), "{what} length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn all_versions_agree() {
        let params = KmeansParams::new(120, 3, 4, 3).threads(2);
        let manual = run(&params, Version::Manual).unwrap();
        for v in [Version::Generated, Version::Opt1, Version::Opt2] {
            let r = run(&params, v).unwrap();
            assert_slices_close(&r.centroids, &manual.centroids, 1e-9, v.label());
            assert_slices_close(&r.counts, &manual.counts, 0.0, v.label());
        }
        // Every point lands in exactly one cluster.
        let total: f64 = manual.counts.iter().sum();
        assert_eq!(total, 120.0);
    }

    #[test]
    fn single_iteration_matches_interpreter_oracle() {
        // One pass of the Chapel program on the interpreter gives the
        // raw sums; the driver divides by counts, so compare sums.
        let (n, k, d) = (40usize, 3usize, 2usize);
        let interp = chapel_interp::Interpreter::run_source(&programs::kmeans(n, k, d)).unwrap();
        let new_cent = interp.global("newCent").unwrap().to_linear().unwrap();
        let oracle = linearize::Linearizer::new(&data::kmeans_centroid_shape(k, d))
            .linearize(&new_cent)
            .unwrap()
            .buffer;

        let params = KmeansParams::new(n, d, k, 1);
        let manual = run(&params, Version::Manual).unwrap();
        // Reconstruct sums from averaged centroids: pos * count.
        for c in 0..k {
            let count = manual.counts[c];
            assert_eq!(count, oracle[c * (d + 1) + d], "count[{c}]");
            for j in 0..d {
                let sum = oracle[c * (d + 1) + j];
                if count > 0.0 {
                    let avg = manual.centroids[c * d + j];
                    assert!((avg * count - sum).abs() < 1e-9, "sum[{c}][{j}]");
                }
            }
        }
    }

    #[test]
    fn timing_populated_for_translated() {
        let params = KmeansParams::new(60, 2, 3, 2);
        let r = run(&params, Version::Opt2).unwrap();
        assert!(r.timing.linearize_ns > 0);
        assert!(r.timing.wall_ns > 0);
        assert_eq!(r.timing.stats.splits.len(), 2); // 2 iters × 1 thread
        let m = run(&params, Version::Manual).unwrap();
        assert_eq!(m.timing.linearize_ns, 0);
    }

    #[test]
    fn iterations_converge() {
        // Centroid movement between consecutive iterations shrinks.
        let params = KmeansParams::new(200, 2, 3, 1);
        let one = run(&params, Version::Manual).unwrap();
        let five = run(
            &KmeansParams {
                iters: 6,
                ..params.clone()
            },
            Version::Manual,
        )
        .unwrap();
        let six = run(&KmeansParams { iters: 7, ..params }, Version::Manual).unwrap();
        let drift_early: f64 = one
            .centroids
            .iter()
            .zip(data::kmeans_centroids_flat(3, 2))
            .map(|(a, b)| (a - b).abs())
            .sum();
        let drift_late: f64 = six
            .centroids
            .iter()
            .zip(&five.centroids)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(drift_late <= drift_early, "{drift_late} vs {drift_early}");
    }
}
