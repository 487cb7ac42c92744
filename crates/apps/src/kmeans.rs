//! k-means clustering — the paper's first evaluation application
//! (Figures 9–11).
//!
//! Four versions share one driver:
//!
//! * the **translated** versions compile the Chapel program of Figure 3
//!   (as `chapel_frontend::programs::kmeans`) through the full
//!   detect→compile→linearize→FREERIDE pipeline at the requested
//!   [`cfr_core::OptLevel`];
//! * the **manual** version is hand-written Rust against the FREERIDE
//!   API, exactly as the paper's "manual FR" baseline.
//!
//! The outer sequential loop (centroid refinement across iterations) is
//! FREERIDE's `While()` loop: the dataset is linearized **once** and
//! reused, which is why the single-iteration run of Figure 11 shows the
//! highest relative linearization overhead.

use std::sync::Arc;
use std::time::Instant;

use cfr_core::{compile_loop, detect, zip_linearize, Detected, OptLevel};
use chapel_frontend::programs;
use freeride::{
    Accumulator, CombineOp, DataView, Engine, GroupSpec, JobConfig, RObjHandle, RObjLayout,
    RunStats, Split,
};
use linearize::{Linearizer, Value};
use obs::{AttrValue, Recorder, TraceLevel};

use crate::data;
use crate::error::AppError;
use crate::timing::{AppTiming, Version};

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

    /// The paper's 12 MB dataset: `12 MB / 8 B / d` points.
    pub fn small_dataset(d: usize, k: usize, iters: usize) -> KmeansParams {
        KmeansParams::new(12 * 1024 * 1024 / 8 / d, d, k, iters)
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
        None => Ok(run_manual(params)),
    }
}

/// Reduction-object layout shared by all versions: one group of
/// `k * (d+1)` cells — per centroid, `d` coordinate sums then a count.
fn robj_layout(k: usize, d: usize) -> std::sync::Arc<RObjLayout> {
    RObjLayout::new(vec![GroupSpec::new("newCent", k * (d + 1), CombineOp::Sum)])
}

/// Compute the next centroid coordinates from the accumulated sums.
fn update_centroids(cells: &[f64], old: &[f64], k: usize, d: usize) -> (Vec<f64>, Vec<f64>) {
    let mut next = old.to_vec();
    let mut counts = vec![0.0; k];
    for c in 0..k {
        let count = cells[c * (d + 1) + d];
        counts[c] = count;
        if count > 0.0 {
            for j in 0..d {
                next[c * d + j] = cells[c * (d + 1) + j] / count;
            }
        }
    }
    (next, counts)
}

fn run_translated(params: &KmeansParams, opt: OptLevel) -> Result<KmeansResult, AppError> {
    let wall = Instant::now();
    let (n, d, k) = (params.n, params.d, params.k);
    let rec = Arc::new(Recorder::new(params.config.trace));

    // Compile the Chapel reduction loop once.
    let src = programs::kmeans(n, k, d);
    let program = chapel_frontend::parse_traced(&src, &rec)?;
    let analysis =
        chapel_sema::analyze_traced(&program, &rec).map_err(cfr_core::CoreError::from)?;
    let detect_start = Instant::now();
    let detection = detect(&program, &analysis);
    rec.push_complete(
        TraceLevel::Phases,
        "core.detect",
        "pipeline",
        0,
        rec.offset_ns(detect_start),
        detect_start.elapsed().as_nanos() as u64,
        vec![
            ("detected", AttrValue::Int(detection.detected.len() as i64)),
            (
                "rejections",
                AttrValue::Int(detection.rejections.len() as i64),
            ),
        ],
    );
    let red = detection
        .detected
        .values()
        .find_map(|x| match x {
            Detected::Loop(l) => Some(l.clone()),
            _ => None,
        })
        .ok_or_else(|| AppError::new("k-means reduction loop not detected"))?;
    let compile_start = Instant::now();
    let compiled = compile_loop(&program, &analysis, &red, opt)?;
    rec.push_complete(
        TraceLevel::Phases,
        "core.compile",
        "pipeline",
        0,
        rec.offset_ns(compile_start),
        compile_start.elapsed().as_nanos() as u64,
        vec![(
            "instrs",
            AttrValue::Int(compiled.kernel.count_matching(|_| true) as i64),
        )],
    );

    // The Chapel data structures, then linearization (timed, once).
    let nested_points = data::kmeans_points_nested(n, d);
    let lin_start = Instant::now();
    let buffer = zip_linearize(
        std::slice::from_ref(&nested_points),
        n,
        compiled.dataset.unit,
        false,
        params.config.threads,
    )?;
    let mut linearize_ns = lin_start.elapsed().as_nanos() as u64;
    rec.push_complete(
        TraceLevel::Phases,
        "linearize",
        "pipeline",
        0,
        rec.offset_ns(lin_start),
        linearize_ns,
        vec![
            ("rows", AttrValue::Int(n as i64)),
            ("unit", AttrValue::Int(compiled.dataset.unit as i64)),
        ],
    );

    let layout = robj_layout(k, d);
    let engine = Engine::with_recorder(params.config.clone(), rec.clone());
    let view = DataView::new(&buffer, compiled.dataset.unit)?;
    let cent_shape = data::kmeans_centroid_shape(k, d);

    let mut centroids = data::kmeans_centroids_flat(k, d);
    let mut counts = vec![0.0; k];
    let mut stats = RunStats {
        logical_threads: params.config.threads,
        ..Default::default()
    };

    for _ in 0..params.iters.max(1) {
        // Rebuild the state in the representation this opt level uses.
        let nested = centroids_value(&centroids, k, d);
        let (nested_state, flat_state) = if opt == OptLevel::Opt2 {
            let t0 = Instant::now();
            let flat = Linearizer::new(&cent_shape).linearize(&nested)?.buffer;
            let state_lin_ns = t0.elapsed().as_nanos() as u64;
            linearize_ns += state_lin_ns;
            if rec.enabled(TraceLevel::Phases) {
                rec.push_complete(
                    TraceLevel::Phases,
                    "linearize",
                    "pipeline",
                    0,
                    rec.offset_ns(t0),
                    state_lin_ns,
                    vec![("state_cells", AttrValue::Int(flat.len() as i64))],
                );
            }
            (vec![nested], vec![flat])
        } else {
            (vec![nested], vec![Vec::new()])
        };
        let choice = cfr_core::make_runner(
            params.config.backend,
            &compiled.kernel,
            nested_state,
            flat_state,
            compiled.lo,
            compiled.opt,
            Some(&rec),
        )?;
        let outcome = engine.run(view, &layout, choice.runner.as_ref());
        stats.absorb(&outcome.stats);
        let (next, cnt) = update_centroids(outcome.robj.group_slice(0), &centroids, k, d);
        centroids = next;
        counts = cnt;
    }

    Ok(KmeansResult {
        centroids,
        counts,
        timing: AppTiming {
            linearize_ns,
            stats,
            wall_ns: wall.elapsed().as_nanos() as u64,
            trace: (rec.level() != TraceLevel::Off).then(|| rec.drain()),
        },
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
    let (d, k) = (params.d, params.k);
    let file = freeride::source::FileDataset::open(dataset)?;
    if file.unit() != d {
        return Err(AppError::new(format!(
            "dataset rows are {}-wide, k-means wants d={d}",
            file.unit()
        )));
    }
    let layout = robj_layout(k, d);
    let rec = Arc::new(Recorder::new(params.config.trace));
    let engine = Engine::with_recorder(params.config.clone(), rec.clone());

    let mut centroids = data::kmeans_centroids_flat(k, d);
    let mut counts = vec![0.0; k];
    let mut stats = RunStats {
        logical_threads: params.config.threads,
        ..Default::default()
    };

    for _ in 0..params.iters.max(1) {
        let cents = &centroids;
        let kernel = move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            let mut acc = Accumulator::new(robj);
            for row in split.iter_rows() {
                let mut best = 0usize;
                let mut best_dist = f64::INFINITY;
                for c in 0..k {
                    let mut dist = 0.0;
                    let centre = &cents[c * d..(c + 1) * d];
                    for j in 0..d {
                        let diff = row[j] - centre[j];
                        dist += diff * diff;
                    }
                    if dist < best_dist {
                        best_dist = dist;
                        best = c;
                    }
                }
                for (j, &x) in row.iter().enumerate().take(d) {
                    acc.accumulate(0, best * (d + 1) + j, x);
                }
                acc.accumulate(0, best * (d + 1) + d, 1.0);
            }
        };
        let outcome = engine.run_file(&file, &layout, &kernel)?;
        stats.absorb(&outcome.stats);
        let (next, cnt) = update_centroids(outcome.robj.group_slice(0), &centroids, k, d);
        centroids = next;
        counts = cnt;
    }

    Ok(KmeansResult {
        centroids,
        counts,
        timing: AppTiming {
            linearize_ns: 0,
            stats,
            wall_ns: wall.elapsed().as_nanos() as u64,
            trace: (rec.level() != TraceLevel::Off).then(|| rec.drain()),
        },
    })
}

/// Rebuild the nested centroid structure from flat coordinates (counts
/// reset to zero, as in the Chapel program's fresh `newCent`).
fn centroids_value(flat: &[f64], k: usize, d: usize) -> Value {
    Value::Array(
        (0..k)
            .map(|c| {
                Value::Record(vec![
                    Value::Array((0..d).map(|j| Value::Real(flat[c * d + j])).collect()),
                    Value::Int(0),
                ])
            })
            .collect(),
    )
}

/// The hand-written FREERIDE version ("manual FR").
fn run_manual(params: &KmeansParams) -> KmeansResult {
    let wall = Instant::now();
    let (n, d, k) = (params.n, params.d, params.k);
    let buffer = data::kmeans_points_flat(n, d);
    let layout = robj_layout(k, d);
    let rec = Arc::new(Recorder::new(params.config.trace));
    let engine = Engine::with_recorder(params.config.clone(), rec.clone());
    let view = DataView::new(&buffer, d).expect("n*d buffer");

    let mut centroids = data::kmeans_centroids_flat(k, d);
    let mut counts = vec![0.0; k];
    let mut stats = RunStats {
        logical_threads: params.config.threads,
        ..Default::default()
    };

    for _ in 0..params.iters.max(1) {
        let cents = &centroids;
        let kernel = move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            let mut acc = Accumulator::new(robj);
            for row in split.iter_rows() {
                let mut best = 0usize;
                let mut best_dist = f64::INFINITY;
                for c in 0..k {
                    let mut dist = 0.0;
                    let centre = &cents[c * d..(c + 1) * d];
                    for j in 0..d {
                        let diff = row[j] - centre[j];
                        dist += diff * diff;
                    }
                    if dist < best_dist {
                        best_dist = dist;
                        best = c;
                    }
                }
                for (j, &x) in row.iter().enumerate().take(d) {
                    acc.accumulate(0, best * (d + 1) + j, x);
                }
                acc.accumulate(0, best * (d + 1) + d, 1.0);
            }
        };
        let outcome = engine.run(view, &layout, &kernel);
        stats.absorb(&outcome.stats);
        let (next, cnt) = update_centroids(outcome.robj.group_slice(0), &centroids, k, d);
        centroids = next;
        counts = cnt;
    }

    KmeansResult {
        centroids,
        counts,
        timing: AppTiming {
            linearize_ns: 0,
            stats,
            wall_ns: wall.elapsed().as_nanos() as u64,
            trace: (rec.level() != TraceLevel::Off).then(|| rec.drain()),
        },
    }
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
        let oracle = Linearizer::new(&data::kmeans_centroid_shape(k, d))
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
