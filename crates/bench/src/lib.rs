//! cfr-bench — the harness that regenerates every figure of the paper's
//! evaluation section, plus the ablation studies called out in
//! DESIGN.md.
//!
//! Each `fig*` function reruns the corresponding experiment and returns
//! a [`Figure`] of `(series, threads, seconds)` rows — the same series
//! the paper plots. Absolute numbers differ from the paper (different
//! hardware, a kernel VM instead of a C compiler), but the *shapes* are
//! the reproduction target; `EXPERIMENTS.md` records both.
//!
//! Thread scaling uses the modeled-parallel-time harness (DESIGN.md §5):
//! each version executes once with instrumented per-split timing
//! (`ExecMode::Sequential`, one split per logical thread), and the time
//! for `t` threads is sequential linearization + reduce makespan +
//! combination. On a multi-core host, `ExecMode::Threads` gives real
//! wall times instead.

#![warn(missing_docs)]

use std::fmt::Write as _;

use cfr_apps::{histogram, kmeans, linreg, pca, Version};
use freeride::{
    mapreduce::MapReduceEngine, CombineOp, DataView, Engine, ExecMode, GroupSpec, JobConfig,
    RObjHandle, RObjLayout, Split, Splitter, SyncScheme,
};

/// One measured point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// Series label (e.g. "opt-2").
    pub series: String,
    /// Thread count of this point.
    pub threads: usize,
    /// Modeled (or measured) execution time, seconds.
    pub seconds: f64,
}

/// One regenerated figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure identifier ("fig09" ... "fig13", or an ablation name).
    pub id: String,
    /// Human-readable description (dataset and parameters).
    pub title: String,
    /// The measured series.
    pub rows: Vec<FigureRow>,
}

impl Figure {
    /// The time of `(series, threads)`, if measured.
    pub fn get(&self, series: &str, threads: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.series == series && r.threads == threads)
            .map(|r| r.seconds)
    }

    /// Render as an aligned text table (threads as columns).
    pub fn render(&self) -> String {
        let mut threads: Vec<usize> = self.rows.iter().map(|r| r.threads).collect();
        threads.sort_unstable();
        threads.dedup();
        let mut series: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !series.contains(&r.series.as_str()) {
                series.push(&r.series);
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = write!(out, "{:<12}", "version");
        for t in &threads {
            let _ = write!(out, "{:>12}", format!("{t} thr (s)"));
        }
        out.push('\n');
        for s in series {
            let _ = write!(out, "{s:<12}");
            for t in &threads {
                match self.get(s, *t) {
                    Some(x) => {
                        let _ = write!(out, "{x:>12.4}");
                    }
                    None => {
                        let _ = write!(out, "{:>12}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`figure,series,threads,seconds`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("figure,series,threads,seconds\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{:.6}",
                self.id, r.series, r.threads, r.seconds
            );
        }
        out
    }
}

/// Shared knobs of a figure run.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Work scale relative to the paper's dataset (1.0 = full size).
    pub scale: f64,
    /// Thread counts to report (the paper uses 1, 2, 4, 8).
    pub threads: Vec<usize>,
    /// `Sequential` → modeled scaling (single-core hosts);
    /// `Threads` → real wall-clock per thread count on the persistent
    /// worker pool.
    pub exec: ExecMode,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            scale: 0.01,
            threads: vec![1, 2, 4, 8],
            exec: ExecMode::Sequential,
        }
    }
}

impl Harness {
    fn max_threads(&self) -> usize {
        self.threads.iter().copied().max().unwrap_or(1)
    }
}

// ---------- k-means figures ----------

fn kmeans_figure(h: &Harness, id: &str, mb: usize, k: usize, iters: usize) -> Figure {
    // The paper's datasets are d=8 points; size scales the point count.
    let d = 8usize;
    let n = ((mb as f64 * 1024.0 * 1024.0 / 8.0 / d as f64) * h.scale).max(64.0) as usize;
    let title = format!(
        "k-means {mb} MB dataset (scale {:.3} → {n} points, d={d}), k={k}, i={iters}",
        h.scale
    );
    let mut rows = Vec::new();
    match h.exec {
        ExecMode::Sequential => {
            // One instrumented run per version; model every thread count.
            let mut params = kmeans::KmeansParams::new(n, d, k, iters);
            params.config = JobConfig::modeled(h.max_threads());
            for v in Version::ALL {
                let r = kmeans::run(&params, v).expect("kmeans version");
                for &t in &h.threads {
                    rows.push(FigureRow {
                        series: v.label().to_string(),
                        threads: t,
                        seconds: r.timing.modeled_ns(t) as f64 / 1e9,
                    });
                }
            }
        }
        ExecMode::Threads => {
            for v in Version::ALL {
                for &t in &h.threads {
                    let mut params = kmeans::KmeansParams::new(n, d, k, iters).threads(t);
                    params.config.exec = h.exec;
                    let r = kmeans::run(&params, v).expect("kmeans version");
                    rows.push(FigureRow {
                        series: v.label().to_string(),
                        threads: t,
                        seconds: r.timing.wall_ns as f64 / 1e9,
                    });
                }
            }
        }
    }
    Figure {
        id: id.to_string(),
        title,
        rows,
    }
}

/// Figure 9: k-means, 12 MB dataset, k = 100, i = 10.
pub fn fig09(h: &Harness) -> Figure {
    kmeans_figure(h, "fig09", 12, 100, 10)
}

/// Figure 10: k-means, 1.2 GB dataset, k = 10, i = 10.
pub fn fig10(h: &Harness) -> Figure {
    kmeans_figure(h, "fig10", 1229, 10, 10)
}

/// Figure 11: k-means, 1.2 GB dataset, k = 100, i = 1 — a single
/// iteration, so the (sequential) linearization overhead is at its most
/// visible.
pub fn fig11(h: &Harness) -> Figure {
    kmeans_figure(h, "fig11", 1229, 100, 1)
}

// ---------- PCA figures ----------

fn pca_figure(h: &Harness, id: &str, rows_full: usize, cols_full: usize) -> Figure {
    // Scale both dimensions by √scale so total work scales superlinearly
    // like the figures' absolute sizes would.
    let s = h.scale.sqrt();
    let rows_n = ((rows_full as f64) * s).max(8.0) as usize;
    let cols_n = ((cols_full as f64) * s).max(32.0) as usize;
    let title = format!(
        "PCA rows={rows_full}, cols={cols_full} (scale {:.3} → {rows_n}×{cols_n})",
        h.scale
    );
    // The paper compares only opt-2 and manual for PCA.
    let versions = [Version::Opt2, Version::Manual];
    let mut out_rows = Vec::new();
    match h.exec {
        ExecMode::Sequential => {
            let mut params = pca::PcaParams::new(rows_n, cols_n);
            params.config = JobConfig::modeled(h.max_threads());
            for v in versions {
                let r = pca::run(&params, v).expect("pca version");
                for &t in &h.threads {
                    out_rows.push(FigureRow {
                        series: v.label().to_string(),
                        threads: t,
                        seconds: r.timing.modeled_ns(t) as f64 / 1e9,
                    });
                }
            }
        }
        ExecMode::Threads => {
            for v in versions {
                for &t in &h.threads {
                    let mut params = pca::PcaParams::new(rows_n, cols_n).threads(t);
                    params.config.exec = h.exec;
                    let r = pca::run(&params, v).expect("pca version");
                    out_rows.push(FigureRow {
                        series: v.label().to_string(),
                        threads: t,
                        seconds: r.timing.wall_ns as f64 / 1e9,
                    });
                }
            }
        }
    }
    Figure {
        id: id.to_string(),
        title,
        rows: out_rows,
    }
}

/// Figure 12: PCA, 1000 rows × 10,000 columns.
pub fn fig12(h: &Harness) -> Figure {
    pca_figure(h, "fig12", 1000, 10_000)
}

/// Figure 13: PCA, 1000 rows × 100,000 columns.
pub fn fig13(h: &Harness) -> Figure {
    pca_figure(h, "fig13", 1000, 100_000)
}

// ---------- ablations ----------

/// Sync-scheme ablation: the manual k-means kernel under each
/// shared-memory technique, real threads.
pub fn ablation_sync(n: usize, k: usize, threads: usize) -> Figure {
    let d = 4usize;
    let mut rows = Vec::new();
    for (name, scheme) in [
        ("replication", SyncScheme::FullReplication),
        ("full-lock", SyncScheme::FullLocking),
        ("bucket-lock", SyncScheme::BucketLocking { stripes: 64 }),
        ("atomic", SyncScheme::Atomic),
    ] {
        let mut params = kmeans::KmeansParams::new(n, d, k, 2).threads(threads);
        params.config.scheme = scheme;
        let t0 = std::time::Instant::now();
        let r = kmeans::run(&params, Version::Manual).expect("manual kmeans");
        let secs = t0.elapsed().as_secs_f64();
        let _ = r;
        rows.push(FigureRow {
            series: name.to_string(),
            threads,
            seconds: secs,
        });
    }
    Figure {
        id: "ablation_sync".into(),
        title: format!("shared-memory techniques, k-means n={n} k={k} t={threads}"),
        rows,
    }
}

/// FREERIDE's fused reduction vs a Phoenix-style map-sort-reduce on the
/// same histogram kernel (the structural contrast of Figure 4). Also
/// reports the intermediate-pair count through the title.
pub fn ablation_mapreduce(n: usize, buckets: usize, threads: usize) -> Figure {
    let data = cfr_apps::data::histogram_flat(n);
    let view = DataView::new(&data, 1).expect("unit 1");

    // Fused FREERIDE.
    let layout = RObjLayout::new(vec![GroupSpec::new("hist", buckets, CombineOp::Sum)]);
    let engine = Engine::new(JobConfig::with_threads(threads));
    let t0 = std::time::Instant::now();
    let fused = engine.run(
        view,
        &layout,
        &|split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                let b = ((row[0] * buckets as f64) as usize).min(buckets - 1);
                robj.accumulate(0, b, 1.0);
            }
        },
    );
    let fused_secs = t0.elapsed().as_secs_f64();

    // Phoenix-style map-sort-reduce.
    let mr = MapReduceEngine::new(threads);
    let t0 = std::time::Instant::now();
    let outcome = mr.run(
        view,
        |row, emit| {
            let b = ((row[0] * buckets as f64) as usize).min(buckets - 1);
            emit.push((b, 1.0));
        },
        &CombineOp::Sum,
    );
    let mr_secs = t0.elapsed().as_secs_f64();

    // Sanity: both totals count every element.
    let fused_total: f64 = fused.robj.cells().iter().sum();
    let mr_total: f64 = outcome.reduced.iter().map(|&(_, v)| v).sum();
    assert_eq!(fused_total, mr_total, "engines disagree");

    Figure {
        id: "ablation_mapreduce".into(),
        title: format!(
            "fused vs map-sort-reduce, histogram n={n}: {} intermediate pairs materialised by map-reduce, 0 by FREERIDE",
            outcome.stats.intermediate_pairs
        ),
        rows: vec![
            FigureRow { series: "freeride-fused".into(), threads, seconds: fused_secs },
            FigureRow { series: "map-sort-reduce".into(), threads, seconds: mr_secs },
        ],
    }
}

/// Strength-reduction ablation: generated vs opt-1 vs opt-2 at one
/// thread (the per-access `computeIndex` cost in isolation).
pub fn ablation_strength(n: usize, k: usize) -> Figure {
    let d = 8usize;
    let mut rows = Vec::new();
    for v in [Version::Generated, Version::Opt1, Version::Opt2] {
        let params = kmeans::KmeansParams::new(n, d, k, 1);
        let r = kmeans::run(&params, v).expect("kmeans");
        rows.push(FigureRow {
            series: v.label().to_string(),
            threads: 1,
            seconds: r.timing.wall_ns as f64 / 1e9,
        });
    }
    Figure {
        id: "ablation_strength".into(),
        title: format!(
            "strength reduction & selective linearization, k-means n={n} k={k}, 1 thread"
        ),
        rows,
    }
}

/// Splitter ablation: static even split vs dynamic chunk queue on a
/// *skewed* workload (rows near the end cost more), real threads.
pub fn ablation_splitter(rows_n: usize, threads: usize) -> Figure {
    // Skewed cost: row i performs i % 1024 inner iterations.
    let data: Vec<f64> = (0..rows_n).map(|i| (i % 1024) as f64).collect();
    let view = DataView::new(&data, 1).expect("unit 1");
    let layout = RObjLayout::new(vec![GroupSpec::new("sum", 1, CombineOp::Sum)]);
    let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
        for row in split.iter_rows() {
            let mut acc = 0.0;
            let reps = row[0] as usize;
            for r in 0..reps {
                acc += (r as f64).sqrt();
            }
            robj.accumulate(0, 0, acc);
        }
    };
    let mut out = Vec::new();
    for (name, splitter) in [
        ("static", Splitter::Default),
        (
            "dynamic",
            Splitter::Chunked {
                rows_per_chunk: (rows_n / (threads * 16)).max(1),
            },
        ),
    ] {
        let engine = Engine::new(JobConfig {
            threads,
            splitter: splitter.clone(),
            ..Default::default()
        });
        let t0 = std::time::Instant::now();
        let outcome = engine.run(view, &layout, &kernel);
        let secs = t0.elapsed().as_secs_f64();
        assert!(outcome.robj.get(0, 0) > 0.0);
        out.push(FigureRow {
            series: name.into(),
            threads,
            seconds: secs,
        });
    }
    Figure {
        id: "ablation_splitter".into(),
        title: format!("static vs dynamic splitter, skewed workload, {rows_n} rows, t={threads}"),
        rows: out,
    }
}

/// Parallel-linearization ablation (the paper's stated future work):
/// sequential vs multi-threaded Algorithm 2 over the k-means dataset.
pub fn ablation_par_linearize(n: usize, threads: usize) -> Figure {
    let d = 8usize;
    let nested = cfr_apps::data::kmeans_points_nested(n, d);
    let values = std::slice::from_ref(&nested);
    let t0 = std::time::Instant::now();
    let seq = cfr_core::zip_linearize(values, n, d, false, threads).expect("linearize");
    let seq_secs = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let par = cfr_core::zip_linearize(values, n, d, true, threads).expect("linearize");
    let par_secs = t0.elapsed().as_secs_f64();
    assert_eq!(seq, par, "parallel linearization must be bit-identical");
    Figure {
        id: "ablation_par_linearize".into(),
        title: format!("sequential vs parallel linearization, {n} points × {d} dims"),
        rows: vec![
            FigureRow {
                series: "sequential".into(),
                threads: 1,
                seconds: seq_secs,
            },
            FigureRow {
                series: "parallel".into(),
                threads,
                seconds: par_secs,
            },
        ],
    }
}

/// Extension-application check rows (histogram & linreg agree across
/// versions and report their timings) — not a paper figure, but part of
/// the harness's self-test.
pub fn extension_apps(n: usize, threads: usize) -> Figure {
    let mut rows = Vec::new();
    let hp = histogram::HistogramParams::new(n, 32).threads(threads);
    for v in [Version::Generated, Version::Opt2, Version::Manual] {
        let r = histogram::run(&hp, v).expect("histogram");
        rows.push(FigureRow {
            series: format!("hist/{}", v.label()),
            threads,
            seconds: r.timing.wall_ns as f64 / 1e9,
        });
    }
    let lp = linreg::LinregParams::new(n).threads(threads);
    for v in [Version::Generated, Version::Opt2, Version::Manual] {
        let r = linreg::run(&lp, v).expect("linreg");
        rows.push(FigureRow {
            series: format!("linreg/{}", v.label()),
            threads,
            seconds: r.timing.wall_ns as f64 / 1e9,
        });
    }
    Figure {
        id: "extension_apps".into(),
        title: format!("extension applications, n={n}, t={threads}"),
        rows,
    }
}

#[cfg(test)]
mod harness_tests {
    use super::*;

    fn tiny() -> Harness {
        Harness {
            scale: 0.0004,
            threads: vec![1, 2, 4],
            exec: ExecMode::Sequential,
        }
    }

    #[test]
    fn fig09_shape_holds_at_tiny_scale() {
        let f = fig09(&tiny());
        // All four series, all thread counts present.
        for v in Version::ALL {
            for t in [1usize, 2, 4] {
                assert!(f.get(v.label(), t).is_some(), "{} t={t}", v.label());
            }
        }
        // Ordering at 1 thread: generated ≥ opt-1 ≥ opt-2 ≥ manual.
        let g = f.get("generated", 1).unwrap();
        let o1 = f.get("opt-1", 1).unwrap();
        let o2 = f.get("opt-2", 1).unwrap();
        let m = f.get("manual FR", 1).unwrap();
        assert!(g > o1, "generated {g} vs opt-1 {o1}");
        assert!(o1 > o2, "opt-1 {o1} vs opt-2 {o2}");
        assert!(o2 > m, "opt-2 {o2} vs manual {m}");
        // Scaling: every version speeds up from 1 to 4 threads.
        for v in Version::ALL {
            let t1 = f.get(v.label(), 1).unwrap();
            let t4 = f.get(v.label(), 4).unwrap();
            assert!(t4 < t1, "{}: {t4} !< {t1}", v.label());
        }
    }

    #[test]
    fn fig12_has_two_series() {
        let f = fig12(&Harness {
            scale: 0.0001,
            threads: vec![1, 2],
            exec: ExecMode::Sequential,
        });
        assert!(f.get("opt-2", 1).is_some());
        assert!(f.get("manual FR", 2).is_some());
        assert!(f.get("generated", 1).is_none());
    }

    #[test]
    fn render_and_csv() {
        let f = Figure {
            id: "t".into(),
            title: "demo".into(),
            rows: vec![
                FigureRow {
                    series: "a".into(),
                    threads: 1,
                    seconds: 0.5,
                },
                FigureRow {
                    series: "a".into(),
                    threads: 2,
                    seconds: 0.25,
                },
            ],
        };
        let txt = f.render();
        assert!(txt.contains("1 thr"));
        assert!(txt.contains("0.5000"));
        let csv = f.to_csv();
        assert!(csv.lines().count() == 3);
    }

    #[test]
    fn ablation_mapreduce_counts_pairs() {
        let f = ablation_mapreduce(5_000, 16, 2);
        assert!(f.title.contains("5000 intermediate pairs"));
        assert!(f.get("freeride-fused", 2).is_some());
    }

    #[test]
    fn ablation_par_linearize_identical() {
        let f = ablation_par_linearize(2_000, 4);
        assert_eq!(f.rows.len(), 2);
    }

    #[test]
    fn extension_apps_run() {
        let f = extension_apps(500, 2);
        assert_eq!(f.rows.len(), 6);
    }
}
