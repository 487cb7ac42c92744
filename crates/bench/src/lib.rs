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
    /// A harness at `scale` with default threads.
    pub fn at_scale(scale: f64) -> Harness {
        Harness {
            scale,
            ..Default::default()
        }
    }

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

/// All five result figures.
pub fn all_figures(h: &Harness) -> Vec<Figure> {
    vec![fig09(h), fig10(h), fig11(h), fig12(h), fig13(h)]
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

// ---------------------------------------------------------------------
// Out-of-core I/O: Sync vs Streaming (the `freeride-io` pipeline)
// ---------------------------------------------------------------------

/// One measured point of the Sync-vs-Streaming out-of-core I/O sweep.
#[derive(Debug, Clone)]
pub struct IoPoint {
    /// `"sync"` or `"streaming"`.
    pub mode: &'static str,
    /// Compute-worker thread count.
    pub threads: usize,
    /// End-to-end wall time, seconds (all iterations).
    pub wall_s: f64,
    /// Total time spent in disk reads, seconds — on the worker threads
    /// for sync (inside split timing), on the reader threads for
    /// streaming (off the critical path when overlap works).
    pub read_s: f64,
    /// Streaming only: worker time blocked waiting for a filled chunk.
    pub stall_s: f64,
    /// Streaming only: reader time blocked waiting for a free buffer.
    pub backpressure_s: f64,
    /// Streaming only: resident chunk-pool bytes (the bounded-memory
    /// footprint of the pipeline).
    pub pool_bytes: usize,
    /// Payload bytes consumed per wall second, MiB/s.
    pub throughput_mib_s: f64,
}

/// A completed Sync-vs-Streaming sweep.
#[derive(Debug, Clone)]
pub struct IoSweep {
    /// On-disk dataset size, MB.
    pub dataset_mb: usize,
    /// Streaming memory budget, MiB.
    pub budget_mib: usize,
    /// Rows in the generated dataset.
    pub rows: usize,
    /// The measured points, sync and streaming per thread count.
    pub points: Vec<IoPoint>,
}

/// Sweep out-of-core k-means over Sync vs Streaming I/O at each thread
/// count: a `dataset_mb`-MB file (cfr-datagen clustered points, d=8) is
/// reduced for `iters` rounds, with the streaming pipeline sized to a
/// `budget_mib`-MiB chunk pool. Pick `dataset_mb >= 4 * budget_mib` so
/// the runs are genuinely out-of-core relative to the pipeline budget.
pub fn io_overlap(
    dataset_mb: usize,
    budget_mib: usize,
    threads: &[usize],
    k: usize,
    iters: usize,
) -> Result<IoSweep, String> {
    let d = 8usize;
    let (ds, _centroids) = cfr_datagen::kmeans_sized(dataset_mb, d, k, 42);
    let rows = ds.rows();
    let mut path = std::env::temp_dir();
    path.push(format!("cfr-io-overlap-{}.frds", std::process::id()));
    ds.write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    drop(ds); // the point is reading from disk, not from this buffer

    let budget = freeride::MemoryBudget::mib(budget_mib);
    let payload_bytes = (iters.max(1) * rows * d * 8) as f64;
    let mut points = Vec::new();
    for &t in threads {
        let modes: [(&'static str, freeride::IoMode); 2] = [
            ("sync", freeride::IoMode::Sync),
            (
                "streaming",
                freeride::IoMode::streaming_within(budget, d, 2),
            ),
        ];
        for (mode, io) in modes {
            let mut params = kmeans::KmeansParams::new(rows, d, k, iters).threads(t);
            params.config.exec = ExecMode::Threads;
            params.config.io = io;
            let r = kmeans::run_manual_on_file(&params, &path)
                .map_err(|e| format!("{mode} t={t}: {e}"))?;
            let stats = &r.timing.stats;
            // Sync reads happen inside the splits; streaming reads on
            // the reader tracks.
            let read_ns: u64 = match io {
                freeride::IoMode::Sync => stats.splits.iter().map(|s| s.read_ns).sum(),
                freeride::IoMode::Streaming { .. } => stats.io.read_ns,
            };
            let wall_s = r.timing.wall_ns as f64 / 1e9;
            points.push(IoPoint {
                mode,
                threads: t,
                wall_s,
                read_s: read_ns as f64 / 1e9,
                stall_s: stats.io.stall_ns as f64 / 1e9,
                backpressure_s: stats.io.backpressure_ns as f64 / 1e9,
                pool_bytes: stats.io.pool_bytes,
                throughput_mib_s: payload_bytes / (1024.0 * 1024.0) / wall_s.max(1e-9),
            });
        }
    }
    std::fs::remove_file(&path).ok();
    Ok(IoSweep {
        dataset_mb,
        budget_mib,
        rows,
        points,
    })
}

/// Render an I/O sweep as an aligned table (the EXPERIMENTS.md
/// `io_overlap` shape).
pub fn render_io_table(sweep: &IoSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "io_overlap — k-means, {} MB dataset ({} rows, d=8), streaming budget {} MiB",
        sweep.dataset_mb, sweep.rows, sweep.budget_mib
    );
    let _ = writeln!(
        out,
        "{:>7} {:>10} {:>9} {:>9} {:>9} {:>13} {:>10} {:>11}",
        "threads", "mode", "wall s", "read s", "stall s", "backpress s", "pool KiB", "MiB/s"
    );
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:>7} {:>10} {:>9.4} {:>9.4} {:>9.4} {:>13.4} {:>10} {:>11.1}",
            p.threads,
            p.mode,
            p.wall_s,
            p.read_s,
            p.stall_s,
            p.backpressure_s,
            p.pool_bytes / 1024,
            p.throughput_mib_s
        );
    }
    out
}

// ---------------------------------------------------------------------
// Cluster scaling (the distributed engine)
// ---------------------------------------------------------------------

/// One measured point of a cluster sweep.
#[derive(Debug, Clone)]
pub struct ClusterPoint {
    /// Node count of this run.
    pub nodes: usize,
    /// End-to-end wall time, seconds.
    pub wall_s: f64,
    /// The slowest node's reduce makespan (from shipped traces),
    /// seconds — the modeled lower bound on per-round latency.
    pub slowest_node_s: f64,
    /// Coordinator-side wire bytes (sent + received) — the combine
    /// traffic the paper's global-combination phase pays.
    pub wire_bytes: u64,
    /// Rounds executed.
    pub rounds: usize,
}

/// Sweep k-means over loopback cluster sizes, aggregating per-node
/// [`freeride::RunStats`] out of the shipped traces.
pub fn cluster_scaling_kmeans(
    params: &cfr_apps::kmeans::KmeansParams,
    node_counts: &[usize],
) -> Result<Vec<ClusterPoint>, String> {
    use cfr_apps::cluster::{kmeans_cluster, Nodes};
    let mut params = params.clone();
    if params.config.trace == obs::TraceLevel::Off {
        // node_stats need shipped traces.
        params.config.trace = obs::TraceLevel::Splits;
    }
    let mut points = Vec::new();
    for &n in node_counts {
        let r = kmeans_cluster(&params, &Nodes::Loopback(n)).map_err(|e| e.to_string())?;
        points.push(ClusterPoint {
            nodes: n,
            wall_s: r.stats.wall_ns as f64 / 1e9,
            slowest_node_s: r.stats.slowest_node_ns() as f64 / 1e9,
            wire_bytes: r.stats.bytes_sent + r.stats.bytes_recv,
            rounds: r.stats.rounds,
        });
    }
    Ok(points)
}

/// Render a cluster sweep as an aligned table (the EXPERIMENTS.md
/// cluster-scaling shape).
pub fn render_cluster_table(app: &str, points: &[ClusterPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "cluster scaling — {app}");
    let _ = writeln!(
        out,
        "{:>6} {:>9} {:>16} {:>12} {:>7}",
        "nodes", "wall s", "slowest node s", "wire bytes", "rounds"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>6} {:>9.4} {:>16.4} {:>12} {:>7}",
            p.nodes, p.wall_s, p.slowest_node_s, p.wire_bytes, p.rounds
        );
    }
    out
}

// ---------------------------------------------------------------------
// Fault tolerance: checkpoint overhead and recovery latency
// ---------------------------------------------------------------------

/// One measured point of the fault-tolerance sweep.
#[derive(Debug, Clone)]
pub struct FtPoint {
    /// Configuration label (`no-ckpt`, `every=1`, `every=2`,
    /// `kill+recover`).
    pub label: String,
    /// End-to-end wall time, seconds.
    pub wall_s: f64,
    /// Overhead over the `no-ckpt` baseline, percent (the recovery row
    /// reports its added latency here too).
    pub overhead_pct: f64,
    /// Checkpoints written during the run.
    pub checkpoints: usize,
    /// Total checkpoint bytes, KiB.
    pub checkpoint_kib: u64,
    /// Node failures recovered.
    pub recoveries: usize,
}

/// A completed fault-tolerance sweep.
#[derive(Debug, Clone)]
pub struct FtSweep {
    /// Cluster size of every run.
    pub nodes: usize,
    /// Rounds per run.
    pub rounds: usize,
    /// The measured points.
    pub points: Vec<FtPoint>,
}

/// External-style node agents for fault injection: node `kill_node`
/// completes `kill_after` rounds then severs its connection mid-round;
/// the rest serve one session.
fn chaos_cluster(
    n: usize,
    kill_node: usize,
    kill_after: u32,
) -> (Vec<std::net::SocketAddr>, Vec<std::thread::JoinHandle<()>>) {
    let mut addrs = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for id in 0..n {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("local addr"));
        handles.push(std::thread::spawn(move || {
            use freeride_dist::node::Behaviour;
            let behaviour = if id == kill_node {
                Behaviour::dies_after(kill_after)
            } else {
                Behaviour::default()
            };
            freeride_dist::node::serve_with(&listener, behaviour).ok();
        }));
    }
    (addrs, handles)
}

/// Measure what fault tolerance costs on a loopback k-means cluster:
/// wall time without checkpointing, with a checkpoint every round and
/// every other round (overhead %), and with a node killed mid-round
/// (recovery latency over the undisturbed baseline).
pub fn ft_overhead_kmeans(
    params: &cfr_apps::kmeans::KmeansParams,
    nodes: usize,
    dir: &std::path::Path,
) -> Result<FtSweep, String> {
    use cfr_apps::cluster::{kmeans_cluster, kmeans_cluster_ft, FtOptions, Nodes};
    std::fs::remove_dir_all(dir).ok();
    let mut points = Vec::new();

    let t0 = std::time::Instant::now();
    let base = kmeans_cluster(params, &Nodes::Loopback(nodes)).map_err(|e| e.to_string())?;
    let base_s = t0.elapsed().as_secs_f64();
    points.push(FtPoint {
        label: "no-ckpt".into(),
        wall_s: base_s,
        overhead_pct: 0.0,
        checkpoints: 0,
        checkpoint_kib: 0,
        recoveries: 0,
    });

    for every in [1usize, 2] {
        let mut ft = FtOptions::with_dir(dir.join(format!("every-{every}")));
        ft.policy.checkpoint_every = every;
        let t0 = std::time::Instant::now();
        let r =
            kmeans_cluster_ft(params, &Nodes::Loopback(nodes), &ft).map_err(|e| e.to_string())?;
        let wall_s = t0.elapsed().as_secs_f64();
        points.push(FtPoint {
            label: format!("every={every}"),
            wall_s,
            overhead_pct: (wall_s / base_s.max(1e-9) - 1.0) * 100.0,
            checkpoints: r.stats.checkpoints_written,
            checkpoint_kib: r.stats.checkpoint_bytes / 1024,
            recoveries: 0,
        });
    }

    // Recovery latency: one node dies mid-round after its first answered
    // round; the survivors absorb its shard and finish.
    let (addrs, handles) = chaos_cluster(nodes, nodes - 1, 1);
    let mut ft = FtOptions::with_dir(dir.join("recover"));
    ft.policy.backoff = std::time::Duration::from_millis(1);
    let t0 = std::time::Instant::now();
    let r = kmeans_cluster_ft(params, &Nodes::External(addrs), &ft).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    for h in handles {
        h.join().ok();
    }
    if r.centroids != base.centroids {
        return Err("recovered centroids diverged from the undisturbed run".into());
    }
    points.push(FtPoint {
        label: "kill+recover".into(),
        wall_s,
        overhead_pct: (wall_s / base_s.max(1e-9) - 1.0) * 100.0,
        checkpoints: r.stats.checkpoints_written,
        checkpoint_kib: r.stats.checkpoint_bytes / 1024,
        recoveries: r.stats.recoveries,
    });

    std::fs::remove_dir_all(dir).ok();
    Ok(FtSweep {
        nodes,
        rounds: params.iters.max(1),
        points,
    })
}

/// Render a fault-tolerance sweep as an aligned table (the
/// EXPERIMENTS.md `ft_overhead` shape).
pub fn render_ft_table(app: &str, sweep: &FtSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ft_overhead — {app}, {} nodes, {} rounds",
        sweep.nodes, sweep.rounds
    );
    let _ = writeln!(
        out,
        "{:>14} {:>9} {:>10} {:>12} {:>9} {:>10}",
        "config", "wall s", "overhead", "checkpoints", "ckpt KiB", "recovered"
    );
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:>14} {:>9.4} {:>9.1}% {:>12} {:>9} {:>10}",
            p.label, p.wall_s, p.overhead_pct, p.checkpoints, p.checkpoint_kib, p.recoveries
        );
    }
    out
}

// ---------------------------------------------------------------------
// Job-server throughput: concurrent tenants on a shared fleet
// ---------------------------------------------------------------------

/// One measured point of the job-server throughput sweep.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Concurrent tenants submitting in this run.
    pub tenants: usize,
    /// Total jobs completed.
    pub jobs: usize,
    /// End-to-end wall time, seconds.
    pub wall_s: f64,
    /// Service throughput, jobs per second.
    pub jobs_per_s: f64,
}

/// A completed job-server throughput sweep.
#[derive(Debug, Clone)]
pub struct ServeSweep {
    /// Fleet size every run shared.
    pub nodes: usize,
    /// Rounds per job.
    pub rounds: usize,
    /// Jobs each tenant submitted back-to-back.
    pub jobs_per_tenant: usize,
    /// The measured points, one per tenant count.
    pub points: Vec<ServePoint>,
}

/// Measure `cfr-serve` throughput: an in-process server over a shared
/// loopback fleet, swept across tenant counts. Each tenant opens one
/// session and submits `jobs_per_tenant` identical k-means jobs
/// back-to-back; the point of the sweep is how job throughput scales as
/// concurrent tenants multiplex onto the same nodes. Every job's final
/// state is checked bit-identical to the first — concurrency must not
/// perturb results.
pub fn serve_throughput(
    params: &cfr_apps::kmeans::KmeansParams,
    nodes: usize,
    tenants_list: &[usize],
    jobs_per_tenant: usize,
) -> Result<ServeSweep, String> {
    use cfr_serve::{Client, JobSpec, ServeConfig, Server};

    let (n, d, k) = (params.n, params.d, params.k);
    let rounds = params.iters.max(1);
    let data = cfr_apps::data::kmeans_points_flat(n, d);
    let mut dataset = std::env::temp_dir();
    dataset.push(format!("cfr-bench-serve-{}.frds", std::process::id()));
    freeride::source::write_dataset(&dataset, d, &data)
        .map_err(|e| format!("write {}: {e}", dataset.display()))?;
    let spec = JobSpec::Task {
        task: "kmeans".into(),
        params: vec![k as i64, d as i64],
        init_state: data[..k * d].to_vec(),
        rounds: rounds as u32,
        dataset: dataset.to_string_lossy().into_owned(),
        threads_per_node: params.config.threads.max(1) as u32,
        backend: freeride::KernelBackend::Interpreted.to_wire(),
    };

    let mut points = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    for &tenants in tenants_list {
        let total = tenants * jobs_per_tenant;
        let fleet = freeride_dist::LoopbackCluster::spawn_concurrent(nodes, total)
            .map_err(|e| e.to_string())?;
        let mut cfg = ServeConfig::new(fleet.addrs().to_vec());
        cfg.max_concurrent = tenants;
        let handle = Server::start(cfg, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = handle.addr();

        let t0 = std::time::Instant::now();
        let clients: Vec<_> = (0..tenants)
            .map(|t| {
                let spec = spec.clone();
                std::thread::spawn(move || -> Result<Vec<Vec<u64>>, String> {
                    let mut client = Client::connect(addr, &format!("tenant{t}"), "")
                        .map_err(|e| e.to_string())?;
                    let mut states = Vec::with_capacity(jobs_per_tenant);
                    for _ in 0..jobs_per_tenant {
                        let out = client.run(spec.clone()).map_err(|e| e.to_string())?;
                        states.push(out.state.iter().map(|x| x.to_bits()).collect());
                    }
                    client.bye().ok();
                    Ok(states)
                })
            })
            .collect();
        for c in clients {
            for state in c.join().map_err(|_| "tenant thread panicked")?? {
                match &reference {
                    None => reference = Some(state),
                    Some(r) => {
                        if *r != state {
                            return Err(format!(
                                "{tenants}-tenant run diverged from the first job's state"
                            ));
                        }
                    }
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        handle.stop();
        fleet.join().map_err(|e| e.to_string())?;
        points.push(ServePoint {
            tenants,
            jobs: total,
            wall_s,
            jobs_per_s: total as f64 / wall_s.max(1e-9),
        });
    }
    std::fs::remove_file(&dataset).ok();
    Ok(ServeSweep {
        nodes,
        rounds,
        jobs_per_tenant,
        points,
    })
}

// ---------------------------------------------------------------------
// Telemetry overhead: the live MetricsHub, off vs on
// ---------------------------------------------------------------------

/// One measured point of the telemetry-overhead sweep.
#[derive(Debug, Clone)]
pub struct TelemetryPoint {
    /// Compute-thread count of this point.
    pub threads: usize,
    /// Best wall time with the hub disabled, seconds.
    pub off_s: f64,
    /// Best wall time with the hub enabled, seconds.
    pub on_s: f64,
    /// Relative cost of the enabled hub, percent (negative = noise).
    pub overhead_pct: f64,
    /// Counters the enabled hub recorded (sanity: the mirror fired).
    pub hub_counters: usize,
}

/// A completed telemetry-overhead sweep.
#[derive(Debug, Clone)]
pub struct TelemetrySweep {
    /// Points reduced per run.
    pub n: usize,
    /// Point dimensionality.
    pub d: usize,
    /// Centroid count.
    pub k: usize,
    /// Reduction rounds per run.
    pub iters: usize,
    /// Timed repetitions per configuration (the best is kept).
    pub repeats: usize,
    /// The measured points, one per thread count.
    pub points: Vec<TelemetryPoint>,
}

/// One manual k-means run with tracing off and the live [`obs::MetricsHub`]
/// either enabled or disabled; returns wall seconds, the final centroid
/// bit pattern, and the counter count the hub saw.
fn kmeans_hub_run(
    buffer: &[f64],
    d: usize,
    k: usize,
    iters: usize,
    threads: usize,
    hub_on: bool,
) -> Result<(f64, Vec<u64>, usize), String> {
    let rec = std::sync::Arc::new(freeride::Recorder::new(obs::TraceLevel::Off));
    rec.hub().set_enabled(hub_on);
    let engine = Engine::with_recorder(JobConfig::with_threads(threads), rec.clone());
    let view = DataView::new(buffer, d).map_err(|e| e.to_string())?;
    let layout = RObjLayout::new(vec![GroupSpec::new("newCent", k * (d + 1), CombineOp::Sum)]);
    let mut centroids = cfr_apps::data::kmeans_centroids_flat(k, d);

    let t0 = std::time::Instant::now();
    for _ in 0..iters.max(1) {
        let cents = &centroids;
        let kernel = move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
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
                    robj.accumulate(0, best * (d + 1) + j, x);
                }
                robj.accumulate(0, best * (d + 1) + d, 1.0);
            }
        };
        let outcome = engine.run(view, &layout, &kernel);
        let cells = outcome.robj.group_slice(0);
        for c in 0..k {
            let count = cells[c * (d + 1) + d];
            if count > 0.0 {
                for j in 0..d {
                    centroids[c * d + j] = cells[c * (d + 1) + j] / count;
                }
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let counters = rec.hub().snapshot().counters.len();
    Ok((
        wall_s,
        centroids.iter().map(|x| x.to_bits()).collect(),
        counters,
    ))
}

/// Measure what the live metrics hub costs: manual k-means with tracing
/// off, hub disabled vs enabled, at each thread count. Runs are
/// interleaved and repeated `repeats` times per configuration with the
/// best wall time kept (minimum is the right estimator for a fixed
/// workload — everything above it is scheduling noise). The enabled run
/// must produce bit-identical centroids; telemetry that perturbs
/// results would be worse than no telemetry.
pub fn telemetry_overhead(
    n: usize,
    d: usize,
    k: usize,
    iters: usize,
    threads: &[usize],
    repeats: usize,
) -> Result<TelemetrySweep, String> {
    let buffer = cfr_apps::data::kmeans_points_flat(n, d);
    let repeats = repeats.max(1);
    let mut points = Vec::new();
    for &t in threads {
        let mut off_s = f64::INFINITY;
        let mut on_s = f64::INFINITY;
        let mut off_bits: Option<Vec<u64>> = None;
        let mut hub_counters = 0usize;
        // Warm up caches and the worker pool before anything is timed.
        kmeans_hub_run(&buffer, d, k, iters, t, false)?;
        for _ in 0..repeats {
            let (w, bits, _) = kmeans_hub_run(&buffer, d, k, iters, t, false)?;
            off_s = off_s.min(w);
            off_bits.get_or_insert(bits);
            let (w, bits, counters) = kmeans_hub_run(&buffer, d, k, iters, t, true)?;
            on_s = on_s.min(w);
            hub_counters = counters;
            if off_bits.as_deref() != Some(&bits[..]) {
                return Err(format!(
                    "t={t}: enabling the metrics hub changed the centroids"
                ));
            }
        }
        if hub_counters == 0 {
            return Err(format!("t={t}: the enabled hub recorded no counters"));
        }
        points.push(TelemetryPoint {
            threads: t,
            off_s,
            on_s,
            overhead_pct: (on_s / off_s.max(1e-9) - 1.0) * 100.0,
            hub_counters,
        });
    }
    Ok(TelemetrySweep {
        n,
        d,
        k,
        iters,
        repeats,
        points,
    })
}

/// Render a telemetry-overhead sweep as an aligned table (the
/// EXPERIMENTS.md `telemetry_overhead` shape).
pub fn render_telemetry_table(sweep: &TelemetrySweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry_overhead — manual k-means, n={} d={} k={} iters={}, best of {}",
        sweep.n, sweep.d, sweep.k, sweep.iters, sweep.repeats
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>12} {:>9} {:>9}",
        "threads", "hub off s", "hub on s", "overhead", "counters"
    );
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:>7} {:>12.4} {:>12.4} {:>8.2}% {:>9}",
            p.threads, p.off_s, p.on_s, p.overhead_pct, p.hub_counters
        );
    }
    out
}

// ---------------------------------------------------------------------
// Codegen backend: interpreted vs natively compiled kernels
// ---------------------------------------------------------------------

/// One measured codegen point: a translated k-means configuration
/// under both kernel backends.
#[derive(Debug, Clone)]
pub struct CodegenPoint {
    /// Translation strategy label (`generated` / `opt-1` / `opt-2`).
    pub version: String,
    /// Compute-thread count.
    pub threads: usize,
    /// Best wall time on the bytecode interpreter, seconds.
    pub interp_s: f64,
    /// Best wall time on the compiled backend, seconds.
    pub compiled_s: f64,
    /// `interp_s / compiled_s` — above 1.0 means the native kernel won.
    pub speedup: f64,
}

/// A completed codegen-backend sweep.
#[derive(Debug, Clone)]
pub struct CodegenSweep {
    /// Points reduced per run.
    pub n: usize,
    /// Point dimensionality.
    pub d: usize,
    /// Centroid count.
    pub k: usize,
    /// Reduction rounds per run.
    pub iters: usize,
    /// Timed repetitions per configuration (the best is kept).
    pub repeats: usize,
    /// Whether the compiled column really ran native code. `false`
    /// means no usable `rustc` — the compiled runs fell back to the
    /// interpreter (still correct, but the columns measure the same
    /// engine and the speedups are noise around 1.0).
    pub native: bool,
    /// The measured points, strategy-major then thread count.
    pub points: Vec<CodegenPoint>,
}

/// One translated k-means run on the given backend; returns wall
/// seconds and the final centroid bit pattern.
fn kmeans_backend_run(
    params: &cfr_apps::kmeans::KmeansParams,
    version: Version,
    backend: freeride::KernelBackend,
) -> Result<(f64, Vec<u64>), String> {
    let mut params = params.clone();
    params.config.backend = backend;
    let t0 = std::time::Instant::now();
    let r = cfr_apps::kmeans::run(&params, version)
        .map_err(|e| format!("{} on {}: {e}", version.label(), backend.label()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut bits: Vec<u64> = r.centroids.iter().map(|x| x.to_bits()).collect();
    bits.extend(r.counts.iter().map(|x| x.to_bits()));
    Ok((wall_s, bits))
}

/// Measure the native-codegen escape hatch: translated k-means under
/// every strategy, interpreter vs compiled kernels, at each thread
/// count. The first compiled run of each strategy pays the one-time
/// `rustc` invocation into the process-wide artifact cache, so a
/// warm-up run precedes the timed repetitions (what the steady state of
/// an iterative job sees). Bit identity between the backends is
/// enforced on every repetition — a compiled kernel that is fast but
/// different is a bug, not a win.
pub fn codegen_speed(
    n: usize,
    d: usize,
    k: usize,
    iters: usize,
    threads: &[usize],
    repeats: usize,
) -> Result<CodegenSweep, String> {
    cfr_codegen::install();
    let native = cfr_codegen::rustc_available();
    let repeats = repeats.max(1);
    let mut points = Vec::new();
    for version in [Version::Generated, Version::Opt1, Version::Opt2] {
        for &t in threads {
            let params = cfr_apps::kmeans::KmeansParams::new(n, d, k, iters).threads(t);
            // Warm-up: worker pool, caches, and (first compiled run per
            // strategy) the rustc artifact.
            kmeans_backend_run(&params, version, freeride::KernelBackend::Interpreted)?;
            kmeans_backend_run(&params, version, freeride::KernelBackend::Compiled)?;
            let mut interp_s = f64::INFINITY;
            let mut compiled_s = f64::INFINITY;
            for _ in 0..repeats {
                let (w, interp_bits) =
                    kmeans_backend_run(&params, version, freeride::KernelBackend::Interpreted)?;
                interp_s = interp_s.min(w);
                let (w, compiled_bits) =
                    kmeans_backend_run(&params, version, freeride::KernelBackend::Compiled)?;
                compiled_s = compiled_s.min(w);
                if interp_bits != compiled_bits {
                    return Err(format!(
                        "{} t={t}: compiled backend diverged from the interpreter",
                        version.label()
                    ));
                }
            }
            points.push(CodegenPoint {
                version: version.label().to_string(),
                threads: t,
                interp_s,
                compiled_s,
                speedup: interp_s / compiled_s.max(1e-9),
            });
        }
    }
    Ok(CodegenSweep {
        n,
        d,
        k,
        iters,
        repeats,
        native,
        points,
    })
}

/// Render a codegen sweep as an aligned table (the EXPERIMENTS.md
/// `codegen_speed` shape).
pub fn render_codegen_table(sweep: &CodegenSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "codegen_speed — translated k-means, n={} d={} k={} iters={}, best of {}{}",
        sweep.n,
        sweep.d,
        sweep.k,
        sweep.iters,
        sweep.repeats,
        if sweep.native {
            ""
        } else {
            " (NO rustc: compiled column fell back to the interpreter)"
        }
    );
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>12} {:>12} {:>8}",
        "version", "threads", "interp s", "compiled s", "speedup"
    );
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:>10} {:>7} {:>12.4} {:>12.4} {:>7.2}x",
            p.version, p.threads, p.interp_s, p.compiled_s, p.speedup
        );
    }
    out
}

// ---------------------------------------------------------------------
// Sparse tier: inspector-planned vs forced sync schemes under skew
// ---------------------------------------------------------------------

/// One measured sparse point: a single-pass MTTKRP at one skew level
/// and thread count, the inspector-planned scheme against every forced
/// scheme.
#[derive(Debug, Clone)]
pub struct SparsePoint {
    /// Hot-head size: rows `[0, hot)` soak up a third of the stored
    /// entries (`hot == dims[0]` is uniform scatter).
    pub hot: usize,
    /// Compute-thread count.
    pub threads: usize,
    /// Scheme the inspector chose (`cfr_sparse::scheme_name`).
    pub chosen: String,
    /// Why it chose it (`SchemePlan::reason`).
    pub reason: String,
    /// Best wall time with the inspector-planned scheme, seconds —
    /// includes the inspection scan itself, so the plan has to pay for
    /// its own analysis.
    pub inspect_s: f64,
    /// Best wall time per forced scheme, `(name, seconds)`.
    pub forced: Vec<(String, f64)>,
}

impl SparsePoint {
    /// The slowest forced scheme, `(name, seconds)` — the bar the
    /// inspector must stay at or under on skewed input.
    pub fn worst_forced(&self) -> (&str, f64) {
        self.forced
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, s)| (n.as_str(), *s))
            .unwrap_or(("-", 0.0))
    }

    /// The fastest forced scheme, `(name, seconds)`.
    pub fn best_forced(&self) -> (&str, f64) {
        self.forced
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, s)| (n.as_str(), *s))
            .unwrap_or(("-", 0.0))
    }
}

/// A completed sparse skew sweep.
#[derive(Debug, Clone)]
pub struct SparseSweep {
    /// Tensor dimensions (mode 0 is the scatter target).
    pub dims: [usize; 3],
    /// Stored tensor entries.
    pub nnz: usize,
    /// Factor rank (reduction object is `dims[0] * rank` cells).
    pub rank: usize,
    /// Timed repetitions per configuration (the best is kept).
    pub repeats: usize,
    /// The measured points, skew-major then thread count.
    pub points: Vec<SparsePoint>,
}

/// One timed MTTKRP run; returns wall seconds, the result bit pattern,
/// and the inspector's plan (when the run was inspected).
fn mttkrp_timed(
    params: &cfr_apps::mttkrp::MttkrpParams,
) -> Result<(f64, Vec<u64>, Option<cfr_sparse::SchemePlan>), String> {
    let t0 = std::time::Instant::now();
    let r = cfr_apps::mttkrp::run(params).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let bits = r.m.iter().map(|x| x.to_bits()).collect();
    Ok((wall_s, bits, r.plan))
}

/// The sparse skew sweep: a single MTTKRP pass over the closed-form COO
/// tensor, per skew level (hot-head size; 0 selects uniform scatter)
/// and thread count, the inspector-planned scheme timed against every
/// forced sync scheme. Bit identity across all schemes is enforced on
/// every repetition — a plan may only change synchronization, never
/// results.
pub fn sparse_scaling(
    dims: [usize; 3],
    nnz: usize,
    rank: usize,
    skews: &[usize],
    threads: &[usize],
    repeats: usize,
) -> Result<SparseSweep, String> {
    let repeats = repeats.max(1);
    let forced: &[(&str, SyncScheme)] = &[
        ("full-replication", SyncScheme::FullReplication),
        ("full-locking", SyncScheme::FullLocking),
        ("bucket-locking", SyncScheme::BucketLocking { stripes: 64 }),
        ("atomic", SyncScheme::Atomic),
    ];
    let mut points = Vec::new();
    for &skew in skews {
        let hot = if skew == 0 {
            dims[0]
        } else {
            skew.min(dims[0])
        };
        for &t in threads {
            let base = cfr_apps::mttkrp::MttkrpParams::new(dims, nnz, hot, rank).threads(t);
            // Warm up the worker pool and caches, and fix the expected
            // bit pattern, before anything is timed.
            mttkrp_timed(&base)?;
            let (_, want, _) = mttkrp_timed(&base)?;
            let mut forced_best = Vec::new();
            for (name, scheme) in forced {
                let mut p = base.clone();
                p.config.scheme = *scheme;
                let mut best = f64::INFINITY;
                for _ in 0..repeats {
                    let (w, bits, _) = mttkrp_timed(&p)?;
                    if bits != want {
                        return Err(format!("hot={hot} t={t}: scheme {name} changed the result"));
                    }
                    best = best.min(w);
                }
                forced_best.push((name.to_string(), best));
            }
            let p = base.clone().with_inspect();
            let mut inspect_s = f64::INFINITY;
            let mut plan = None;
            for _ in 0..repeats {
                let (w, bits, pl) = mttkrp_timed(&p)?;
                if bits != want {
                    return Err(format!(
                        "hot={hot} t={t}: the inspector-planned scheme changed the result"
                    ));
                }
                inspect_s = inspect_s.min(w);
                plan = pl;
            }
            let plan = plan.ok_or("inspected run returned no plan")?;
            points.push(SparsePoint {
                hot,
                threads: t,
                chosen: cfr_sparse::scheme_name(plan.scheme).to_string(),
                reason: plan.reason.to_string(),
                inspect_s,
                forced: forced_best,
            });
        }
    }
    Ok(SparseSweep {
        dims,
        nnz,
        rank,
        repeats,
        points,
    })
}

/// Render a sparse skew sweep as an aligned table (the EXPERIMENTS.md
/// `sparse_scaling` shape).
pub fn render_sparse_table(sweep: &SparseSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sparse_scaling — mttkrp pass, dims={}x{}x{} nnz={} rank={}, best of {}",
        sweep.dims[0], sweep.dims[1], sweep.dims[2], sweep.nnz, sweep.rank, sweep.repeats
    );
    let _ = writeln!(
        out,
        "{:>6} {:>7} {:<16} {:<15} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "hot",
        "threads",
        "chosen",
        "reason",
        "inspect s",
        "repl s",
        "lock s",
        "bucket s",
        "atomic s",
        "worst s"
    );
    for p in &sweep.points {
        let secs = |name: &str| {
            p.forced
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap_or(f64::NAN)
        };
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:<16} {:<15} {:>11.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            p.hot,
            p.threads,
            p.chosen,
            p.reason,
            p.inspect_s,
            secs("full-replication"),
            secs("full-locking"),
            secs("bucket-locking"),
            secs("atomic"),
            p.worst_forced().1
        );
    }
    out
}

// ---------------------------------------------------------------------
// JSON emitters (BENCH_*.json) — hand-rolled, the workspace carries no
// serde
// ---------------------------------------------------------------------

/// A sparse skew sweep as a `BENCH_sparse.json` document.
pub fn sparse_json(sweep: &SparseSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"sparse_scaling\",");
    let _ = writeln!(out, "  \"app\": \"mttkrp\",");
    let _ = writeln!(
        out,
        "  \"dims\": [{}, {}, {}], \"nnz\": {}, \"rank\": {}, \"repeats\": {},",
        sweep.dims[0], sweep.dims[1], sweep.dims[2], sweep.nnz, sweep.rank, sweep.repeats
    );
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in sweep.points.iter().enumerate() {
        let comma = if i + 1 < sweep.points.len() { "," } else { "" };
        let mut forced = String::new();
        for (j, (name, s)) in p.forced.iter().enumerate() {
            if j > 0 {
                forced.push_str(", ");
            }
            let _ = write!(forced, "\"{name}\": {s:.6}");
        }
        let _ = writeln!(
            out,
            "    {{\"hot\": {}, \"threads\": {}, \"chosen\": \"{}\", \"reason\": \"{}\", \
             \"inspect_s\": {:.6}, \"forced\": {{{forced}}}, \"worst_forced_s\": {:.6}}}{comma}",
            p.hot,
            p.threads,
            p.chosen,
            p.reason,
            p.inspect_s,
            p.worst_forced().1
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// A codegen sweep as a `BENCH_codegen.json` document.
pub fn codegen_json(sweep: &CodegenSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"codegen_speed\",");
    let _ = writeln!(out, "  \"app\": \"kmeans-translated\",");
    let _ = writeln!(
        out,
        "  \"n\": {}, \"d\": {}, \"k\": {}, \"iters\": {}, \"repeats\": {}, \"native\": {},",
        sweep.n, sweep.d, sweep.k, sweep.iters, sweep.repeats, sweep.native
    );
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in sweep.points.iter().enumerate() {
        let comma = if i + 1 < sweep.points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"version\": \"{}\", \"threads\": {}, \"interpreted_s\": {:.6}, \
             \"compiled_s\": {:.6}, \"speedup\": {:.3}}}{comma}",
            p.version, p.threads, p.interp_s, p.compiled_s, p.speedup
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// A telemetry-overhead sweep as a `BENCH_telemetry.json` document.
pub fn telemetry_json(sweep: &TelemetrySweep) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"telemetry_overhead\",");
    let _ = writeln!(out, "  \"app\": \"kmeans-manual\",");
    let _ = writeln!(
        out,
        "  \"n\": {}, \"d\": {}, \"k\": {}, \"iters\": {}, \"repeats\": {},",
        sweep.n, sweep.d, sweep.k, sweep.iters, sweep.repeats
    );
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in sweep.points.iter().enumerate() {
        let comma = if i + 1 < sweep.points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"threads\": {}, \"metrics_off_s\": {:.6}, \"metrics_on_s\": {:.6}, \
             \"overhead_pct\": {:.3}, \"hub_counters\": {}}}{comma}",
            p.threads, p.off_s, p.on_s, p.overhead_pct, p.hub_counters
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// An I/O sweep as a `BENCH_io.json` document.
pub fn io_json(sweep: &IoSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"io_overlap\",");
    let _ = writeln!(
        out,
        "  \"dataset_mb\": {}, \"budget_mib\": {}, \"rows\": {},",
        sweep.dataset_mb, sweep.budget_mib, sweep.rows
    );
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in sweep.points.iter().enumerate() {
        let comma = if i + 1 < sweep.points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"wall_s\": {:.6}, \"read_s\": {:.6}, \
             \"stall_s\": {:.6}, \"backpressure_s\": {:.6}, \"pool_bytes\": {}, \
             \"throughput_mib_s\": {:.3}}}{comma}",
            p.mode,
            p.threads,
            p.wall_s,
            p.read_s,
            p.stall_s,
            p.backpressure_s,
            p.pool_bytes,
            p.throughput_mib_s
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// A job-server throughput sweep as a `BENCH_serve.json` document.
pub fn serve_json(sweep: &ServeSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"serve_throughput\",");
    let _ = writeln!(
        out,
        "  \"nodes\": {}, \"rounds\": {}, \"jobs_per_tenant\": {},",
        sweep.nodes, sweep.rounds, sweep.jobs_per_tenant
    );
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in sweep.points.iter().enumerate() {
        let comma = if i + 1 < sweep.points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"tenants\": {}, \"jobs\": {}, \"wall_s\": {:.6}, \"jobs_per_s\": {:.3}}}{comma}",
            p.tenants, p.jobs, p.wall_s, p.jobs_per_s
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Render a job-server throughput sweep as an aligned table (the
/// EXPERIMENTS.md `serve_throughput` shape).
pub fn render_serve_table(sweep: &ServeSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve_throughput — k-means, {} nodes, {} rounds, {} jobs/tenant",
        sweep.nodes, sweep.rounds, sweep.jobs_per_tenant
    );
    let _ = writeln!(
        out,
        "{:>8} {:>6} {:>9} {:>9}",
        "tenants", "jobs", "wall s", "jobs/s"
    );
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>9.4} {:>9.2}",
            p.tenants, p.jobs, p.wall_s, p.jobs_per_s
        );
    }
    out
}

// ---------------------------------------------------------------------
// Elastic scheduling: work-stealing makespan under a straggler
// ---------------------------------------------------------------------

/// One measured point of the elastic sweep: k-means on a cluster whose
/// node 0 is a deterministic straggler, steal-off vs steal-on.
#[derive(Debug, Clone)]
pub struct ElasticPoint {
    /// Node count of this run.
    pub nodes: usize,
    /// Rows per work unit in the elastic runs.
    pub grain: u64,
    /// Work units the straggler owns per round (its shard ÷ grain).
    pub units: u64,
    /// Makespan with stealing off (one unit per shard), seconds.
    pub off_s: f64,
    /// Makespan with stealing on (elastic rounds), seconds.
    pub on_s: f64,
    /// `off_s / on_s` — what stealing buys under this straggler.
    pub speedup: f64,
    /// Units peers actually stole across the steal-on run.
    pub steals: usize,
}

/// A completed elastic-scheduling sweep.
#[derive(Debug, Clone)]
pub struct ElasticSweep {
    /// Points reduced per run.
    pub n: usize,
    /// Point dimensionality.
    pub d: usize,
    /// Centroid count.
    pub k: usize,
    /// Reduction rounds per run.
    pub iters: usize,
    /// Straggler cost per work unit, milliseconds.
    pub slow_ms: u64,
    /// Timed repetitions per configuration (the best is kept).
    pub repeats: usize,
    /// The measured points, one per node count.
    pub points: Vec<ElasticPoint>,
}

/// Shape of one elastic sweep: the k-means job to run and the
/// straggler cost model applied to node 0.
#[derive(Debug, Clone)]
pub struct ElasticJob {
    /// Points reduced per run.
    pub n: usize,
    /// Point dimensionality.
    pub d: usize,
    /// Centroid count.
    pub k: usize,
    /// Reduction rounds per run.
    pub iters: usize,
    /// Straggler cost per work unit, milliseconds.
    pub slow_ms: u64,
    /// Rows per work unit; 0 picks the driver's auto grain.
    pub grain: u64,
    /// Timed repetitions per configuration (the best is kept).
    pub repeats: usize,
}

/// Measure what shard work-stealing buys under a straggler: k-means on
/// a loopback cluster whose node 0 processes work `slow_ms` ms per
/// grain-sized unit slower than its peers, with stealing off vs on.
///
/// Both runs charge the straggler the *same* cost model — `slow_ms`
/// per unit of work it ends up executing. With stealing off the node
/// executes its whole shard every round (`units × slow_ms` of excess
/// latency on the round barrier); with stealing on, fast peers drain
/// most of its units, so the barrier waits for roughly one unit. The
/// steal-on run must also be bit-identical across repetitions — the
/// unit set is a pure function of the shard map and grain, so timing
/// jitter in who steals what may never reach the merged result.
pub fn elastic_makespan(job: &ElasticJob, node_counts: &[usize]) -> Result<ElasticSweep, String> {
    use cfr_apps::cluster::{kmeans_cluster_ft, ElasticPolicy, FtOptions, Nodes};
    use freeride_dist::node::Behaviour;
    use freeride_dist::LoopbackCluster;

    let &ElasticJob {
        n,
        d,
        k,
        iters,
        slow_ms,
        grain,
        repeats,
    } = job;
    let repeats = repeats.max(1);
    let mut points = Vec::new();
    for &nodes in node_counts {
        let nodes = nodes.max(2);
        let params = cfr_apps::kmeans::KmeansParams::new(n, d, k, iters);
        let shard_rows = (n as u64).div_ceil(nodes as u64);
        // grain 0 = the driver's auto choice (8 units per shard).
        let grain = if grain > 0 {
            grain
        } else {
            shard_rows.div_ceil(8).max(1)
        };
        let units = shard_rows.div_ceil(grain).max(1);

        let mut off_s = f64::INFINITY;
        let mut on_s = f64::INFINITY;
        let mut steals = 0usize;
        let mut on_bits: Option<Vec<u64>> = None;
        for _ in 0..repeats {
            // Steal off: one unit per shard. The straggler pays for its
            // whole shard before answering.
            let fleet =
                LoopbackCluster::spawn_with(nodes, &[(0, Behaviour::slow(slow_ms * units))])
                    .map_err(|e| e.to_string())?;
            let t0 = std::time::Instant::now();
            let r = kmeans_cluster_ft(
                &params,
                &Nodes::External(fleet.addrs().to_vec()),
                &FtOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            off_s = off_s.min(t0.elapsed().as_secs_f64());
            drop(r);

            // Steal on: the same per-unit cost, but peers may drain the
            // straggler's queue.
            let elastic = ElasticPolicy {
                steal: true,
                steal_grain: grain,
                ..ElasticPolicy::default()
            };
            let fleet = LoopbackCluster::spawn_with(nodes, &[(0, Behaviour::slow(slow_ms))])
                .map_err(|e| e.to_string())?;
            let t0 = std::time::Instant::now();
            let r = kmeans_cluster_ft(
                &params,
                &Nodes::External(fleet.addrs().to_vec()),
                &FtOptions::default().with_elastic(elastic),
            )
            .map_err(|e| e.to_string())?;
            on_s = on_s.min(t0.elapsed().as_secs_f64());
            steals = steals.max(r.stats.steals);
            let bits: Vec<u64> = r.centroids.iter().map(|x| x.to_bits()).collect();
            if let Some(first) = &on_bits {
                if first != &bits {
                    return Err(format!(
                        "{nodes} nodes: steal-on centroids changed across repetitions"
                    ));
                }
            } else {
                on_bits = Some(bits);
            }
        }
        points.push(ElasticPoint {
            nodes,
            grain,
            units,
            off_s,
            on_s,
            speedup: off_s / on_s.max(1e-9),
            steals,
        });
    }
    Ok(ElasticSweep {
        n,
        d,
        k,
        iters,
        slow_ms,
        repeats,
        points,
    })
}

/// Render an elastic sweep as an aligned table (the EXPERIMENTS.md
/// `elastic_scaling` shape).
pub fn render_elastic_table(sweep: &ElasticSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "elastic_scaling — k-means, n={} d={} k={} iters={}, straggler {} ms/unit, best of {}",
        sweep.n, sweep.d, sweep.k, sweep.iters, sweep.slow_ms, sweep.repeats
    );
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>6} {:>12} {:>12} {:>8} {:>7}",
        "nodes", "grain", "units", "steal off s", "steal on s", "speedup", "steals"
    );
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>6} {:>12.4} {:>12.4} {:>7.2}x {:>7}",
            p.nodes, p.grain, p.units, p.off_s, p.on_s, p.speedup, p.steals
        );
    }
    out
}

/// An elastic sweep as a `BENCH_elastic.json` document.
pub fn elastic_json(sweep: &ElasticSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"elastic_scaling\",");
    let _ = writeln!(out, "  \"app\": \"kmeans\",");
    let _ = writeln!(
        out,
        "  \"n\": {}, \"d\": {}, \"k\": {}, \"iters\": {}, \"slow_ms\": {}, \"repeats\": {},",
        sweep.n, sweep.d, sweep.k, sweep.iters, sweep.slow_ms, sweep.repeats
    );
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in sweep.points.iter().enumerate() {
        let comma = if i + 1 < sweep.points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"nodes\": {}, \"grain\": {}, \"units_per_shard\": {}, \
             \"steal_off_s\": {:.6}, \"steal_on_s\": {:.6}, \"speedup\": {:.3}, \
             \"steals\": {}}}{comma}",
            p.nodes, p.grain, p.units, p.off_s, p.on_s, p.speedup, p.steals
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
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
    fn io_overlap_sweep_measures_both_modes() {
        let sweep = io_overlap(1, 1, &[1, 2], 4, 1).unwrap();
        assert_eq!(sweep.points.len(), 4); // 2 modes × 2 thread counts
        for p in &sweep.points {
            assert!(p.wall_s > 0.0, "{} t={}", p.mode, p.threads);
            assert!(p.throughput_mib_s > 0.0);
        }
        for p in sweep.points.iter().filter(|p| p.mode == "streaming") {
            assert!(p.pool_bytes > 0, "streaming should report its pool");
            assert!(p.pool_bytes <= 1 << 20, "pool exceeds 1 MiB budget");
        }
        let table = render_io_table(&sweep);
        assert!(table.contains("streaming") && table.contains("sync"));
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

    #[test]
    fn telemetry_overhead_sweep_is_bit_identical_and_counts() {
        let sweep = telemetry_overhead(2_000, 4, 4, 2, &[1, 2], 1).unwrap();
        assert_eq!(sweep.points.len(), 2);
        for p in &sweep.points {
            assert!(p.off_s > 0.0 && p.on_s > 0.0, "t={}", p.threads);
            assert!(
                p.hub_counters >= 2,
                "enabled hub should mirror engine.passes and engine.splits"
            );
        }
        let table = render_telemetry_table(&sweep);
        assert!(table.contains("hub off s") && table.contains("overhead"));
        let json = telemetry_json(&sweep);
        assert!(json.contains("\"bench\": \"telemetry_overhead\""));
        assert!(json.contains("\"threads\": 2"));
        // Balanced braces/brackets — the emitter is hand-rolled.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_emitters_cover_io_and_serve_shapes() {
        let io = IoSweep {
            dataset_mb: 2,
            budget_mib: 1,
            rows: 1000,
            points: vec![IoPoint {
                mode: "streaming",
                threads: 2,
                wall_s: 0.5,
                read_s: 0.1,
                stall_s: 0.01,
                backpressure_s: 0.0,
                pool_bytes: 1 << 20,
                throughput_mib_s: 12.5,
            }],
        };
        let j = io_json(&io);
        assert!(j.contains("\"bench\": \"io_overlap\""));
        assert!(j.contains("\"mode\": \"streaming\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        let serve = ServeSweep {
            nodes: 2,
            rounds: 3,
            jobs_per_tenant: 2,
            points: vec![ServePoint {
                tenants: 4,
                jobs: 8,
                wall_s: 1.25,
                jobs_per_s: 6.4,
            }],
        };
        let j = serve_json(&serve);
        assert!(j.contains("\"bench\": \"serve_throughput\""));
        assert!(j.contains("\"tenants\": 4"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn ft_overhead_sweep_measures_all_configs() {
        let params = cfr_apps::kmeans::KmeansParams::new(300, 2, 3, 3);
        let mut dir = std::env::temp_dir();
        dir.push(format!("cfr-bench-ft-{}", std::process::id()));
        let sweep = ft_overhead_kmeans(&params, 2, &dir).unwrap();
        assert_eq!(sweep.points.len(), 4);
        assert_eq!(sweep.points[0].label, "no-ckpt");
        assert_eq!(
            sweep.points[1].checkpoints, 3,
            "every=1 checkpoints each round"
        );
        assert_eq!(
            sweep.points[2].checkpoints, 2,
            "every=2 checkpoints rounds 1 and final"
        );
        assert_eq!(
            sweep.points[3].recoveries, 1,
            "the injected kill was recovered"
        );
        let table = render_ft_table("kmeans", &sweep);
        assert!(table.contains("kill+recover") && table.contains("overhead"));
    }

    #[test]
    fn cluster_scaling_sweep_aggregates_node_stats() {
        let params = cfr_apps::kmeans::KmeansParams::new(300, 2, 3, 2);
        let points = cluster_scaling_kmeans(&params, &[1, 2]).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.rounds, 2);
            assert!(p.wire_bytes > 0);
            assert!(
                p.slowest_node_s > 0.0,
                "node traces should carry split timings"
            );
        }
        let table = render_cluster_table("kmeans", &points);
        assert!(table.contains("nodes"));
        assert!(table.lines().count() == 4);
    }
}
