//! The seven canonical workloads. Each stresses a different subset of
//! the layers; `README.md` says why each exists.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use freeride::{CombineOp, GroupSpec, JobOutcome, RObjHandle, RObjLayout, RunStats, Split};

use crate::host::MIB;
use crate::metrics::Metrics;
use crate::stats::close;
use crate::trace::Tracer;

mod chpl_pca;
mod cluster_kmeans;
mod cpals_sparse;
mod kmeans_file;
mod kmeans_manual;
mod kmeans_opt2;
mod serve_mix;
mod translated;

pub use chpl_pca::ChplPca;
pub use cluster_kmeans::ClusterKmeans;
pub use cpals_sparse::CpalsSparse;
pub use kmeans_file::KmeansFile;
pub use kmeans_manual::KmeansManual;
pub use kmeans_opt2::KmeansOpt2;
pub use serve_mix::ServeMix;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// In `BENCHMARK.json` order.
pub const NAMES: [&str; 7] = [
    "chpl.pca",
    "kmeans.opt2",
    "kmeans.manual",
    "kmeans.file",
    "cpals.sparse",
    "cluster.kmeans",
    "serve.mix",
];

/// Float sums are compared at this relative tolerance; counts and
/// integer sums exactly.
pub const TOLERANCE: f64 = 1e-9;

/// What one run of the benchmark was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny sizes: the checks still run, the timings mean nothing.
    pub quick: bool,
    /// This run's own directory for datasets, checkpoints and compiled
    /// kernels; removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// `full`, or `quick` under `--quick`.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// `nominal` moved by up to ±1% by the seed: how a workload whose
    /// generator is closed-form still gets seed-dependent inputs. The
    /// band is narrow so that job time, which is linear in the size,
    /// spreads by well under its bound across seeds.
    pub fn jitter(&self, nominal: usize) -> usize {
        let span = (nominal / 50).max(1) as u64;
        nominal - nominal / 100 + (splitmix(self.seed) % span) as usize
    }
}

pub fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The checked part of one job's result.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Which of the workload's job kinds produced it (indexes the
    /// references; always 0 except on `serve.mix`).
    pub kind: usize,
    /// Float sums, compared at [`TOLERANCE`].
    pub approx: Vec<f64>,
    /// Counts and integer sums, compared exactly.
    pub exact: Vec<f64>,
}

impl Output {
    pub fn check(&self, reference: &Output) -> Result<(), String> {
        if self.approx.len() != reference.approx.len() || self.exact.len() != reference.exact.len()
        {
            return Err("result and reference differ in shape".into());
        }
        if let Some(i) = (0..self.exact.len()).find(|&i| self.exact[i] != reference.exact[i]) {
            return Err(format!(
                "exact[{i}]: {} vs reference {}",
                self.exact[i], reference.exact[i]
            ));
        }
        match (0..self.approx.len())
            .find(|&i| !close(self.approx[i], reference.approx[i], TOLERANCE))
        {
            Some(i) => Err(format!(
                "approx[{i}]: {} vs reference {}",
                self.approx[i], reference.approx[i]
            )),
            None => Ok(()),
        }
    }
}

/// The timed phase of one run.
#[derive(Default)]
pub struct Samples {
    /// Latency of every completed job, seconds.
    pub latencies_s: Vec<f64>,
    /// Wall time of the whole phase, seconds.
    pub wall_s: f64,
    /// Result of every completed job.
    pub outputs: Vec<Output>,
    /// Jobs that were rejected or returned an error.
    pub errors: usize,
}

/// What a traced, staged run hands back.
pub struct Staged {
    /// The result the staged job computed; must equal the timed run's.
    pub output: Output,
    /// Canonical jobs the root spans cover.
    pub jobs: usize,
    /// Bytes the `linearize.*` spans produced (0 when there are none).
    pub linearized_bytes: usize,
}

pub trait Workload: Sized {
    /// Everything a user pays before the first warm job: inputs, files,
    /// fleet and server start, the cold kernel compile, one warm-up job.
    fn setup(ctx: &Ctx) -> Res<Self>;

    /// One canonical job: inputs in, result out, caches warm.
    fn job(&mut self) -> Res<Output>;

    /// Run canonical jobs for `seconds` (at least one): one caller,
    /// closed loop.
    fn measure(&mut self, seconds: f64) -> Res<Samples> {
        let start = Instant::now();
        let mut samples = Samples::default();
        loop {
            let t0 = Instant::now();
            let out = self.job()?;
            samples.latencies_s.push(t0.elapsed().as_secs_f64());
            samples.outputs.push(out);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        samples.wall_s = start.elapsed().as_secs_f64();
        Ok(samples)
    }

    /// The expected result of each job kind, from code that shares
    /// nothing with the layers under test.
    fn references(&mut self) -> Res<Vec<Output>>;

    /// The same job driven stage by stage through the layers' public
    /// functions under `tracer` (one root span per job), then the
    /// comparison runs the per-layer metrics need.
    fn layers(&mut self, ctx: &Ctx, tracer: &Tracer, m: &mut Metrics) -> Res<Staged>;
}

// ---- k-means pieces shared by workloads 2, 3, 4, 6 and 7 ----

pub const D: usize = 8;
pub const K: usize = 16;
pub const ITERS: usize = 10;

/// Seeded Gaussian point cloud around `K` centres, row-major `n × D`.
pub fn kmeans_points(n: usize, seed: u64) -> Vec<f64> {
    cfr_apps::data::gaussian_clusters(n, D, K, 4.0, seed)
}

/// The drivers' closed-form starting centroids.
pub fn kmeans_init() -> Vec<f64> {
    cfr_apps::data::kmeans_centroids_flat(K, D)
}

/// One group of `K·(D+1)` cells: per centroid, `D` coordinate sums
/// then a count.
pub fn kmeans_layout() -> Arc<RObjLayout> {
    RObjLayout::new(vec![GroupSpec::new("newCent", K * (D + 1), CombineOp::Sum)])
}

/// The hand-written FREERIDE k-means reduction ("manual FR"), as in
/// `cfr_apps::kmeans`. The application's kernel takes `d` and `k` at
/// run time; they are kept opaque here so that this copy compiles like
/// it, not into a loop specialised for `D` and `K`.
pub fn kmeans_kernel(cents: &[f64]) -> impl Fn(&Split<'_>, &mut dyn RObjHandle) + Send + Sync + '_ {
    let (d, k) = (std::hint::black_box(D), std::hint::black_box(K));
    move |split, robj| {
        for row in split.iter_rows() {
            let mut best = 0;
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
    }
}

/// Next centroids and counts from the accumulated sums.
pub fn kmeans_update(cells: &[f64], old: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut next = old.to_vec();
    let mut counts = vec![0.0; K];
    for c in 0..K {
        counts[c] = cells[c * (D + 1) + D];
        if counts[c] > 0.0 {
            for j in 0..D {
                next[c * D + j] = cells[c * (D + 1) + j] / counts[c];
            }
        }
    }
    (next, counts)
}

/// The registered `kmeans` cluster task over `dataset` for `rounds`
/// rounds from the closed-form centroids, one thread per node.
pub fn kmeans_cluster_config(
    dataset: &std::path::Path,
    rounds: usize,
) -> freeride_dist::ClusterConfig {
    let mut config = freeride_dist::ClusterConfig::new("kmeans", dataset);
    config.params = vec![K as i64, D as i64];
    config.init_state = kmeans_init();
    config.rounds = rounds;
    config
}

pub fn kmeans_output(centroids: Vec<f64>, counts: Vec<f64>) -> Output {
    Output {
        kind: 0,
        approx: centroids,
        exact: counts,
    }
}

/// FREERIDE's outer sequential loop under optional spans: `ITERS`
/// passes (`pass` runs one over the current centroids, recorded as
/// `pass_span`), the centroids refined after each.
pub fn kmeans_loop(
    at: Option<(&Tracer, usize)>,
    pass_span: &'static str,
    mut pass: impl FnMut(&[f64], Option<(&Tracer, usize)>) -> Res<JobOutcome>,
) -> Res<(Output, RunStats)> {
    let mut cents = kmeans_init();
    let mut counts = vec![0.0; K];
    let mut stats = RunStats::default();
    for _ in 0..ITERS {
        let outcome = crate::trace::maybe(at, pass_span, |inner| pass(&cents, inner))?;
        stats.absorb(&outcome.stats);
        (cents, counts) = crate::trace::maybe(at, "apps.update", |_| {
            kmeans_update(outcome.robj.group_slice(0), &cents)
        });
    }
    Ok((kmeans_output(cents, counts), stats))
}

/// The `freeride.*` metrics that the `RunStats` of `passes` engine
/// passes over `rows` rows of `unit` slots give.
pub fn freeride_metrics(
    m: &mut Metrics,
    stats: &RunStats,
    passes: usize,
    rows: usize,
    unit: usize,
) {
    let pass_s = stats.phases.wall_ns as f64 / 1e9;
    let busy_ns = stats.total_reduce_ns() as f64;
    m.set("freeride.pass_ms", pass_s * 1e3 / passes as f64);
    m.set("freeride.busy_ms", busy_ns / 1e6);
    m.set("freeride.combine_ms", stats.phases.combine_ns as f64 / 1e6);
    m.set(
        "freeride.imbalance",
        stats.logical_threads as f64 * stats.assigned_makespan_ns() as f64 / busy_ns,
    );
    m.set("freeride.rows_per_s", (rows * passes) as f64 / pass_s);
    let mib_s = (rows * passes * unit * 8) as f64 / MIB / pass_s;
    m.set("freeride.mib_s", mib_s);
    if let Some(memcpy) = m.get("host.memcpy_gib_s") {
        // Against the copy rate measured in this run, not a roofline.
        m.set("freeride.bw_frac", mib_s / 1024.0 / memcpy);
    }
}

/// Seconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
