//! Cluster drivers: the paper's applications on the distributed
//! engine (`freeride-dist`).
//!
//! Each driver materializes the same synthetic dataset the
//! single-process drivers use into a shared `.frds` file, runs it
//! through an in-process loopback cluster (or any set of `cfr-node`
//! addresses), and returns results in the same shape as the
//! single-process versions — which is what makes the differential
//! tests (`N`-node cluster vs [`crate::kmeans::run`] vs the
//! `chapel-interp` oracle) direct slice comparisons.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use freeride_dist::Coordinator;
use obs::{MetricsSnapshot, Trace};

// Re-exported so callers of the cluster drivers don't need a direct
// freeride-dist dependency for the common types.
pub use freeride_dist::{
    ClusterConfig, ClusterOutcome, ClusterStats, DistError, ElasticPolicy, FtPolicy,
};

use crate::data;
use crate::error::AppError;
use crate::kmeans::KmeansParams;
use crate::mttkrp::MttkrpParams;
use crate::pca::PcaParams;
use crate::sparse_kmeans::SparseKmeansParams;

/// Where a cluster job runs.
#[derive(Debug, Clone)]
pub enum Nodes {
    /// Spawn this many in-process loopback node agents per job.
    Loopback(usize),
    /// Connect to externally launched `cfr-node` agents. Each must be
    /// willing to serve as many sessions as the driver runs jobs
    /// (k-means runs one, PCA runs two — `cfr-node --sessions 2`).
    External(Vec<SocketAddr>),
}

impl Nodes {
    /// Number of nodes this placement provides.
    pub fn count(&self) -> usize {
        match self {
            Nodes::Loopback(n) => *n,
            Nodes::External(addrs) => addrs.len(),
        }
    }
}

/// Result of a distributed k-means run.
#[derive(Debug, Clone)]
pub struct ClusterKmeansResult {
    /// Final centroid coordinates, row-major `k × d`.
    pub centroids: Vec<f64>,
    /// Final per-centroid point counts.
    pub counts: Vec<f64>,
    /// Aggregated cluster statistics.
    pub stats: ClusterStats,
    /// Merged multi-`pid` trace, when tracing was requested.
    pub trace: Option<Trace>,
    /// Fleet-aggregated hub snapshot ([`ClusterOutcome::telemetry`]).
    pub telemetry: Option<MetricsSnapshot>,
}

/// Result of a distributed PCA run.
#[derive(Debug, Clone)]
pub struct ClusterPcaResult {
    /// The mean vector (`rows` entries).
    pub mean: Vec<f64>,
    /// The scatter matrix, row-major `rows × rows`.
    pub cov: Vec<f64>,
    /// Statistics of the two jobs (mean phase, then cov phase).
    pub stats: Vec<ClusterStats>,
    /// Merged traces of the two jobs, when tracing was requested.
    pub traces: Vec<Trace>,
    /// Fleet-aggregated hub snapshots of the two jobs, when the hub
    /// was enabled.
    pub telemetry: Vec<MetricsSnapshot>,
}

fn scratch_file(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let mut path = std::env::temp_dir();
    // Unique per (process, call): concurrent tests don't collide.
    path.push(format!(
        "cfr-cluster-{tag}-{}-{}.frds",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    path
}

/// Fault-tolerance options for the cluster drivers: where to checkpoint,
/// whether to resume, and the node-failure recovery policy.
#[derive(Debug, Clone, Default)]
pub struct FtOptions {
    /// Directory for round checkpoints; `None` disables checkpointing
    /// (and makes `resume` a no-op). PCA's two-phase driver uses
    /// `mean/` and `cov/` subdirectories of it.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest checkpoint in `checkpoint_dir`; when the
    /// directory holds no checkpoint yet the job starts fresh (so one
    /// flag serves "run, and pick up where a crashed run left off").
    pub resume: bool,
    /// Node-failure recovery policy passed through to the coordinator.
    pub policy: FtPolicy,
    /// Job tag namespacing the checkpoints (`job-<tag>` subdirectory of
    /// `checkpoint_dir`). Empty = unscoped: the legacy layout, owning
    /// the directory alone. Set a tag whenever several jobs may share
    /// one checkpoint directory — concurrent jobs then neither prune
    /// each other's rounds nor cross-resume (a mismatch is the typed
    /// `FtError::JobMismatch`).
    pub job_tag: String,
    /// Elastic scheduling policy passed through to the coordinator:
    /// shard work-stealing, the mid-job membership listener, and the
    /// declarative placement policy. Default is fully static.
    pub elastic: ElasticPolicy,
}

impl FtOptions {
    /// Checkpoint into (and resume from) `dir`.
    pub fn with_dir(dir: impl Into<PathBuf>) -> FtOptions {
        FtOptions {
            checkpoint_dir: Some(dir.into()),
            ..FtOptions::default()
        }
    }

    /// Set the resume flag.
    pub fn resume(mut self, yes: bool) -> FtOptions {
        self.resume = yes;
        self
    }

    /// Namespace the checkpoints under a job tag.
    pub fn tag(mut self, tag: impl Into<String>) -> FtOptions {
        self.job_tag = tag.into();
        self
    }

    /// Set the elastic scheduling policy.
    pub fn with_elastic(mut self, elastic: ElasticPolicy) -> FtOptions {
        self.elastic = elastic;
        self
    }

    /// Options scoped to a phase subdirectory (PCA's `mean` / `cov`).
    fn phase(&self, name: &str) -> FtOptions {
        FtOptions {
            checkpoint_dir: self.checkpoint_dir.as_ref().map(|d| d.join(name)),
            resume: self.resume,
            policy: self.policy.clone(),
            job_tag: self.job_tag.clone(),
            elastic: self.elastic.clone(),
        }
    }
}

fn run_job(
    config: ClusterConfig,
    nodes: &Nodes,
) -> Result<freeride_dist::ClusterOutcome, AppError> {
    let outcome = match nodes {
        Nodes::Loopback(n) => freeride_dist::run_loopback(config, *n),
        Nodes::External(addrs) => Coordinator::new(config).run(addrs),
    };
    outcome.map_err(|e| AppError::new(format!("cluster run failed: {e}")))
}

fn run_job_ft(
    mut config: ClusterConfig,
    nodes: &Nodes,
    ft: &FtOptions,
) -> Result<freeride_dist::ClusterOutcome, AppError> {
    config.ft = ft.policy.clone();
    config.checkpoint_dir = ft.checkpoint_dir.clone();
    config.job_tag = ft.job_tag.clone();
    config.elastic = ft.elastic.clone();
    if ft.resume && config.checkpoint_dir.is_some() {
        let resumed = match nodes {
            Nodes::Loopback(n) => freeride_dist::resume_loopback(config.clone(), *n),
            Nodes::External(addrs) => Coordinator::new(config.clone()).resume_from(addrs),
        };
        match resumed {
            // Nothing to resume yet — fall through to a fresh run.
            Err(DistError::Ft(freeride_ft::FtError::NoCheckpoint { .. })) => {}
            other => {
                return other.map_err(|e| AppError::new(format!("cluster resume failed: {e}")))
            }
        }
    }
    run_job(config, nodes)
}

/// Run k-means on a cluster: the dataset of `params` is written to a
/// shared file, sharded by rows across the nodes, and refined for
/// `params.iters` rounds with the centroid state broadcast each round.
pub fn kmeans_cluster(
    params: &KmeansParams,
    nodes: &Nodes,
) -> Result<ClusterKmeansResult, AppError> {
    kmeans_cluster_ft(params, nodes, &FtOptions::default())
}

/// [`kmeans_cluster`] with fault tolerance: round checkpoints into
/// `ft.checkpoint_dir`, optional resume, node-failure recovery policy.
pub fn kmeans_cluster_ft(
    params: &KmeansParams,
    nodes: &Nodes,
    ft: &FtOptions,
) -> Result<ClusterKmeansResult, AppError> {
    let (n, d) = (params.n, params.d);
    let path = scratch_file("kmeans");
    freeride::source::write_dataset(&path, d, &data::kmeans_points_flat(n, d))
        .map_err(|e| AppError::new(format!("cannot write cluster dataset: {e}")))?;
    let result = kmeans_cluster_on_file_ft(params, &path, nodes, ft);
    std::fs::remove_file(&path).ok();
    result
}

/// [`kmeans_cluster`] over an existing `.frds` file (the file's rows
/// must be `d`-wide points).
pub fn kmeans_cluster_on_file(
    params: &KmeansParams,
    dataset: &Path,
    nodes: &Nodes,
) -> Result<ClusterKmeansResult, AppError> {
    kmeans_cluster_on_file_ft(params, dataset, nodes, &FtOptions::default())
}

/// [`kmeans_cluster_on_file`] with fault tolerance.
pub fn kmeans_cluster_on_file_ft(
    params: &KmeansParams,
    dataset: &Path,
    nodes: &Nodes,
    ft: &FtOptions,
) -> Result<ClusterKmeansResult, AppError> {
    let (d, k) = (params.d, params.k);
    let mut config = ClusterConfig::new("kmeans", dataset);
    config.params = vec![k as i64, d as i64];
    config.init_state = data::kmeans_centroids_flat(k, d);
    config.rounds = params.iters.max(1);
    config.threads_per_node = params.config.threads.max(1);
    config.trace = params.config.trace;
    config.io = params.config.io;
    let outcome = run_job_ft(config, nodes, ft)?;
    let cells = outcome.robj.group_slice(0);
    let counts: Vec<f64> = (0..k).map(|c| cells[c * (d + 1) + d]).collect();
    Ok(ClusterKmeansResult {
        centroids: outcome.state,
        counts,
        stats: outcome.stats,
        trace: outcome.trace,
        telemetry: outcome.telemetry,
    })
}

/// Run PCA on a cluster: two sequential distributed reductions over the
/// same shared file — the mean vector, then the scatter matrix with the
/// mean broadcast as state (exactly the two phases of the
/// single-process driver).
pub fn pca_cluster(params: &PcaParams, nodes: &Nodes) -> Result<ClusterPcaResult, AppError> {
    pca_cluster_ft(params, nodes, &FtOptions::default())
}

/// [`pca_cluster`] with fault tolerance. Each phase checkpoints into
/// its own subdirectory (`mean/`, `cov/`) of `ft.checkpoint_dir`, so a
/// resume skips a completed mean phase entirely and picks the cov phase
/// up from its newest checkpoint.
pub fn pca_cluster_ft(
    params: &PcaParams,
    nodes: &Nodes,
    ft: &FtOptions,
) -> Result<ClusterPcaResult, AppError> {
    let (rows, cols) = (params.rows, params.cols);
    let path = scratch_file("pca");
    freeride::source::write_dataset(&path, rows, &data::pca_matrix_flat(rows, cols))
        .map_err(|e| AppError::new(format!("cannot write cluster dataset: {e}")))?;

    let mut stats = Vec::new();
    let mut traces = Vec::new();
    let mut telemetry = Vec::new();

    // ---- Phase 1: mean vector. ----
    let mut config = ClusterConfig::new("pca.mean", &path);
    config.params = vec![rows as i64];
    config.threads_per_node = params.config.threads.max(1);
    config.trace = params.config.trace;
    config.io = params.config.io;
    let outcome = match run_job_ft(config, nodes, &ft.phase("mean")) {
        Ok(o) => o,
        Err(e) => {
            std::fs::remove_file(&path).ok();
            return Err(e);
        }
    };
    let mut mean: Vec<f64> = outcome.robj.group_slice(0).to_vec();
    for m in &mut mean {
        *m /= cols as f64;
    }
    stats.push(outcome.stats);
    traces.extend(outcome.trace);
    telemetry.extend(outcome.telemetry);

    // ---- Phase 2: scatter matrix, mean as broadcast state. ----
    let mut config = ClusterConfig::new("pca.cov", &path);
    config.params = vec![rows as i64];
    config.init_state = mean.clone();
    config.threads_per_node = params.config.threads.max(1);
    config.trace = params.config.trace;
    config.io = params.config.io;
    let outcome = match run_job_ft(config, nodes, &ft.phase("cov")) {
        Ok(o) => o,
        Err(e) => {
            std::fs::remove_file(&path).ok();
            return Err(e);
        }
    };
    let cov = outcome.robj.group_slice(0).to_vec();
    stats.push(outcome.stats);
    traces.extend(outcome.trace);
    telemetry.extend(outcome.telemetry);
    std::fs::remove_file(&path).ok();

    Ok(ClusterPcaResult {
        mean,
        cov,
        stats,
        traces,
        telemetry,
    })
}

/// Result of a distributed sparse k-means run.
#[derive(Debug, Clone)]
pub struct ClusterSparseKmeansResult {
    /// Final centroid coordinates, row-major `k × cols`.
    pub centroids: Vec<f64>,
    /// Final per-centroid point counts.
    pub counts: Vec<f64>,
    /// Raw merged reduction cells of the final round (`k × (cols+1)`)
    /// — exact integer sums, the bitwise differential surface.
    pub sums: Vec<f64>,
    /// The coordinator's size-rule plan, when requested.
    pub plan: Option<cfr_sparse::SchemePlan>,
    /// Aggregated cluster statistics.
    pub stats: ClusterStats,
    /// Merged multi-`pid` trace, when tracing was requested.
    pub trace: Option<Trace>,
}

/// Result of a distributed MTTKRP run.
#[derive(Debug, Clone)]
pub struct ClusterMttkrpResult {
    /// The mode-0 MTTKRP output, row-major `dims[0] × rank`.
    pub m: Vec<f64>,
    /// The coordinator's size-rule plan, when requested.
    pub plan: Option<cfr_sparse::SchemePlan>,
    /// Aggregated cluster statistics.
    pub stats: ClusterStats,
    /// Merged multi-`pid` trace, when tracing was requested.
    pub trace: Option<Trace>,
}

/// Pad an nnz-balanced cut out to exactly `parts` contiguous ranges:
/// [`cfr_sparse::nnz_balanced_bounds`] drops empty shards, but the
/// coordinator requires one range per node, so trailing nodes of a
/// small dataset get explicit zero-row shards (valid, identity work).
fn padded_bounds(cum: &[u64], parts: usize) -> Vec<(u64, u64)> {
    let mut bounds = cfr_sparse::nnz_balanced_bounds(cum, parts);
    let covered = bounds.iter().map(|&(_, n)| n).sum::<u64>();
    while bounds.len() < parts {
        bounds.push((covered, 0));
    }
    bounds
}

/// Run sparse k-means on a cluster: the closed-form CSR matrix is
/// written as a padded `.frds` plus its `.frsp` sidecar, sharded
/// across nodes by **nonzero count** (not row count), and each node
/// cuts its thread splits by the same sidecar weights. With
/// `params.inspect` the coordinator chooses the sync scheme by
/// [`cfr_sparse::plan`]'s size rule (per node: `threads_per_node`
/// copies) and ships it to every node.
pub fn sparse_kmeans_cluster(
    params: &SparseKmeansParams,
    nodes: &Nodes,
) -> Result<ClusterSparseKmeansResult, AppError> {
    sparse_kmeans_cluster_ft(params, nodes, &FtOptions::default())
}

/// [`sparse_kmeans_cluster`] with fault-tolerance and elastic
/// scheduling options. Work-stealing composes with the nnz-balanced
/// shard cut: units are grain-sized sub-ranges of the explicit bounds,
/// so a steal moves whole row ranges (and their sidecar weights) and
/// the merge fold stays bit-identical.
pub fn sparse_kmeans_cluster_ft(
    params: &SparseKmeansParams,
    nodes: &Nodes,
    ft: &FtOptions,
) -> Result<ClusterSparseKmeansResult, AppError> {
    let (k, cols) = (params.k, params.cols);
    let m = cfr_sparse::synthetic_csr(params.rows, cols, params.w);
    let path = scratch_file("sparse-kmeans");
    cfr_sparse::write_csr_dataset(&path, &m)?;

    let mut config = ClusterConfig::new("sparse.kmeans", &path);
    config.params = vec![k as i64, cols as i64];
    config.init_state = crate::sparse_kmeans::initial_centroids(k, cols);
    config.rounds = params.iters.max(1);
    config.threads_per_node = params.config.threads.max(1);
    config.trace = params.config.trace;
    config.io = params.config.io;
    config.sparse_split = true;
    let cum = cfr_sparse::weight_prefix(&cfr_sparse::csr_row_weights(&m));
    config.shard_bounds = Some(padded_bounds(&cum, nodes.count().max(1)));
    let plan = params.inspect.then(|| {
        let plan = cfr_sparse::plan(
            &cfr_sparse::PlanParams::new(k * (cols + 1), 1).threads(config.threads_per_node),
        );
        config.scheme = plan.scheme;
        plan
    });

    let result = run_job_ft(config, nodes, ft);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(cfr_sparse::sidecar_path(&path)).ok();
    let outcome = result?;
    let sums = outcome.robj.group_slice(0).to_vec();
    let counts: Vec<f64> = (0..k).map(|c| sums[c * (cols + 1) + cols]).collect();
    Ok(ClusterSparseKmeansResult {
        centroids: outcome.state,
        counts,
        sums,
        plan,
        stats: outcome.stats,
        trace: outcome.trace,
    })
}

/// Run a single mode-0 MTTKRP on a cluster: the closed-form COO tensor
/// is written as a unit-4 quad `.frds` (one engine row per stored
/// entry, so the equal-row shard cut *is* the nnz-balanced cut) and
/// reduced in one round. With `params.inspect` the coordinator chooses
/// the sync scheme by the size rule on the mode-0 output
/// ([`MttkrpParams::plan_params`]) and ships it to every node.
pub fn mttkrp_cluster(
    params: &MttkrpParams,
    nodes: &Nodes,
) -> Result<ClusterMttkrpResult, AppError> {
    let t = cfr_sparse::synthetic_coo(params.dims, params.nnz, params.hot);
    let path = scratch_file("mttkrp");
    cfr_sparse::write_coo_dataset(&path, &t)?;

    let mut config = ClusterConfig::new("sparse.mttkrp", &path);
    config.params = vec![
        params.dims[0] as i64,
        params.dims[1] as i64,
        params.dims[2] as i64,
        params.rank as i64,
    ];
    config.threads_per_node = params.config.threads.max(1);
    config.trace = params.config.trace;
    config.io = params.config.io;
    let plan = params.inspect.then(|| {
        let plan = cfr_sparse::plan(&params.plan_params(&[0]));
        config.scheme = plan.scheme;
        plan
    });

    let result = run_job(config, nodes);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(cfr_sparse::sidecar_path(&path)).ok();
    let outcome = result?;
    Ok(ClusterMttkrpResult {
        m: outcome.robj.group_slice(0).to_vec(),
        plan,
        stats: outcome.stats,
        trace: outcome.trace,
    })
}

/// Spawn loopback agents able to serve `sessions` sequential jobs each
/// (PCA needs 2), returning their addresses and the cluster handle.
pub fn spawn_multi_session_loopback(
    n: usize,
    sessions: usize,
) -> Result<(Vec<SocketAddr>, Vec<std::thread::JoinHandle<()>>), AppError> {
    // LoopbackCluster serves exactly one session per node, so PCA's
    // two-phase driver respawns; for external-style reuse, spawn plain
    // threads that loop.
    let mut addrs = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| AppError::new(format!("bind: {e}")))?;
        addrs.push(
            listener
                .local_addr()
                .map_err(|e| AppError::new(format!("addr: {e}")))?,
        );
        handles.push(std::thread::spawn(move || {
            for _ in 0..sessions {
                if freeride_dist::node::serve_with(&listener, Default::default()).is_err() {
                    break;
                }
            }
        }));
    }
    Ok((addrs, handles))
}

#[cfg(test)]
mod cluster_tests {
    use super::*;

    #[test]
    fn nodes_count() {
        assert_eq!(Nodes::Loopback(4).count(), 4);
        assert_eq!(Nodes::External(vec![]).count(), 0);
    }
}
