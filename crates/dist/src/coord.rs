//! The coordinator: configuration, statistics, and the one-shot
//! drivers over the scheduling core ([`crate::sched`]).
//!
//! The processing structure is the paper's generalized reduction lifted
//! across processes: every round each node runs a **local reduction**
//! over its shards (itself parallel, via the shared-memory engine), the
//! coordinator performs **global combination** of the shipped
//! reduction objects with the same [`CombineOp`](freeride::CombineOp)
//! machinery (`merge_from`), applies the task's outer-loop `step`
//! (e.g. centroid refinement), and broadcasts the next state. A node
//! that drops its connection or hangs surfaces as a typed
//! [`DistError`] via the configured read timeout — never a hang.
//!
//! The round loop itself lives in [`crate::sched`] as a reusable
//! scheduling core ([`Fleet`](crate::Fleet) +
//! [`JobDriver`](crate::JobDriver)), shared between these one-shot
//! drivers and the persistent `cfr-serve` daemon; [`Coordinator`] is
//! the one-job convenience wrapper around it.
//!
//! # Fault tolerance
//!
//! Because all inter-node state is the small reduction object plus the
//! broadcast state vector, recovery is cheap and exact:
//!
//! * **Node failure** ([`FtPolicy`]): when a node dies mid-round the
//!   coordinator reassigns its row-range shards to the surviving
//!   nodes, backs off exponentially, and re-runs the round under a
//!   higher `attempt` (stale results from the aborted attempt are
//!   drained by the `(round, attempt)` echo). Nodes ship one cells
//!   frame **per work unit** and the coordinator merges all units in
//!   ascending `first_row` order, so the global combination performs
//!   the identical floating-point fold no matter which node computed
//!   which unit — a recovered run is bit-identical to an undisturbed
//!   run of the same cluster shape.
//! * **Coordinator failure**: with [`ClusterConfig::checkpoint_dir`]
//!   set, the merged object and post-`step` state are persisted after
//!   each checkpointed round (atomic b"FRCK" files via
//!   [`freeride_ft::CheckpointStore`]);
//!   [`Coordinator::resume_from`] restarts from the newest valid
//!   checkpoint and, with the same node count, finishes bit-identical
//!   to an uninterrupted run.
//! * **Shared checkpoint roots**: a non-empty
//!   [`ClusterConfig::job_tag`] namespaces checkpoints into a per-job
//!   subdirectory and stamps the tag into every b"FRCK" frame, so
//!   concurrent jobs (the `cfr-serve` case) neither prune each other's
//!   files nor resume from each other's state — a cross-job resume is
//!   the typed [`freeride_ft::FtError::JobMismatch`].

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use freeride::{ReductionObject, RunStats};
use obs::{FlightRecorder, MetricsSnapshot, Recorder, Trace, TraceLevel};

use crate::error::DistError;
use crate::node;
use crate::sched::{self, JobDriver};

/// Node-failure recovery policy (the `ft` part of [`ClusterConfig`]).
#[derive(Debug, Clone)]
pub struct FtPolicy {
    /// Persist a checkpoint every `checkpoint_every` completed rounds
    /// (the final round is always checkpointed). Only takes effect
    /// when [`ClusterConfig::checkpoint_dir`] is set. Default 1.
    pub checkpoint_every: usize,
    /// How many node failures the run may absorb before giving up with
    /// [`DistError::RetriesExhausted`]. Default 2.
    pub max_retries: usize,
    /// Base backoff before re-running a failed round; doubles per
    /// recovery (exponential). Default 50 ms.
    pub backoff: Duration,
    /// Whether to reassign a dead node's shards to survivors at all;
    /// `false` restores the fail-fast behaviour (first node failure
    /// aborts the run). Default `true`.
    pub reassign: bool,
}

impl Default for FtPolicy {
    fn default() -> FtPolicy {
        FtPolicy {
            checkpoint_every: 1,
            max_retries: 2,
            backoff: Duration::from_millis(50),
            reassign: true,
        }
    }
}

/// Live-telemetry policy (the `telemetry` part of [`ClusterConfig`]):
/// periodic in-band stats pushes from the nodes and latency-based
/// straggler detection on the coordinator.
#[derive(Debug, Clone)]
pub struct TelemetryPolicy {
    /// Every `stats_every` rounds each node pushes a
    /// [`MetricsSnapshot`] frame at the end of the round, so the
    /// coordinator's live view (and, through it, `cfr-serve`'s
    /// `/metrics` endpoint) includes node-side counters even while the
    /// job is still running — and retains them for nodes that later
    /// die without ever reaching `JobDone`. 0 disables the pushes.
    /// Default 4.
    pub stats_every: u32,
    /// A node whose node-measured round time exceeds
    /// `straggler_multiplier ×` the fleet median is flagged as a
    /// straggler (counter + `sched.straggler` instant span + optional
    /// warning). Detection only; shards are not migrated. Default 4.0.
    pub straggler_multiplier: f64,
    /// Rounds faster than this (median comparison floor) never flag
    /// stragglers, so microsecond-scale test rounds don't trip on
    /// scheduling jitter. Default 10 ms.
    pub straggler_min_ns: u64,
    /// Print health warnings (straggler flags, node failures) to
    /// stderr as they happen. Default `false` (library callers opt in;
    /// the CLIs and `cfr-serve` turn it on).
    pub warn: bool,
}

impl Default for TelemetryPolicy {
    fn default() -> TelemetryPolicy {
        TelemetryPolicy {
            stats_every: 4,
            straggler_multiplier: 4.0,
            straggler_min_ns: 10_000_000,
            warn: false,
        }
    }
}

/// Configuration of one distributed job.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Registered task name (see [`crate::tasks`]).
    pub task: String,
    /// Job-constant integer parameters.
    pub params: Vec<i64>,
    /// Initial per-round state (e.g. starting centroids).
    pub init_state: Vec<f64>,
    /// Number of rounds (the outer sequential loop; 1 for single-pass
    /// reductions).
    pub rounds: usize,
    /// Path of the shared `.frds` dataset file.
    pub dataset: PathBuf,
    /// Worker threads per node.
    pub threads_per_node: usize,
    /// Tracing level for the coordinator and every node.
    pub trace: TraceLevel,
    /// Shard I/O path on every node: synchronous split reads or the
    /// out-of-core streaming chunk pipeline ([`freeride::IoMode`]).
    pub io: freeride::IoMode,
    /// Read timeout on every node socket; a node silent for this long
    /// fails the round with [`DistError::Timeout`] (and triggers
    /// recovery under [`FtPolicy::reassign`]).
    pub read_timeout: Duration,
    /// Node-failure recovery policy.
    pub ft: FtPolicy,
    /// Directory for round checkpoints; `None` disables checkpointing
    /// (and [`Coordinator::resume_from`]).
    pub checkpoint_dir: Option<PathBuf>,
    /// Identity of this job for checkpoint namespacing. Empty (the
    /// default, and the behaviour of all single-job CLI paths) stores
    /// checkpoints directly in [`ClusterConfig::checkpoint_dir`];
    /// non-empty (one tag per server job) stores them in a per-job
    /// subdirectory and stamps the tag into the frame, so jobs sharing
    /// a checkpoint root cannot collide or cross-resume.
    pub job_tag: String,
    /// Live-telemetry policy: node stats pushes and straggler
    /// detection.
    pub telemetry: TelemetryPolicy,
    /// Kernel backend every node uses for kernel-IR tasks (the
    /// `chapel.*` family); closure tasks ignore it. A `Compiled`
    /// request degrades per-node to the interpreter (with a recorded
    /// fallback) when the node has no codegen backend or no `rustc` —
    /// results are bit-identical either way, so a mixed fleet is safe.
    pub backend: freeride::KernelBackend,
    /// Reduction-object sync scheme every node runs its local engine
    /// with. Typically left at the default (full replication) or set
    /// to a coordinator-side inspector's plan
    /// (`cfr_sparse::plan_padded_csr` / `plan_quads`) — the scheme
    /// only affects synchronization cost, never results.
    pub scheme: freeride::SyncScheme,
    /// Explicit per-node `(first_row, rows)` shard bounds, e.g. the
    /// nnz-balanced cut of `cfr_sparse::nnz_balanced_bounds`. Must
    /// contiguously cover `[0, rows)` of the dataset with exactly one
    /// entry per node; `None` (the default) keeps the equal-row cut.
    pub shard_bounds: Option<Vec<(u64, u64)>>,
    /// Ask every node to cut its *thread* splits by the nonzero
    /// weights in the dataset's `.frsp` sidecar (sparse datasets
    /// written by `cfr_sparse::write_csr_dataset`). Nodes fail the job
    /// with a typed error if the sidecar is missing or malformed.
    pub sparse_split: bool,
    /// Elastic scheduling policy: mid-job membership (join listener),
    /// shard work-stealing, and declarative placement. The default is
    /// fully static — one work unit per shard, no membership hub.
    pub elastic: cfr_elastic::ElasticPolicy,
}

impl ClusterConfig {
    /// A single-pass job with sane defaults (1 thread per node, 10 s
    /// timeout, tracing off, recovery on, checkpointing off).
    pub fn new(task: &str, dataset: impl Into<PathBuf>) -> ClusterConfig {
        ClusterConfig {
            task: task.to_string(),
            params: Vec::new(),
            init_state: Vec::new(),
            rounds: 1,
            dataset: dataset.into(),
            threads_per_node: 1,
            trace: TraceLevel::Off,
            io: freeride::IoMode::Sync,
            read_timeout: Duration::from_secs(10),
            ft: FtPolicy::default(),
            checkpoint_dir: None,
            job_tag: String::new(),
            telemetry: TelemetryPolicy::default(),
            backend: freeride::KernelBackend::Interpreted,
            scheme: freeride::SyncScheme::FullReplication,
            shard_bounds: None,
            sparse_split: false,
            elastic: cfr_elastic::ElasticPolicy::default(),
        }
    }
}

/// Aggregated statistics of one cluster run.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Number of nodes that participated at the start of the run.
    pub nodes: usize,
    /// Rounds executed by this process (a resumed run counts only the
    /// rounds it ran itself).
    pub rounds: usize,
    /// Bytes the coordinator put on the wire (all nodes).
    pub bytes_sent: u64,
    /// Bytes the coordinator took off the wire (all nodes).
    pub bytes_recv: u64,
    /// Per-node engine statistics, reconstructed from the shipped
    /// traces ([`RunStats::from_trace`]); empty when tracing is off.
    pub node_stats: Vec<RunStats>,
    /// Wall time of the whole run, nanoseconds.
    pub wall_ns: u64,
    /// Node failures recovered by shard reassignment (plus 1 for a
    /// coordinator resume).
    pub recoveries: usize,
    /// Shards moved off dead nodes onto survivors.
    pub shards_reassigned: usize,
    /// Round re-runs forced by node failures.
    pub retries: usize,
    /// Checkpoints written.
    pub checkpoints_written: usize,
    /// Total bytes of checkpoint frames written.
    pub checkpoint_bytes: u64,
    /// Rounds in which some node was flagged as a straggler (node
    /// round time beyond [`TelemetryPolicy::straggler_multiplier`] ×
    /// the fleet median).
    pub stragglers: usize,
    /// Work units executed by a node other than the one the planner
    /// seeded them to (only with [`ElasticPolicy::steal`] on).
    pub steals: usize,
    /// Nodes absorbed mid-job through the membership hub.
    pub joins: usize,
    /// Nodes that left the fleet voluntarily mid-job (distinct from
    /// [`ClusterStats::recoveries`], which counts hard failures).
    pub leaves: usize,
}

impl ClusterStats {
    /// The modeled cluster makespan: slowest node's split work per
    /// round, as seen in the shipped traces. 0 when tracing was off.
    pub fn slowest_node_ns(&self) -> u64 {
        self.node_stats
            .iter()
            .map(|s| s.makespan_ns(s.logical_threads.max(1)))
            .max()
            .unwrap_or(0)
    }

    /// Rebuild the cluster-level statistics from a merged trace (the
    /// inverse of the recording in [`Coordinator::run`], in the same
    /// spirit as [`RunStats::from_trace`]): node/round totals from the
    /// `cluster.done` instant, wire and recovery totals from the
    /// `dist.*` / `ft.*` counters. Per-node engine stats and wall time
    /// are not reconstructible from the merged view and are left
    /// empty.
    pub fn from_trace(trace: &Trace) -> ClusterStats {
        let mut stats = ClusterStats::default();
        for span in &trace.spans {
            if span.name == "cluster.done" {
                stats.nodes = span.attr_i64("nodes").unwrap_or(0) as usize;
                stats.rounds = span.attr_i64("rounds").unwrap_or(0) as usize;
            }
        }
        let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
        stats.bytes_sent = counter("dist.bytes_sent") as u64;
        stats.bytes_recv = counter("dist.bytes_recv") as u64;
        stats.recoveries = counter("ft.recoveries") as usize;
        stats.shards_reassigned = counter("ft.shards_reassigned") as usize;
        stats.retries = counter("ft.retries") as usize;
        stats.checkpoints_written = counter("ft.checkpoints_written") as usize;
        stats.checkpoint_bytes = counter("ft.checkpoint_bytes") as u64;
        stats.stragglers = counter("sched.stragglers") as usize;
        stats.steals = counter("sched.steals") as usize;
        stats.joins = counter("sched.joins") as usize;
        stats.leaves = counter("sched.leaves") as usize;
        stats
    }
}

/// Result of [`Coordinator::run`].
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The globally combined reduction object of the final round.
    pub robj: ReductionObject,
    /// The final state after the last `step` (e.g. final centroids).
    pub state: Vec<f64>,
    /// Aggregated run statistics.
    pub stats: ClusterStats,
    /// Merged trace — coordinator spans on `pid` 0, node `i`'s spans on
    /// `pid` `i + 1`. `None` when tracing is off.
    pub trace: Option<Trace>,
    /// Fleet-aggregated live metrics: the coordinator's own hub merged
    /// with every node's final `JobDone` snapshot (and, for nodes that
    /// died mid-run, their last periodic stats push). `None` when the
    /// metrics hub is disabled (tracing off).
    pub telemetry: Option<MetricsSnapshot>,
}

/// Drives one distributed job across a set of node agents: the
/// one-shot convenience wrapper around [`JobDriver`].
pub struct Coordinator {
    config: ClusterConfig,
    recorder: Arc<Recorder>,
}

impl Coordinator {
    /// Create a coordinator for `config`. When tracing is on the
    /// recorder carries a bounded flight recorder, so a failed run can
    /// dump its most recent spans next to the typed error.
    pub fn new(config: ClusterConfig) -> Coordinator {
        let recorder = if config.trace != TraceLevel::Off {
            Arc::new(Recorder::with_flight(
                config.trace,
                Arc::new(FlightRecorder::default()),
            ))
        } else {
            Arc::new(Recorder::new(config.trace))
        };
        Coordinator { config, recorder }
    }

    /// The coordinator's recorder (live metrics hub, flight recorder).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Run the job against node agents listening on `addrs`. Shards are
    /// contiguous row ranges: node `i` of `n` gets
    /// `[i·rows/n, (i+1)·rows/n)`, a disjoint cover of the file.
    pub fn run(&self, addrs: &[SocketAddr]) -> Result<ClusterOutcome, DistError> {
        JobDriver::new(&self.config, &self.recorder).run(addrs)
    }

    /// Resume a job from the newest valid checkpoint in
    /// [`ClusterConfig::checkpoint_dir`] — the coordinator-crash
    /// recovery path. The checkpoint's task, params, and owning
    /// [`ClusterConfig::job_tag`] must match the config; remaining
    /// rounds are re-sharded across `addrs` (use the same node count
    /// for bit-identical results). If the checkpoint already covers
    /// every round, the job completes without touching the cluster.
    pub fn resume_from(&self, addrs: &[SocketAddr]) -> Result<ClusterOutcome, DistError> {
        JobDriver::new(&self.config, &self.recorder).resume(addrs)
    }
}

/// An in-process loopback cluster: each node agent runs on its own
/// thread with a real TCP socket on `127.0.0.1`, giving deterministic
/// multi-node tests without spawning processes.
pub struct LoopbackCluster {
    addrs: Vec<SocketAddr>,
    handles: Vec<std::thread::JoinHandle<Result<(), DistError>>>,
}

impl LoopbackCluster {
    /// Spawn `n` healthy loopback node agents, each serving one
    /// session.
    pub fn spawn(n: usize) -> Result<LoopbackCluster, DistError> {
        LoopbackCluster::spawn_with(n, &[])
    }

    /// Spawn `n` loopback agents, each serving one session, where a
    /// `(i, behaviour)` entry makes node `i` misbehave on schedule
    /// ([`node::Behaviour`]: a straggler, a voluntary leaver, or a
    /// node that dies mid-round); the rest are healthy.
    pub fn spawn_with(
        n: usize,
        behaviours: &[(usize, node::Behaviour)],
    ) -> Result<LoopbackCluster, DistError> {
        let mut addrs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for id in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            let behaviour = behaviours
                .iter()
                .find(|&&(node, _)| node == id)
                .map_or_else(node::Behaviour::default, |&(_, b)| b);
            handles.push(std::thread::spawn(move || {
                node::serve_with(&listener, behaviour)
            }));
        }
        Ok(LoopbackCluster { addrs, handles })
    }

    /// Spawn `n` loopback agents that each serve `sessions` coordinator
    /// sessions concurrently (thread per accepted connection,
    /// [`node::serve_concurrent`]; 0 = forever) — the shared-fleet
    /// shape the `cfr-serve` daemon multiplexes jobs onto.
    pub fn spawn_concurrent(n: usize, sessions: usize) -> Result<LoopbackCluster, DistError> {
        let mut addrs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            handles.push(std::thread::spawn(move || {
                node::serve_concurrent(&listener, sessions, node::Behaviour::default())
            }));
        }
        Ok(LoopbackCluster { addrs, handles })
    }

    /// The node addresses, in node-id order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Join every agent thread, returning the first node error (if the
    /// coordinator failed mid-run, agents may legitimately error too).
    pub fn join(self) -> Result<(), DistError> {
        let mut first_err = None;
        for h in self.handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err.or(Some(DistError::Protocol {
                        reason: "node agent thread panicked".into(),
                    }))
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// Convenience: run `config` on an `n`-node loopback cluster and join
/// the agents.
pub fn run_loopback(config: ClusterConfig, n: usize) -> Result<ClusterOutcome, DistError> {
    let cluster = LoopbackCluster::spawn(n)?;
    let outcome = Coordinator::new(config).run(cluster.addrs());
    finish_loopback(cluster, outcome)
}

/// Convenience: resume `config` from its checkpoint directory on an
/// `n`-node loopback cluster and join the agents.
pub fn resume_loopback(config: ClusterConfig, n: usize) -> Result<ClusterOutcome, DistError> {
    // A resume whose checkpoint already covers every round never dials
    // out; don't spawn agents that would wait in accept() forever.
    let ckpt = sched::peek_store(&config)?
        .latest_required()
        .map_err(DistError::Ft)?;
    if ckpt.round as usize + 1 >= config.rounds.max(1) {
        return Coordinator::new(config).resume_from(&[]);
    }
    let cluster = LoopbackCluster::spawn(n)?;
    let outcome = Coordinator::new(config).resume_from(cluster.addrs());
    finish_loopback(cluster, outcome)
}

fn finish_loopback(
    cluster: LoopbackCluster,
    outcome: Result<ClusterOutcome, DistError>,
) -> Result<ClusterOutcome, DistError> {
    match outcome {
        Ok(out) => {
            cluster.join()?;
            Ok(out)
        }
        Err(e) => {
            // If the run failed before ever connecting, agents are
            // still blocked in accept(); poke each with an empty
            // connection so they fail out and the join cannot hang.
            // (Agents the coordinator did reach were already sent a
            // Shutdown frame by the fleet's drop-time goodbye.)
            for addr in cluster.addrs().to_vec() {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
            }
            let _ = cluster.join();
            Err(e)
        }
    }
}
