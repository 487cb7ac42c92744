//! The reusable scheduling core: fleet connection ownership and the
//! round-driving job loop, shared by the one-shot [`Coordinator`]
//! drivers and the persistent `cfr-serve` daemon.
//!
//! [`Coordinator`](crate::Coordinator) used to own all of this
//! inline; it is split out so that a long-lived server can run many
//! jobs — each with its own [`JobDriver`] and recorder — multiplexed
//! onto one shared `cfr-node` fleet, while the CLI paths keep their
//! exact behaviour.
//!
//! Lifecycle contract: a [`Fleet`] owns the node connections of one
//! job session and **always** says goodbye. Every session opens with
//! one setup exchange (`Hello` carrying the job → `HelloAck` or
//! `Error`) and ends the same way: `EndJob` → `JobDone`, after which
//! the node closes — at a barrier for a node that leaves, in
//! [`Fleet::finish`] for the rest. Every other path — a node failure
//! mid-round, a timeout, retries exhausted, a panic unwinding through
//! the driver — reaches [`Fleet::shutdown`] via `Drop`, which sends a
//! best-effort Shutdown frame to every surviving node so agents exit
//! cleanly instead of hanging on (or erroring out of) a dead
//! coordinator's socket.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use freeride::{RObjLayout, ReductionObject, RunStats};
use obs::{metric_name, AttrValue, MetricsSnapshot, Recorder, Trace, TraceLevel};

use crate::coord::{ClusterConfig, ClusterOutcome, ClusterStats};
use crate::error::DistError;
use crate::membership::MembershipHub;
use crate::policy::plan;
use crate::proto::{read_message, write_message, JobSetup, Message};
use crate::queue::StealQueue;
use crate::store::{Checkpoint, CheckpointStore};
use crate::tasks::Task;
use crate::units::{auto_grain, split_units};

/// A node whose node-measured round time exceeds this multiple of the
/// fleet median is flagged as a straggler.
const STRAGGLER_MULTIPLIER: f64 = 4.0;

/// Rounds faster than this (ns) never flag stragglers, so
/// microsecond-scale rounds don't trip on scheduling jitter.
const STRAGGLER_MIN_NS: u64 = 10_000_000;

/// One round worker thread's outcome, folded into the global
/// stats/telemetry by the coordinator thread after the scope ends —
/// workers themselves are telemetry-free so trace emission stays
/// single-threaded and deterministic.
#[derive(Default)]
struct WorkerOut {
    /// This worker's own byte counters (each worker needs a private
    /// `ClusterStats` because `NodeConn::send`/`recv` count into one).
    stats: ClusterStats,
    /// Sum of node-measured per-unit times — the busy-time signal for
    /// straggler detection (the coordinator's own clock would charge a
    /// node for waiting on its peers).
    busy_ns: u64,
    /// `(first_row, cells)` per completed unit.
    results: Vec<(u64, Vec<u8>)>,
    /// `(first_row, rows, victim_slot)` per unit stolen from a peer.
    steals: Vec<(u64, u64, usize)>,
    /// The node's `RoundDone` said it leaves at this barrier.
    left: bool,
    /// Hard failure; feeds the FT recovery loop as `(slot, err)`.
    err: Option<DistError>,
}

impl WorkerOut {
    fn panicked() -> WorkerOut {
        WorkerOut {
            err: Some(DistError::Protocol {
                reason: "round worker panicked".into(),
            }),
            ..WorkerOut::default()
        }
    }
}

pub(crate) struct NodeConn {
    stream: TcpStream,
    pub(crate) id: usize,
}

impl NodeConn {
    fn send(&mut self, msg: &Message, stats: &mut ClusterStats) -> Result<(), DistError> {
        let n =
            write_message(&mut self.stream, msg).map_err(|e| self.annotate(e, msg.kind_name()))?;
        stats.bytes_sent += n as u64;
        Ok(())
    }

    fn recv(&mut self, expect: &str, stats: &mut ClusterStats) -> Result<Message, DistError> {
        let (msg, n) = read_message(&mut self.stream).map_err(|e| self.annotate(e, expect))?;
        stats.bytes_recv += n as u64;
        if let Message::Error { message } = msg {
            return Err(DistError::Node {
                node: self.id,
                message,
            });
        }
        Ok(msg)
    }

    /// The next frame of round `(round, attempt)`, draining the stale
    /// replies — a `UnitResult` or `RoundDone` echoing an earlier
    /// `(round, attempt)` — of an attempt a failure aborted.
    fn recv_current(
        &mut self,
        round: u32,
        attempt: u32,
        expect: &str,
        stats: &mut ClusterStats,
    ) -> Result<Message, DistError> {
        loop {
            let msg = self.recv(expect, stats)?;
            let echo = match &msg {
                Message::UnitResult {
                    round: r,
                    attempt: a,
                    ..
                }
                | Message::RoundDone {
                    round: r,
                    attempt: a,
                    ..
                } => (*r, *a),
                _ => return Ok(msg),
            };
            if echo == (round, attempt) {
                return Ok(msg);
            }
            if echo > (round, attempt) {
                return Err(DistError::Protocol {
                    reason: format!(
                        "node {}: {} for round {}/{}, current round is {round}/{attempt}",
                        self.id,
                        msg.kind_name(),
                        echo.0,
                        echo.1
                    ),
                });
            }
        }
    }

    /// The protocol error for a reply of the wrong kind.
    fn unexpected(&self, expected: &str, got: &Message) -> DistError {
        DistError::Protocol {
            reason: format!(
                "node {}: expected {expected}, got {}",
                self.id,
                got.kind_name()
            ),
        }
    }

    /// Turn socket-level failures into cluster-level diagnoses: a read
    /// timeout or a peer reset is reported as which node failed and
    /// what the coordinator was waiting for.
    fn annotate(&self, e: DistError, waiting_for: &str) -> DistError {
        match e {
            DistError::Io(io) => match io.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    DistError::Timeout {
                        node: self.id,
                        waiting_for: waiting_for.to_string(),
                    }
                }
                _ => DistError::Node {
                    node: self.id,
                    message: format!("connection failed while waiting for {waiting_for}: {io}"),
                },
            },
            other => other,
        }
    }
}

/// One live node: its connection plus the shards currently assigned to
/// it (grows beyond one entry only after recoveries).
pub(crate) struct LiveNode {
    pub(crate) conn: NodeConn,
    pub(crate) shards: Vec<(u64, u64)>,
    /// The metrics of the node's latest `RoundDone` (while its hub is
    /// on); kept so a node that dies mid-run still contributes its last
    /// known metrics to the fleet aggregate.
    pub(crate) last_stats: Option<MetricsSnapshot>,
}

impl LiveNode {
    fn new(stream: TcpStream, id: usize, shards: Vec<(u64, u64)>) -> LiveNode {
        LiveNode {
            conn: NodeConn { stream, id },
            shards,
            last_stats: None,
        }
    }
}

/// The node connections of one job session, with guaranteed goodbye
/// semantics (see the module docs).
pub struct Fleet {
    pub(crate) nodes: Vec<LiveNode>,
    /// Next node id to hand to a mid-job joiner. Ids are never reused
    /// (a leaver's or dead node's id stays retired), so per-node
    /// telemetry and trace pids stay unambiguous across churn.
    pub(crate) next_id: usize,
    /// `(node id, trace)` shipped in the `JobDone` of every session
    /// ended so far.
    traces: Vec<(usize, Trace)>,
    /// The final metrics of every node that left the fleet: its
    /// `JobDone` snapshot, or the last `RoundDone` one of a node that
    /// died.
    metrics: Vec<MetricsSnapshot>,
}

impl Fleet {
    /// Connect to every node agent and run the setup exchange.
    /// Shards are contiguous row ranges: by default node `i` of `n`
    /// gets the equal-row cut `[i·rows/n, (i+1)·rows/n)`; with
    /// [`ClusterConfig::shard_bounds`] set (e.g. an nnz-balanced cut
    /// for sparse datasets) the explicit ranges are used instead,
    /// after validating they contiguously cover the file with one
    /// range per node.
    pub(crate) fn connect(
        cfg: &ClusterConfig,
        addrs: &[SocketAddr],
        job: &JobSetup,
        rows: usize,
        stats: &mut ClusterStats,
    ) -> Result<Fleet, DistError> {
        if let Some(bounds) = &cfg.shard_bounds {
            if bounds.len() != addrs.len() {
                return Err(DistError::BadTask {
                    reason: format!(
                        "shard_bounds has {} ranges for {} nodes",
                        bounds.len(),
                        addrs.len()
                    ),
                });
            }
            let mut next = 0u64;
            for &(first, count) in bounds {
                if first != next {
                    return Err(DistError::BadTask {
                        reason: format!(
                            "shard_bounds not contiguous: expected first_row {next}, got {first}"
                        ),
                    });
                }
                next = next.saturating_add(count);
            }
            if next != rows as u64 {
                return Err(DistError::BadTask {
                    reason: format!("shard_bounds cover {next} rows of a {rows}-row dataset"),
                });
            }
        }
        let mut fleet = Fleet {
            nodes: Vec::with_capacity(addrs.len()),
            next_id: addrs.len(),
            traces: Vec::new(),
            metrics: Vec::new(),
        };
        for (id, addr) in addrs.iter().enumerate() {
            let stream = TcpStream::connect_timeout(addr, cfg.read_timeout)?;
            stream.set_read_timeout(Some(cfg.read_timeout))?;
            let shard = match &cfg.shard_bounds {
                Some(bounds) => bounds[id],
                None => {
                    let first = id * rows / addrs.len();
                    (first as u64, ((id + 1) * rows / addrs.len() - first) as u64)
                }
            };
            fleet.nodes.push(LiveNode::new(stream, id, vec![shard]));
        }
        handshake(&mut fleet.nodes, job, stats)?;
        Ok(fleet)
    }

    /// Absorb pending joiner connections from the membership hub at
    /// the barrier before `round`: `Join`, then the setup exchange,
    /// then add the node live with **no shards** — work reaches it
    /// through unit stealing or through the shards of a node that
    /// leaves or dies. Each admission is a `sched.join` instant; a
    /// broken joiner (handshake failure, timeout, garbage, a job it
    /// cannot build) is dropped without failing the job, recorded as a
    /// `sched.join_rejected` instant carrying the error.
    pub(crate) fn absorb_joiners(
        &mut self,
        hub: &MembershipHub,
        cfg: &ClusterConfig,
        job: &JobSetup,
        round: usize,
        stats: &mut ClusterStats,
        rec: &Recorder,
    ) {
        for stream in hub.take_pending() {
            let id = self.next_id;
            let admitted = (|| -> Result<LiveNode, DistError> {
                // A joiner that dialed but never speaks must not stall
                // the round barrier; give its `Join` a short fuse. Its
                // `HelloAck` waits on its job build, as the round would,
                // under the normal read timeout.
                stream.set_read_timeout(Some(Duration::from_millis(500)))?;
                let mut node = LiveNode::new(stream, id, Vec::new());
                match node.conn.recv("Join", stats)? {
                    Message::Join { .. } => {}
                    other => return Err(node.conn.unexpected("Join", &other)),
                }
                node.conn.stream.set_read_timeout(Some(cfg.read_timeout))?;
                handshake(std::slice::from_mut(&mut node), job, stats)?;
                Ok(node)
            })();
            let mut attrs = vec![
                ("node", AttrValue::Int(id as i64)),
                ("round", AttrValue::Int(round as i64)),
            ];
            match admitted {
                Ok(node) => {
                    self.nodes.push(node);
                    self.next_id += 1;
                    rec.instant(TraceLevel::Phases, "sched.join", "dist", 0, attrs);
                    if rec.hub().is_enabled() {
                        rec.hub().add("sched.joins", 1);
                        rec.hub().add(metric_name(&format!("node{id}.joins")), 1);
                    }
                    stats.joins += 1;
                }
                Err(e) => {
                    attrs.push(("error", AttrValue::Str(e.to_string())));
                    rec.instant(TraceLevel::Phases, "sched.join_rejected", "dist", 0, attrs);
                    rec.hub().add("sched.join_rejections", 1);
                }
            }
        }
    }

    /// Live nodes remaining in the fleet.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no live nodes remain.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current shard map across all live nodes, as absolute
    /// `(first_row, rows)` ranges sorted by `first_row`.
    pub(crate) fn shard_map(&self) -> Vec<(u64, u64)> {
        let mut map: Vec<(u64, u64)> = self
            .nodes
            .iter()
            .flat_map(|n| n.shards.iter().copied())
            .collect();
        map.sort_unstable();
        map
    }

    /// Remove a dead node, returning it so the caller can
    /// [`adopt`](Fleet::adopt) its shards. Its connection closes on
    /// drop; no goodbye is owed to a node already gone, and the metrics
    /// of its last `RoundDone` are all the telemetry that survives it.
    pub(crate) fn remove(&mut self, idx: usize) -> LiveNode {
        let mut dead = self.nodes.remove(idx);
        self.metrics.extend(dead.last_stats.take());
        dead
    }

    /// Hand orphaned shards to the least-loaded survivors. The shard
    /// map's range *set* — and therefore every round's unit set and
    /// merge fold — is unchanged, so balance is the only concern.
    pub(crate) fn adopt(&mut self, shards: Vec<(u64, u64)>) {
        for sh in shards {
            let tgt = self
                .nodes
                .iter_mut()
                .min_by_key(|n| n.shards.len())
                .expect("at least one survivor");
            tgt.shards.push(sh);
            tgt.shards.sort_unstable();
        }
    }

    /// End the session of the node in `slot` the one way every session
    /// ends — `EndJob` → `JobDone`, then the node closes — and keep the
    /// trace and final metrics it ships for the job's merge. The node
    /// leaves the fleet either way (take its shards first); one that
    /// fails its goodbye is kept as a dead node is, by its last
    /// `RoundDone` metrics.
    pub(crate) fn release(
        &mut self,
        slot: usize,
        stats: &mut ClusterStats,
    ) -> Result<(), DistError> {
        let mut n = self.nodes.remove(slot);
        let done = (|| -> Result<(), DistError> {
            n.conn.send(&Message::EndJob, stats)?;
            let msg = n.conn.recv("JobDone", stats)?;
            let Message::JobDone { trace, metrics } = msg else {
                return Err(n.conn.unexpected("JobDone", &msg));
            };
            if !trace.is_empty() {
                self.traces.push((n.conn.id, Trace::decode_bin(&trace)?));
            }
            if !metrics.is_empty() {
                self.metrics.push(MetricsSnapshot::decode_bin(&metrics)?);
            }
            Ok(())
        })();
        if done.is_err() {
            self.metrics.extend(n.last_stats.take());
        }
        done
    }

    /// Happy-path teardown: [`release`](Fleet::release) every node in
    /// turn, then hand back every trace and final metrics snapshot the
    /// job's sessions shipped. If a node fails its goodbye, the ones
    /// not yet released still get their best-effort Shutdown from
    /// `Drop`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn finish(
        &mut self,
        stats: &mut ClusterStats,
    ) -> Result<(Vec<(usize, Trace)>, Vec<MetricsSnapshot>), DistError> {
        while !self.nodes.is_empty() {
            self.release(0, stats)?;
        }
        Ok((
            std::mem::take(&mut self.traces),
            std::mem::take(&mut self.metrics),
        ))
    }

    /// Best-effort goodbye to every remaining node: send one Shutdown
    /// frame each (with a short write timeout so teardown cannot hang),
    /// ignoring failures — a node that is itself dead no longer cares.
    /// Idempotent; a fleet that already [`finish`](Fleet::finish)ed has
    /// nothing left to notify.
    pub fn shutdown(&mut self) {
        for n in self.nodes.drain(..) {
            let mut stream = n.conn.stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = write_message(&mut stream, &Message::Shutdown);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The setup exchange of every session, initial or joining: send each
/// node its `Hello`, which carries the job, and only then read the
/// replies, so the nodes build their jobs (open the dataset, compile a
/// `chapel.*` program) in parallel. A node that cannot build the job
/// answers `Error`, which fails here as [`DistError::Node`] with the
/// node's own reason, before any round.
fn handshake(
    nodes: &mut [LiveNode],
    job: &JobSetup,
    stats: &mut ClusterStats,
) -> Result<(), DistError> {
    for n in nodes.iter_mut() {
        n.conn.stream.set_nodelay(true).ok();
        let hello = Message::Hello {
            node_id: n.conn.id as u32,
            job: job.clone(),
        };
        n.conn.send(&hello, stats)?;
    }
    for n in nodes {
        match n.conn.recv("HelloAck", stats)? {
            Message::HelloAck { node_id } if node_id as usize == n.conn.id => {}
            other => return Err(n.conn.unexpected("HelloAck", &other)),
        }
    }
    Ok(())
}

/// The job every session of `cfg` sets up.
fn job_setup(cfg: &ClusterConfig, layout_frame: Vec<u8>) -> JobSetup {
    JobSetup {
        task: cfg.task.clone(),
        params: cfg.params.clone(),
        layout: layout_frame,
        dataset: cfg.dataset.to_string_lossy().into_owned(),
        threads: cfg.threads_per_node.max(1) as u32,
        trace_level: cfg.trace,
        io: cfg.io,
        backend: cfg.backend,
        scheme: cfg.scheme,
        sparse_split: cfg.sparse_split,
    }
}

/// Open the checkpoint store for `cfg`, honouring the job-tag
/// namespace: a non-empty [`ClusterConfig::job_tag`] gets its own
/// `job-<tag>` subdirectory of the checkpoint dir, so concurrent jobs
/// sharing a root neither prune each other's files nor resume from
/// each other's state. `Ok(None)` when checkpointing is disabled.
pub(crate) fn open_store(cfg: &ClusterConfig) -> Result<Option<CheckpointStore>, DistError> {
    let Some(dir) = &cfg.checkpoint_dir else {
        return Ok(None);
    };
    let store = if cfg.job_tag.is_empty() {
        CheckpointStore::open(dir)
    } else {
        CheckpointStore::open_namespaced(dir, &cfg.job_tag)
    };
    Ok(Some(store.map_err(DistError::Ft)?))
}

/// Drives the rounds of one job over a [`Fleet`]: broadcast, gather,
/// global combination, the task's `step`, node-failure recovery, and
/// checkpointing. Borrow-based so a server can run many drivers (each
/// with its own recorder) against the same config storage.
pub struct JobDriver<'a> {
    config: &'a ClusterConfig,
    recorder: &'a Arc<Recorder>,
}

impl<'a> JobDriver<'a> {
    /// A driver for `config`, recording into `recorder`.
    pub fn new(config: &'a ClusterConfig, recorder: &'a Arc<Recorder>) -> JobDriver<'a> {
        JobDriver { config, recorder }
    }

    /// Run the job from round 0 against node agents on `addrs`. With
    /// [`ElasticPolicy::join_listen`](crate::ElasticPolicy) set,
    /// a membership hub is bound for the duration of the run so
    /// `cfr-node --join` peers can be absorbed at round barriers.
    pub fn run(&self, addrs: &[SocketAddr]) -> Result<ClusterOutcome, DistError> {
        let hub = match &self.config.elastic.join_listen {
            Some(listen) => Some(MembershipHub::bind(listen)?),
            None => None,
        };
        let state = self.config.init_state.clone();
        self.run_rounds(addrs, 0, state, None, hub.as_ref())
    }

    /// [`JobDriver::run`] against a caller-owned membership hub —
    /// lets the caller learn the hub's address (and park joiners on
    /// it) before the run starts.
    pub fn run_with_hub(
        &self,
        addrs: &[SocketAddr],
        hub: &MembershipHub,
    ) -> Result<ClusterOutcome, DistError> {
        let state = self.config.init_state.clone();
        self.run_rounds(addrs, 0, state, None, Some(hub))
    }

    /// Resume the job from the newest valid checkpoint in its
    /// (job-tag-namespaced) checkpoint directory — the
    /// coordinator-crash recovery path. The checkpoint's task, params,
    /// and owning job must all match the config; remaining rounds are
    /// re-sharded across `addrs` (use the same node count for
    /// bit-identical results). If the checkpoint already covers every
    /// round, the job completes without touching the cluster.
    pub fn resume(&self, addrs: &[SocketAddr]) -> Result<ClusterOutcome, DistError> {
        let cfg = self.config;
        let store = open_store(cfg)?.ok_or_else(|| DistError::BadTask {
            reason: "resume requires ClusterConfig::checkpoint_dir".into(),
        })?;
        let ckpt = store.latest_required().map_err(DistError::Ft)?;
        ckpt.validate_for(&cfg.task, &cfg.params)
            .map_err(DistError::Ft)?;
        ckpt.validate_job(&cfg.job_tag).map_err(DistError::Ft)?;
        let next_round = ckpt.round as usize + 1;
        if next_round >= cfg.rounds.max(1) {
            // Everything was already done; rebuild the outcome from the
            // checkpoint alone.
            let rec = self.recorder;
            rec.instant(
                TraceLevel::Phases,
                "ft.recover",
                "ft",
                0,
                vec![
                    ("resumed_round", AttrValue::Int(ckpt.round as i64)),
                    ("remaining_rounds", AttrValue::Int(0)),
                ],
            );
            rec.hub().add("ft.recoveries", 1);
            let stats = ClusterStats {
                recoveries: 1,
                ..ClusterStats::default()
            };
            let trace = (cfg.trace != TraceLevel::Off).then(|| {
                let mut t = Trace::default();
                t.merge_as(0, rec.drain());
                t
            });
            let telemetry = rec.hub().is_enabled().then(|| rec.hub().snapshot());
            return Ok(ClusterOutcome {
                robj: ckpt.robj,
                state: ckpt.state,
                stats,
                trace,
                telemetry,
            });
        }
        let hub = match &cfg.elastic.join_listen {
            Some(listen) => Some(MembershipHub::bind(listen)?),
            None => None,
        };
        self.run_rounds(
            addrs,
            next_round,
            ckpt.state.clone(),
            Some(ckpt),
            hub.as_ref(),
        )
    }

    /// The shared body of [`JobDriver::run`] and [`JobDriver::resume`]:
    /// run rounds `first_round..rounds` starting from `state`.
    fn run_rounds(
        &self,
        addrs: &[SocketAddr],
        first_round: usize,
        mut state: Vec<f64>,
        resumed_from: Option<Checkpoint>,
        hub: Option<&MembershipHub>,
    ) -> Result<ClusterOutcome, DistError> {
        if addrs.is_empty() {
            return Err(DistError::BadTask {
                reason: "cluster has no nodes".into(),
            });
        }
        let wall = Instant::now();
        let cfg = self.config;
        let rec = self.recorder;
        // Parse the task once, and check the state it will broadcast
        // before dialing anyone: every node would reject a wrong length
        // alike.
        let task = Task::parse(&cfg.task, &cfg.params)?;
        task.check_state(&state)?;
        let mut stats = ClusterStats {
            nodes: addrs.len(),
            ..ClusterStats::default()
        };

        let store = open_store(cfg)?;
        if let Some(ckpt) = &resumed_from {
            rec.instant(
                TraceLevel::Phases,
                "ft.recover",
                "ft",
                0,
                vec![
                    ("resumed_round", AttrValue::Int(ckpt.round as i64)),
                    (
                        "remaining_rounds",
                        AttrValue::Int((cfg.rounds.max(1) - first_round) as i64),
                    ),
                ],
            );
            rec.hub().add("ft.recoveries", 1);
            stats.recoveries += 1;
        }

        let layout = task.layout();
        let job = job_setup(cfg, layout.encode()?);
        // Shard assignment needs the row count; headers only, no payload read.
        let rows = freeride::source::FileDataset::open(&cfg.dataset)?.rows();

        // ---- Connect + setup exchange. From here on the fleet owns the
        // sockets: any error return (or panic) drops it, which sends a
        // best-effort Shutdown to every surviving node. ----
        let mut fleet = {
            let mut span = rec.span(TraceLevel::Phases, "cluster.setup", "dist", 0);
            span.attr_int("nodes", addrs.len() as i64);
            Fleet::connect(cfg, addrs, &job, rows, &mut stats)?
        };

        // The steal grain is fixed from the *initial* fleet size for
        // the whole run: work units must be a pure function of the
        // shard map and grain — never of live membership — so that
        // joins, leaves and steals cannot change the merge fold.
        // (Read only when stealing is on.)
        let grain = if cfg.elastic.steal_grain > 0 {
            cfg.elastic.steal_grain
        } else {
            auto_grain(rows as u64, addrs.len())
        };

        // ---- The outer sequential loop, with per-round recovery. ----
        let rounds = cfg.rounds.max(1);
        let mut merged = ReductionObject::alloc(layout.clone());
        let mut attempt: u32 = 0;
        let mut retries_used = 0usize;
        for round in first_round..rounds {
            // ---- Round barrier: absorb any nodes that dialed the
            // membership hub since the last round. ----
            if let Some(hub) = hub {
                fleet.absorb_joiners(hub, cfg, &job, round, &mut stats, rec);
            }
            loop {
                let outcome = self.round_attempt(
                    &mut fleet,
                    &layout,
                    round,
                    attempt,
                    &state,
                    &mut merged,
                    &mut stats,
                    grain,
                );
                match outcome {
                    Ok(()) => break,
                    Err((idx, err)) => {
                        let recoverable = fleet.len() > 1 && retries_used < cfg.ft.max_retries;
                        if !recoverable {
                            return Err(if retries_used > 0 {
                                DistError::RetriesExhausted {
                                    retries: retries_used,
                                    last: Box::new(err),
                                }
                            } else {
                                err
                            });
                        }
                        retries_used += 1;
                        attempt += 1;
                        let mut rspan = rec.span(TraceLevel::Phases, "ft.recover", "ft", 0);
                        let dead = fleet.remove(idx);
                        rec.hub().add("health.node_failures", 1);
                        let moved = dead.shards.len();
                        rspan.attr_int("node", dead.conn.id as i64);
                        rspan.attr_int("round", round as i64);
                        rspan.attr_int("attempt", attempt as i64);
                        rspan.attr_int("shards_reassigned", moved as i64);
                        fleet.adopt(dead.shards);
                        let hub = rec.hub();
                        hub.add("ft.recoveries", 1);
                        hub.add("ft.shards_reassigned", moved as i64);
                        hub.add("ft.retries", 1);
                        stats.recoveries += 1;
                        stats.shards_reassigned += moved;
                        stats.retries += 1;
                        let backoff = cfg
                            .ft
                            .backoff
                            .saturating_mul(1u32 << (retries_used - 1).min(16) as u32);
                        std::thread::sleep(backoff);
                    }
                }
            }
            if let Some(next) = task.step(&state, &merged) {
                state = next;
            }
            stats.rounds += 1;
            rec.hub().add("fleet.rounds", 1);

            if let Some(store) = &store {
                let every = cfg.ft.checkpoint_every.max(1);
                if (round + 1) % every == 0 || round + 1 == rounds {
                    let mut cspan = rec.span(TraceLevel::Phases, "ft.checkpoint", "ft", 0);
                    let saved = store
                        .save(&Checkpoint {
                            task: cfg.task.clone(),
                            job: cfg.job_tag.clone(),
                            params: cfg.params.clone(),
                            round: round as u32,
                            rounds_total: rounds as u32,
                            state: state.clone(),
                            shards: fleet.shard_map(),
                            robj: merged.clone(),
                        })
                        .map_err(DistError::Ft)?;
                    cspan.attr_int("round", round as i64);
                    cspan.attr_int("bytes", saved.bytes as i64);
                    let hub = rec.hub();
                    hub.add("ft.checkpoints_written", 1);
                    hub.add("ft.checkpoint_bytes", saved.bytes as i64);
                    hub.observe("ft.checkpoint_ns", saved.elapsed_ns);
                    stats.checkpoints_written += 1;
                    stats.checkpoint_bytes += saved.bytes;
                }
            }
        }

        // ---- Teardown: end every live node's session and collect the
        // traces and final metrics of every session that ended (a dead
        // node's trace died with it; its metrics survive only as far as
        // its last RoundDone). ----
        let (node_traces, node_metrics) = fleet.finish(&mut stats)?;

        rec.hub().add("dist.bytes_sent", stats.bytes_sent as i64);
        rec.hub().add("dist.bytes_recv", stats.bytes_recv as i64);
        rec.instant(
            TraceLevel::Phases,
            "cluster.done",
            "dist",
            0,
            vec![
                ("nodes", AttrValue::Int(stats.nodes as i64)),
                ("rounds", AttrValue::Int(stats.rounds as i64)),
            ],
        );

        stats.wall_ns = wall.elapsed().as_nanos() as u64;
        let trace = if cfg.trace != TraceLevel::Off {
            let mut merged_trace = Trace::default();
            merged_trace.merge_as(0, rec.drain());
            for (id, t) in node_traces {
                stats.node_stats.push(RunStats::from_trace(&t));
                merged_trace.merge_as(id + 1, t);
            }
            Some(merged_trace)
        } else {
            None
        };

        // Fleet aggregation: the coordinator's own live counters merged
        // with every node's final snapshot (the last RoundDone metrics
        // of a node that died). Histogram merge is per-bucket addition,
        // so fleet quantiles come out of the same log-linear buckets.
        let telemetry = rec.hub().is_enabled().then(|| {
            let mut snap = rec.hub().snapshot();
            for m in &node_metrics {
                snap.merge(m);
            }
            snap
        });

        Ok(ClusterOutcome {
            robj: merged,
            state,
            stats,
            trace,
            telemetry,
        })
    }

    /// One delivery attempt of one round: the round's work units are
    /// seeded onto the live nodes and drained concurrently through a
    /// [`StealQueue`], one coordinator worker thread per node, then
    /// merged **in ascending `first_row` order** into `merged`.
    ///
    /// [`ElasticPolicy::steal`](crate::ElasticPolicy) picks the two
    /// inputs. Off: the units are the shards themselves, each on the
    /// node that owns it. On: shards are cut into grain-sized units,
    /// seeded onto the nodes in equal contiguous shares, and an idle
    /// node steals from the back of a straggler's queue instead of
    /// waiting at the barrier.
    ///
    /// Bit-identity survives all of this because the unit set is a pure
    /// function of the shard map and the (run-fixed) grain — never of
    /// live membership or of who runs what — and the global combination
    /// folds the unit results in ascending `first_row` order. Who computed a
    /// unit, and in what order results arrived, cannot reach the FP
    /// fold, so recovered, stolen and churned runs match undisturbed
    /// ones to the bit.
    ///
    /// Every node answers the round's `RoundEnd` with one `RoundDone`,
    /// whether or not it ran a unit. A node whose `RoundDone` says it
    /// leaves is released after the merge and burns no retry. A hard
    /// failure returns the fleet index of the node that failed, for the
    /// recovery loop to remove and reassign; the other nodes still
    /// finish the units in their own lanes.
    #[allow(clippy::too_many_arguments)]
    fn round_attempt(
        &self,
        fleet: &mut Fleet,
        layout: &Arc<RObjLayout>,
        round: usize,
        attempt: u32,
        state: &[f64],
        merged: &mut ReductionObject,
        stats: &mut ClusterStats,
        grain: u64,
    ) -> Result<(), (usize, DistError)> {
        let rec = self.recorder;
        let mut span = rec.span(TraceLevel::Phases, "cluster.round", "dist", 0);
        span.attr_int("round", round as i64);
        span.attr_int("attempt", attempt as i64);
        let node_ids: Vec<usize> = fleet.nodes.iter().map(|n| n.conn.id).collect();
        let steal = self.config.elastic.steal;
        let seeds = if steal {
            plan(&split_units(&fleet.shard_map(), grain), node_ids.len())
        } else {
            let own = |n: &LiveNode| split_units(&n.shards, 0);
            fleet.nodes.iter().map(own).collect()
        };
        let units: usize = seeds.iter().map(Vec::len).sum();
        span.attr_int("units", units as i64);
        span.attr_int("steal", steal as i64);
        let queue = StealQueue::new(seeds, steal);

        // One worker per node, each owning a disjoint `&mut LiveNode`.
        // Workers are telemetry-free (the per-node byte counts travel in
        // their WorkerOut); all spans and hub counts are emitted below, on
        // this thread, in fleet order — so traces stay deterministic
        // even though completion order is not.
        let mut outs: Vec<WorkerOut> = std::thread::scope(|s| {
            let queue = &queue;
            let handles: Vec<_> = fleet
                .nodes
                .iter_mut()
                .enumerate()
                .map(|(i, n)| {
                    s.spawn(move || {
                        let mut out = WorkerOut::default();
                        let r =
                            Self::round_worker(i, n, queue, round as u32, attempt, state, &mut out);
                        out.err = r.err();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| WorkerOut::panicked()))
                .collect()
        });

        for o in &outs {
            stats.bytes_sent += o.stats.bytes_sent;
            stats.bytes_recv += o.stats.bytes_recv;
        }
        let hub = rec.hub();
        if hub.is_enabled() {
            for (o, &id) in outs.iter().zip(&node_ids) {
                if o.err.is_some() {
                    continue;
                }
                hub.add(metric_name(&format!("node{id}.rounds")), 1);
                hub.observe(metric_name(&format!("node{id}.round_ns")), o.busy_ns);
                hub.add(
                    metric_name(&format!("node{id}.bytes")),
                    o.stats.bytes_recv as i64,
                );
            }
        }
        let mut result = (|| -> Result<(), (usize, DistError)> {
            // First hard failure (lowest fleet slot) wins and feeds the
            // recovery loop; a stale reply the failure left unread is
            // drained by the (round, attempt) echo on retry.
            let failure = outs
                .iter_mut()
                .enumerate()
                .find_map(|(i, o)| o.err.take().map(|e| (i, e)));
            if let Some(failure) = failure {
                return Err(failure);
            }
            let total: usize = outs.iter().map(|o| o.results.len()).sum();
            if total != units {
                return Err((
                    0,
                    DistError::Protocol {
                        reason: format!("round {round} lost units: merged {total} of {units}"),
                    },
                ));
            }

            // Global combination in ascending row order.
            merged.reset();
            let mut cspan = rec.span(TraceLevel::Phases, "cluster.combine", "dist", 0);
            cspan.attr_int("round", round as i64);
            let mut all: Vec<(u64, &[u8], usize)> = outs
                .iter()
                .enumerate()
                .flat_map(|(i, o)| {
                    o.results
                        .iter()
                        .map(move |(first, cells)| (*first, cells.as_slice(), i))
                })
                .collect();
            all.sort_by_key(|&(first, _, _)| first);
            for (_, cells, from) in &all {
                let shard =
                    ReductionObject::decode_cells(layout, cells).map_err(|e| (*from, e.into()))?;
                merged.merge_from(&shard);
            }
            drop(cspan);

            // A node that ran nothing (a joiner holding no shards with
            // stealing off) is not a latency sample.
            let elapsed: Vec<(usize, u64)> = outs
                .iter()
                .zip(&node_ids)
                .filter(|(o, _)| !o.results.is_empty())
                .map(|(o, &id)| (id, o.busy_ns))
                .collect();
            self.flag_stragglers(&elapsed, round, attempt, stats);

            for (o, &thief) in outs.iter().zip(&node_ids) {
                for &(first_row, rows, victim_slot) in &o.steals {
                    rec.instant(
                        TraceLevel::Phases,
                        "sched.steal",
                        "dist",
                        0,
                        vec![
                            ("thief", AttrValue::Int(thief as i64)),
                            ("victim", AttrValue::Int(node_ids[victim_slot] as i64)),
                            ("first_row", AttrValue::Int(first_row as i64)),
                            ("rows", AttrValue::Int(rows as i64)),
                            ("round", AttrValue::Int(round as i64)),
                        ],
                    );
                    if hub.is_enabled() {
                        hub.add("sched.steals", 1);
                        hub.add(metric_name(&format!("node{thief}.steals")), 1);
                    }
                    stats.steals += 1;
                }
            }
            Ok(())
        })();

        // Leavers last, whatever the attempt's outcome: each has
        // answered its RoundDone and now ends its session through the
        // same EndJob → JobDone as `finish`, shipping its trace and final
        // metrics. (A leaver whose cells failed to decode is the failed
        // node instead.) Descending slot order keeps earlier slots valid
        // while later ones are removed; a failed slot above a leaver
        // moves down with it.
        let failed = result.as_ref().err().map(|&(slot, _)| slot);
        for slot in (0..outs.len()).rev() {
            if !outs[slot].left || failed == Some(slot) {
                continue;
            }
            if let Err((failed, _)) = &mut result {
                if *failed > slot {
                    *failed -= 1;
                }
            }
            let id = fleet.nodes[slot].conn.id;
            let shards = std::mem::take(&mut fleet.nodes[slot].shards);
            // A leaver that fails its goodbye is kept as a dead node is;
            // its units are already merged, so the job goes on.
            let _ = fleet.release(slot, stats);
            rec.instant(
                TraceLevel::Phases,
                "sched.leave",
                "dist",
                0,
                vec![
                    ("node", AttrValue::Int(id as i64)),
                    ("round", AttrValue::Int(round as i64)),
                ],
            );
            if hub.is_enabled() {
                hub.add("sched.leaves", 1);
                hub.add(metric_name(&format!("node{id}.leaves")), 1);
            }
            stats.leaves += 1;
            if fleet.is_empty() {
                return Err((
                    0,
                    DistError::Protocol {
                        reason: format!("all nodes left the fleet in round {round}"),
                    },
                ));
            }
            fleet.adopt(shards);
        }
        result
    }

    /// The per-node driver thread of one round attempt: RoundStart,
    /// then pop/send/await units until the queue has nothing left for
    /// this node, then RoundEnd and the node's RoundDone. A hard
    /// failure stops only this worker.
    fn round_worker(
        slot: usize,
        node: &mut LiveNode,
        queue: &StealQueue,
        round: u32,
        attempt: u32,
        state: &[f64],
        out: &mut WorkerOut,
    ) -> Result<(), DistError> {
        let conn = &mut node.conn;
        let start = Message::RoundStart {
            round,
            attempt,
            state: state.to_vec(),
        };
        conn.send(&start, &mut out.stats)?;
        while let Some(popped) = queue.pop_for(slot) {
            let unit = popped.unit;
            let msg = Message::Unit {
                round,
                attempt,
                first_row: unit.first_row,
                rows: unit.rows,
            };
            conn.send(&msg, &mut out.stats)?;
            let msg = conn.recv_current(round, attempt, "UnitResult", &mut out.stats)?;
            let Message::UnitResult {
                first_row,
                elapsed_ns,
                cells,
                ..
            } = msg
            else {
                return Err(conn.unexpected("UnitResult", &msg));
            };
            if first_row != unit.first_row {
                return Err(DistError::Protocol {
                    reason: format!(
                        "node {}: UnitResult for row {first_row}, expected row {}",
                        conn.id, unit.first_row
                    ),
                });
            }
            out.busy_ns += elapsed_ns;
            if let Some(victim) = popped.stolen_from {
                out.steals.push((unit.first_row, unit.rows, victim));
            }
            out.results.push((first_row, cells));
        }
        conn.send(&Message::RoundEnd { round, attempt }, &mut out.stats)?;
        let msg = conn.recv_current(round, attempt, "RoundDone", &mut out.stats)?;
        let Message::RoundDone { leave, metrics, .. } = msg else {
            return Err(conn.unexpected("RoundDone", &msg));
        };
        if !metrics.is_empty() {
            node.last_stats = Some(MetricsSnapshot::decode_bin(&metrics)?);
        }
        out.left = leave;
        Ok(())
    }

    /// Latency-based straggler detection over one round's node-measured
    /// times: a node beyond [`STRAGGLER_MULTIPLIER`] × the fleet median
    /// (and past the [`STRAGGLER_MIN_NS`] floor) gets a hub counter bump
    /// and a `sched.straggler` instant span. Detection only — shard
    /// placement is untouched, so the bit-identity guarantees of
    /// recovery and resume are unaffected.
    fn flag_stragglers(
        &self,
        elapsed: &[(usize, u64)],
        round: usize,
        attempt: u32,
        stats: &mut ClusterStats,
    ) {
        if elapsed.len() < 2 {
            return;
        }
        let mut sorted: Vec<u64> = elapsed.iter().map(|&(_, ns)| ns).collect();
        sorted.sort_unstable();
        // Lower median: with two nodes this is the *faster* one, so a
        // single slow node in a pair is still detectable.
        let median = sorted[(sorted.len() - 1) / 2];
        let threshold = (median as f64 * STRAGGLER_MULTIPLIER).max(STRAGGLER_MIN_NS as f64);
        let rec = self.recorder;
        for &(id, ns) in elapsed {
            if (ns as f64) <= threshold {
                continue;
            }
            rec.instant(
                TraceLevel::Phases,
                "sched.straggler",
                "dist",
                0,
                vec![
                    ("node", AttrValue::Int(id as i64)),
                    ("round", AttrValue::Int(round as i64)),
                    ("attempt", AttrValue::Int(attempt as i64)),
                    ("elapsed_ns", AttrValue::Int(ns as i64)),
                    ("median_ns", AttrValue::Int(median as i64)),
                ],
            );
            let hub = rec.hub();
            if hub.is_enabled() {
                hub.add("sched.stragglers", 1);
                hub.add(metric_name(&format!("node{id}.stragglers")), 1);
            }
            stats.stragglers += 1;
        }
    }
}

/// `CheckpointStore::open` on the path resume would read for `cfg` —
/// the namespaced subdirectory when a job tag is set. Used by drivers
/// that need to peek at the checkpoint before deciding whether to dial
/// out (e.g. [`resume_loopback`](crate::resume_loopback)).
pub(crate) fn peek_store(cfg: &ClusterConfig) -> Result<CheckpointStore, DistError> {
    open_store(cfg)?.ok_or_else(|| DistError::BadTask {
        reason: "resume requires ClusterConfig::checkpoint_dir".into(),
    })
}
