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
//! job session and **always** says goodbye. The happy path is
//! [`Fleet::finish`] (EndJob → JobDone trace collection → Shutdown per
//! node); every other path — a node failure mid-round, a timeout,
//! retries exhausted, a panic unwinding through the driver — reaches
//! [`Fleet::shutdown`] via `Drop`, which sends a best-effort Shutdown
//! frame to every surviving node so agents exit cleanly instead of
//! hanging on (or erroring out of) a dead coordinator's socket.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfr_elastic::{auto_grain, plan, split_units, MembershipHub, StealQueue};
use freeride::{RObjLayout, ReductionObject, RunStats};
use freeride_ft::{Checkpoint, CheckpointStore};
use obs::{metric_name, AttrValue, MetricsSnapshot, Recorder, Trace, TraceLevel};

use crate::coord::{ClusterConfig, ClusterOutcome, ClusterStats};
use crate::error::DistError;
use crate::node;
use crate::proto::{read_message, write_message, Message};
use crate::tasks;

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
    /// The node announced a voluntary Leave mid-round.
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
    /// The node's most recent periodic stats push (see
    /// [`TelemetryPolicy::stats_every`](crate::TelemetryPolicy)); kept
    /// so a node that dies mid-run still contributes its last known
    /// metrics to the fleet aggregate.
    pub(crate) last_stats: Option<MetricsSnapshot>,
}

/// The node connections of one job session, with guaranteed goodbye
/// semantics (see the module docs).
pub struct Fleet {
    pub(crate) nodes: Vec<LiveNode>,
    /// Next node id to hand to a mid-job joiner. Ids are never reused
    /// (a leaver's or dead node's id stays retired), so per-node
    /// telemetry and trace pids stay unambiguous across churn.
    pub(crate) next_id: usize,
}

impl Fleet {
    /// Connect to every node agent, handshake, and send the job setup.
    /// Shards are contiguous row ranges: by default node `i` of `n`
    /// gets the equal-row cut `[i·rows/n, (i+1)·rows/n)`; with
    /// [`ClusterConfig::shard_bounds`] set (e.g. an nnz-balanced cut
    /// for sparse datasets) the explicit ranges are used instead,
    /// after validating they contiguously cover the file with one
    /// range per node.
    pub(crate) fn connect(
        cfg: &ClusterConfig,
        addrs: &[SocketAddr],
        layout_frame: &[u8],
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
        };
        for (id, addr) in addrs.iter().enumerate() {
            let stream = TcpStream::connect_timeout(addr, cfg.read_timeout)?;
            stream.set_read_timeout(Some(cfg.read_timeout))?;
            stream.set_nodelay(true).ok();
            let mut conn = NodeConn { stream, id };
            conn.send(&Message::Hello { node_id: id as u32 }, stats)?;
            match conn.recv("HelloAck", stats)? {
                Message::HelloAck { node_id } if node_id as usize == id => {}
                other => {
                    return Err(DistError::Protocol {
                        reason: format!("node {id}: expected HelloAck, got {}", other.kind_name()),
                    })
                }
            }
            let (first, count) = match &cfg.shard_bounds {
                Some(bounds) => (bounds[id].0 as usize, bounds[id].1 as usize),
                None => {
                    let first = id * rows / addrs.len();
                    (first, (id + 1) * rows / addrs.len() - first)
                }
            };
            conn.send(&job_message(cfg, layout_frame), stats)?;
            fleet.nodes.push(LiveNode {
                conn,
                shards: vec![(first as u64, count as u64)],
                last_stats: None,
            });
        }
        Ok(fleet)
    }

    /// Absorb pending joiner connections from the membership hub:
    /// Join → Hello/HelloAck → Job, then add the node live with **no
    /// shards** — work reaches it through unit stealing or through
    /// the shards of a node that leaves or dies. A broken joiner
    /// (handshake failure, timeout, garbage) is dropped without
    /// failing the job; returns the ids actually admitted.
    pub(crate) fn absorb_joiners(
        &mut self,
        hub: &MembershipHub,
        cfg: &ClusterConfig,
        layout_frame: &[u8],
        stats: &mut ClusterStats,
    ) -> Vec<usize> {
        let mut joined = Vec::new();
        for stream in hub.take_pending() {
            let id = self.next_id;
            let admitted = (|| -> Result<LiveNode, DistError> {
                // A joiner that dialed but never speaks must not stall
                // the round barrier; give the handshake a short fuse.
                stream.set_read_timeout(Some(Duration::from_millis(500)))?;
                stream.set_nodelay(true).ok();
                let mut conn = NodeConn { stream, id };
                match conn.recv("Join", stats)? {
                    Message::Join { .. } => {}
                    other => {
                        return Err(DistError::Protocol {
                            reason: format!(
                                "joiner {id}: expected Join, got {}",
                                other.kind_name()
                            ),
                        })
                    }
                }
                conn.send(&Message::Hello { node_id: id as u32 }, stats)?;
                match conn.recv("HelloAck", stats)? {
                    Message::HelloAck { node_id } if node_id as usize == id => {}
                    other => {
                        return Err(DistError::Protocol {
                            reason: format!(
                                "joiner {id}: expected HelloAck, got {}",
                                other.kind_name()
                            ),
                        })
                    }
                }
                conn.send(&job_message(cfg, layout_frame), stats)?;
                conn.stream.set_read_timeout(Some(cfg.read_timeout))?;
                Ok(LiveNode {
                    conn,
                    shards: Vec::new(),
                    last_stats: None,
                })
            })();
            match admitted {
                Ok(node) => {
                    self.nodes.push(node);
                    self.next_id += 1;
                    joined.push(id);
                }
                Err(e) => {
                    if cfg.telemetry.warn {
                        eprintln!("cfr-dist: health: dropping broken joiner: {e}");
                    }
                }
            }
        }
        joined
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

    /// Remove a dead or departed node, returning it so the caller can
    /// [`adopt`](Fleet::adopt) its shards. Its connection closes on
    /// drop; no goodbye is owed to a node already gone.
    pub(crate) fn remove(&mut self, idx: usize) -> LiveNode {
        self.nodes.remove(idx)
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

    /// Happy-path teardown: per node, EndJob → collect the shipped
    /// trace and final metrics snapshot → Shutdown. Nodes are consumed
    /// as they complete, so if a node fails mid-goodbye the remaining
    /// ones still get their best-effort Shutdown from `Drop`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn finish(
        &mut self,
        stats: &mut ClusterStats,
    ) -> Result<(Vec<(usize, Trace)>, Vec<MetricsSnapshot>), DistError> {
        let mut node_traces = Vec::new();
        let mut node_metrics = Vec::new();
        while !self.nodes.is_empty() {
            let mut n = self.nodes.remove(0);
            n.conn.send(&Message::EndJob, stats)?;
            let msg = loop {
                let msg = n.conn.recv("JobDone", stats)?;
                // The last round's periodic stats push lands just ahead
                // of JobDone; absorb it like a round recv would.
                if let Message::Stats { metrics, .. } = &msg {
                    n.last_stats = Some(MetricsSnapshot::decode_bin(metrics)?);
                    continue;
                }
                break msg;
            };
            let Message::JobDone { trace, metrics } = msg else {
                return Err(DistError::Protocol {
                    reason: format!(
                        "node {}: expected JobDone, got {}",
                        n.conn.id,
                        msg.kind_name()
                    ),
                });
            };
            if !trace.is_empty() {
                node_traces.push((n.conn.id, Trace::decode_bin(&trace)?));
            }
            if !metrics.is_empty() {
                node_metrics.push(MetricsSnapshot::decode_bin(&metrics)?);
            }
            n.conn.send(&Message::Shutdown, stats)?;
        }
        Ok((node_traces, node_metrics))
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

/// The `Job` setup frame for `cfg`, shared between the initial
/// connect handshake and mid-job joiner absorption.
fn job_message(cfg: &ClusterConfig, layout_frame: &[u8]) -> Message {
    let (io_mode, chunk_rows, buffers, readers) = crate::proto::io_mode_to_wire(&cfg.io);
    let (scheme, scheme_stripes, scheme_cells, scheme_mask) =
        crate::proto::scheme_to_wire(cfg.scheme);
    Message::Job {
        task: cfg.task.clone(),
        params: cfg.params.clone(),
        layout: layout_frame.to_vec(),
        dataset: cfg.dataset.to_string_lossy().into_owned(),
        threads: cfg.threads_per_node.max(1) as u32,
        trace_level: node::trace_level_ordinal(cfg.trace),
        io_mode,
        chunk_rows,
        buffers,
        readers,
        stats_every: cfg.telemetry.stats_every,
        backend: cfg.backend.to_wire(),
        scheme,
        scheme_stripes,
        scheme_cells,
        scheme_mask,
        splitter: cfg.sparse_split as u8,
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
    /// [`ElasticPolicy::join_listen`](cfr_elastic::ElasticPolicy) set,
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
            rec.add_counter("ft.recoveries", 1);
            if rec.hub().is_enabled() {
                rec.hub().add("ft.recoveries", 1);
            }
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
            rec.add_counter("ft.recoveries", 1);
            if rec.hub().is_enabled() {
                rec.hub().add("ft.recoveries", 1);
            }
            stats.recoveries += 1;
        }

        let layout = tasks::layout(&cfg.task, &cfg.params)?;
        let layout_frame = layout.encode()?;
        // Shard assignment needs the row count; headers only, no payload read.
        let rows = freeride::source::FileDataset::open(&cfg.dataset)?.rows();

        // ---- Connect + handshake + job setup. From here on the fleet
        // owns the sockets: any error return (or panic) drops it, which
        // sends a best-effort Shutdown to every surviving node. ----
        let mut fleet = {
            let mut span = rec.span(TraceLevel::Phases, "cluster.setup", "dist", 0);
            span.attr_int("nodes", addrs.len() as i64);
            Fleet::connect(cfg, addrs, &layout_frame, rows, &mut stats)?
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
        let mut dead_stats: Vec<MetricsSnapshot> = Vec::new();
        for round in first_round..rounds {
            // ---- Round barrier: absorb any nodes that dialed the
            // membership hub since the last round. ----
            if let Some(hub) = hub {
                for id in fleet.absorb_joiners(hub, cfg, &layout_frame, &mut stats) {
                    rec.instant(
                        TraceLevel::Phases,
                        "sched.join",
                        "dist",
                        0,
                        vec![
                            ("node", AttrValue::Int(id as i64)),
                            ("round", AttrValue::Int(round as i64)),
                        ],
                    );
                    rec.add_counter("sched.joins", 1);
                    if rec.hub().is_enabled() {
                        rec.hub().add("sched.joins", 1);
                        rec.hub().add(metric_name(&format!("node{id}.joins")), 1);
                    }
                    stats.joins += 1;
                    if cfg.telemetry.warn {
                        eprintln!(
                            "cfr-dist: health: node {id} joined at the round {round} barrier"
                        );
                    }
                }
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
                    &mut dead_stats,
                );
                match outcome {
                    Ok(()) => break,
                    Err((idx, err)) => {
                        let recoverable =
                            cfg.ft.reassign && fleet.len() > 1 && retries_used < cfg.ft.max_retries;
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
                        if cfg.telemetry.warn {
                            eprintln!(
                                "cfr-dist: health: node {} failed in round {round} ({err}); \
                                 reassigning {} shard(s) to {} survivor(s)",
                                dead.conn.id,
                                dead.shards.len(),
                                fleet.len()
                            );
                        }
                        if rec.hub().is_enabled() {
                            rec.hub().add("health.node_failures", 1);
                        }
                        // A dead node never reaches JobDone; its last
                        // periodic stats push is all the telemetry
                        // that survives it.
                        if let Some(s) = dead.last_stats {
                            dead_stats.push(s);
                        }
                        let moved = dead.shards.len();
                        rspan.attr_int("node", dead.conn.id as i64);
                        rspan.attr_int("round", round as i64);
                        rspan.attr_int("attempt", attempt as i64);
                        rspan.attr_int("shards_reassigned", moved as i64);
                        fleet.adopt(dead.shards);
                        rec.add_counter("ft.recoveries", 1);
                        rec.add_counter("ft.shards_reassigned", moved as i64);
                        rec.add_counter("ft.retries", 1);
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
            if let Some(next) = tasks::step(&cfg.task, &cfg.params, &state, &merged)? {
                state = next;
            }
            rec.add_counter("dist.rounds", 1);
            stats.rounds += 1;
            if rec.hub().is_enabled() {
                rec.hub().add("fleet.rounds", 1);
            }

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
                    rec.add_counter("ft.checkpoints_written", 1);
                    rec.add_counter("ft.checkpoint_bytes", saved.bytes as i64);
                    let hub = rec.hub();
                    if hub.is_enabled() {
                        hub.add("ft.checkpoints_written", 1);
                        hub.add("ft.checkpoint_bytes", saved.bytes as i64);
                        hub.observe("ft.checkpoint_ns", saved.elapsed_ns);
                    }
                    stats.checkpoints_written += 1;
                    stats.checkpoint_bytes += saved.bytes;
                }
            }
        }

        // ---- Teardown: collect traces and final metrics from the
        // *live* nodes (a dead node's trace died with it; its metrics
        // survive only as far as its last periodic stats push), shut
        // them down. ----
        let (node_traces, node_metrics) = fleet.finish(&mut stats)?;

        rec.add_counter("dist.bytes_sent", stats.bytes_sent as i64);
        rec.add_counter("dist.bytes_recv", stats.bytes_recv as i64);
        if rec.hub().is_enabled() {
            rec.hub().add("dist.bytes_sent", stats.bytes_sent as i64);
            rec.hub().add("dist.bytes_recv", stats.bytes_recv as i64);
        }
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
        // with every node's final snapshot (and dead nodes' last
        // pushes). Histogram merge is per-bucket addition, so fleet
        // quantiles come out of the same log-linear buckets.
        let telemetry = rec.hub().is_enabled().then(|| {
            let mut snap = rec.hub().snapshot();
            for m in &node_metrics {
                snap.merge(m);
            }
            for m in &dead_stats {
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
    /// [`ElasticPolicy::steal`](cfr_elastic::ElasticPolicy) picks the
    /// two inputs. Off: the units are the shards themselves, each on
    /// the node that owns it, and the queue hands a unit to another
    /// node only when its owner left or died. On: shards are cut into
    /// grain-sized units, planned onto the nodes by the placement
    /// policy, and an idle node steals from the back of a straggler's
    /// queue instead of waiting at the barrier.
    ///
    /// Bit-identity survives all of this because the unit set is a pure
    /// function of the shard map and the (run-fixed) grain — never of
    /// live membership or placement — and the global combination folds
    /// the unit results in ascending `first_row` order. Who computed a
    /// unit, and in what order results arrived, cannot reach the FP
    /// fold, so recovered, stolen and churned runs match undisturbed
    /// ones to the bit.
    ///
    /// Nodes that announce [`Message::Leave`] mid-round hand their
    /// units back to the queue, are merged normally, and are removed
    /// from the fleet *after* the merge — a voluntary leave burns no
    /// retry. A hard failure returns the fleet index of the node that
    /// failed, for the recovery loop to remove and reassign.
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
        dead_stats: &mut Vec<MetricsSnapshot>,
    ) -> Result<(), (usize, DistError)> {
        let rec = self.recorder;
        let mut span = rec.span(TraceLevel::Phases, "cluster.round", "dist", 0);
        span.attr_int("round", round as i64);
        span.attr_int("attempt", attempt as i64);
        let node_ids: Vec<usize> = fleet.nodes.iter().map(|n| n.conn.id).collect();
        let steal = self.config.elastic.steal;
        let seeds = if steal {
            let units = split_units(&fleet.shard_map(), grain);
            let live_ids: Vec<u32> = node_ids.iter().map(|&id| id as u32).collect();
            plan(&units, &live_ids, &self.config.elastic.placement)
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
        // their WorkerOut); all spans and counters are emitted below, on
        // this thread, in fleet order — so traces stay deterministic
        // even though completion order is not.
        let outs: Vec<WorkerOut> = std::thread::scope(|s| {
            let queue = &queue;
            let handles: Vec<_> = fleet
                .nodes
                .iter_mut()
                .enumerate()
                .map(|(i, n)| {
                    s.spawn(move || Self::round_worker(i, n, queue, round as u32, attempt, state))
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
        // First hard failure (lowest fleet slot) wins and feeds the
        // recovery loop; stale UnitResults from this aborted attempt
        // are drained by the (round, attempt) echo on retry.
        if let Some(slot) = outs.iter().position(|o| o.err.is_some()) {
            let err = outs
                .into_iter()
                .nth(slot)
                .and_then(|o| o.err)
                .expect("slot found by position");
            return Err((slot, err));
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

        // Global combination in ascending row order, before any leaver
        // bookkeeping touches the fleet (slot attribution for decode
        // errors must still match the fleet the workers saw).
        merged.reset();
        {
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
        }

        // A node that ran nothing (a joiner holding no shards with
        // stealing off) is not a latency sample.
        let elapsed: Vec<(usize, u64)> = outs
            .iter()
            .zip(&node_ids)
            .filter(|(o, _)| !o.left && !o.results.is_empty())
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
                rec.add_counter("sched.steals", 1);
                if hub.is_enabled() {
                    hub.add("sched.steals", 1);
                    hub.add(metric_name(&format!("node{thief}.steals")), 1);
                }
                stats.steals += 1;
            }
        }

        // Leavers last, in descending slot order so earlier slots stay
        // valid while later ones are removed.
        let leavers: Vec<usize> = outs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.left)
            .map(|(i, _)| i)
            .collect();
        for &slot in leavers.iter().rev() {
            let gone = fleet.remove(slot);
            let id = gone.conn.id;
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
            rec.add_counter("sched.leaves", 1);
            if hub.is_enabled() {
                hub.add("sched.leaves", 1);
                hub.add(metric_name(&format!("node{id}.leaves")), 1);
            }
            stats.leaves += 1;
            if let Some(s) = gone.last_stats {
                dead_stats.push(s);
            }
            if self.config.telemetry.warn {
                eprintln!("cfr-dist: health: node {id} left the fleet after round {round}");
            }
            if fleet.is_empty() {
                return Err((
                    0,
                    DistError::Protocol {
                        reason: format!("all nodes left the fleet in round {round}"),
                    },
                ));
            }
            fleet.adopt(gone.shards);
        }
        Ok(())
    }

    /// The per-node driver thread of one round attempt: RoundStart,
    /// then pop/send/await units until the queue drains, then
    /// RoundEnd. Any hard failure closes the queue so sibling
    /// workers unblock instead of waiting on in-flight work that will
    /// never complete; a Leave answer hands work back and exits
    /// cleanly.
    fn round_worker(
        slot: usize,
        node: &mut LiveNode,
        queue: &StealQueue,
        round: u32,
        attempt: u32,
        state: &[f64],
    ) -> WorkerOut {
        let mut out = WorkerOut::default();
        let fail = |out: &mut WorkerOut, e: DistError| {
            out.err = Some(e);
            queue.close();
        };
        if let Err(e) = node.conn.send(
            &Message::RoundStart {
                round,
                attempt,
                state: state.to_vec(),
            },
            &mut out.stats,
        ) {
            fail(&mut out, e);
            return out;
        }
        while let Some(popped) = queue.pop_for(slot) {
            let unit = popped.unit;
            if let Err(e) = node.conn.send(
                &Message::Unit {
                    round,
                    attempt,
                    first_row: unit.first_row,
                    rows: unit.rows,
                },
                &mut out.stats,
            ) {
                fail(&mut out, e);
                return out;
            }
            loop {
                let msg = match node.conn.recv("UnitResult", &mut out.stats) {
                    Ok(m) => m,
                    Err(e) => {
                        fail(&mut out, e);
                        return out;
                    }
                };
                match msg {
                    Message::Stats { metrics, .. } => match MetricsSnapshot::decode_bin(&metrics) {
                        Ok(s) => node.last_stats = Some(s),
                        Err(e) => {
                            fail(&mut out, e.into());
                            return out;
                        }
                    },
                    Message::UnitResult {
                        round: r,
                        attempt: a,
                        first_row,
                        elapsed_ns,
                        cells,
                    } => {
                        if (r, a) == (round, attempt) && first_row == unit.first_row {
                            out.busy_ns += elapsed_ns;
                            if let Some(victim) = popped.stolen_from {
                                out.steals.push((unit.first_row, unit.rows, victim));
                            }
                            out.results.push((first_row, cells));
                            queue.done();
                            break;
                        }
                        // A leftover from an attempt a failure aborted —
                        // the node had already computed it when the
                        // coordinator moved on. Discard and keep reading.
                        let stale = r < round || (r == round && a < attempt);
                        if !stale {
                            fail(
                                &mut out,
                                DistError::Protocol {
                                    reason: format!(
                                        "node {}: UnitResult for row {first_row} \
                                         round {r} attempt {a}, expected row {} \
                                         round {round}/{attempt}",
                                        node.conn.id, unit.first_row
                                    ),
                                },
                            );
                            return out;
                        }
                    }
                    Message::Leave { .. } => {
                        // Voluntary departure: this unit and the node's
                        // untouched seed queue go back for survivors.
                        queue.requeue(unit);
                        queue.abandon(slot);
                        out.left = true;
                        return out;
                    }
                    other => {
                        fail(
                            &mut out,
                            DistError::Protocol {
                                reason: format!(
                                    "node {}: expected UnitResult, got {}",
                                    node.conn.id,
                                    other.kind_name()
                                ),
                            },
                        );
                        return out;
                    }
                }
            }
        }
        if let Err(e) = node
            .conn
            .send(&Message::RoundEnd { round, attempt }, &mut out.stats)
        {
            out.err = Some(e);
            queue.close();
        }
        out
    }

    /// Latency-based straggler detection over one round's node-measured
    /// times: a node beyond `straggler_multiplier ×` the fleet median
    /// (and past the `straggler_min_ns` floor) gets a counter bump, a
    /// `sched.straggler` instant span, and (opt-in) a stderr health
    /// warning. Detection only — shard placement is untouched, so the
    /// bit-identity guarantees of recovery and resume are unaffected.
    fn flag_stragglers(
        &self,
        elapsed: &[(usize, u64)],
        round: usize,
        attempt: u32,
        stats: &mut ClusterStats,
    ) {
        let tel = &self.config.telemetry;
        if elapsed.len() < 2 {
            return;
        }
        let mut sorted: Vec<u64> = elapsed.iter().map(|&(_, ns)| ns).collect();
        sorted.sort_unstable();
        // Lower median: with two nodes this is the *faster* one, so a
        // single slow node in a pair is still detectable.
        let median = sorted[(sorted.len() - 1) / 2];
        let threshold = (median as f64 * tel.straggler_multiplier).max(tel.straggler_min_ns as f64);
        let rec = self.recorder;
        for &(id, ns) in elapsed {
            if (ns as f64) <= threshold {
                continue;
            }
            rec.add_counter("sched.stragglers", 1);
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
            if tel.warn {
                eprintln!(
                    "cfr-dist: health: node {id} straggling in round {round}: \
                     {:.1} ms vs fleet median {:.1} ms",
                    ns as f64 / 1e6,
                    median as f64 / 1e6
                );
            }
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
