//! The node side of the cluster: accept one coordinator session and run
//! local reductions over the assigned shard.
//!
//! A node is deliberately thin: all parallelism inside the node is the
//! existing shared-memory [`freeride::Engine`] (persistent pool,
//! `run_file` shard streaming); the agent only speaks the wire protocol
//! around it. One agent serves one coordinator session ([`serve`]) —
//! the `cfr-node` binary can loop over sessions with `--sessions`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use freeride::{Engine, JobConfig, PassHooks, PassInput, RObjLayout};
use obs::{AttrValue, Recorder, TraceLevel};

use crate::error::DistError;
use crate::proto::{read_message, write_message, Message};
use crate::tasks;

/// Per-job context built from a [`Message::Job`].
struct JobContext {
    task: String,
    params: Vec<i64>,
    backend: freeride::KernelBackend,
    layout: Arc<RObjLayout>,
    file: freeride::source::FileDataset,
    shard_first: usize,
    shard_rows: usize,
    engine: Engine,
    recorder: Arc<Recorder>,
    /// Push a `Stats` frame ahead of every Nth `RoundResult` (0 = off).
    stats_every: u32,
    /// Rounds answered so far (drives the periodic `Stats` cadence;
    /// sessions are single-threaded, hence the plain `Cell`).
    rounds_handled: std::cell::Cell<u32>,
}

fn trace_level_from_ordinal(b: u8) -> TraceLevel {
    match b {
        0 => TraceLevel::Off,
        1 => TraceLevel::Phases,
        2 => TraceLevel::Splits,
        _ => TraceLevel::Verbose,
    }
}

/// The ordinal shipped in [`Message::Job::trace_level`].
pub fn trace_level_ordinal(level: TraceLevel) -> u8 {
    match level {
        TraceLevel::Off => 0,
        TraceLevel::Phases => 1,
        TraceLevel::Splits => 2,
        TraceLevel::Verbose => 3,
    }
}

fn build_job(msg: Message) -> Result<JobContext, DistError> {
    let Message::Job {
        task,
        params,
        layout,
        dataset,
        shard_first,
        shard_rows,
        threads,
        trace_level,
        io_mode,
        chunk_rows,
        buffers,
        readers,
        stats_every,
        backend,
        scheme,
        scheme_stripes,
        scheme_cells,
        scheme_mask,
        splitter,
    } = msg
    else {
        return Err(DistError::Protocol {
            reason: format!("expected Job, got {}", msg.kind_name()),
        });
    };
    // The coordinator ships the layout it will combine with; decode it
    // and check it against this build's own task registry, so a
    // version-skewed node fails loudly instead of mis-merging cells.
    let shipped = RObjLayout::decode(&layout)?;
    let local = tasks::layout(&task, &params)?;
    if shipped.total_cells() != local.total_cells() {
        return Err(DistError::BadTask {
            reason: format!(
                "task `{task}`: coordinator layout has {} cells, this node's registry says {}",
                shipped.total_cells(),
                local.total_cells()
            ),
        });
    }
    let file = freeride::source::FileDataset::open(std::path::Path::new(&dataset))?;
    let rows = file.rows() as u64;
    if shard_first
        .checked_add(shard_rows)
        .is_none_or(|end| end > rows)
    {
        return Err(DistError::BadTask {
            reason: format!("shard {shard_first}+{shard_rows} exceeds {rows} dataset rows"),
        });
    }
    let mut config = JobConfig::with_threads(threads.max(1) as usize);
    config.trace = trace_level_from_ordinal(trace_level);
    config.io = crate::proto::io_mode_from_wire(io_mode, chunk_rows, buffers, readers);
    config.backend = freeride::KernelBackend::from_wire(backend);
    config.scheme =
        crate::proto::scheme_from_wire(scheme, scheme_stripes, scheme_cells, scheme_mask);
    if splitter == 1 {
        // The coordinator asked for nnz-weighted thread splits: recover
        // the exact index structure from the dataset's `.frsp` sidecar.
        let sidecar = cfr_sparse::sidecar_path(std::path::Path::new(&dataset));
        let m = match cfr_sparse::read_frsp(&sidecar) {
            Ok(cfr_sparse::SparseData::Csr(m)) => m,
            Ok(other) => {
                return Err(DistError::BadTask {
                    reason: format!(
                        "weighted splitter needs a CSR sidecar at {}, found {other:?}",
                        sidecar.display()
                    ),
                })
            }
            Err(e) => {
                return Err(DistError::BadTask {
                    reason: format!("weighted splitter sidecar {}: {e}", sidecar.display()),
                })
            }
        };
        if m.rows != rows {
            return Err(DistError::BadTask {
                reason: format!(
                    "sidecar {} describes {} rows, dataset has {rows}",
                    sidecar.display(),
                    m.rows
                ),
            });
        }
        config.splitter = cfr_sparse::csr_splitter(&m);
    }
    let recorder = Arc::new(Recorder::new(config.trace));
    let backend = config.backend;
    let engine = Engine::with_recorder(config, recorder.clone());
    Ok(JobContext {
        task,
        params,
        backend,
        layout: local,
        file,
        shard_first: shard_first as usize,
        shard_rows: shard_rows as usize,
        engine,
        recorder,
        stats_every,
        rounds_handled: std::cell::Cell::new(0),
    })
}

/// Run one round over the given shard list (empty = the Job-time
/// shard), returning one `(first_row, cells)` result per shard. Shards
/// are reduced independently so the coordinator can merge all results
/// in global row order regardless of which node computed which shard.
fn run_round(
    job: &JobContext,
    round: u32,
    attempt: u32,
    state: &[f64],
    shards: &[(u64, u64)],
) -> Result<Vec<(u64, Vec<u8>)>, DistError> {
    let kernel = tasks::kernel(
        &job.task,
        &job.params,
        state,
        job.backend,
        Some(&job.recorder),
    )?;
    let job_shard = [(job.shard_first as u64, job.shard_rows as u64)];
    let shards: &[(u64, u64)] = if shards.is_empty() {
        &job_shard
    } else {
        shards
    };
    let rows = job.file.rows() as u64;
    let mut results = Vec::with_capacity(shards.len());
    for &(first, count) in shards {
        if first.checked_add(count).is_none_or(|end| end > rows) {
            return Err(DistError::BadTask {
                reason: format!("shard {first}+{count} exceeds {rows} dataset rows"),
            });
        }
        let pass_start = std::time::Instant::now();
        let input = PassInput::File {
            file: &job.file,
            first_row: first as usize,
            rows: count as usize,
        };
        let outcome = job
            .engine
            .run_pass(input, &job.layout, &kernel, PassHooks::default())?;
        job.recorder.push_complete(
            TraceLevel::Phases,
            "node.pass",
            "dist",
            0,
            job.recorder.offset_ns(pass_start),
            pass_start.elapsed().as_nanos() as u64,
            vec![
                ("round", AttrValue::Int(round as i64)),
                ("attempt", AttrValue::Int(attempt as i64)),
                ("shard_first", AttrValue::Int(first as i64)),
                ("shard_rows", AttrValue::Int(count as i64)),
            ],
        );
        let hub = job.recorder.hub();
        if hub.is_enabled() {
            hub.add("node.shards", 1);
            hub.observe("node.shard_ns", pass_start.elapsed().as_nanos() as u64);
        }
        results.push((first, outcome.robj.encode_cells()));
    }
    Ok(results)
}

/// Handle one coordinator session on an accepted stream. Returns when
/// the coordinator sends [`Message::Shutdown`] or the connection drops.
pub fn handle_session(stream: TcpStream) -> Result<(), DistError> {
    session_loop(stream, std::time::Duration::ZERO)
}

/// Chaos-testing variant of [`handle_session`]: sleeps `slow_ms` before
/// every round, turning this node into a deliberate straggler so the
/// coordinator's latency-based straggler detection can be exercised
/// without relying on machine-dependent scheduling jitter.
pub fn handle_session_slow(stream: TcpStream, slow_ms: u64) -> Result<(), DistError> {
    session_loop(stream, std::time::Duration::from_millis(slow_ms))
}

fn session_loop(stream: TcpStream, slow: std::time::Duration) -> Result<(), DistError> {
    session_loop_opts(stream, slow, None)
}

fn session_loop_opts(
    stream: TcpStream,
    slow: std::time::Duration,
    leave_after: Option<u32>,
) -> Result<(), DistError> {
    let mut stream = stream;
    stream.set_nodelay(true).ok();

    let (hello, _) = read_message(&mut stream)?;
    let Message::Hello { node_id } = hello else {
        return Err(DistError::Protocol {
            reason: format!("expected Hello, got {}", hello.kind_name()),
        });
    };
    write_message(&mut stream, &Message::HelloAck { node_id })?;
    serve_frames(stream, node_id, slow, leave_after)
}

/// The post-handshake frame loop, shared by listening sessions
/// ([`serve`] and friends) and dial-out joiners ([`join`]). With
/// `leave_after` set, the node answers the first `RoundStart` after
/// that many completed rounds with a graceful `Leave` and exits.
fn serve_frames(
    mut stream: TcpStream,
    node_id: u32,
    slow: std::time::Duration,
    leave_after: Option<u32>,
) -> Result<(), DistError> {
    let mut job: Option<JobContext> = None;
    // The elastic round in progress: the kernel is built once per
    // `RoundStart` from the broadcast state and reused for every
    // `Unit` until `RoundEnd`.
    let mut current: Option<(u32, u32, tasks::TaskKernel)> = None;
    loop {
        let (msg, _) = read_message(&mut stream)?;
        match msg {
            Message::Job { .. } => match build_job(msg) {
                Ok(ctx) => job = Some(ctx),
                Err(e) => {
                    write_message(
                        &mut stream,
                        &Message::Error {
                            message: e.to_string(),
                        },
                    )?;
                    return Err(e);
                }
            },
            Message::Round {
                round,
                attempt,
                state,
                shards,
            } => {
                let Some(ctx) = job.as_ref() else {
                    let e = DistError::Protocol {
                        reason: "Round before Job".into(),
                    };
                    write_message(
                        &mut stream,
                        &Message::Error {
                            message: e.to_string(),
                        },
                    )?;
                    return Err(e);
                };
                let round_start = std::time::Instant::now();
                if !slow.is_zero() {
                    std::thread::sleep(slow);
                }
                match run_round(ctx, round, attempt, &state, &shards) {
                    Ok(results) => {
                        ctx.recorder.add_counter("dist.rounds", 1);
                        // elapsed_ns is measured here, on the node, so
                        // the coordinator's straggler detection sees
                        // compute time rather than its own (serialised,
                        // blocking) receive order.
                        let elapsed_ns = round_start.elapsed().as_nanos() as u64;
                        let hub = ctx.recorder.hub();
                        if hub.is_enabled() {
                            hub.add("node.rounds", 1);
                            hub.observe("node.round_ns", elapsed_ns);
                        }
                        let n = ctx.rounds_handled.get().wrapping_add(1);
                        ctx.rounds_handled.set(n);
                        if ctx.stats_every > 0 && n % ctx.stats_every == 0 && hub.is_enabled() {
                            write_message(
                                &mut stream,
                                &Message::Stats {
                                    round,
                                    metrics: hub.snapshot().encode_bin(),
                                },
                            )?;
                        }
                        write_message(
                            &mut stream,
                            &Message::RoundResult {
                                round,
                                attempt,
                                elapsed_ns,
                                shards: results,
                            },
                        )?;
                    }
                    Err(e) => {
                        write_message(
                            &mut stream,
                            &Message::Error {
                                message: e.to_string(),
                            },
                        )?;
                        return Err(e);
                    }
                }
            }
            Message::EndJob => {
                let trace = match job.as_ref() {
                    Some(ctx) if ctx.recorder.level() != TraceLevel::Off => {
                        ctx.recorder.drain().encode_bin()
                    }
                    _ => Vec::new(),
                };
                let metrics = match job.as_ref() {
                    Some(ctx) if ctx.recorder.hub().is_enabled() => {
                        let snap = ctx.recorder.hub().snapshot();
                        if snap.is_empty() {
                            Vec::new()
                        } else {
                            snap.encode_bin()
                        }
                    }
                    _ => Vec::new(),
                };
                job = None;
                write_message(&mut stream, &Message::JobDone { trace, metrics })?;
            }
            Message::RoundStart {
                round,
                attempt,
                state,
            } => {
                let Some(ctx) = job.as_ref() else {
                    let e = DistError::Protocol {
                        reason: "RoundStart before Job".into(),
                    };
                    write_message(
                        &mut stream,
                        &Message::Error {
                            message: e.to_string(),
                        },
                    )?;
                    return Err(e);
                };
                if leave_after.is_some_and(|n| ctx.rounds_handled.get() >= n) {
                    // Graceful exit: tell the coordinator instead of
                    // answering, so our rows are reseeded onto the
                    // survivors without burning a retry. Then *linger*,
                    // draining (and ignoring) frames until the
                    // coordinator drops the connection: closing right
                    // away would RST an in-flight Unit send and could
                    // discard the buffered Leave on the coordinator's
                    // side, turning the graceful path into a failure.
                    write_message(&mut stream, &Message::Leave { node_id })?;
                    loop {
                        match read_message(&mut stream) {
                            Ok((Message::Shutdown, _)) => return Ok(()),
                            Ok(_) => continue,
                            Err(DistError::Io(e))
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::UnexpectedEof
                                        | std::io::ErrorKind::ConnectionReset
                                        | std::io::ErrorKind::ConnectionAborted
                                ) =>
                            {
                                return Ok(())
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                match tasks::kernel(
                    &ctx.task,
                    &ctx.params,
                    &state,
                    ctx.backend,
                    Some(&ctx.recorder),
                ) {
                    Ok(kernel) => current = Some((round, attempt, kernel)),
                    Err(e) => {
                        write_message(
                            &mut stream,
                            &Message::Error {
                                message: e.to_string(),
                            },
                        )?;
                        return Err(e);
                    }
                }
            }
            Message::Unit {
                round,
                attempt,
                first_row,
                rows,
            } => {
                let (Some(ctx), Some((r, a, kernel))) = (job.as_ref(), current.as_ref()) else {
                    let e = DistError::Protocol {
                        reason: "Unit before RoundStart".into(),
                    };
                    write_message(
                        &mut stream,
                        &Message::Error {
                            message: e.to_string(),
                        },
                    )?;
                    return Err(e);
                };
                if (*r, *a) != (round, attempt) {
                    let e = DistError::Protocol {
                        reason: format!(
                            "Unit for round {round}/{attempt}, current round is {r}/{a}"
                        ),
                    };
                    write_message(
                        &mut stream,
                        &Message::Error {
                            message: e.to_string(),
                        },
                    )?;
                    return Err(e);
                }
                // The artificial straggler delay applies per unit (and
                // inside the timed window), so a slow node's units read
                // as slow and fast peers get the chance to steal.
                let unit_start = std::time::Instant::now();
                if !slow.is_zero() {
                    std::thread::sleep(slow);
                }
                match run_unit(ctx, kernel, round, attempt, first_row, rows) {
                    Ok(cells) => {
                        write_message(
                            &mut stream,
                            &Message::UnitResult {
                                round,
                                attempt,
                                first_row,
                                elapsed_ns: unit_start.elapsed().as_nanos() as u64,
                                cells,
                            },
                        )?;
                    }
                    Err(e) => {
                        write_message(
                            &mut stream,
                            &Message::Error {
                                message: e.to_string(),
                            },
                        )?;
                        return Err(e);
                    }
                }
            }
            Message::RoundEnd { round, .. } => {
                if let Some(ctx) = job.as_ref() {
                    ctx.recorder.add_counter("dist.rounds", 1);
                    let n = ctx.rounds_handled.get().wrapping_add(1);
                    ctx.rounds_handled.set(n);
                    let hub = ctx.recorder.hub();
                    if hub.is_enabled() {
                        hub.add("node.rounds", 1);
                    }
                    if ctx.stats_every > 0 && n % ctx.stats_every == 0 && hub.is_enabled() {
                        write_message(
                            &mut stream,
                            &Message::Stats {
                                round,
                                metrics: hub.snapshot().encode_bin(),
                            },
                        )?;
                    }
                }
                current = None;
            }
            Message::Shutdown => return Ok(()),
            Message::Error { message } => {
                return Err(DistError::Node {
                    node: node_id as usize,
                    message,
                });
            }
            other => {
                let e = DistError::Protocol {
                    reason: format!("unexpected {} from coordinator", other.kind_name()),
                };
                write_message(
                    &mut stream,
                    &Message::Error {
                        message: e.to_string(),
                    },
                )?;
                return Err(e);
            }
        }
    }
}

/// Run one work unit of the current elastic round, returning the
/// unit's reduction cells.
fn run_unit(
    job: &JobContext,
    kernel: &tasks::TaskKernel,
    round: u32,
    attempt: u32,
    first: u64,
    count: u64,
) -> Result<Vec<u8>, DistError> {
    let rows = job.file.rows() as u64;
    if first.checked_add(count).is_none_or(|end| end > rows) {
        return Err(DistError::BadTask {
            reason: format!("unit {first}+{count} exceeds {rows} dataset rows"),
        });
    }
    let pass_start = std::time::Instant::now();
    let input = PassInput::File {
        file: &job.file,
        first_row: first as usize,
        rows: count as usize,
    };
    let outcome = job
        .engine
        .run_pass(input, &job.layout, kernel, PassHooks::default())?;
    job.recorder.push_complete(
        TraceLevel::Phases,
        "node.pass",
        "dist",
        0,
        job.recorder.offset_ns(pass_start),
        pass_start.elapsed().as_nanos() as u64,
        vec![
            ("round", AttrValue::Int(round as i64)),
            ("attempt", AttrValue::Int(attempt as i64)),
            ("shard_first", AttrValue::Int(first as i64)),
            ("shard_rows", AttrValue::Int(count as i64)),
        ],
    );
    let hub = job.recorder.hub();
    if hub.is_enabled() {
        hub.add("node.units", 1);
        hub.observe("node.unit_ns", pass_start.elapsed().as_nanos() as u64);
    }
    Ok(outcome.robj.encode_cells())
}

/// Dial a coordinator's membership hub and serve the session the
/// coordinator opens back over the same connection (`cfr-node --join`).
/// Joiners are absorbed at round barriers, so the `Hello` may lag the
/// dial by a full round. A `Shutdown` first — or the hub closing the
/// connection — means the fleet wound down before this node was
/// admitted: a clean no-op, not an error.
pub fn join(addr: &SocketAddr, slow_ms: u64, leave_after: Option<u32>) -> Result<(), DistError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    write_message(
        &mut stream,
        &Message::Join {
            token: String::new(),
        },
    )?;
    let hello = match read_message(&mut stream) {
        Ok((msg, _)) => msg,
        Err(DistError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ) =>
        {
            return Ok(())
        }
        Err(e) => return Err(e),
    };
    match hello {
        Message::Shutdown => Ok(()),
        Message::Hello { node_id } => {
            write_message(&mut stream, &Message::HelloAck { node_id })?;
            serve_frames(
                stream,
                node_id,
                std::time::Duration::from_millis(slow_ms),
                leave_after,
            )
        }
        other => Err(DistError::Protocol {
            reason: format!(
                "joiner expected Hello or Shutdown, got {}",
                other.kind_name()
            ),
        }),
    }
}

/// Loopback agent that serves one session but exits gracefully: once
/// it has completed `after_rounds` rounds it answers the next
/// `RoundStart` with `Leave` instead of working the round.
pub fn serve_leaving(listener: &TcpListener, after_rounds: u32) -> Result<(), DistError> {
    let (stream, _peer) = listener.accept()?;
    session_loop_opts(stream, std::time::Duration::ZERO, Some(after_rounds))
}

/// Accept one coordinator connection on `listener` and serve the
/// session to completion.
pub fn serve(listener: &TcpListener) -> Result<(), DistError> {
    let (stream, _peer) = listener.accept()?;
    handle_session(stream)
}

/// Accept `sessions` coordinator connections (0 = forever), serving
/// each on its own thread so multiple coordinators — e.g. the
/// `cfr-serve` daemon multiplexing concurrent jobs onto a shared fleet
/// — can hold sessions simultaneously. A session that fails is
/// reported on stderr but does not take down the acceptor or other
/// sessions; only an `accept` failure is fatal. Returns once
/// `sessions` connections have been accepted and all of them have
/// completed.
pub fn serve_concurrent(listener: &TcpListener, sessions: usize) -> Result<(), DistError> {
    serve_concurrent_slow(listener, sessions, 0)
}

/// [`serve_concurrent`] with an artificial per-round delay on every
/// session (see [`handle_session_slow`]) — a shared-fleet node that is
/// a deliberate straggler for every coordinator it serves.
pub fn serve_concurrent_slow(
    listener: &TcpListener,
    sessions: usize,
    slow_ms: u64,
) -> Result<(), DistError> {
    let mut handles = Vec::new();
    let mut accepted = 0usize;
    loop {
        let (stream, _peer) = listener.accept()?;
        handles.push(std::thread::spawn(move || {
            if let Err(e) = handle_session_slow(stream, slow_ms) {
                eprintln!("cfr-node: session error: {e}");
            }
        }));
        accepted += 1;
        if sessions != 0 && accepted >= sessions {
            break;
        }
    }
    for h in handles {
        if h.join().is_err() {
            return Err(DistError::Protocol {
                reason: "node session thread panicked".into(),
            });
        }
    }
    Ok(())
}

/// Accept one coordinator connection and serve it with an artificial
/// per-round delay (see [`handle_session_slow`]).
pub fn serve_slow(listener: &TcpListener, slow_ms: u64) -> Result<(), DistError> {
    let (stream, _peer) = listener.accept()?;
    handle_session_slow(stream, slow_ms)
}

/// Chaos-testing agent: behaves like [`serve`], but severs the
/// connection without a protocol goodbye after answering
/// `rounds_before_death` Round messages — on the next Round it simply
/// drops the socket mid-round, exactly what a node killed by the OS
/// looks like from the coordinator's side. Returns `Ok(())` when it
/// died on schedule.
pub fn serve_dropping(listener: &TcpListener, rounds_before_death: usize) -> Result<(), DistError> {
    let (mut stream, _peer) = listener.accept()?;
    stream.set_nodelay(true).ok();
    let (hello, _) = read_message(&mut stream)?;
    let Message::Hello { node_id } = hello else {
        return Err(DistError::Protocol {
            reason: format!("expected Hello, got {}", hello.kind_name()),
        });
    };
    write_message(&mut stream, &Message::HelloAck { node_id })?;
    let mut job: Option<JobContext> = None;
    let mut answered = 0usize;
    loop {
        let (msg, _) = read_message(&mut stream)?;
        match msg {
            Message::Job { .. } => job = Some(build_job(msg)?),
            Message::Round {
                round,
                attempt,
                state,
                shards,
            } => {
                if answered == rounds_before_death {
                    // Die mid-round: the Round was received, no
                    // RoundResult will ever come. Dropping the stream
                    // resets the connection.
                    return Ok(());
                }
                let ctx = job.as_ref().ok_or_else(|| DistError::Protocol {
                    reason: "Round before Job".into(),
                })?;
                let round_start = std::time::Instant::now();
                let results = run_round(ctx, round, attempt, &state, &shards)?;
                // Same periodic stats cadence as a healthy node: the
                // push preceding this node's death is all the telemetry
                // the coordinator gets to keep from it.
                let n = ctx.rounds_handled.get().wrapping_add(1);
                ctx.rounds_handled.set(n);
                let hub = ctx.recorder.hub();
                if hub.is_enabled() {
                    hub.add("node.rounds", 1);
                    hub.observe("node.round_ns", round_start.elapsed().as_nanos() as u64);
                }
                if ctx.stats_every > 0 && n % ctx.stats_every == 0 && hub.is_enabled() {
                    write_message(
                        &mut stream,
                        &Message::Stats {
                            round,
                            metrics: hub.snapshot().encode_bin(),
                        },
                    )?;
                }
                write_message(
                    &mut stream,
                    &Message::RoundResult {
                        round,
                        attempt,
                        elapsed_ns: round_start.elapsed().as_nanos() as u64,
                        shards: results,
                    },
                )?;
                answered += 1;
            }
            Message::Shutdown => return Ok(()),
            other => {
                return Err(DistError::Protocol {
                    reason: format!("unexpected {} from coordinator", other.kind_name()),
                });
            }
        }
    }
}

#[cfg(test)]
mod node_tests {
    use super::*;

    #[test]
    fn trace_level_ordinals_round_trip() {
        for l in [
            TraceLevel::Off,
            TraceLevel::Phases,
            TraceLevel::Splits,
            TraceLevel::Verbose,
        ] {
            assert_eq!(trace_level_from_ordinal(trace_level_ordinal(l)), l);
        }
    }

    #[test]
    fn session_rejects_round_before_job() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&listener));
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, &Message::Hello { node_id: 0 }).unwrap();
        let (ack, _) = read_message(&mut stream).unwrap();
        assert_eq!(ack, Message::HelloAck { node_id: 0 });
        write_message(
            &mut stream,
            &Message::Round {
                round: 0,
                attempt: 0,
                state: vec![],
                shards: vec![],
            },
        )
        .unwrap();
        let (reply, _) = read_message(&mut stream).unwrap();
        assert!(matches!(reply, Message::Error { .. }), "{reply:?}");
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn session_rejects_non_hello_opening() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&listener));
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, &Message::EndJob).unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert!(matches!(err, DistError::Protocol { .. }), "{err}");
    }
}
