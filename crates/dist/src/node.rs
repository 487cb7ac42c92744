//! The node side of the cluster: accept one coordinator session and
//! reduce the work units it hands out.
//!
//! A node is deliberately thin: all parallelism inside the node is the
//! existing shared-memory [`freeride::Engine`] (persistent pool,
//! `run_pass` over a file row range); the agent only speaks the wire
//! protocol around it. One agent serves one coordinator session
//! ([`serve_with`]) — the `cfr-node` binary can loop over sessions
//! with `--sessions`. Every session, listening or dialed out
//! ([`join`]), runs the same frame loop; fault injection is a
//! [`Behaviour`] of that loop, not a second loop.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use freeride::{Engine, JobConfig, PassHooks, PassInput, RObjLayout};
use obs::{AttrValue, Recorder, TraceLevel};

use crate::error::DistError;
use crate::proto::{read_message, write_message, Message};
use crate::tasks;

/// Fault injection for one session. The default is a healthy node;
/// each field turns on one deterministic misbehaviour so recovery,
/// straggler detection, stealing and voluntary leaves can be tested
/// without relying on machine-dependent timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Behaviour {
    /// Sleep this many milliseconds inside every unit's timed window:
    /// a deliberate straggler whose units read as slow.
    pub slow_ms: u64,
    /// Answer the first `RoundStart` after this many completed rounds
    /// with a graceful `Leave` instead of working the round.
    pub leave_after: Option<u32>,
    /// Sever the connection on receipt of the first `Unit` after this
    /// many completed rounds, with no reply and no goodbye — what a
    /// node killed by the OS looks like from the coordinator's side.
    /// The session then returns `Ok(())`: it died on schedule.
    pub die_after: Option<u32>,
}

impl Behaviour {
    /// A straggler sleeping `ms` per unit.
    pub fn slow(ms: u64) -> Behaviour {
        Behaviour {
            slow_ms: ms,
            ..Behaviour::default()
        }
    }

    /// A node that leaves gracefully after `rounds` completed rounds.
    pub fn leaves_after(rounds: u32) -> Behaviour {
        Behaviour {
            leave_after: Some(rounds),
            ..Behaviour::default()
        }
    }

    /// A node that dies mid-round after `rounds` completed rounds.
    pub fn dies_after(rounds: u32) -> Behaviour {
        Behaviour {
            die_after: Some(rounds),
            ..Behaviour::default()
        }
    }
}

/// Per-job context built from a [`Message::Job`].
struct JobContext {
    task: String,
    params: Vec<i64>,
    backend: freeride::KernelBackend,
    layout: Arc<RObjLayout>,
    file: freeride::source::FileDataset,
    engine: Engine,
    recorder: Arc<Recorder>,
    /// Push a `Stats` frame on every Nth `RoundEnd` (0 = off).
    stats_every: u32,
    /// Rounds completed so far: drives the periodic `Stats` cadence
    /// and the `leave_after`/`die_after` schedules.
    rounds_handled: u32,
}

/// The round in progress: the kernel is built once per `RoundStart`
/// from the broadcast state and reused for every `Unit` until
/// `RoundEnd`.
struct OpenRound {
    round: u32,
    attempt: u32,
    kernel: tasks::TaskKernel,
    /// Sum of this round's unit times — what the coordinator sums too,
    /// so both ends see the same straggler signal.
    busy_ns: u64,
}

fn build_job(msg: Message) -> Result<JobContext, DistError> {
    let Message::Job {
        task,
        params,
        layout,
        dataset,
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
    let mut config = JobConfig::with_threads(threads.max(1) as usize);
    config.trace = trace_level;
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
        engine,
        recorder,
        stats_every,
        rounds_handled: 0,
    })
}

/// Run one work unit of the current round, returning the unit's
/// reduction cells. Units are reduced independently so the coordinator
/// can merge all results in global row order regardless of which node
/// computed which unit.
fn run_unit(
    job: &JobContext,
    open: &OpenRound,
    first: u64,
    count: u64,
) -> Result<Vec<u8>, DistError> {
    let rows = job.file.rows() as u64;
    if first.checked_add(count).is_none_or(|end| end > rows) {
        return Err(DistError::BadTask {
            reason: format!("unit {first}+{count} exceeds {rows} dataset rows"),
        });
    }
    let pass_start = Instant::now();
    let input = PassInput::File {
        file: &job.file,
        first_row: first as usize,
        rows: count as usize,
    };
    let outcome = job
        .engine
        .run_pass(input, &job.layout, &open.kernel, PassHooks::default())?;
    job.recorder.push_complete(
        TraceLevel::Phases,
        "node.pass",
        "dist",
        0,
        job.recorder.offset_ns(pass_start),
        pass_start.elapsed().as_nanos() as u64,
        vec![
            ("round", AttrValue::Int(open.round as i64)),
            ("attempt", AttrValue::Int(open.attempt as i64)),
            ("shard_first", AttrValue::Int(first as i64)),
            ("shard_rows", AttrValue::Int(count as i64)),
        ],
    );
    Ok(outcome.robj.encode_cells())
}

/// Tell the coordinator why this session is ending, then end it.
fn reject(stream: &mut TcpStream, e: DistError) -> Result<(), DistError> {
    write_message(
        stream,
        &Message::Error {
            message: e.to_string(),
        },
    )?;
    Err(e)
}

/// The peer closed (or reset) the connection rather than the socket
/// failing some other way.
fn is_hangup(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

/// Serve one coordinator session on an accepted stream: the `Hello`
/// handshake, then the frame loop until `Shutdown`.
fn handle_session(mut stream: TcpStream, behaviour: Behaviour) -> Result<(), DistError> {
    stream.set_nodelay(true).ok();
    let (hello, _) = read_message(&mut stream)?;
    let Message::Hello { node_id } = hello else {
        return Err(DistError::Protocol {
            reason: format!("expected Hello, got {}", hello.kind_name()),
        });
    };
    write_message(&mut stream, &Message::HelloAck { node_id })?;
    serve_frames(stream, node_id, behaviour)
}

/// The post-handshake frame loop of every session, listening
/// ([`serve_with`], [`serve_concurrent`]) or dialed out ([`join`]).
fn serve_frames(
    mut stream: TcpStream,
    node_id: u32,
    behaviour: Behaviour,
) -> Result<(), DistError> {
    let mut job: Option<JobContext> = None;
    let mut open: Option<OpenRound> = None;
    loop {
        let (msg, _) = read_message(&mut stream)?;
        match msg {
            Message::Job { .. } => match build_job(msg) {
                Ok(ctx) => job = Some(ctx),
                Err(e) => return reject(&mut stream, e),
            },
            Message::RoundStart {
                round,
                attempt,
                state,
            } => {
                let Some(ctx) = job.as_ref() else {
                    let e = DistError::Protocol {
                        reason: "RoundStart before Job".into(),
                    };
                    return reject(&mut stream, e);
                };
                if behaviour
                    .leave_after
                    .is_some_and(|n| ctx.rounds_handled >= n)
                {
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
                            Err(DistError::Io(e)) if is_hangup(&e) => return Ok(()),
                            Err(e) => return Err(e),
                        }
                    }
                }
                let kernel = tasks::kernel(
                    &ctx.task,
                    &ctx.params,
                    &state,
                    ctx.backend,
                    Some(&ctx.recorder),
                );
                match kernel {
                    Ok(kernel) => {
                        open = Some(OpenRound {
                            round,
                            attempt,
                            kernel,
                            busy_ns: 0,
                        })
                    }
                    Err(e) => return reject(&mut stream, e),
                }
            }
            Message::Unit {
                round,
                attempt,
                first_row,
                rows,
            } => {
                let (Some(ctx), Some(cur)) = (job.as_ref(), open.as_mut()) else {
                    let e = DistError::Protocol {
                        reason: "Unit before RoundStart".into(),
                    };
                    return reject(&mut stream, e);
                };
                if (cur.round, cur.attempt) != (round, attempt) {
                    let e = DistError::Protocol {
                        reason: format!(
                            "Unit for round {round}/{attempt}, current round is {}/{}",
                            cur.round, cur.attempt
                        ),
                    };
                    return reject(&mut stream, e);
                }
                if behaviour.die_after.is_some_and(|n| ctx.rounds_handled >= n) {
                    // Die mid-round: the Unit was received, no
                    // UnitResult will ever come. Dropping the stream
                    // closes the connection under the coordinator.
                    return Ok(());
                }
                // elapsed_ns is measured here, on the node, so the
                // coordinator's straggler detection sees this node's
                // own time rather than the order results arrived in.
                // The artificial straggler delay sits inside the timed
                // window, so a slow node's units read as slow and fast
                // peers get the chance to steal.
                let unit_start = Instant::now();
                if behaviour.slow_ms > 0 {
                    std::thread::sleep(Duration::from_millis(behaviour.slow_ms));
                }
                let cells = match run_unit(ctx, cur, first_row, rows) {
                    Ok(cells) => cells,
                    Err(e) => return reject(&mut stream, e),
                };
                let elapsed_ns = unit_start.elapsed().as_nanos() as u64;
                cur.busy_ns += elapsed_ns;
                let hub = ctx.recorder.hub();
                if hub.is_enabled() {
                    hub.add("node.units", 1);
                    hub.observe("node.unit_ns", elapsed_ns);
                }
                write_message(
                    &mut stream,
                    &Message::UnitResult {
                        round,
                        attempt,
                        first_row,
                        elapsed_ns,
                        cells,
                    },
                )?;
            }
            Message::RoundEnd { round, .. } => {
                let busy_ns = open.take().map_or(0, |cur| cur.busy_ns);
                if let Some(ctx) = job.as_mut() {
                    ctx.recorder.add_counter("dist.rounds", 1);
                    ctx.rounds_handled = ctx.rounds_handled.wrapping_add(1);
                    let hub = ctx.recorder.hub();
                    if hub.is_enabled() {
                        hub.add("node.rounds", 1);
                        hub.observe("node.round_ns", busy_ns);
                        // The periodic push: for a node that later dies
                        // it is all the telemetry the coordinator gets
                        // to keep.
                        if ctx.stats_every > 0 && ctx.rounds_handled % ctx.stats_every == 0 {
                            write_message(
                                &mut stream,
                                &Message::Stats {
                                    round,
                                    metrics: hub.snapshot().encode_bin(),
                                },
                            )?;
                        }
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
                return reject(&mut stream, e);
            }
        }
    }
}

/// Dial a coordinator's membership hub and serve the session the
/// coordinator opens back over the same connection (`cfr-node --join`).
/// Joiners are absorbed at round barriers, so the `Hello` may lag the
/// dial by a full round. A `Shutdown` first — or the hub closing the
/// connection — means the fleet wound down before this node was
/// admitted: a clean no-op, not an error.
pub fn join(addr: &SocketAddr, behaviour: Behaviour) -> Result<(), DistError> {
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
        Err(DistError::Io(e)) if is_hangup(&e) => return Ok(()),
        Err(e) => return Err(e),
    };
    match hello {
        Message::Shutdown => Ok(()),
        Message::Hello { node_id } => {
            write_message(&mut stream, &Message::HelloAck { node_id })?;
            serve_frames(stream, node_id, behaviour)
        }
        other => Err(DistError::Protocol {
            reason: format!(
                "joiner expected Hello or Shutdown, got {}",
                other.kind_name()
            ),
        }),
    }
}

/// Accept one coordinator connection on `listener` and serve the
/// session to completion under `behaviour`
/// (`Behaviour::default()` for a healthy node).
pub fn serve_with(listener: &TcpListener, behaviour: Behaviour) -> Result<(), DistError> {
    let (stream, _peer) = listener.accept()?;
    handle_session(stream, behaviour)
}

/// Accept `sessions` coordinator connections (0 = forever), serving
/// each on its own thread so multiple coordinators — e.g. the
/// `cfr-serve` daemon multiplexing concurrent jobs onto a shared fleet
/// — can hold sessions simultaneously, every session under
/// `behaviour`. A session that fails is reported on stderr but does
/// not take down the acceptor or other sessions; only an `accept`
/// failure is fatal. Returns once `sessions` connections have been
/// accepted and all of them have completed.
pub fn serve_concurrent(
    listener: &TcpListener,
    sessions: usize,
    behaviour: Behaviour,
) -> Result<(), DistError> {
    let mut handles = Vec::new();
    let mut panicked = false;
    let mut accepted = 0usize;
    loop {
        let (stream, _peer) = listener.accept()?;
        // Join the sessions that have ended, so a node serving forever
        // holds one thread (and stack) per live session, not per
        // session it ever served.
        panicked |= reap_finished(&mut handles);
        handles.push(std::thread::spawn(move || {
            if let Err(e) = handle_session(stream, behaviour) {
                eprintln!("cfr-node: session error: {e}");
            }
        }));
        accepted += 1;
        if sessions != 0 && accepted >= sessions {
            break;
        }
    }
    for h in handles {
        panicked |= h.join().is_err();
    }
    if panicked {
        return Err(DistError::Protocol {
            reason: "node session thread panicked".into(),
        });
    }
    Ok(())
}

/// Join and drop every finished thread in `handles`; whether any of
/// them panicked.
fn reap_finished(handles: &mut Vec<std::thread::JoinHandle<()>>) -> bool {
    let mut panicked = false;
    let mut live = Vec::with_capacity(handles.len());
    for h in handles.drain(..) {
        if h.is_finished() {
            panicked |= h.join().is_err();
        } else {
            live.push(h);
        }
    }
    *handles = live;
    panicked
}

#[cfg(test)]
mod node_tests {
    use super::*;

    #[test]
    fn finished_session_threads_are_reaped() {
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let mut handles = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(|| panic!("session panicked")),
            std::thread::spawn(move || gate.recv().unwrap_or(())),
        ];
        while !(handles[0].is_finished() && handles[1].is_finished()) {
            std::thread::yield_now();
        }
        // The two ended threads are joined (one panicked); the live one
        // stays.
        assert!(reap_finished(&mut handles));
        assert_eq!(handles.len(), 1);
        release.send(()).unwrap();
        while !handles[0].is_finished() {
            std::thread::yield_now();
        }
        assert!(!reap_finished(&mut handles));
        assert!(handles.is_empty());
    }

    #[test]
    fn trace_level_ordinals_round_trip() {
        use crate::proto::{trace_level_from_wire, trace_level_to_wire};
        for l in [TraceLevel::Off, TraceLevel::Phases, TraceLevel::Splits] {
            assert_eq!(trace_level_from_wire(trace_level_to_wire(l)).unwrap(), l);
        }
    }

    /// Open a session against a healthy agent, send `frames` after the
    /// handshake, and return the agent's reply plus its exit status.
    fn reply_to(frames: &[Message]) -> (Message, Result<(), DistError>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_with(&listener, Behaviour::default()));
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, &Message::Hello { node_id: 0 }).unwrap();
        let (ack, _) = read_message(&mut stream).unwrap();
        assert_eq!(ack, Message::HelloAck { node_id: 0 });
        for f in frames {
            write_message(&mut stream, f).unwrap();
        }
        let (reply, _) = read_message(&mut stream).unwrap();
        (reply, server.join().unwrap())
    }

    #[test]
    fn session_rejects_round_start_before_job() {
        let (reply, exit) = reply_to(&[Message::RoundStart {
            round: 0,
            attempt: 0,
            state: vec![],
        }]);
        assert!(matches!(reply, Message::Error { .. }), "{reply:?}");
        assert!(exit.is_err());
    }

    #[test]
    fn session_rejects_unit_before_round_start() {
        let (reply, exit) = reply_to(&[Message::Unit {
            round: 0,
            attempt: 0,
            first_row: 0,
            rows: 1,
        }]);
        let Message::Error { message } = reply else {
            panic!("{reply:?}");
        };
        assert!(message.contains("Unit before RoundStart"), "{message}");
        assert!(exit.is_err());
    }

    #[test]
    fn session_rejects_non_hello_opening() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_with(&listener, Behaviour::default()));
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, &Message::EndJob).unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert!(matches!(err, DistError::Protocol { .. }), "{err}");
    }
}
