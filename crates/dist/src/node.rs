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
use crate::proto::{read_message, write_message, JobSetup, Message};
use crate::tasks::{JobTask, Task, TaskKernel};

/// Fault injection for one session. The default is a healthy node;
/// each field turns on one deterministic misbehaviour so recovery,
/// straggler detection, stealing and voluntary leaves can be tested
/// without relying on machine-dependent timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Behaviour {
    /// Sleep this many milliseconds inside every unit's timed window:
    /// a deliberate straggler whose units read as slow.
    pub slow_ms: u64,
    /// Leave at the first barrier after this many rounds: set `leave`
    /// in the `RoundDone` of the first round at which the node has
    /// finished at least this many; the coordinator then ends the
    /// session with `EndJob`. No barrier comes before round 0, so 0
    /// leaves at the end of the first round.
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

    /// A node that leaves gracefully at the first barrier after
    /// `rounds` rounds.
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

/// Per-job context built from the [`JobSetup`] of a session's `Hello`.
struct JobContext {
    /// The task, prepared once for the job (a `chapel.*` program is
    /// compiled here, not per round).
    task: JobTask,
    layout: Arc<RObjLayout>,
    file: freeride::source::FileDataset,
    engine: Engine,
    recorder: Arc<Recorder>,
    /// Rounds completed so far: drives the `leave_after`/`die_after`
    /// schedules.
    rounds_handled: u32,
}

/// The round in progress: the kernel is built once per `RoundStart`
/// from the broadcast state and reused for every `Unit` until
/// `RoundEnd`.
struct OpenRound {
    round: u32,
    attempt: u32,
    kernel: TaskKernel,
    /// Sum of this round's unit times — what the coordinator sums too,
    /// so both ends see the same straggler signal.
    busy_ns: u64,
}

fn build_job(job: &JobSetup) -> Result<JobContext, DistError> {
    // The coordinator ships the layout it will combine with; decode it
    // and check it against this build's own task registry, so a
    // version-skewed node fails loudly instead of mis-merging cells.
    let shipped = RObjLayout::decode(&job.layout)?;
    let task = Task::parse(&job.task, &job.params)?;
    let local = task.layout();
    if shipped.total_cells() != local.total_cells() {
        return Err(DistError::BadTask {
            reason: format!(
                "task `{}`: coordinator layout has {} cells, this node's registry says {}",
                job.task,
                shipped.total_cells(),
                local.total_cells()
            ),
        });
    }
    let dataset = std::path::Path::new(&job.dataset);
    let file = freeride::source::FileDataset::open(dataset)?;
    let rows = file.rows() as u64;
    let mut config = JobConfig::with_threads(job.threads.max(1) as usize);
    config.trace = job.trace_level;
    config.io = job.io;
    config.backend = job.backend;
    config.scheme = job.scheme;
    if job.sparse_split {
        // The coordinator asked for nnz-weighted thread splits: recover
        // the exact index structure from the dataset's `.frsp` sidecar.
        let sidecar = cfr_sparse::sidecar_path(dataset);
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
    let task = task.prepare(config.backend, Some(&recorder))?;
    let engine = Engine::with_recorder(config, recorder.clone());
    Ok(JobContext {
        task,
        layout: local,
        file,
        engine,
        recorder,
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

/// Serve one coordinator session on an accepted stream.
fn handle_session(mut stream: TcpStream, behaviour: Behaviour) -> Result<(), DistError> {
    let (first, _) = read_message(&mut stream)?;
    serve_session(stream, first, behaviour)
}

/// Every session, listening ([`serve_with`], [`serve_concurrent`]) or
/// dialed out ([`join`]), from its opening frame `first`: build the job
/// `Hello` carries and answer `HelloAck` (or `Error` when it cannot be
/// built), then run rounds until `EndJob` is answered with `JobDone`.
/// A session opened or ended by `Shutdown` — a fleet that wound down or
/// failed — ends cleanly.
fn serve_session(
    mut stream: TcpStream,
    first: Message,
    behaviour: Behaviour,
) -> Result<(), DistError> {
    stream.set_nodelay(true).ok();
    let (node_id, mut job) = match first {
        Message::Shutdown => return Ok(()),
        Message::Hello { node_id, job } => match build_job(&job) {
            Ok(ctx) => (node_id, ctx),
            Err(e) => return reject(&mut stream, e),
        },
        other => {
            return Err(DistError::Protocol {
                reason: format!("expected Hello, got {}", other.kind_name()),
            })
        }
    };
    write_message(&mut stream, &Message::HelloAck { node_id })?;
    let mut open: Option<OpenRound> = None;
    loop {
        let (msg, _) = read_message(&mut stream)?;
        match msg {
            Message::RoundStart {
                round,
                attempt,
                state,
            } => match job.task.kernel(&state, Some(&job.recorder)) {
                Ok(kernel) => {
                    open = Some(OpenRound {
                        round,
                        attempt,
                        kernel,
                        busy_ns: 0,
                    })
                }
                Err(e) => return reject(&mut stream, e),
            },
            Message::Unit {
                round,
                attempt,
                first_row,
                rows,
            } => {
                let Some(cur) = open.as_mut() else {
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
                if behaviour.die_after.is_some_and(|n| job.rounds_handled >= n) {
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
                let cells = match run_unit(&job, cur, first_row, rows) {
                    Ok(cells) => cells,
                    Err(e) => return reject(&mut stream, e),
                };
                let elapsed_ns = unit_start.elapsed().as_nanos() as u64;
                cur.busy_ns += elapsed_ns;
                let hub = job.recorder.hub();
                hub.add("node.units", 1);
                hub.observe("node.unit_ns", elapsed_ns);
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
            Message::RoundEnd { round, attempt } => {
                let busy_ns = open.take().map_or(0, |cur| cur.busy_ns);
                job.rounds_handled = job.rounds_handled.wrapping_add(1);
                let hub = job.recorder.hub();
                let mut metrics = Vec::new();
                if hub.is_enabled() {
                    hub.add("node.rounds", 1);
                    hub.observe("node.round_ns", busy_ns);
                    metrics = hub.snapshot().encode_bin();
                }
                let leave = behaviour
                    .leave_after
                    .is_some_and(|n| job.rounds_handled >= n);
                let done = Message::RoundDone {
                    round,
                    attempt,
                    leave,
                    metrics,
                };
                write_message(&mut stream, &done)?;
            }
            Message::EndJob => {
                let trace = match job.recorder.level() {
                    TraceLevel::Off => Vec::new(),
                    _ => job.recorder.drain().encode_bin(),
                };
                let hub = job.recorder.hub();
                let metrics = match hub.is_enabled().then(|| hub.snapshot()) {
                    Some(snap) if !snap.is_empty() => snap.encode_bin(),
                    _ => Vec::new(),
                };
                write_message(&mut stream, &Message::JobDone { trace, metrics })?;
                return Ok(());
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
/// dial by a full round. The hub closing the connection first means the
/// fleet wound down before this node was admitted: a clean no-op, not
/// an error.
pub fn join(addr: &SocketAddr, behaviour: Behaviour) -> Result<(), DistError> {
    let mut stream = TcpStream::connect(addr)?;
    write_message(
        &mut stream,
        &Message::Join {
            token: String::new(),
        },
    )?;
    match read_message(&mut stream) {
        Ok((first, _)) => serve_session(stream, first, behaviour),
        Err(DistError::Io(e)) if is_hangup(&e) => Ok(()),
        Err(e) => Err(e),
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

    /// A one-thread `sum` job over a 4-row dataset written under `tag`.
    fn sum_job(tag: &str) -> JobSetup {
        let dataset =
            std::env::temp_dir().join(format!("cfr-node-{tag}-{}.frds", std::process::id()));
        freeride::source::write_dataset(&dataset, 1, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        JobSetup {
            task: "sum".into(),
            params: Vec::new(),
            layout: Task::Sum.layout().encode().unwrap(),
            dataset: dataset.to_string_lossy().into_owned(),
            threads: 1,
            trace_level: TraceLevel::Off,
            io: freeride::IoMode::Sync,
            backend: freeride::KernelBackend::Interpreted,
            scheme: freeride::SyncScheme::FullReplication,
            sparse_split: false,
        }
    }

    /// Open a session for `job` against a healthy agent, send `frames`
    /// after the setup exchange, and return the agent's last reply plus
    /// its exit status.
    fn reply_to(job: JobSetup, frames: &[Message]) -> (Message, Result<(), DistError>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_with(&listener, Behaviour::default()));
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, &Message::Hello { node_id: 0, job }).unwrap();
        let (mut reply, _) = read_message(&mut stream).unwrap();
        if reply == (Message::HelloAck { node_id: 0 }) {
            for f in frames {
                write_message(&mut stream, f).unwrap();
            }
            reply = read_message(&mut stream).unwrap().0;
        }
        (reply, server.join().unwrap())
    }

    #[test]
    fn session_rejects_unit_before_round_start() {
        let job = sum_job("unit-first");
        let dataset = job.dataset.clone();
        let (reply, exit) = reply_to(
            job,
            &[Message::Unit {
                round: 0,
                attempt: 0,
                first_row: 0,
                rows: 1,
            }],
        );
        std::fs::remove_file(dataset).ok();
        let Message::Error { message } = reply else {
            panic!("{reply:?}");
        };
        assert!(message.contains("Unit before RoundStart"), "{message}");
        assert!(exit.is_err());
    }

    /// A job the node cannot build is answered in the setup exchange:
    /// `Error` with the node's own reason instead of `HelloAck`.
    #[test]
    fn session_answers_an_unbuildable_job_with_its_reason() {
        let job = sum_job("unbuildable");
        let dataset = job.dataset.clone();
        std::fs::remove_file(&dataset).unwrap();
        let (reply, exit) = reply_to(job, &[]);
        let Message::Error { message } = reply else {
            panic!("{reply:?}");
        };
        assert!(message.contains("dataset I/O error"), "{message}");
        assert!(message.contains(&dataset), "{message}");
        assert!(exit.is_err());
    }

    /// Every session ends the same way: `EndJob` is answered with
    /// `JobDone`, and the node closes.
    #[test]
    fn session_ends_with_job_done() {
        let job = sum_job("end-job");
        let dataset = job.dataset.clone();
        let (reply, exit) = reply_to(job, &[Message::EndJob]);
        std::fs::remove_file(dataset).ok();
        assert!(matches!(reply, Message::JobDone { .. }), "{reply:?}");
        exit.unwrap();
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
