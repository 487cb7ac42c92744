//! The client ↔ server service protocol.
//!
//! Same framing discipline as the coordinator ↔ node protocol
//! (`freeride_dist::proto`), under its own magic so a client dialing
//! the wrong port fails fast:
//!
//! ```text
//! magic  b"FRSV"   4 bytes
//! version u8       1 byte   (WIRE_VERSION; mismatch is a typed error)
//! type    u8       1 byte   (message discriminant)
//! len     u32 LE   4 bytes  (payload length, bounded by MAX_FRAME_LEN)
//! payload          len bytes
//! ```
//!
//! Payload fields are little-endian with `u32` length prefixes on
//! strings and arrays. Job traces travel as `obs` trace codec frames,
//! reduction objects as the `freeride` robj cells codec's frames — both
//! nested opaquely, each with its own version. Decoding never panics on
//! malformed input; every failure is a [`ServeError::Protocol`] (or
//! [`ServeError::Io`] for socket errors).

use std::io::{Read, Write};

use obs::codec::{put_bytes, put_f64s, put_i64s, put_str, Cursor, Framing};

use crate::error::ServeError;

/// Frame magic.
pub const WIRE_MAGIC: &[u8; 4] = b"FRSV";
/// Protocol version; both sides must match exactly. v2 extends
/// [`ServerStatus`] with per-tenant quota rows and the queue order, and
/// adds the [`Message::Top`] / [`Message::TopReport`] pair carrying
/// per-job rows plus an `obs` FRMT metrics snapshot (the `cfr-top`
/// feed). v3 adds the kernel `backend` byte to both job specs, so a
/// submission can ask for the natively compiled kernel path (and the
/// compiled-program cache keys on it). v4 added per-node placement
/// weights to [`Message::TopReport`]; v5 drops them again and retires
/// the separate status query and its reply (type bytes 9 and 10), since
/// [`Message::TopReport`] carries the same [`ServerStatus`].
pub const WIRE_VERSION: u8 = 5;
/// Upper bound on a frame payload (64 MiB): a corrupt length field
/// fails fast instead of triggering a giant allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

const FRAMING: Framing = Framing {
    magic: WIRE_MAGIC,
    version: WIRE_VERSION,
    max_len: MAX_FRAME_LEN,
};

const TYPE_CLIENT_HELLO: u8 = 1;
const TYPE_WELCOME: u8 = 2;
const TYPE_SUBMIT: u8 = 3;
const TYPE_SUBMITTED: u8 = 4;
const TYPE_REJECTED: u8 = 5;
const TYPE_WAIT: u8 = 6;
const TYPE_JOB_RESULT: u8 = 7;
const TYPE_JOB_FAILED: u8 = 8;
// 9 and 10 were the status query and its reply, retired in v5.
const TYPE_DUMP_TRACE: u8 = 11;
const TYPE_TRACE_DUMP: u8 = 12;
const TYPE_STOP_SERVER: u8 = 13;
const TYPE_STOPPING: u8 = 14;
const TYPE_BYE: u8 = 15;
const TYPE_ERROR: u8 = 16;
const TYPE_TOP: u8 = 17;
const TYPE_TOP_REPORT: u8 = 18;

const SPEC_TASK: u8 = 0;
const SPEC_CHAPEL: u8 = 1;

/// What a client asks the server to run.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A registered cluster task (see `freeride_dist::tasks`) over a
    /// shared `.frds` dataset, run on the server's node fleet.
    Task {
        /// Registered task name (`"sum"`, `"kmeans"`, …).
        task: String,
        /// Job-constant integer parameters (e.g. `[k, d]` for k-means).
        params: Vec<i64>,
        /// Initial per-round state (e.g. starting centroids).
        init_state: Vec<f64>,
        /// Rounds of the outer sequential loop (min 1).
        rounds: u32,
        /// Path of the dataset file, readable by every node.
        dataset: String,
        /// Worker threads per node.
        threads_per_node: u32,
        /// Kernel backend for kernel-IR tasks on the fleet
        /// (`freeride::KernelBackend::to_wire` byte; hand-written tasks
        /// ignore it, and a byte that names no backend is rejected at
        /// admission).
        backend: u8,
    },
    /// A Chapel program, translated and run on the server (repeat
    /// submissions of the same source at the same opt level hit the
    /// server's compiled-program cache).
    Chapel {
        /// Chapel source text.
        source: String,
        /// `cfr_core::OptLevel` ordinal (0 generated, 1 opt-1, 2 opt-2).
        opt: u8,
        /// FREERIDE engine threads.
        threads: u32,
        /// Globals to return from the final interpreter state.
        globals: Vec<String>,
        /// Kernel backend for the offloaded reduction kernels
        /// (`freeride::KernelBackend::to_wire` byte). Part of the
        /// server's compiled-program cache key.
        backend: u8,
    },
}

/// One tenant's quota usage, as reported in [`ServerStatus`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStatus {
    /// Tenant name.
    pub tenant: String,
    /// Jobs admitted (queued + running) — counts against
    /// `tenant_max_queued`.
    pub active: u32,
    /// Jobs running right now — counts against `tenant_max_running`.
    pub running: u32,
}

/// Counters of [`Message::TopReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStatus {
    /// Jobs waiting in the queue.
    pub queued: u32,
    /// Jobs currently running.
    pub running: u32,
    /// Jobs finished successfully since start.
    pub completed: u32,
    /// Jobs finished in failure since start.
    pub failed: u32,
    /// Chapel submissions served from the compiled-program cache.
    pub program_cache_hits: u32,
    /// Chapel submissions that had to compile.
    pub program_cache_misses: u32,
    /// Dataset validations served from the dataset cache.
    pub dataset_cache_hits: u32,
    /// Dataset validations that had to read the file header.
    pub dataset_cache_misses: u32,
    /// Quota usage of every tenant with admitted jobs (v2).
    pub tenants: Vec<TenantStatus>,
    /// Job ids waiting in the queue, in scheduling order (v2) — a
    /// client finds its own job's queue position by index.
    pub queue: Vec<u64>,
}

/// Lifecycle ordinals of [`JobRow::state`].
pub mod job_state {
    /// Waiting in the queue.
    pub const QUEUED: u8 = 0;
    /// Running on the fleet.
    pub const RUNNING: u8 = 1;
    /// Finished successfully.
    pub const DONE: u8 = 2;
    /// Finished in failure.
    pub const FAILED: u8 = 3;

    /// Render an ordinal for tables.
    pub fn name(state: u8) -> &'static str {
        match state {
            QUEUED => "queued",
            RUNNING => "running",
            DONE => "done",
            FAILED => "failed",
            _ => "?",
        }
    }
}

/// One job's row in a [`Message::TopReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRow {
    /// Job id.
    pub job_id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state (see [`job_state`]).
    pub state: u8,
}

/// One service protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: open a session.
    ClientHello {
        /// Quota-accounting identity of the submitter.
        tenant: String,
        /// Shared-secret token (must match the server's, empty = open).
        token: String,
    },
    /// Server → client: session accepted.
    Welcome {
        /// Assigned session id.
        session: u64,
    },
    /// Client → server: submit a job.
    Submit {
        /// What to run.
        spec: JobSpec,
    },
    /// Server → client: job admitted and queued.
    Submitted {
        /// Assigned job id (also the job's `pid` track in the server
        /// trace).
        job_id: u64,
    },
    /// Server → client: submission refused (quota, validation,
    /// stopping). The session stays open.
    Rejected {
        /// Why.
        reason: String,
    },
    /// Client → server: block until the job finishes.
    Wait {
        /// Job to wait for.
        job_id: u64,
    },
    /// Server → client: the job finished successfully.
    JobResult {
        /// Echo of the job id.
        job_id: u64,
        /// Final state after the last `step` (task jobs; empty for
        /// Chapel jobs).
        state: Vec<f64>,
        /// Final merged reduction object as a `freeride` cells frame
        /// (task jobs; empty for Chapel jobs).
        robj: Vec<u8>,
        /// Requested globals, each flattened to its numeric values
        /// (Chapel jobs; empty for task jobs).
        globals: Vec<(String, Vec<f64>)>,
        /// The job's own trace as an `obs` trace codec frame (empty
        /// when tracing is off).
        trace: Vec<u8>,
    },
    /// Server → client: the job ran and failed.
    JobFailed {
        /// Echo of the job id.
        job_id: u64,
        /// The failure, rendered.
        message: String,
    },
    /// Client → server: ask for the accumulated server trace.
    DumpTrace,
    /// Server → client: the server trace (server spans on `pid` 0, each
    /// job flattened onto `pid` = job id) as Chrome trace JSON.
    TraceDump {
        /// `Trace::chrome_json` output.
        chrome_json: String,
    },
    /// Client → server: stop accepting jobs and shut down once running
    /// jobs drain.
    StopServer,
    /// Server → client: shutdown acknowledged.
    Stopping,
    /// Client → server: close this session.
    Bye,
    /// Either direction: abort with a description.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Client → server: ask for the live telemetry view (the `cfr-top`
    /// and `cfr-submit --status` feed).
    Top,
    /// Server → client: the live view.
    TopReport {
        /// Queue/cache/tenant counters.
        status: ServerStatus,
        /// One row per job the server still remembers, in job-id
        /// order.
        jobs: Vec<JobRow>,
        /// The server's aggregated live metrics as an `obs` FRMT
        /// snapshot frame (`MetricsSnapshot::decode_bin`); empty when
        /// the metrics hub is disabled.
        metrics: Vec<u8>,
    },
}

fn perr<T>(reason: String) -> Result<T, ServeError> {
    Err(ServeError::Protocol { reason })
}

// ---- payload writers -------------------------------------------------

fn put_status(out: &mut Vec<u8>, status: &ServerStatus) {
    for v in [
        status.queued,
        status.running,
        status.completed,
        status.failed,
        status.program_cache_hits,
        status.program_cache_misses,
        status.dataset_cache_hits,
        status.dataset_cache_misses,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(status.tenants.len() as u32).to_le_bytes());
    for t in &status.tenants {
        put_str(out, &t.tenant);
        out.extend_from_slice(&t.active.to_le_bytes());
        out.extend_from_slice(&t.running.to_le_bytes());
    }
    out.extend_from_slice(&(status.queue.len() as u32).to_le_bytes());
    for id in &status.queue {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

fn put_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    match spec {
        JobSpec::Task {
            task,
            params,
            init_state,
            rounds,
            dataset,
            threads_per_node,
            backend,
        } => {
            out.push(SPEC_TASK);
            put_str(out, task);
            put_i64s(out, params);
            put_f64s(out, init_state);
            out.extend_from_slice(&rounds.to_le_bytes());
            put_str(out, dataset);
            out.extend_from_slice(&threads_per_node.to_le_bytes());
            out.push(*backend);
        }
        JobSpec::Chapel {
            source,
            opt,
            threads,
            globals,
            backend,
        } => {
            out.push(SPEC_CHAPEL);
            put_str(out, source);
            out.push(*opt);
            out.extend_from_slice(&threads.to_le_bytes());
            out.extend_from_slice(&(globals.len() as u32).to_le_bytes());
            for g in globals {
                put_str(out, g);
            }
            out.push(*backend);
        }
    }
}

// ---- payload readers -------------------------------------------------

fn read_spec(r: &mut Cursor<'_>) -> Result<JobSpec, ServeError> {
    match r.u8("spec tag")? {
        SPEC_TASK => Ok(JobSpec::Task {
            task: r.str(MAX_FRAME_LEN, "task")?.into(),
            params: r.i64s(MAX_FRAME_LEN, "params")?,
            init_state: r.f64s(MAX_FRAME_LEN, "init_state")?,
            rounds: r.u32("rounds")?,
            dataset: r.str(MAX_FRAME_LEN, "dataset")?.into(),
            threads_per_node: r.u32("threads_per_node")?,
            backend: r.u8("backend")?,
        }),
        SPEC_CHAPEL => {
            let source = r.str(MAX_FRAME_LEN, "source")?.into();
            let opt = r.u8("opt")?;
            let threads = r.u32("threads")?;
            let n = r.count(MAX_FRAME_LEN, 4, "globals")?;
            let mut globals = Vec::with_capacity(n);
            for _ in 0..n {
                globals.push(r.str(MAX_FRAME_LEN, "global name")?.into());
            }
            let backend = r.u8("backend")?;
            Ok(JobSpec::Chapel {
                source,
                opt,
                threads,
                globals,
                backend,
            })
        }
        other => perr(format!("unknown job spec tag {other}")),
    }
}

fn read_status(r: &mut Cursor<'_>) -> Result<ServerStatus, ServeError> {
    let mut status = ServerStatus {
        queued: r.u32("queued")?,
        running: r.u32("running")?,
        completed: r.u32("completed")?,
        failed: r.u32("failed")?,
        program_cache_hits: r.u32("program_cache_hits")?,
        program_cache_misses: r.u32("program_cache_misses")?,
        dataset_cache_hits: r.u32("dataset_cache_hits")?,
        dataset_cache_misses: r.u32("dataset_cache_misses")?,
        tenants: Vec::new(),
        queue: Vec::new(),
    };
    let n = r.count(MAX_FRAME_LEN, 12, "tenant count")?;
    for _ in 0..n {
        status.tenants.push(TenantStatus {
            tenant: r.str(MAX_FRAME_LEN, "tenant")?.into(),
            active: r.u32("tenant active")?,
            running: r.u32("tenant running")?,
        });
    }
    let n = r.count(MAX_FRAME_LEN, 8, "queue length")?;
    status.queue = r.u64_array(n, "queue")?;
    Ok(status)
}

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::ClientHello { .. } => TYPE_CLIENT_HELLO,
            Message::Welcome { .. } => TYPE_WELCOME,
            Message::Submit { .. } => TYPE_SUBMIT,
            Message::Submitted { .. } => TYPE_SUBMITTED,
            Message::Rejected { .. } => TYPE_REJECTED,
            Message::Wait { .. } => TYPE_WAIT,
            Message::JobResult { .. } => TYPE_JOB_RESULT,
            Message::JobFailed { .. } => TYPE_JOB_FAILED,
            Message::DumpTrace => TYPE_DUMP_TRACE,
            Message::TraceDump { .. } => TYPE_TRACE_DUMP,
            Message::StopServer => TYPE_STOP_SERVER,
            Message::Stopping => TYPE_STOPPING,
            Message::Bye => TYPE_BYE,
            Message::Error { .. } => TYPE_ERROR,
            Message::Top => TYPE_TOP,
            Message::TopReport { .. } => TYPE_TOP_REPORT,
        }
    }

    /// A short name for "waiting for X" diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::ClientHello { .. } => "ClientHello",
            Message::Welcome { .. } => "Welcome",
            Message::Submit { .. } => "Submit",
            Message::Submitted { .. } => "Submitted",
            Message::Rejected { .. } => "Rejected",
            Message::Wait { .. } => "Wait",
            Message::JobResult { .. } => "JobResult",
            Message::JobFailed { .. } => "JobFailed",
            Message::DumpTrace => "DumpTrace",
            Message::TraceDump { .. } => "TraceDump",
            Message::StopServer => "StopServer",
            Message::Stopping => "Stopping",
            Message::Bye => "Bye",
            Message::Error { .. } => "Error",
            Message::Top => "Top",
            Message::TopReport { .. } => "TopReport",
        }
    }

    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::ClientHello { tenant, token } => {
                put_str(out, tenant);
                put_str(out, token);
            }
            Message::Welcome { session } => out.extend_from_slice(&session.to_le_bytes()),
            Message::Submit { spec } => put_spec(out, spec),
            Message::Submitted { job_id } => out.extend_from_slice(&job_id.to_le_bytes()),
            Message::Rejected { reason } => put_str(out, reason),
            Message::Wait { job_id } => out.extend_from_slice(&job_id.to_le_bytes()),
            Message::JobResult {
                job_id,
                state,
                robj,
                globals,
                trace,
            } => {
                out.extend_from_slice(&job_id.to_le_bytes());
                put_f64s(out, state);
                put_bytes(out, robj);
                out.extend_from_slice(&(globals.len() as u32).to_le_bytes());
                for (name, values) in globals {
                    put_str(out, name);
                    put_f64s(out, values);
                }
                put_bytes(out, trace);
            }
            Message::JobFailed { job_id, message } => {
                out.extend_from_slice(&job_id.to_le_bytes());
                put_str(out, message);
            }
            Message::TopReport {
                status,
                jobs,
                metrics,
            } => {
                put_status(out, status);
                out.extend_from_slice(&(jobs.len() as u32).to_le_bytes());
                for j in jobs {
                    out.extend_from_slice(&j.job_id.to_le_bytes());
                    put_str(out, &j.tenant);
                    out.push(j.state);
                }
                put_bytes(out, metrics);
            }
            Message::TraceDump { chrome_json } => put_str(out, chrome_json),
            Message::Error { message } => put_str(out, message),
            Message::DumpTrace
            | Message::StopServer
            | Message::Stopping
            | Message::Bye
            | Message::Top => {}
        }
    }

    /// Serialize the full frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        FRAMING.encode(self.type_byte(), |out| self.put_payload(out))
    }

    fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Message, ServeError> {
        let mut r = Cursor::new(payload);
        let msg = match type_byte {
            TYPE_CLIENT_HELLO => Message::ClientHello {
                tenant: r.str(MAX_FRAME_LEN, "tenant")?.into(),
                token: r.str(MAX_FRAME_LEN, "token")?.into(),
            },
            TYPE_WELCOME => Message::Welcome {
                session: r.u64("session")?,
            },
            TYPE_SUBMIT => Message::Submit {
                spec: read_spec(&mut r)?,
            },
            TYPE_SUBMITTED => Message::Submitted {
                job_id: r.u64("job_id")?,
            },
            TYPE_REJECTED => Message::Rejected {
                reason: r.str(MAX_FRAME_LEN, "reason")?.into(),
            },
            TYPE_WAIT => Message::Wait {
                job_id: r.u64("job_id")?,
            },
            TYPE_JOB_RESULT => {
                let job_id = r.u64("job_id")?;
                let state = r.f64s(MAX_FRAME_LEN, "state")?;
                let robj = r.bytes(MAX_FRAME_LEN, "robj")?.to_vec();
                let n = r.count(MAX_FRAME_LEN, 8, "globals")?;
                let mut globals = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str(MAX_FRAME_LEN, "global name")?.into();
                    let values = r.f64s(MAX_FRAME_LEN, "global values")?;
                    globals.push((name, values));
                }
                let trace = r.bytes(MAX_FRAME_LEN, "trace")?.to_vec();
                Message::JobResult {
                    job_id,
                    state,
                    robj,
                    globals,
                    trace,
                }
            }
            TYPE_JOB_FAILED => Message::JobFailed {
                job_id: r.u64("job_id")?,
                message: r.str(MAX_FRAME_LEN, "message")?.into(),
            },
            TYPE_TOP => Message::Top,
            TYPE_TOP_REPORT => {
                let status = read_status(&mut r)?;
                let n = r.count(MAX_FRAME_LEN, 13, "job rows")?;
                let mut jobs = Vec::with_capacity(n);
                for _ in 0..n {
                    jobs.push(JobRow {
                        job_id: r.u64("job_id")?,
                        tenant: r.str(MAX_FRAME_LEN, "tenant")?.into(),
                        state: r.u8("job state")?,
                    });
                }
                let metrics = r.bytes(MAX_FRAME_LEN, "metrics")?.to_vec();
                Message::TopReport {
                    status,
                    jobs,
                    metrics,
                }
            }
            TYPE_DUMP_TRACE => Message::DumpTrace,
            TYPE_TRACE_DUMP => Message::TraceDump {
                chrome_json: r.str(MAX_FRAME_LEN, "chrome_json")?.into(),
            },
            TYPE_STOP_SERVER => Message::StopServer,
            TYPE_STOPPING => Message::Stopping,
            TYPE_BYE => Message::Bye,
            TYPE_ERROR => Message::Error {
                message: r.str(MAX_FRAME_LEN, "message")?.into(),
            },
            other => return perr(format!("unknown message type {other}")),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Write one frame, returning the number of bytes put on the wire.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<usize, ServeError> {
    let frame = msg.encode();
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Read one frame. Malformed headers and payloads are
/// [`ServeError::Protocol`]; socket failures are [`ServeError::Io`].
pub fn read_message(r: &mut impl Read) -> Result<Message, ServeError> {
    let (type_byte, payload) = FRAMING.read::<ServeError>(r)?;
    Message::decode_payload(type_byte, &payload)
}

#[cfg(test)]
mod proto_tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::ClientHello {
                tenant: "alice".into(),
                token: "s3cret".into(),
            },
            Message::Welcome { session: 9 },
            Message::Submit {
                spec: JobSpec::Task {
                    task: "kmeans".into(),
                    params: vec![3, 2],
                    init_state: vec![0.5, -1.0],
                    rounds: 4,
                    dataset: "/tmp/points.frds".into(),
                    threads_per_node: 2,
                    backend: 1,
                },
            },
            Message::Submit {
                spec: JobSpec::Chapel {
                    source: "var total: real = + reduce A;".into(),
                    opt: 2,
                    threads: 3,
                    globals: vec!["total".into()],
                    backend: 0,
                },
            },
            Message::Submitted { job_id: 12 },
            Message::Rejected {
                reason: "tenant queue full".into(),
            },
            Message::Wait { job_id: 12 },
            Message::JobResult {
                job_id: 12,
                state: vec![1.0, 2.0],
                robj: vec![7, 8],
                globals: vec![("total".into(), vec![42.0])],
                trace: vec![1, 2, 3],
            },
            Message::JobFailed {
                job_id: 12,
                message: "node 1 died".into(),
            },
            Message::Top,
            Message::TopReport {
                status: ServerStatus {
                    queued: 1,
                    running: 2,
                    completed: 3,
                    failed: 4,
                    program_cache_hits: 5,
                    program_cache_misses: 6,
                    dataset_cache_hits: 7,
                    dataset_cache_misses: 8,
                    tenants: vec![
                        TenantStatus {
                            tenant: "alice".into(),
                            active: 2,
                            running: 1,
                        },
                        TenantStatus {
                            tenant: "bob".into(),
                            active: 1,
                            running: 0,
                        },
                    ],
                    queue: vec![12, 13],
                },
                jobs: vec![
                    JobRow {
                        job_id: 12,
                        tenant: "alice".into(),
                        state: job_state::RUNNING,
                    },
                    JobRow {
                        job_id: 13,
                        tenant: "alice".into(),
                        state: job_state::QUEUED,
                    },
                ],
                metrics: vec![b'F', b'R', b'M', b'T', 1],
            },
            Message::DumpTrace,
            Message::TraceDump {
                chrome_json: "{\"traceEvents\":[]}".into(),
            },
            Message::StopServer,
            Message::Stopping,
            Message::Bye,
            Message::Error {
                message: "bad hello".into(),
            },
        ]
    }

    #[test]
    fn round_trip_over_a_buffer() {
        let msgs = samples();
        let mut wire = Vec::new();
        for m in &msgs {
            write_message(&mut wire, m).unwrap();
        }
        let mut cursor = &wire[..];
        for m in &msgs {
            let back = read_message(&mut cursor).unwrap();
            assert_eq!(&back, m);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = Message::Top.encode();
        frame[0] = b'X';
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err}");
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut frame = Message::Top.encode();
        frame[4] = 42;
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn retired_status_types_are_unknown() {
        // v5 retired the status query (9) and its reply (10): `Top`
        // carries the same counters. Both bytes are now unknown types,
        // with or without a payload.
        assert_eq!(WIRE_VERSION, 5);
        for type_byte in [9u8, 10] {
            for payload in [&[][..], &[0u8; 48][..]] {
                let frame = FRAMING.encode(type_byte, |out| out.extend_from_slice(payload));
                let err = read_message(&mut &frame[..]).unwrap_err();
                assert!(
                    err.to_string().contains("unknown message type"),
                    "type {type_byte}: {err}"
                );
            }
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut frame = Message::Top.encode();
        frame[5] = 200;
        assert!(matches!(
            read_message(&mut &frame[..]),
            Err(ServeError::Protocol { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocating() {
        let mut frame = Message::Top.encode();
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");
    }

    #[test]
    fn truncated_frames_never_panic() {
        for msg in samples() {
            let frame = msg.encode();
            for n in 0..frame.len() {
                assert!(
                    read_message(&mut &frame[..n]).is_err(),
                    "{}[..{n}]",
                    msg.kind_name()
                );
            }
        }
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut frame = Message::Welcome { session: 1 }.encode();
        frame.push(0);
        let len = (frame.len() - 10) as u32;
        frame[6..10].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            read_message(&mut &frame[..]),
            Err(ServeError::Protocol { .. })
        ));
    }

    #[test]
    fn unknown_spec_tag_rejected() {
        let msg = Message::Submit {
            spec: JobSpec::Chapel {
                source: "x".into(),
                opt: 0,
                threads: 1,
                globals: vec![],
                backend: 0,
            },
        };
        let mut frame = msg.encode();
        frame[10] = 99; // the spec tag is the first payload byte
        assert!(matches!(
            read_message(&mut &frame[..]),
            Err(ServeError::Protocol { .. })
        ));
    }
}
