//! The coordinator ↔ node wire protocol.
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! magic  b"FRDM"   4 bytes
//! version u8       1 byte   (WIRE_VERSION; mismatch is a typed error)
//! type    u8       1 byte   (message discriminant)
//! len     u32 LE   4 bytes  (payload length, bounded by MAX_FRAME_LEN)
//! payload          len bytes
//! ```
//!
//! Payload fields are little-endian with `u32` length prefixes on
//! strings and arrays. Reduction-object cells travel as the `freeride`
//! robj codec's frames, node traces as the `obs` trace codec's frames —
//! both nested opaquely inside `payload`, each with its own version.
//! Decoding never panics on malformed input; every failure is a
//! [`DistError::Protocol`] (or [`DistError::Io`] for socket errors).

use std::io::{Read, Write};

use obs::codec::{put_bytes, put_f64s, put_i64s, put_str, Cursor, Framing, FRAME_HEADER_LEN};
use obs::TraceLevel;

use crate::error::DistError;

/// Frame magic.
pub const WIRE_MAGIC: &[u8; 4] = b"FRDM";
/// Protocol version; both sides must match exactly. Version 2 added
/// round `attempt` counters and explicit per-round shard lists for
/// fault-tolerant shard reassignment. Version 3 added live telemetry:
/// node-measured `elapsed_ns` on round results (the straggler signal),
/// periodic `Stats` metrics frames, a push-cadence field on `Job`, and the
/// node's final metrics snapshot on `JobDone`. Version 4 added the
/// kernel `backend` byte on `Job`, so a coordinator can ask the fleet
/// to run kernel-IR tasks through the native codegen path. Version 5
/// added the sparse-tier plan fields on `Job`: the reduction-object
/// sync scheme chosen by the coordinator-side inspector (`scheme` +
/// its three scalar operands) and the `splitter` byte asking the node
/// to cut thread splits by the nonzero weights in the dataset's
/// `.frsp` sidecar instead of by row count. Version 6 added the
/// elastic-scheduling surface: the `Join`/`Leave` membership
/// handshake (`cfr-node --join` dials the coordinator's membership
/// hub mid-job) and the work-unit round shape
/// (`RoundStart`/`Unit`/`UnitResult`/`RoundEnd`) that lets fast nodes
/// steal a straggler's remaining rows one sub-range at a time.
/// Version 7 made that work-unit shape the only round dialogue: the
/// monolithic one-request-one-result round pair (type bytes 4 and 5,
/// never reused) and the `Job`-time shard fallback it read are gone —
/// a steal-off round is the same dialogue with one unit per shard.
/// Version 8 dropped that push-cadence field from `Job`. Version 9 made
/// every node answer every `RoundEnd` with one `RoundDone`, which
/// carries its leave intent and its metrics: the `Stats` push and the
/// mid-round `Leave` (type bytes 10 and 12, never reused) are gone, and
/// a node leaves only at a round barrier. Version 10 folded `Job` into
/// `Hello`: the job rides in the session's one setup frame, the node
/// builds it before answering `HelloAck` (or `Error`), and its io-mode,
/// backend, scheme and splitter bytes decode strictly. `Job`'s type
/// byte 3 is retired.
pub const WIRE_VERSION: u8 = 10;
/// Upper bound on a frame payload (64 MiB): a corrupt length field
/// fails fast instead of triggering a giant allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

const FRAMING: Framing = Framing {
    magic: WIRE_MAGIC,
    version: WIRE_VERSION,
    max_len: MAX_FRAME_LEN,
};

const TYPE_HELLO: u8 = 1;
const TYPE_HELLO_ACK: u8 = 2;
// 3 was `Job`, folded into `Hello` in v10; 4 and 5 were the monolithic
// round pair retired in v7, 10 and 12 the `Stats` push and `Leave`
// retired in v9. They decode to the unknown-type error and are never
// reassigned.
const TYPE_END_JOB: u8 = 6;
const TYPE_JOB_DONE: u8 = 7;
const TYPE_SHUTDOWN: u8 = 8;
const TYPE_ERROR: u8 = 9;
const TYPE_JOIN: u8 = 11;
const TYPE_ROUND_START: u8 = 13;
const TYPE_UNIT: u8 = 14;
const TYPE_UNIT_RESULT: u8 = 15;
const TYPE_ROUND_END: u8 = 16;
const TYPE_ROUND_DONE: u8 = 17;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Coordinator → node: open a session. Assigns the node its
    /// cluster index and carries the job; the node builds the job
    /// before it answers `HelloAck`, or `Error` when it cannot.
    Hello {
        /// Index of this node in the cluster (also its trace `pid` - 1).
        node_id: u32,
        /// The job the following rounds run.
        job: JobSetup,
    },
    /// Node → coordinator: the job is built and the session accepted.
    HelloAck {
        /// Echo of the assigned index.
        node_id: u32,
    },
    /// Coordinator → node: no more rounds (or this node leaves at the
    /// barrier); answer with `JobDone` and close the session.
    EndJob,
    /// Node → coordinator: job teardown, carrying the node's drained
    /// trace as an `obs` trace codec frame (empty when tracing is off).
    JobDone {
        /// Trace frame (`Trace::encode_bin`), possibly empty.
        trace: Vec<u8>,
        /// Final `FRMT` metrics frame (`MetricsSnapshot::encode_bin`)
        /// of the node's live hub, possibly empty.
        metrics: Vec<u8>,
    },
    /// Coordinator → node: abort the session without a `JobDone` (the
    /// goodbye a failed job's fleet sends every node still connected).
    Shutdown,
    /// Either direction: abort with a description. The receiver
    /// surfaces it as [`DistError::Node`] (coordinator side) or ends
    /// the session (node side).
    Error {
        /// What went wrong.
        message: String,
    },
    /// Joiner → coordinator: first frame on a connection dialed at the
    /// membership hub (`cfr-node --join`). The coordinator opens the
    /// normal session with `Hello` at the next round barrier.
    Join {
        /// Free-form admission token (empty today; reserved for auth).
        token: String,
    },
    /// Coordinator → node: open one round. The node builds the round's
    /// kernel from `state` and then answers each `Unit` until
    /// `RoundEnd`. Unacknowledged.
    RoundStart {
        /// Round number, starting at 0.
        round: u32,
        /// Monotonic delivery attempt. After a node failure the
        /// coordinator re-runs the round under a higher attempt;
        /// results from an aborted attempt are drained and discarded
        /// by the `(round, attempt)` echo.
        attempt: u32,
        /// Per-round broadcast state vector.
        state: Vec<f64>,
    },
    /// Coordinator → node: reduce one work unit of the current round —
    /// a whole shard, or a grain-sized sub-range of one when stealing
    /// is on. Units carry the **absolute** first row, so the
    /// coordinator can merge all results in ascending `first_row`
    /// order and keep the global combine fold — and hence every
    /// floating-point rounding — a pure function of the unit set, not
    /// of which node ran what. That is what makes recovered, stolen
    /// and churned runs bit-identical to undisturbed ones.
    Unit {
        /// Echo of the round number.
        round: u32,
        /// Echo of the delivery attempt.
        attempt: u32,
        /// Absolute first row of the unit.
        first_row: u64,
        /// Rows in the unit.
        rows: u64,
    },
    /// Node → coordinator: the local reduction of one work unit.
    UnitResult {
        /// Echo of the round number.
        round: u32,
        /// Echo of the delivery attempt.
        attempt: u32,
        /// Echo of the unit's absolute first row.
        first_row: u64,
        /// Node-measured wall time of this unit's reduction,
        /// nanoseconds (summed per node per round, it feeds the
        /// straggler detector).
        elapsed_ns: u64,
        /// The unit's reduction cells as a `freeride` robj codec frame.
        cells: Vec<u8>,
    },
    /// Coordinator → node: the current round is drained; answer with
    /// `RoundDone`, then await the next `RoundStart` (or `EndJob`).
    RoundEnd {
        /// Echo of the round number.
        round: u32,
        /// Echo of the delivery attempt.
        attempt: u32,
    },
    /// Node → coordinator: the one reply of every node to every
    /// `RoundEnd`, whether or not the node ran a unit. The coordinator
    /// drains a stale one by the same `(round, attempt)` rule as a
    /// stale `UnitResult`.
    RoundDone {
        /// Echo of the round number.
        round: u32,
        /// Echo of the delivery attempt.
        attempt: u32,
        /// The node leaves at this barrier: after the round's merge the
        /// coordinator ends its session (`EndJob` → `JobDone`) and hands
        /// its shards to survivors, without burning a retry.
        leave: bool,
        /// `FRMT` metrics frame of the node's hub after this round
        /// (empty while the hub is off). The last one of a node that
        /// dies is all the coordinator keeps of it.
        metrics: Vec<u8>,
    },
}

/// The job a session's [`Message::Hello`] carries: everything a node
/// needs to build its engine and the task before round 0.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSetup {
    /// Registered task name (see `crate::tasks`).
    pub task: String,
    /// Job-constant integer parameters (e.g. `[k, d]` for k-means).
    pub params: Vec<i64>,
    /// The reduction-object layout, as a `freeride` robj codec layout
    /// frame (checked against the task's own layout).
    pub layout: Vec<u8>,
    /// Path of the shared dataset file (`.frds`), readable by the node.
    pub dataset: String,
    /// Worker threads for the node's local engine.
    pub threads: u32,
    /// Level of the node's recorder (one byte: 0 off, 1 phases, 2
    /// splits).
    pub trace_level: TraceLevel,
    /// Shard I/O path (a mode byte, 0 sync or 1 streaming, then the
    /// streaming chunk rows, buffers and readers).
    pub io: freeride::IoMode,
    /// Kernel backend for kernel-IR tasks (closure tasks ignore it).
    pub backend: freeride::KernelBackend,
    /// Reduction-object sync scheme (a discriminant byte and three
    /// scalar operands).
    pub scheme: freeride::SyncScheme,
    /// Cut thread splits by the nonzero weights of the dataset's
    /// `.frsp` sidecar instead of by row count (one byte).
    pub sparse_split: bool,
}

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => TYPE_HELLO,
            Message::HelloAck { .. } => TYPE_HELLO_ACK,
            Message::EndJob => TYPE_END_JOB,
            Message::JobDone { .. } => TYPE_JOB_DONE,
            Message::Shutdown => TYPE_SHUTDOWN,
            Message::Error { .. } => TYPE_ERROR,
            Message::Join { .. } => TYPE_JOIN,
            Message::RoundStart { .. } => TYPE_ROUND_START,
            Message::Unit { .. } => TYPE_UNIT,
            Message::UnitResult { .. } => TYPE_UNIT_RESULT,
            Message::RoundEnd { .. } => TYPE_ROUND_END,
            Message::RoundDone { .. } => TYPE_ROUND_DONE,
        }
    }

    /// A short name for "waiting for X" diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::HelloAck { .. } => "HelloAck",
            Message::EndJob => "EndJob",
            Message::JobDone { .. } => "JobDone",
            Message::Shutdown => "Shutdown",
            Message::Error { .. } => "Error",
            Message::Join { .. } => "Join",
            Message::RoundStart { .. } => "RoundStart",
            Message::Unit { .. } => "Unit",
            Message::UnitResult { .. } => "UnitResult",
            Message::RoundEnd { .. } => "RoundEnd",
            Message::RoundDone { .. } => "RoundDone",
        }
    }

    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { node_id, job } => {
                out.extend_from_slice(&node_id.to_le_bytes());
                put_job(out, job);
            }
            Message::HelloAck { node_id } => out.extend_from_slice(&node_id.to_le_bytes()),
            Message::EndJob | Message::Shutdown => {}
            Message::JobDone { trace, metrics } => {
                put_bytes(out, trace);
                put_bytes(out, metrics);
            }
            Message::Error { message } => put_str(out, message),
            Message::Join { token } => put_str(out, token),
            Message::RoundStart {
                round,
                attempt,
                state,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
                put_f64s(out, state);
            }
            Message::Unit {
                round,
                attempt,
                first_row,
                rows,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
                out.extend_from_slice(&first_row.to_le_bytes());
                out.extend_from_slice(&rows.to_le_bytes());
            }
            Message::UnitResult {
                round,
                attempt,
                first_row,
                elapsed_ns,
                cells,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
                out.extend_from_slice(&first_row.to_le_bytes());
                out.extend_from_slice(&elapsed_ns.to_le_bytes());
                put_bytes(out, cells);
            }
            Message::RoundEnd { round, attempt } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
            }
            Message::RoundDone {
                round,
                attempt,
                leave,
                metrics,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
                out.push(u8::from(*leave));
                put_bytes(out, metrics);
            }
        }
    }

    /// Serialize the full frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        FRAMING.encode(self.type_byte(), |out| self.put_payload(out))
    }

    /// Decode a payload of the given frame type.
    fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Message, DistError> {
        let mut r = Cursor::new(payload);
        let msg = match type_byte {
            TYPE_HELLO => Message::Hello {
                node_id: r.u32("node_id")?,
                job: read_job(&mut r)?,
            },
            TYPE_HELLO_ACK => Message::HelloAck {
                node_id: r.u32("node_id")?,
            },
            TYPE_END_JOB => Message::EndJob,
            TYPE_JOB_DONE => Message::JobDone {
                trace: r.bytes(MAX_FRAME_LEN, "trace")?.to_vec(),
                metrics: r.bytes(MAX_FRAME_LEN, "metrics")?.to_vec(),
            },
            TYPE_SHUTDOWN => Message::Shutdown,
            TYPE_ERROR => Message::Error {
                message: r.str(MAX_FRAME_LEN, "message")?.into(),
            },
            TYPE_JOIN => Message::Join {
                token: r.str(MAX_FRAME_LEN, "token")?.into(),
            },
            TYPE_ROUND_START => Message::RoundStart {
                round: r.u32("round")?,
                attempt: r.u32("attempt")?,
                state: r.f64s(MAX_FRAME_LEN, "state")?,
            },
            TYPE_UNIT => Message::Unit {
                round: r.u32("round")?,
                attempt: r.u32("attempt")?,
                first_row: r.u64("first_row")?,
                rows: r.u64("rows")?,
            },
            TYPE_UNIT_RESULT => Message::UnitResult {
                round: r.u32("round")?,
                attempt: r.u32("attempt")?,
                first_row: r.u64("first_row")?,
                elapsed_ns: r.u64("elapsed_ns")?,
                cells: r.bytes(MAX_FRAME_LEN, "cells")?.to_vec(),
            },
            TYPE_ROUND_END => Message::RoundEnd {
                round: r.u32("round")?,
                attempt: r.u32("attempt")?,
            },
            TYPE_ROUND_DONE => Message::RoundDone {
                round: r.u32("round")?,
                attempt: r.u32("attempt")?,
                leave: match r.u8("leave")? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(DistError::Protocol {
                            reason: format!("bad leave flag {other}"),
                        })
                    }
                },
                metrics: r.bytes(MAX_FRAME_LEN, "metrics")?.to_vec(),
            },
            other => {
                return Err(DistError::Protocol {
                    reason: format!("unknown message type {other}"),
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Write one frame, returning the number of bytes put on the wire.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<usize, DistError> {
    let frame = msg.encode();
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

fn put_job(out: &mut Vec<u8>, job: &JobSetup) {
    put_str(out, &job.task);
    put_i64s(out, &job.params);
    put_bytes(out, &job.layout);
    put_str(out, &job.dataset);
    out.extend_from_slice(&job.threads.to_le_bytes());
    out.push(trace_level_to_wire(job.trace_level));
    let (io_mode, chunk_rows, buffers, readers) = match job.io {
        freeride::IoMode::Sync => (0u8, 0u64, 0u32, 0u32),
        freeride::IoMode::Streaming {
            chunk_rows,
            buffers,
            readers,
        } => (1, chunk_rows as u64, buffers as u32, readers as u32),
    };
    out.push(io_mode);
    out.extend_from_slice(&chunk_rows.to_le_bytes());
    out.extend_from_slice(&buffers.to_le_bytes());
    out.extend_from_slice(&readers.to_le_bytes());
    out.push(job.backend.to_wire());
    let (scheme, stripes, cells, mask) = scheme_to_wire(job.scheme);
    out.push(scheme);
    out.extend_from_slice(&stripes.to_le_bytes());
    out.extend_from_slice(&cells.to_le_bytes());
    out.extend_from_slice(&mask.to_le_bytes());
    out.push(u8::from(job.sparse_split));
}

/// Decode a [`JobSetup`]. Every enumerated byte must name a value this
/// build knows: an unknown io mode, backend, scheme or splitter byte,
/// or a scheme with degenerate operands, is a [`DistError::Protocol`],
/// so a corrupt or skewed frame never starts a job on a fallback.
fn read_job(r: &mut Cursor<'_>) -> Result<JobSetup, DistError> {
    let task = r.str(MAX_FRAME_LEN, "task")?.into();
    let params = r.i64s(MAX_FRAME_LEN, "params")?;
    let layout = r.bytes(MAX_FRAME_LEN, "layout")?.to_vec();
    let dataset = r.str(MAX_FRAME_LEN, "dataset")?.into();
    let threads = r.u32("threads")?;
    let trace_level = trace_level_from_wire(r.u8("trace_level")?)?;
    let io_mode = r.u8("io_mode")?;
    let streaming = freeride::IoMode::Streaming {
        chunk_rows: r.u64("chunk_rows")? as usize,
        buffers: r.u32("buffers")? as usize,
        readers: r.u32("readers")? as usize,
    };
    let io = match io_mode {
        0 => freeride::IoMode::Sync,
        1 => streaming,
        other => return Err(bad("io mode", other)),
    };
    let byte = r.u8("backend")?;
    let backend =
        freeride::KernelBackend::from_wire(byte).ok_or_else(|| bad("kernel backend", byte))?;
    let scheme = scheme_from_wire(
        r.u8("scheme")?,
        r.u64("scheme_stripes")?,
        r.u64("scheme_cells")?,
        r.u64("scheme_mask")?,
    )?;
    let sparse_split = match r.u8("splitter")? {
        0 => false,
        1 => true,
        other => return Err(bad("splitter", other)),
    };
    Ok(JobSetup {
        task,
        params,
        layout,
        dataset,
        threads,
        trace_level,
        io,
        backend,
        scheme,
        sparse_split,
    })
}

fn bad(what: &str, byte: u8) -> DistError {
    DistError::Protocol {
        reason: format!("unknown {what} {byte}"),
    }
}

/// The [`JobSetup`] byte of a trace level.
pub(crate) fn trace_level_to_wire(level: TraceLevel) -> u8 {
    match level {
        TraceLevel::Off => 0,
        TraceLevel::Phases => 1,
        TraceLevel::Splits => 2,
    }
}

/// The trace level a [`JobSetup`] byte names; an unknown byte is a
/// [`DistError::Protocol`], so a corrupt frame never starts a job.
pub(crate) fn trace_level_from_wire(b: u8) -> Result<TraceLevel, DistError> {
    match b {
        0 => Ok(TraceLevel::Off),
        1 => Ok(TraceLevel::Phases),
        2 => Ok(TraceLevel::Splits),
        other => Err(bad("trace level", other)),
    }
}

/// Flatten a [`freeride::SyncScheme`] into its wire fields `(scheme,
/// stripes, region_cells, replicated_mask)`.
fn scheme_to_wire(s: freeride::SyncScheme) -> (u8, u64, u64, u64) {
    match s {
        freeride::SyncScheme::FullReplication => (0, 0, 0, 0),
        freeride::SyncScheme::FullLocking => (1, 0, 0, 0),
        freeride::SyncScheme::BucketLocking { stripes } => (2, stripes as u64, 0, 0),
        freeride::SyncScheme::Atomic => (3, 0, 0, 0),
        freeride::SyncScheme::Hybrid {
            region_cells,
            replicated,
            stripes,
        } => (4, stripes as u64, region_cells as u64, replicated),
    }
}

/// Rebuild a [`freeride::SyncScheme`] from its wire fields. An unknown
/// discriminant, or zero stripes or region size where the scheme needs
/// them, is a [`DistError::Protocol`].
fn scheme_from_wire(
    scheme: u8,
    stripes: u64,
    cells: u64,
    mask: u64,
) -> Result<freeride::SyncScheme, DistError> {
    Ok(match scheme {
        0 => freeride::SyncScheme::FullReplication,
        1 => freeride::SyncScheme::FullLocking,
        2 if stripes > 0 => freeride::SyncScheme::BucketLocking {
            stripes: stripes as usize,
        },
        3 => freeride::SyncScheme::Atomic,
        4 if stripes > 0 && cells > 0 => freeride::SyncScheme::Hybrid {
            region_cells: cells as usize,
            replicated: mask,
            stripes: stripes as usize,
        },
        2 | 4 => {
            return Err(DistError::Protocol {
                reason: format!(
                "sync scheme {scheme} with degenerate operands (stripes {stripes}, cells {cells})"
            ),
            })
        }
        other => return Err(bad("sync scheme", other)),
    })
}

/// Read one frame, returning the message and the number of bytes taken
/// off the wire. Malformed headers and payloads are
/// [`DistError::Protocol`]; socket failures (including read timeouts,
/// as `WouldBlock`/`TimedOut`) are [`DistError::Io`].
pub fn read_message(r: &mut impl Read) -> Result<(Message, usize), DistError> {
    let (type_byte, payload) = FRAMING.read::<DistError>(r)?;
    let msg = Message::decode_payload(type_byte, &payload)?;
    Ok((msg, FRAME_HEADER_LEN + payload.len()))
}

#[cfg(test)]
mod proto_tests {
    use super::*;

    fn sample_job() -> JobSetup {
        JobSetup {
            task: "kmeans".into(),
            params: vec![4, 2],
            layout: vec![1, 2, 3],
            dataset: "/tmp/points.frds".into(),
            threads: 2,
            trace_level: TraceLevel::Phases,
            io: freeride::IoMode::Streaming {
                chunk_rows: 4096,
                buffers: 3,
                readers: 2,
            },
            backend: freeride::KernelBackend::Compiled,
            scheme: freeride::SyncScheme::Hybrid {
                region_cells: 128,
                replicated: 0b1011,
                stripes: 64,
            },
            sparse_split: true,
        }
    }

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello {
                node_id: 3,
                job: sample_job(),
            },
            Message::HelloAck { node_id: 3 },
            Message::EndJob,
            Message::JobDone {
                trace: vec![4, 5],
                metrics: vec![6, 7, 8],
            },
            Message::Shutdown,
            Message::Error {
                message: "disk on fire".into(),
            },
            Message::RoundDone {
                round: 3,
                attempt: 0,
                leave: false,
                metrics: vec![9, 9, 9],
            },
            Message::Join {
                token: "spare-17".into(),
            },
            Message::RoundDone {
                round: 4,
                attempt: 1,
                leave: true,
                metrics: vec![],
            },
            Message::RoundStart {
                round: 4,
                attempt: 1,
                state: vec![0.25, -8.0, 3.5],
            },
            Message::Unit {
                round: 4,
                attempt: 1,
                first_row: 1024,
                rows: 128,
            },
            Message::UnitResult {
                round: 4,
                attempt: 1,
                first_row: 1024,
                elapsed_ns: 987_654,
                cells: vec![1, 2, 3, 4],
            },
            Message::RoundEnd {
                round: 4,
                attempt: 1,
            },
        ]
    }

    #[test]
    fn round_trip_over_a_buffer() {
        let msgs = samples();
        let mut wire = Vec::new();
        let mut sent = 0;
        for m in &msgs {
            sent += write_message(&mut wire, m).unwrap();
        }
        assert_eq!(sent, wire.len());
        let mut cursor = &wire[..];
        let mut recv = 0;
        for m in &msgs {
            let (back, n) = read_message(&mut cursor).unwrap();
            assert_eq!(&back, m);
            recv += n;
        }
        assert_eq!(recv, wire.len());
        assert!(cursor.is_empty());
    }

    #[test]
    fn scheme_wire_round_trips_and_rejects_bad_bytes() {
        use freeride::SyncScheme;
        for s in [
            SyncScheme::FullReplication,
            SyncScheme::FullLocking,
            SyncScheme::BucketLocking { stripes: 16 },
            SyncScheme::Atomic,
            SyncScheme::Hybrid {
                region_cells: 128,
                replicated: 0b101,
                stripes: 8,
            },
        ] {
            let (b, st, c, m) = scheme_to_wire(s);
            assert_eq!(scheme_from_wire(b, st, c, m).unwrap(), s);
        }
        // Unknown discriminants and degenerate operands fail the decode
        // instead of starting the job on another scheme.
        for (b, st, c, m) in [(99, 0, 0, 0), (2, 0, 0, 0), (4, 8, 0, 1), (4, 0, 8, 1)] {
            let err = scheme_from_wire(b, st, c, m).unwrap_err();
            assert!(matches!(err, DistError::Protocol { .. }), "{err}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = Message::EndJob.encode();
        frame[0] = b'X';
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(matches!(err, DistError::Protocol { .. }), "{err}");
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut frame = Message::EndJob.encode();
        frame[4] = 42;
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    /// 3 is the type byte of `Job` retired in v10, 4 and 5 those of the
    /// round pair retired in v7, 10 and 12 those of `Stats` and `Leave`
    /// retired in v9; a v9 peer's opening frame, in either direction, is
    /// refused by its version before its type is read.
    #[test]
    fn unknown_and_retired_types_rejected() {
        for type_byte in [3u8, 4, 5, 10, 12, 200] {
            let mut frame = Message::EndJob.encode();
            frame[5] = type_byte;
            let err = read_message(&mut &frame[..]).unwrap_err();
            assert!(
                err.to_string().contains("unknown message type"),
                "type {type_byte}: {err}"
            );
        }
        for msg in [
            Message::Hello {
                node_id: 0,
                job: sample_job(),
            },
            Message::HelloAck { node_id: 0 },
        ] {
            let mut frame = msg.encode();
            frame[4] = WIRE_VERSION - 1;
            let err = read_message(&mut &frame[..]).unwrap_err();
            assert!(matches!(err, DistError::Protocol { .. }), "{err}");
            assert!(err.to_string().contains("wire version 9"), "{err}");
        }
    }

    /// Offset of the trace byte in an encoded `Hello`: header,
    /// `node_id`, four u32-prefixed fields, then `threads`. The io mode,
    /// backend, scheme and splitter bytes follow at fixed distances.
    fn trace_byte_at(job: &JobSetup) -> usize {
        FRAME_HEADER_LEN
            + 4
            + 4
            + job.task.len()
            + 4
            + 8 * job.params.len()
            + 4
            + job.layout.len()
            + 4
            + job.dataset.len()
            + 4
    }

    /// The trace byte keeps its encoding for the three levels, and every
    /// other byte fails the decode instead of starting a job.
    #[test]
    fn unknown_trace_level_rejected() {
        let hello = samples().swap_remove(0);
        let Message::Hello { job, .. } = &hello else {
            unreachable!()
        };
        let at = trace_byte_at(job);
        let mut frame = hello.encode();
        for (byte, level) in [
            (0u8, TraceLevel::Off),
            (1, TraceLevel::Phases),
            (2, TraceLevel::Splits),
        ] {
            frame[at] = byte;
            let (back, _) = read_message(&mut &frame[..]).unwrap();
            assert!(
                matches!(&back, Message::Hello { job, .. } if job.trace_level == level),
                "{back:?}"
            );
            assert_eq!(back.encode(), frame);
        }
        for byte in [3u8, 255] {
            frame[at] = byte;
            let err = read_message(&mut &frame[..]).unwrap_err();
            assert!(matches!(err, DistError::Protocol { .. }), "{err}");
            assert!(err.to_string().contains("unknown trace level"), "{err}");
        }
    }

    /// An io mode, backend, scheme or splitter byte this build does not
    /// know is a protocol error at decode time, never a silent fallback.
    #[test]
    fn unknown_setup_bytes_rejected() {
        let hello = samples().swap_remove(0);
        let Message::Hello { job, .. } = &hello else {
            unreachable!()
        };
        let io_at = trace_byte_at(job) + 1;
        let backend_at = io_at + 1 + 8 + 4 + 4;
        let scheme_at = backend_at + 1;
        let splitter_at = scheme_at + 1 + 3 * 8;
        let frame = hello.encode();
        assert_eq!(splitter_at + 1, frame.len());
        for (at, byte, what) in [
            (io_at, 2u8, "unknown io mode"),
            (backend_at, 2, "unknown kernel backend"),
            (scheme_at, 5, "unknown sync scheme"),
            (splitter_at, 2, "unknown splitter"),
        ] {
            let mut bad = frame.clone();
            bad[at] = byte;
            let err = read_message(&mut &bad[..]).unwrap_err();
            assert!(matches!(err, DistError::Protocol { .. }), "{err}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocating() {
        let mut frame = Message::EndJob.encode();
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");
    }

    #[test]
    fn truncated_frames_are_io_or_protocol_never_panic() {
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
        let mut frame = Message::HelloAck { node_id: 1 }.encode();
        // Grow the payload by one byte and fix up the length field.
        frame.push(0);
        let len = (frame.len() - 10) as u32;
        frame[6..10].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            read_message(&mut &frame[..]),
            Err(DistError::Protocol { .. })
        ));
    }

    #[test]
    fn corrupt_inner_array_length_rejected() {
        let msg = Message::RoundStart {
            round: 1,
            attempt: 0,
            state: vec![1.0, 2.0],
        };
        let mut frame = msg.encode();
        // The state length field sits right after header(10) + round(4)
        // + attempt(4).
        frame[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_message(&mut &frame[..]),
            Err(DistError::Protocol { .. })
        ));
    }
}
