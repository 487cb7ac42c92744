//! A blocking client of the job server.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use obs::MetricsSnapshot;

use crate::error::ServeError;
use crate::proto::{read_message, write_message, JobRow, JobSpec, Message, ServerStatus};

/// What a finished job handed back.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job id.
    pub job_id: u64,
    /// Final state after the last `step` (task jobs).
    pub state: Vec<f64>,
    /// Final merged reduction object as a `freeride` cells frame (task
    /// jobs; decode with `ReductionObject::decode_cells` against the
    /// task's layout).
    pub robj: Vec<u8>,
    /// Requested globals, flattened to numeric values (Chapel jobs).
    pub globals: Vec<(String, Vec<f64>)>,
    /// The job's own trace as an `obs` trace codec frame (empty when
    /// the server runs untraced; decode with `Trace::decode_bin`).
    pub trace: Vec<u8>,
}

/// One `Top` round-trip, decoded: server status, the job table, and
/// the fleet-wide metrics aggregate.
#[derive(Debug, Clone)]
pub struct TopSnapshot {
    /// Queue/cache counters plus per-tenant quota usage.
    pub status: ServerStatus,
    /// Every job the server still remembers, in job-id order.
    pub jobs: Vec<JobRow>,
    /// Merged fleet metrics: the server's own hub plus every finished
    /// job's telemetry.
    pub metrics: MetricsSnapshot,
}

/// One authenticated session with a job server.
pub struct Client {
    stream: TcpStream,
    session: u64,
}

impl Client {
    /// Dial `addr` and open a session as `tenant`.
    pub fn connect(addr: SocketAddr, tenant: &str, token: &str) -> Result<Client, ServeError> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_nodelay(true).ok();
        write_message(
            &mut stream,
            &Message::ClientHello {
                tenant: tenant.to_string(),
                token: token.to_string(),
            },
        )?;
        match read_message(&mut stream)? {
            Message::Welcome { session } => Ok(Client { stream, session }),
            Message::Error { message } => Err(ServeError::Server { message }),
            other => Err(ServeError::Protocol {
                reason: format!("expected Welcome, got {}", other.kind_name()),
            }),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Submit a job, returning its id. A refused submission is the
    /// typed [`ServeError::Rejected`]; the session survives it.
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, ServeError> {
        write_message(&mut self.stream, &Message::Submit { spec })?;
        match read_message(&mut self.stream)? {
            Message::Submitted { job_id } => Ok(job_id),
            Message::Rejected { reason } => Err(ServeError::Rejected { reason }),
            Message::Error { message } => Err(ServeError::Server { message }),
            other => Err(ServeError::Protocol {
                reason: format!("expected Submitted, got {}", other.kind_name()),
            }),
        }
    }

    /// Block until `job_id` finishes. A failed job is the typed
    /// [`ServeError::JobFailed`].
    pub fn wait(&mut self, job_id: u64) -> Result<JobOutcome, ServeError> {
        write_message(&mut self.stream, &Message::Wait { job_id })?;
        match read_message(&mut self.stream)? {
            Message::JobResult {
                job_id,
                state,
                robj,
                globals,
                trace,
            } => Ok(JobOutcome {
                job_id,
                state,
                robj,
                globals,
                trace,
            }),
            Message::JobFailed { job_id, message } => {
                Err(ServeError::JobFailed { job_id, message })
            }
            Message::Error { message } => Err(ServeError::Server { message }),
            other => Err(ServeError::Protocol {
                reason: format!("expected JobResult, got {}", other.kind_name()),
            }),
        }
    }

    /// Submit and wait in one call.
    pub fn run(&mut self, spec: JobSpec) -> Result<JobOutcome, ServeError> {
        let id = self.submit(spec)?;
        self.wait(id)
    }

    /// Fetch the server's queue/cache counters (the status part of one
    /// [`Client::top`] round trip).
    pub fn status(&mut self) -> Result<ServerStatus, ServeError> {
        self.top().map(|top| top.status)
    }

    /// Fetch the full telemetry view behind `cfr-top`: status, the job
    /// table, and the decoded fleet metrics aggregate.
    pub fn top(&mut self) -> Result<TopSnapshot, ServeError> {
        write_message(&mut self.stream, &Message::Top)?;
        match read_message(&mut self.stream)? {
            Message::TopReport {
                status,
                jobs,
                metrics,
            } => {
                let metrics = if metrics.is_empty() {
                    MetricsSnapshot::default()
                } else {
                    MetricsSnapshot::decode_bin(&metrics).map_err(|e| ServeError::Protocol {
                        reason: format!("bad metrics frame in TopReport: {e}"),
                    })?
                };
                Ok(TopSnapshot {
                    status,
                    jobs,
                    metrics,
                })
            }
            Message::Error { message } => Err(ServeError::Server { message }),
            other => Err(ServeError::Protocol {
                reason: format!("expected TopReport, got {}", other.kind_name()),
            }),
        }
    }

    /// Fetch the accumulated server trace as Chrome trace JSON (server
    /// spans on `pid` 0, each finished job on `pid` = job id).
    pub fn dump_trace(&mut self) -> Result<String, ServeError> {
        write_message(&mut self.stream, &Message::DumpTrace)?;
        match read_message(&mut self.stream)? {
            Message::TraceDump { chrome_json } => Ok(chrome_json),
            Message::Error { message } => Err(ServeError::Server { message }),
            other => Err(ServeError::Protocol {
                reason: format!("expected TraceDump, got {}", other.kind_name()),
            }),
        }
    }

    /// Ask the server to stop admitting jobs and shut down once the
    /// queue drains.
    pub fn stop_server(&mut self) -> Result<(), ServeError> {
        write_message(&mut self.stream, &Message::StopServer)?;
        match read_message(&mut self.stream)? {
            Message::Stopping => Ok(()),
            Message::Error { message } => Err(ServeError::Server { message }),
            other => Err(ServeError::Protocol {
                reason: format!("expected Stopping, got {}", other.kind_name()),
            }),
        }
    }

    /// Close the session politely.
    pub fn bye(mut self) -> Result<(), ServeError> {
        write_message(&mut self.stream, &Message::Bye)?;
        Ok(())
    }
}
