//! The server/client error type.

use std::fmt;

/// Everything that can go wrong between a job client and the server.
#[derive(Debug)]
pub enum ServeError {
    /// A socket error on either side of the service protocol.
    Io(std::io::Error),
    /// A service wire frame was malformed, truncated, of an unsupported
    /// version, or arrived out of protocol order.
    Protocol {
        /// Description of the problem.
        reason: String,
    },
    /// The server refused to admit the submission (bad credentials,
    /// tenant quota exhausted, invalid job spec, server stopping).
    Rejected {
        /// The server's stated reason.
        reason: String,
    },
    /// An admitted job ran and failed; the server relays the failure.
    JobFailed {
        /// Id of the failed job.
        job_id: u64,
        /// The job's error message.
        message: String,
    },
    /// The server aborted the session with an error frame.
    Server {
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "service I/O error: {e}"),
            ServeError::Protocol { reason } => write!(f, "service protocol error: {reason}"),
            ServeError::Rejected { reason } => write!(f, "submission rejected: {reason}"),
            ServeError::JobFailed { job_id, message } => {
                write!(f, "job {job_id} failed: {message}")
            }
            ServeError::Server { message } => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<obs::codec::DecodeError> for ServeError {
    fn from(e: obs::codec::DecodeError) -> ServeError {
        ServeError::Protocol {
            reason: e.to_string(),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_diagnosis() {
        let cases: Vec<(ServeError, &str)> = vec![
            (
                ServeError::Protocol {
                    reason: "bad magic".into(),
                },
                "bad magic",
            ),
            (
                ServeError::Rejected {
                    reason: "tenant queue full".into(),
                },
                "rejected",
            ),
            (
                ServeError::JobFailed {
                    job_id: 7,
                    message: "node 1 died".into(),
                },
                "job 7",
            ),
            (
                ServeError::Server {
                    message: "auth".into(),
                },
                "server error",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
