//! Errors surfaced by the distributed engine and its checkpoint store.

use std::fmt;

/// Errors from the coordinator, a node agent, or the wire protocol.
#[derive(Debug)]
pub enum DistError {
    /// A socket or process error.
    Io(std::io::Error),
    /// A wire frame was malformed, truncated, of an unsupported
    /// version, or arrived out of protocol order.
    Protocol {
        /// Description of the problem.
        reason: String,
    },
    /// A node did not answer within the coordinator's read timeout —
    /// the clean surfacing of a dropped connection or a hung node.
    Timeout {
        /// Node index in the cluster.
        node: usize,
        /// What the coordinator was waiting for.
        waiting_for: String,
    },
    /// A node reported a job failure (its own error, relayed).
    Node {
        /// Node index in the cluster.
        node: usize,
        /// The node's error message.
        message: String,
    },
    /// An error from the underlying shared-memory engine or the
    /// reduction-object codec.
    Engine(freeride::FreerideError),
    /// An error from the checkpoint store (writing, or loading on
    /// resume).
    Ft(FtError),
    /// Node failures exhausted the recovery budget
    /// ([`crate::FtPolicy::max_retries`]); the last failure is inside.
    RetriesExhausted {
        /// Recovery attempts that were made before giving up.
        retries: usize,
        /// The failure that broke the budget.
        last: Box<DistError>,
    },
    /// The requested task name is not in the registry, or its
    /// params/state are inconsistent.
    BadTask {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "cluster I/O error: {e}"),
            DistError::Protocol { reason } => write!(f, "wire protocol error: {reason}"),
            DistError::Timeout { node, waiting_for } => {
                write!(f, "node {node} timed out (waiting for {waiting_for})")
            }
            DistError::Node { node, message } => write!(f, "node {node} failed: {message}"),
            DistError::Engine(e) => write!(f, "engine error: {e}"),
            DistError::Ft(e) => write!(f, "fault-tolerance error: {e}"),
            DistError::RetriesExhausted { retries, last } => {
                write!(
                    f,
                    "recovery budget exhausted after {retries} retries: {last}"
                )
            }
            DistError::BadTask { reason } => write!(f, "bad task: {reason}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Engine(e) => Some(e),
            DistError::Ft(e) => Some(e),
            DistError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> DistError {
        DistError::Io(e)
    }
}

impl From<freeride::FreerideError> for DistError {
    fn from(e: freeride::FreerideError) -> DistError {
        DistError::Engine(e)
    }
}

impl From<FtError> for DistError {
    fn from(e: FtError) -> DistError {
        DistError::Ft(e)
    }
}

impl From<obs::codec::DecodeError> for DistError {
    fn from(e: obs::codec::DecodeError) -> DistError {
        DistError::Protocol {
            reason: e.to_string(),
        }
    }
}

impl From<obs::TraceDecodeError> for DistError {
    fn from(e: obs::TraceDecodeError) -> DistError {
        DistError::Protocol {
            reason: e.to_string(),
        }
    }
}

impl DistError {
    /// Whether this is a read timeout (the error a dropped or hung node
    /// must surface — never a hang).
    pub fn is_timeout(&self) -> bool {
        matches!(self, DistError::Timeout { .. })
    }
}

/// Errors from the checkpoint store and the b"FRCK" codec.
///
/// Everything a damaged checkpoint can do — truncation, bit rot,
/// version skew, a task mismatch on resume — surfaces as one of these
/// variants; decoding never panics on untrusted bytes.
#[derive(Debug)]
pub enum FtError {
    /// A filesystem error while writing, renaming, or reading a
    /// checkpoint file.
    Io(std::io::Error),
    /// A checkpoint frame was structurally malformed: truncated header,
    /// bad magic, unsupported version, implausible lengths, or trailing
    /// bytes.
    Codec {
        /// Description of the problem.
        reason: String,
    },
    /// The frame parsed but its content checksum did not match — bit
    /// rot or a torn write that survived the structural checks.
    Corrupt {
        /// Description of the problem.
        reason: String,
    },
    /// A structurally valid checkpoint does not match the job trying to
    /// resume from it (different task name or parameters).
    Mismatch {
        /// Description of the problem.
        reason: String,
    },
    /// A structurally valid checkpoint belongs to a *different job*
    /// than the one trying to resume from it — the cross-job resume
    /// hazard of two jobs sharing a checkpoint directory.
    JobMismatch {
        /// Job tag recorded in the checkpoint.
        checkpoint_job: String,
        /// Job tag of the resume attempt.
        job: String,
    },
    /// Resume was requested but the store holds no valid checkpoint.
    NoCheckpoint {
        /// The store directory that was searched.
        dir: String,
    },
}

impl fmt::Display for FtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            FtError::Codec { reason } => write!(f, "checkpoint codec error: {reason}"),
            FtError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            FtError::Mismatch { reason } => write!(f, "checkpoint mismatch: {reason}"),
            FtError::JobMismatch {
                checkpoint_job,
                job,
            } => write!(
                f,
                "checkpoint belongs to job `{checkpoint_job}`, refusing cross-job resume \
                 as job `{job}`"
            ),
            FtError::NoCheckpoint { dir } => {
                write!(f, "no valid checkpoint found in {dir}")
            }
        }
    }
}

impl std::error::Error for FtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FtError {
    fn from(e: std::io::Error) -> FtError {
        FtError::Io(e)
    }
}

impl From<obs::codec::DecodeError> for FtError {
    fn from(e: obs::codec::DecodeError) -> FtError {
        match e {
            obs::codec::DecodeError::Checksum { .. } => FtError::Corrupt {
                reason: format!("frame {e}"),
            },
            e => FtError::Codec {
                reason: e.to_string(),
            },
        }
    }
}

impl From<freeride::FreerideError> for FtError {
    fn from(e: freeride::FreerideError) -> FtError {
        FtError::Codec {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn display() {
        let e = DistError::Timeout {
            node: 2,
            waiting_for: "UnitResult".into(),
        };
        assert!(e.to_string().contains("node 2 timed out"));
        assert!(e.is_timeout());
        let e = DistError::Protocol {
            reason: "bad magic".into(),
        };
        assert!(e.to_string().contains("bad magic"));
        assert!(!e.is_timeout());
        let e = DistError::from(freeride::FreerideError::Codec {
            reason: "short".into(),
        });
        assert!(e.to_string().contains("short"));
    }

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(FtError, &str)> = vec![
            (FtError::Io(std::io::Error::other("disk gone")), "disk gone"),
            (
                FtError::Codec {
                    reason: "short frame".into(),
                },
                "short frame",
            ),
            (
                FtError::Corrupt {
                    reason: "checksum".into(),
                },
                "checksum",
            ),
            (
                FtError::Mismatch {
                    reason: "task".into(),
                },
                "task",
            ),
            (
                FtError::JobMismatch {
                    checkpoint_job: "job-1-kmeans".into(),
                    job: "job-2-kmeans".into(),
                },
                "cross-job",
            ),
            (
                FtError::NoCheckpoint {
                    dir: "/tmp/ckpt".into(),
                },
                "/tmp/ckpt",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
