//! Errors surfaced by the distributed engine.

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
    Ft(freeride_ft::FtError),
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

impl From<freeride_ft::FtError> for DistError {
    fn from(e: freeride_ft::FtError) -> DistError {
        DistError::Ft(e)
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
}
