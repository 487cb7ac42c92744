//! Errors surfaced by the fault-tolerance subsystem.

use std::fmt;

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
