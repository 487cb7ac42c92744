//! The checkpoint store: atomic, versioned b"FRCK" files.
//!
//! The paper's structural bet — all inter-thread (and inter-node) state
//! lives in one small, self-describing reduction object — is what makes
//! generalized reductions cheap to checkpoint: the recoverable state of
//! a multi-round job is the merged robj plus the broadcast state
//! vector, whatever the dataset size. The coordinator's node-failure
//! recovery and resume ([`crate::coord`]) are built on this store, and
//! so is the shared-memory engine's resumable `run_iterations` loop.
//!
//! One checkpoint captures everything the coordinator (or a
//! single-process iterative run) needs to restart a job from the end of
//! a completed round: the task identity, the round number, the
//! broadcast state vector, the shard map in force, and the globally
//! combined [`ReductionObject`] as a nested b"FRRO" snapshot frame.
//!
//! Durability contract: [`CheckpointStore::save`] writes the frame to a
//! temporary file in the store directory, `sync_all`s it, then renames
//! it into place — a crash at any point leaves either the previous
//! checkpoint set or the new one, never a half-written file under the
//! final name. [`CheckpointStore::latest`] walks checkpoints newest
//! first and skips damaged files, so a torn write of the newest
//! checkpoint falls back to the one before it.
//!
//! ```text
//! magic    b"FRCK"  4 bytes
//! version  u16 LE            (CKPT_VERSION; mismatch is a typed error)
//! kind     u8                (1 = checkpoint)
//! task     u32 len + bytes
//! job      u32 len + bytes   (owning-job tag; empty = unscoped, v2)
//! params   u32 n + n × i64 LE
//! round    u32               (the round that COMPLETED)
//! rounds   u32               (total rounds the writing job planned)
//! state    u32 n + n × f64 LE
//! shards   u32 n + n × (u64 first_row, u64 rows) LE
//! robj-sum u64               (FNV-1a over the robj's cell bytes)
//! snapshot u32 len + bytes   (nested FRRO snapshot frame)
//! framesum u64               (FNV-1a over every preceding byte)
//! ```
//!
//! The trailing frame checksum makes arbitrary bit flips and torn
//! writes detectable even when they land inside the f64 payload, where
//! structural checks cannot see them; the inner robj checksum guards
//! the nested snapshot independently. Decoding never panics: every
//! failure is a typed [`FtError`].

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use freeride::ReductionObject;
use obs::codec::{
    expect_version, put_bytes, put_f64s, put_i64s, put_str, put_u16, put_u32, put_u64, seal, Cursor,
};

use crate::error::FtError;

/// Frame magic of every checkpoint file.
pub const CKPT_MAGIC: &[u8; 4] = b"FRCK";
/// Checkpoint format version; decoders reject any other version with a
/// typed error instead of misreading the body. Version 2 added the
/// owning-job tag, so two jobs sharing a checkpoint directory can no
/// longer resume from each other's state.
pub const CKPT_VERSION: u16 = 2;
const KIND_CHECKPOINT: u8 = 1;
/// Sanity bounds on untrusted length fields, so a corrupt frame fails
/// fast instead of triggering a huge allocation.
const MAX_NAME_LEN: u32 = 1 << 16;
const MAX_VEC_LEN: u32 = 1 << 24;
const MAX_SNAPSHOT_LEN: u32 = 64 << 20;

/// One recoverable point-in-time of a job: the state after round
/// `round` completed.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Registered task name (e.g. `"kmeans"`).
    pub task: String,
    /// Tag of the job that wrote this checkpoint (e.g. a server job id).
    /// Empty means "unscoped" — the single-job CLI paths, where the
    /// checkpoint directory itself identifies the job.
    pub job: String,
    /// Job-constant integer parameters.
    pub params: Vec<i64>,
    /// The round that had fully completed (combine + step) when this
    /// checkpoint was taken; a resume starts at `round + 1`.
    pub round: u32,
    /// Total rounds the writing job planned (informational; a resume
    /// may extend the run).
    pub rounds_total: u32,
    /// The broadcast state vector after `step` (e.g. next centroids).
    pub state: Vec<f64>,
    /// The shard map in force, as absolute `(first_row, rows)` ranges
    /// sorted by `first_row` (empty for single-process runs).
    pub shards: Vec<(u64, u64)>,
    /// The globally combined reduction object of round `round`.
    pub robj: ReductionObject,
}

impl Checkpoint {
    /// Check this checkpoint against the job trying to resume from it.
    pub fn validate_for(&self, task: &str, params: &[i64]) -> Result<(), FtError> {
        if self.task != task {
            return Err(FtError::Mismatch {
                reason: format!("checkpoint is for task `{}`, job is `{task}`", self.task),
            });
        }
        if self.params != params {
            return Err(FtError::Mismatch {
                reason: format!(
                    "checkpoint params {:?} do not match job params {params:?}",
                    self.params
                ),
            });
        }
        Ok(())
    }

    /// Check that this checkpoint belongs to `job` — the guard against
    /// two jobs sharing a checkpoint directory and resuming from each
    /// other's state. A mismatch is the typed [`FtError::JobMismatch`].
    pub fn validate_job(&self, job: &str) -> Result<(), FtError> {
        if self.job != job {
            return Err(FtError::JobMismatch {
                checkpoint_job: self.job.clone(),
                job: job.to_string(),
            });
        }
        Ok(())
    }

    /// Serialize to one self-checking b"FRCK" frame.
    pub fn encode(&self) -> Result<Vec<u8>, FtError> {
        let snapshot = self.robj.encode_snapshot()?;
        let mut out = Vec::with_capacity(64 + snapshot.len() + self.state.len() * 8);
        out.extend_from_slice(CKPT_MAGIC);
        put_u16(&mut out, CKPT_VERSION);
        out.push(KIND_CHECKPOINT);
        put_str(&mut out, &self.task);
        put_str(&mut out, &self.job);
        put_i64s(&mut out, &self.params);
        put_u32(&mut out, self.round);
        put_u32(&mut out, self.rounds_total);
        put_f64s(&mut out, &self.state);
        put_u32(&mut out, self.shards.len() as u32);
        for &(first, rows) in &self.shards {
            put_u64(&mut out, first);
            put_u64(&mut out, rows);
        }
        put_u64(&mut out, self.robj.content_checksum());
        put_bytes(&mut out, &snapshot);
        seal(&mut out);
        Ok(out)
    }

    /// Decode and verify one b"FRCK" frame. Never panics on untrusted
    /// bytes: structural damage is [`FtError::Codec`], a failed
    /// checksum is [`FtError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, FtError> {
        // Structural header checks first, so version skew reports as a
        // version error, not as a checksum failure.
        let mut r = Cursor::new(bytes);
        r.magic(CKPT_MAGIC)?;
        expect_version("checkpoint", r.u16("version")?.into(), CKPT_VERSION.into())?;
        let kind = r.u8("kind")?;
        if kind != KIND_CHECKPOINT {
            return Err(FtError::Codec {
                reason: format!("unknown frame kind {kind}"),
            });
        }
        let mut r = r.unseal()?;
        let task = r.str(MAX_NAME_LEN, "task")?.into();
        let job = r.str(MAX_NAME_LEN, "job")?.into();
        let params = r.i64s(MAX_VEC_LEN, "params")?;
        let round = r.u32("round")?;
        let rounds_total = r.u32("rounds_total")?;
        let state = r.f64s(MAX_VEC_LEN, "state")?;
        let n_shards = r.count(MAX_VEC_LEN, 16, "shards")?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push((r.u64("shard first_row")?, r.u64("shard rows")?));
        }
        let robj_sum = r.u64("robj checksum")?;
        let snapshot = r.bytes(MAX_SNAPSHOT_LEN, "snapshot")?;
        r.finish()?;
        let robj = ReductionObject::decode_snapshot(snapshot)?;
        if robj.content_checksum() != robj_sum {
            return Err(FtError::Corrupt {
                reason: "reduction-object content checksum mismatch".into(),
            });
        }
        Ok(Checkpoint {
            task,
            job,
            params,
            round,
            rounds_total,
            state,
            shards,
            robj,
        })
    }
}

/// What [`CheckpointStore::save`] wrote.
#[derive(Debug, Clone)]
pub struct SavedCheckpoint {
    /// Final path of the checkpoint file.
    pub path: PathBuf,
    /// Size of the frame in bytes.
    pub bytes: u64,
    /// Wall time of the whole save (encode, write, fsync, rename,
    /// prune), nanoseconds. The scheduler feeds this into its
    /// checkpoint-write latency histogram — measured here so `ft`
    /// stays free of the obs dependency.
    pub elapsed_ns: u64,
}

/// A directory of round-numbered checkpoint files with atomic writes
/// and bounded retention.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) a store at `dir`, keeping the 4 newest
    /// checkpoints by default.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, FtError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, retain: 4 })
    }

    /// Open a store in a per-job subdirectory of `root`, so jobs that
    /// share a checkpoint root neither prune each other's files nor
    /// resume from each other's state. The subdirectory is
    /// `job-<sanitized tag>`; characters outside `[A-Za-z0-9._-]` are
    /// replaced with `_`.
    pub fn open_namespaced(
        root: impl Into<PathBuf>,
        job: &str,
    ) -> Result<CheckpointStore, FtError> {
        let sanitized: String = job
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        Self::open(root.into().join(format!("job-{sanitized}")))
    }

    /// Keep only the `keep` newest checkpoints after each save
    /// (`0` disables pruning). At least 2 is recommended so a torn
    /// write of the newest file still leaves a fallback.
    pub fn with_retention(mut self, keep: usize) -> CheckpointStore {
        self.retain = keep;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(round: u32) -> String {
        format!("ckpt-{round:08}.frck")
    }

    /// Parse the round number out of a checkpoint file name.
    fn round_of(name: &str) -> Option<u32> {
        let digits = name.strip_prefix("ckpt-")?.strip_suffix(".frck")?;
        if digits.len() != 8 {
            return None;
        }
        digits.parse().ok()
    }

    /// Atomically persist `ckpt` as the checkpoint for its round:
    /// write to a temp file, `sync_all`, rename into place, prune.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<SavedCheckpoint, FtError> {
        let start = std::time::Instant::now();
        let frame = ckpt.encode()?;
        let final_path = self.dir.join(Self::file_name(ckpt.round));
        let tmp_path = self.dir.join(format!(
            ".ckpt-{:08}.{}.tmp",
            ckpt.round,
            std::process::id()
        ));
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&frame)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        self.prune()?;
        Ok(SavedCheckpoint {
            path: final_path,
            bytes: frame.len() as u64,
            elapsed_ns: start.elapsed().as_nanos() as u64,
        })
    }

    /// Load and verify one checkpoint file.
    pub fn load_file(path: &Path) -> Result<Checkpoint, FtError> {
        let bytes = fs::read(path)?;
        Checkpoint::decode(&bytes)
    }

    /// Round numbers of all checkpoint files present, ascending.
    pub fn rounds(&self) -> Result<Vec<u32>, FtError> {
        let mut rounds = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(r) = entry.file_name().to_str().and_then(Self::round_of) {
                rounds.push(r);
            }
        }
        rounds.sort_unstable();
        Ok(rounds)
    }

    /// The newest checkpoint that loads and verifies. Damaged files are
    /// skipped (newest first), so a torn write of the latest checkpoint
    /// falls back to the one before it; if files exist but none is
    /// valid, the newest file's error is returned. `Ok(None)` on an
    /// empty store.
    pub fn latest(&self) -> Result<Option<Checkpoint>, FtError> {
        let mut rounds = self.rounds()?;
        rounds.reverse();
        let mut first_err = None;
        for r in rounds {
            match Self::load_file(&self.dir.join(Self::file_name(r))) {
                Ok(ckpt) => return Ok(Some(ckpt)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    /// Like [`CheckpointStore::latest`], but an empty store is the
    /// typed [`FtError::NoCheckpoint`].
    pub fn latest_required(&self) -> Result<Checkpoint, FtError> {
        self.latest()?.ok_or_else(|| FtError::NoCheckpoint {
            dir: self.dir.to_string_lossy().into_owned(),
        })
    }

    /// Delete checkpoints beyond the retention depth, oldest first.
    fn prune(&self) -> Result<(), FtError> {
        if self.retain == 0 {
            return Ok(());
        }
        let rounds = self.rounds()?;
        if rounds.len() <= self.retain {
            return Ok(());
        }
        for &r in &rounds[..rounds.len() - self.retain] {
            fs::remove_file(self.dir.join(Self::file_name(r)))?;
        }
        Ok(())
    }
}
