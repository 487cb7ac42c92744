//! The checkpoint store: atomic, versioned b"FRCK" files.
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

/// FNV-1a 64-bit — the checksum used for both the frame trailer and the
/// reduction-object content hash
/// ([`ReductionObject::content_checksum`]).
pub use freeride::fnv1a64;

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
        out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        out.push(KIND_CHECKPOINT);
        out.extend_from_slice(&(self.task.len() as u32).to_le_bytes());
        out.extend_from_slice(self.task.as_bytes());
        out.extend_from_slice(&(self.job.len() as u32).to_le_bytes());
        out.extend_from_slice(self.job.as_bytes());
        out.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for p in &self.params {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.rounds_total.to_le_bytes());
        out.extend_from_slice(&(self.state.len() as u32).to_le_bytes());
        for s in &self.state {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for &(first, rows) in &self.shards {
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&rows.to_le_bytes());
        }
        out.extend_from_slice(&self.robj.content_checksum().to_le_bytes());
        out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
        out.extend_from_slice(&snapshot);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        Ok(out)
    }

    /// Decode and verify one b"FRCK" frame. Never panics on untrusted
    /// bytes: structural damage is [`FtError::Codec`], a failed
    /// checksum is [`FtError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, FtError> {
        // Structural header checks first, so version skew reports as a
        // version error, not as a checksum failure.
        if bytes.len() < 7 {
            return Err(codec("truncated frame: header"));
        }
        if &bytes[0..4] != CKPT_MAGIC {
            return Err(codec("bad checkpoint magic"));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != CKPT_VERSION {
            return Err(codec(format!(
                "unsupported checkpoint version {version} (expected {CKPT_VERSION})"
            )));
        }
        if bytes[6] != KIND_CHECKPOINT {
            return Err(codec(format!("unknown frame kind {}", bytes[6])));
        }
        if bytes.len() < 7 + 8 {
            return Err(codec("truncated frame: checksum trailer"));
        }
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        let actual = fnv1a64(&bytes[..body_end]);
        if stored != actual {
            return Err(FtError::Corrupt {
                reason: format!(
                    "frame checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
                ),
            });
        }
        let mut r = FrameReader {
            buf: &bytes[..body_end],
            pos: 7,
        };
        let task = r.string("task", MAX_NAME_LEN)?;
        let job = r.string("job", MAX_NAME_LEN)?;
        let params = r.i64s("params", MAX_VEC_LEN)?;
        let round = r.u32("round")?;
        let rounds_total = r.u32("rounds_total")?;
        let state = r.f64s("state", MAX_VEC_LEN)?;
        let n_shards = r.bounded_len("shards", MAX_VEC_LEN)?;
        let mut shards = Vec::with_capacity(n_shards.min(1 << 12));
        for _ in 0..n_shards {
            let first = r.u64("shard first_row")?;
            let rows = r.u64("shard rows")?;
            shards.push((first, rows));
        }
        let robj_sum = r.u64("robj checksum")?;
        let snap_len = r.bounded_len("snapshot", MAX_SNAPSHOT_LEN)?;
        let snapshot = r.take(snap_len, "snapshot")?;
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

fn codec(reason: impl Into<String>) -> FtError {
    FtError::Codec {
        reason: reason.into(),
    }
}

/// Checked little-endian reader over an untrusted frame body.
struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FtError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| codec(format!("truncated frame: {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32, FtError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FtError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn bounded_len(&mut self, what: &str, max: u32) -> Result<usize, FtError> {
        let n = self.u32(what)?;
        if n > max {
            return Err(codec(format!("implausible {what} length {n}")));
        }
        Ok(n as usize)
    }

    fn string(&mut self, what: &str, max: u32) -> Result<String, FtError> {
        let n = self.bounded_len(what, max)?;
        match std::str::from_utf8(self.take(n, what)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(codec(format!("{what} is not UTF-8"))),
        }
    }

    fn i64s(&mut self, what: &str, max: u32) -> Result<Vec<i64>, FtError> {
        let n = self.bounded_len(what, max)?;
        if self.buf.len() - self.pos < n * 8 {
            return Err(codec(format!("truncated frame: {what}")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(i64::from_le_bytes(
                self.take(8, what)?.try_into().expect("8 bytes"),
            ));
        }
        Ok(out)
    }

    fn f64s(&mut self, what: &str, max: u32) -> Result<Vec<f64>, FtError> {
        let n = self.bounded_len(what, max)?;
        if self.buf.len() - self.pos < n * 8 {
            return Err(codec(format!("truncated frame: {what}")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f64::from_le_bytes(
                self.take(8, what)?.try_into().expect("8 bytes"),
            ));
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), FtError> {
        if self.pos != self.buf.len() {
            return Err(codec(format!(
                "{} trailing bytes in frame body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
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
