//! Fault tolerance for FREERIDE runs.
//!
//! The paper's structural bet — all inter-thread (and inter-node) state
//! lives in one small, self-describing reduction object — is what makes
//! generalized reductions cheap to checkpoint: the complete recoverable
//! state of a multi-round job is the merged
//! [`ReductionObject`](freeride::ReductionObject) plus the broadcast
//! state vector, a few hundred bytes to a few megabytes regardless of
//! dataset size. This crate provides that persistence layer:
//!
//! * [`Checkpoint`] — one recoverable point-in-time (task identity,
//!   completed round, state vector, shard map, merged robj), serialized
//!   as a self-checking b"FRCK" frame with an FNV-1a trailer.
//! * [`CheckpointStore`] — a directory of round-numbered checkpoint
//!   files with write-to-temp + `sync_all` + rename durability and
//!   configurable retention pruning.
//! * [`FtError`] — every way a damaged checkpoint can fail, as a typed
//!   error; decoding never panics on untrusted bytes.
//!
//! The recovery *policies* built on this store live with their engines:
//! `freeride-dist` drives node-failure recovery and coordinator resume,
//! the shared-memory engine's per-pass hook makes long iterative runs
//! resumable.

#![warn(missing_docs)]

mod error;
mod store;

pub use error::FtError;
pub use store::{Checkpoint, CheckpointStore, SavedCheckpoint, CKPT_MAGIC, CKPT_VERSION};

#[cfg(test)]
mod store_tests {
    use std::sync::Arc;

    use freeride::{CombineOp, GroupSpec, RObjLayout, ReductionObject};

    use super::*;

    fn layout() -> Arc<RObjLayout> {
        RObjLayout::new(vec![
            GroupSpec::new("newCent", 6, CombineOp::Sum),
            GroupSpec::new("lo", 2, CombineOp::Min),
        ])
    }

    fn sample(round: u32) -> Checkpoint {
        let mut robj = ReductionObject::alloc(layout());
        for i in 0..6 {
            robj.accumulate(0, i, (i as f64 + 1.0) * 0.5 + round as f64);
        }
        robj.accumulate(1, 0, -3.25);
        Checkpoint {
            task: "kmeans".into(),
            job: String::new(),
            params: vec![2, 3],
            round,
            rounds_total: 10,
            state: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            shards: vec![(0, 500), (500, 500)],
            robj,
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cfr-ft-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frame_round_trips() {
        let ckpt = sample(3);
        let back = Checkpoint::decode(&ckpt.encode().unwrap()).unwrap();
        assert_eq!(back.task, ckpt.task);
        assert_eq!(back.params, ckpt.params);
        assert_eq!(back.round, 3);
        assert_eq!(back.rounds_total, 10);
        assert_eq!(back.state, ckpt.state);
        assert_eq!(back.shards, ckpt.shards);
        assert_eq!(back.robj.cells(), ckpt.robj.cells());
    }

    #[test]
    fn save_load_latest_and_prune() {
        let dir = tmp_dir("prune");
        let store = CheckpointStore::open(&dir).unwrap().with_retention(2);
        for round in 0..5 {
            let saved = store.save(&sample(round)).unwrap();
            assert!(saved.path.exists());
            assert!(saved.bytes > 0);
        }
        // Retention keeps only the 2 newest.
        assert_eq!(store.rounds().unwrap(), vec![3, 4]);
        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.round, 4);
        // No temp litter left behind.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(litter.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_skips_a_torn_newest_file() {
        let dir = tmp_dir("torn");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(&sample(0)).unwrap();
        store.save(&sample(1)).unwrap();
        // Tear the newest checkpoint in half, as a crash mid-write
        // under the final name would (can't happen with rename, but
        // disks lie).
        let newest = dir.join("ckpt-00000001.frck");
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.round, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_damaged_surfaces_the_error() {
        let dir = tmp_dir("alldamaged");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(&sample(0)).unwrap();
        let only = dir.join("ckpt-00000000.frck");
        std::fs::write(&only, b"FRCKgarbage").unwrap();
        assert!(store.latest().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_is_none_and_typed_when_required() {
        let dir = tmp_dir("empty");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.latest().unwrap().is_none());
        let err = store.latest_required().unwrap_err();
        assert!(matches!(err, FtError::NoCheckpoint { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_for_catches_task_and_param_skew() {
        let ckpt = sample(0);
        ckpt.validate_for("kmeans", &[2, 3]).unwrap();
        assert!(matches!(
            ckpt.validate_for("pca.mean", &[2, 3]),
            Err(FtError::Mismatch { .. })
        ));
        assert!(matches!(
            ckpt.validate_for("kmeans", &[4, 3]),
            Err(FtError::Mismatch { .. })
        ));
    }

    #[test]
    fn validate_job_rejects_cross_job_resume() {
        let mut ckpt = sample(0);
        ckpt.validate_job("").unwrap();
        ckpt.job = "job-7".into();
        ckpt.validate_job("job-7").unwrap();
        let err = ckpt.validate_job("job-8").unwrap_err();
        match err {
            FtError::JobMismatch {
                checkpoint_job,
                job,
            } => {
                assert_eq!(checkpoint_job, "job-7");
                assert_eq!(job, "job-8");
            }
            other => panic!("expected JobMismatch, got {other}"),
        }
    }

    #[test]
    fn job_tag_round_trips_through_the_frame() {
        let mut ckpt = sample(2);
        ckpt.job = "job-42-kmeans".into();
        let back = Checkpoint::decode(&ckpt.encode().unwrap()).unwrap();
        assert_eq!(back.job, "job-42-kmeans");
    }

    #[test]
    fn namespaced_stores_do_not_collide() {
        let root = tmp_dir("namespaced");
        let a = CheckpointStore::open_namespaced(&root, "job-1").unwrap();
        let b = CheckpointStore::open_namespaced(&root, "job-2").unwrap();
        assert_ne!(a.dir(), b.dir());
        a.save(&sample(0)).unwrap();
        a.save(&sample(1)).unwrap();
        b.save(&sample(5)).unwrap();
        // Each store sees only its own rounds; pruning in one cannot
        // touch the other.
        assert_eq!(a.rounds().unwrap(), vec![0, 1]);
        assert_eq!(b.rounds().unwrap(), vec![5]);
        assert_eq!(a.latest().unwrap().unwrap().round, 1);
        assert_eq!(b.latest().unwrap().unwrap().round, 5);
        // Hostile tags cannot escape the root.
        let weird = CheckpointStore::open_namespaced(&root, "../evil/x").unwrap();
        assert!(weird.dir().starts_with(&root));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn version_skew_is_a_version_error_not_a_checksum_error() {
        let mut bytes = sample(0).encode().unwrap();
        bytes[4] = 99;
        let err = Checkpoint::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn bit_flips_anywhere_are_typed_errors() {
        let bytes = sample(0).encode().unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            let err = Checkpoint::decode(&flipped).unwrap_err();
            assert!(
                matches!(err, FtError::Codec { .. } | FtError::Corrupt { .. }),
                "byte {i}: {err}"
            );
        }
    }
}
