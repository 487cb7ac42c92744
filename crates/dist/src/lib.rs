//! freeride-dist — the multi-process cluster engine over FREERIDE.
//!
//! FREERIDE was originally *cluster* middleware; the shared-memory
//! engine in the `freeride` crate is its multicore instantiation. This
//! crate crosses the process boundary with the same processing
//! structure: a [`Coordinator`] shards a dataset file by row ranges
//! across N node agents (the `cfr-node` binary, or in-process
//! [`LoopbackCluster`] threads for deterministic tests); each node runs
//! its shard through the existing shared-memory engine
//! (`Engine::run_pass` over a `PassInput::File` shard), ships its
//! serialized [`ReductionObject`](freeride::ReductionObject) back over a
//! length-prefixed versioned TCP protocol ([`proto`]), and the
//! coordinator performs global combination with the existing
//! `CombineOp` machinery, applies the task's outer-loop step, and
//! broadcasts the updated state for the next round (the iterative
//! k-means loop).
//!
//! Zero external dependencies: the wire layer is `std::net` TCP with
//! explicit read timeouts, so a node dropping its connection mid-round
//! surfaces as a typed [`DistError`] — never a hang. Node traces ship
//! with the results and merge into one Chrome trace with each node on
//! its own `pid` track.
//!
//! Elastic scheduling reasons only about **row ranges**, below the
//! wire: [`split_units`] cuts the fixed shard map into work units, a
//! pure function of the shard map and the grain and never of live
//! membership (the bit-identity anchor); the steal queue hands them
//! out; [`plan`] seeds each node with an equal contiguous share; and the
//! [`MembershipHub`] parks mid-job joiners for the round barrier.
//!
//! Fault tolerance rides on the same small state: a [`Checkpoint`] is
//! the merged reduction object plus the broadcast state after a round,
//! kept as atomic b"FRCK" files by a [`CheckpointStore`]; a damaged or
//! foreign checkpoint is a typed [`FtError`], never a panic.

#![warn(missing_docs)]

mod coord;
mod error;
mod membership;
mod policy;
pub mod proto;
mod queue;
mod sched;
mod store;
pub mod tasks;
mod units;

pub mod node;

pub use coord::{
    resume_loopback, run_loopback, ClusterConfig, ClusterOutcome, ClusterStats, Coordinator,
    FtPolicy, LoopbackCluster,
};
pub use error::{DistError, FtError};
pub use membership::MembershipHub;
pub use policy::{plan, ElasticPolicy};
pub use sched::{Fleet, JobDriver};
pub use store::{Checkpoint, CheckpointStore, SavedCheckpoint, CKPT_MAGIC, CKPT_VERSION};
pub use units::{split_units, WorkUnit};

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
