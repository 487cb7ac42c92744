//! Single-process resume parity: a long iterative run interrupted
//! after a checkpointed pass and resumed via `Engine::run_iterations`
//! at the next pass index must reproduce the uninterrupted run bit for
//! bit. The engine's iteration is deterministic, so
//! resuming from pass `c + 1` with the checkpointed state recomputes
//! exactly the passes the interrupted run would have run.

use std::sync::Arc;

use freeride::{
    CombineOp, DataView, Engine, GroupSpec, JobConfig, PassHooks, PassInput, RObjHandle,
    RObjLayout, ReductionObject, Split,
};
use freeride_ft::{Checkpoint, CheckpointStore};

const K: usize = 10;
const D: usize = 3;
const ITERS: usize = 6;

fn points(n: usize) -> Vec<f64> {
    // Deterministic pseudo-random points; splitmix64-ish mixing.
    let mut data = Vec::with_capacity(n * D);
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..n * D {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        data.push(((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0);
    }
    data
}

fn layout() -> Arc<RObjLayout> {
    RObjLayout::new(vec![GroupSpec::new("newCent", K * (D + 1), CombineOp::Sum)])
}

fn init_centroids(data: &[f64]) -> Vec<f64> {
    data[..K * D].to_vec()
}

/// The k-means local reduction against the centroids captured in
/// `cent`.
fn kernel(cent: Vec<f64>) -> impl Fn(&Split<'_>, &mut dyn RObjHandle) + Sync {
    move |split: &Split<'_>, robj: &mut dyn RObjHandle| {
        for row in split.iter_rows() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..K {
                let mut dist = 0.0;
                for j in 0..D {
                    let diff = row[j] - cent[c * D + j];
                    dist += diff * diff;
                }
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            for (j, &x) in row[..D].iter().enumerate() {
                robj.accumulate(0, best * (D + 1) + j, x);
            }
            robj.accumulate(0, best * (D + 1) + D, 1.0);
        }
    }
}

/// One outer-loop step: recompute centroids from the combined sums.
fn step_centroids(cent: &mut [f64], robj: &ReductionObject) {
    for c in 0..K {
        let count = robj.get(0, c * (D + 1) + D);
        if count > 0.0 {
            for j in 0..D {
                cent[c * D + j] = robj.get(0, c * (D + 1) + j) / count;
            }
        }
    }
}

/// Run `iters` k-means passes from `first_iter`, checkpointing every
/// pass when a store is given. Returns (final centroids, final robj).
fn run(
    data: &[f64],
    first_iter: usize,
    mut cent: Vec<f64>,
    store: Option<&CheckpointStore>,
) -> (Vec<f64>, ReductionObject) {
    let engine = Engine::new(JobConfig::with_threads(3));
    let layout = layout();
    let view = DataView::new(data, D).unwrap();
    let cent_cell = std::cell::RefCell::new(cent.clone());
    // The kernel reads the centroids chosen before the pass; rebuild it
    // per pass by running one pass at a time (deterministic and simple).
    let mut robj = None;
    let mut it = first_iter;
    while it < ITERS {
        cent = cent_cell.borrow().clone();
        let k = kernel(cent.clone());
        let out = engine.run_iterations(
            PassInput::Rows(view),
            &layout,
            it,
            it + 1,
            &k,
            PassHooks::default(),
            |_, r| {
                let mut c = cent_cell.borrow_mut();
                step_centroids(&mut c, r);
                true
            },
            |pass, r| {
                if let Some(s) = store {
                    s.save(&Checkpoint {
                        task: "kmeans".into(),
                        job: String::new(),
                        params: vec![K as i64, D as i64],
                        round: pass as u32,
                        rounds_total: ITERS as u32,
                        state: cent_cell.borrow().clone(),
                        shards: Vec::new(),
                        robj: r.clone(),
                    })
                    .unwrap();
                }
            },
        );
        robj = Some(out.unwrap().robj);
        it += 1;
    }
    (cent_cell.into_inner(), robj.unwrap())
}

#[test]
fn resume_matches_uninterrupted_run_bit_for_bit() {
    let data = points(600);
    let dir = std::env::temp_dir().join(format!("cfr-ft-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();

    // Reference: the full uninterrupted run.
    let (ref_cent, ref_robj) = run(&data, 0, init_centroids(&data), None);

    // Interrupted run: dies after completing (and checkpointing) pass 2.
    {
        let engine = Engine::new(JobConfig::with_threads(3));
        let layout = layout();
        let view = DataView::new(&data, D).unwrap();
        let mut cent = init_centroids(&data);
        for it in 0..3 {
            let k = kernel(cent.clone());
            let out = engine
                .run_iterations(
                    PassInput::Rows(view),
                    &layout,
                    it,
                    it + 1,
                    &k,
                    PassHooks::default(),
                    |_, _| true,
                    |_, _| {},
                )
                .unwrap();
            step_centroids(&mut cent, &out.robj);
            store
                .save(&Checkpoint {
                    task: "kmeans".into(),
                    job: String::new(),
                    params: vec![K as i64, D as i64],
                    round: it as u32,
                    rounds_total: ITERS as u32,
                    state: cent.clone(),
                    shards: Vec::new(),
                    robj: out.robj.clone(),
                })
                .unwrap();
        }
    }

    // Resume from the latest checkpoint and finish.
    let ckpt = store.latest().unwrap().unwrap();
    ckpt.validate_for("kmeans", &[K as i64, D as i64]).unwrap();
    assert_eq!(ckpt.round, 2);
    let (res_cent, res_robj) = run(&data, ckpt.round as usize + 1, ckpt.state.clone(), None);

    assert_eq!(
        res_cent, ref_cent,
        "resumed centroids must be bit-identical"
    );
    assert_eq!(
        res_robj.cells(),
        ref_robj.cells(),
        "resumed final reduction object must be bit-identical"
    );
    assert_eq!(res_robj.content_checksum(), ref_robj.content_checksum());
    std::fs::remove_dir_all(&dir).unwrap();
}
