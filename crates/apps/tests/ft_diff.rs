//! Differential gates for the fault-tolerance subsystem: a cluster run
//! that loses a node mid-round (or the coordinator itself) must land on
//! **bit-identical** results to an undisturbed run of the same cluster
//! shape — for k-means and for PCA — and stay within combine-order
//! tolerance of the single-process engine.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use cfr_apps::cluster::{
    kmeans_cluster, kmeans_cluster_ft, kmeans_cluster_on_file, kmeans_cluster_on_file_ft,
    pca_cluster, pca_cluster_ft, FtOptions, Nodes,
};
use cfr_apps::kmeans::{self, KmeansParams};
use cfr_apps::pca::{self, PcaParams};
use cfr_apps::{data, Version};
use freeride_dist::node::{serve_with, Behaviour};

fn close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn ckpt_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("cfr-ft-diff-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Spawn `n` external-style node agents where the listed nodes die
/// mid-round after completing `die_after` rounds **within the given
/// session** (earlier sessions are served healthy). Healthy nodes serve
/// `sessions` sequential jobs.
fn chaos_agents(
    n: usize,
    sessions: usize,
    chaos: &[(usize, usize, u32)], // (node, kill_in_session, rounds_before_death)
) -> (Vec<SocketAddr>, Vec<std::thread::JoinHandle<()>>) {
    let mut addrs = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for id in 0..n {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap());
        let plan = chaos
            .iter()
            .find(|&&(node, _, _)| node == id)
            .map(|&(_, s, r)| (s, r));
        handles.push(std::thread::spawn(move || {
            for session in 0..sessions {
                let dies = plan.filter(|&(kill_in, _)| kill_in == session);
                let behaviour =
                    dies.map_or_else(Behaviour::default, |(_, r)| Behaviour::dies_after(r));
                // A node that died is "dead" from here on.
                if serve_with(&listener, behaviour).is_err() || dies.is_some() {
                    break;
                }
            }
        }));
    }
    (addrs, handles)
}

/// Tentpole acceptance gate: k-means with a node killed mid-round
/// recovers bit-identically to the undisturbed cluster run of the same
/// shape, at 2 and 4 nodes, and matches the single-process engine
/// within combine-order tolerance.
#[test]
fn kmeans_survives_node_kill_bit_identical() {
    let params = KmeansParams::new(240, 3, 4, 3);
    let single = kmeans::run(&params, Version::Manual).unwrap();
    for nodes in [2usize, 4] {
        let baseline = kmeans_cluster(&params, &Nodes::Loopback(nodes)).unwrap();
        // Node 1 answers one round of the only session, then dies.
        let (addrs, handles) = chaos_agents(nodes, 1, &[(1, 0, 1)]);
        let mut ft = FtOptions::default();
        ft.policy.backoff = Duration::from_millis(1);
        let out = kmeans_cluster_ft(&params, &Nodes::External(addrs), &ft).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            bits(&out.centroids),
            bits(&baseline.centroids),
            "{nodes}-node recovered centroids"
        );
        assert_eq!(bits(&out.counts), bits(&baseline.counts));
        assert_eq!(out.stats.recoveries, 1, "{nodes} nodes");
        close(&out.centroids, &single.centroids, 1e-9, "vs single-process");
    }
}

/// Same gate for PCA: the cov phase loses a node mid-round and the
/// mean/scatter results stay bit-identical to the undisturbed cluster
/// run, at 2 and 4 nodes.
#[test]
fn pca_survives_node_kill_bit_identical() {
    let params = PcaParams::new(4, 60);
    let single = pca::run(&params, Version::Manual).unwrap();
    for nodes in [2usize, 4] {
        let baseline = pca_cluster(&params, &Nodes::Loopback(nodes)).unwrap();
        // Node 1 serves the mean phase, then dies mid-round in the cov
        // phase without answering anything.
        let (addrs, handles) = chaos_agents(nodes, 2, &[(1, 1, 0)]);
        let mut ft = FtOptions::default();
        ft.policy.backoff = Duration::from_millis(1);
        let out = pca_cluster_ft(&params, &Nodes::External(addrs), &ft).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bits(&out.mean), bits(&baseline.mean), "{nodes}-node mean");
        assert_eq!(bits(&out.cov), bits(&baseline.cov), "{nodes}-node cov");
        assert_eq!(out.stats[1].recoveries, 1, "{nodes} nodes");
        close(&out.mean, &single.mean, 1e-9, "mean vs single-process");
        close(&out.cov, &single.cov, 1e-9, "cov vs single-process");
    }
}

/// Checkpointing itself must not perturb results at any cluster size —
/// a checkpointed run is bit-identical to a plain run, 1/2/4 nodes.
#[test]
fn checkpointed_runs_match_plain_runs_at_every_size() {
    let kparams = KmeansParams::new(180, 2, 3, 3);
    let pparams = PcaParams::new(3, 40);
    for nodes in [1usize, 2, 4] {
        let dir = ckpt_dir(&format!("clean-{nodes}"));
        let plain = kmeans_cluster(&kparams, &Nodes::Loopback(nodes)).unwrap();
        let ckpt = kmeans_cluster_ft(
            &kparams,
            &Nodes::Loopback(nodes),
            &FtOptions::with_dir(dir.join("kmeans")),
        )
        .unwrap();
        assert_eq!(
            bits(&ckpt.centroids),
            bits(&plain.centroids),
            "{nodes} nodes"
        );
        assert!(ckpt.stats.checkpoints_written > 0);

        let plain = pca_cluster(&pparams, &Nodes::Loopback(nodes)).unwrap();
        let ckpt = pca_cluster_ft(
            &pparams,
            &Nodes::Loopback(nodes),
            &FtOptions::with_dir(dir.join("pca")),
        )
        .unwrap();
        assert_eq!(
            bits(&ckpt.mean),
            bits(&plain.mean),
            "{nodes} nodes pca mean"
        );
        assert_eq!(bits(&ckpt.cov), bits(&plain.cov), "{nodes} nodes pca cov");
        // Both phases checkpointed into their own subdirectories.
        assert!(dir.join("pca").join("mean").is_dir());
        assert!(dir.join("pca").join("cov").is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Coordinator-restart gate: a k-means run that crashes mid-job (node
/// kill with recovery disabled) leaves checkpoints; rerunning with
/// `resume` on a fresh healthy cluster of the same shape finishes
/// bit-identically to a run that never crashed.
#[test]
fn kmeans_resume_after_coordinator_restart_bit_identical() {
    let params = KmeansParams::new(240, 3, 4, 5);
    let dir = ckpt_dir("kmeans-resume");
    // Shared dataset file: the crashed and resumed runs must see the
    // same bytes.
    let mut path = std::env::temp_dir();
    path.push(format!("cfr-ft-resume-{}.frds", std::process::id()));
    freeride::source::write_dataset(
        &path,
        params.d,
        &data::kmeans_points_flat(params.n, params.d),
    )
    .unwrap();

    let baseline = kmeans_cluster_on_file(&params, &path, &Nodes::Loopback(2)).unwrap();

    // The "crashing" run: node 0 dies after two answered rounds and
    // fail-fast (no retries) kills the whole job, checkpoints behind.
    let (addrs, handles) = chaos_agents(2, 1, &[(0, 0, 2)]);
    let mut ft = FtOptions::with_dir(&dir);
    ft.policy.max_retries = 0;
    kmeans_cluster_on_file_ft(&params, &path, &Nodes::External(addrs), &ft).unwrap_err();
    for h in handles {
        h.join().unwrap();
    }

    // Restart: same config plus `resume`, fresh healthy cluster.
    let ft = FtOptions::with_dir(&dir).resume(true);
    let resumed = kmeans_cluster_on_file_ft(&params, &path, &Nodes::Loopback(2), &ft).unwrap();
    assert_eq!(bits(&resumed.centroids), bits(&baseline.centroids));
    assert_eq!(bits(&resumed.counts), bits(&baseline.counts));
    assert!(resumed.stats.rounds < 5, "resume re-ran only the tail");

    // Resuming a fully finished job is also exact (checkpoint-only).
    let again = kmeans_cluster_on_file_ft(&params, &path, &Nodes::Loopback(2), &ft).unwrap();
    assert_eq!(bits(&again.centroids), bits(&baseline.centroids));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// `resume: true` against an empty checkpoint directory starts fresh
/// instead of failing — one flag serves cold start and warm restart.
#[test]
fn resume_with_empty_dir_starts_fresh() {
    let params = KmeansParams::new(120, 2, 3, 2);
    let dir = ckpt_dir("fresh");
    let baseline = kmeans_cluster(&params, &Nodes::Loopback(2)).unwrap();
    let ft = FtOptions::with_dir(&dir).resume(true);
    let out = kmeans_cluster_ft(&params, &Nodes::Loopback(2), &ft).unwrap();
    assert_eq!(bits(&out.centroids), bits(&baseline.centroids));
    assert!(out.stats.checkpoints_written > 0);
    std::fs::remove_dir_all(&dir).ok();
}
