//! Differential gates for elastic scheduling at the application layer:
//! a cluster run disturbed by membership churn (a node joining mid-job,
//! a node leaving voluntarily) and shard work-stealing must land on
//! **bit-identical** results to an undisturbed elastic run of the same
//! initial cluster shape — for k-means, PCA, and sparse k-means.
//!
//! The invariant under test: the work-unit set is a pure function of
//! the shard map and the steal grain, never of live membership, so any
//! steal/join/leave pattern merges (in ascending `first_row` order) to
//! the same bytes.

use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cfr_apps::cluster::{
    kmeans_cluster_ft, pca_cluster_ft, sparse_kmeans_cluster_ft, ElasticPolicy, FtOptions, Nodes,
};
use cfr_apps::kmeans::KmeansParams;
use cfr_apps::pca::PcaParams;
use cfr_apps::sparse_kmeans::SparseKmeansParams;
use freeride_dist::node::{self, Behaviour};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// An elastic policy with stealing on at an explicit grain, so the
/// disturbed and undisturbed runs cut exactly the same unit set.
fn stealing(grain: u64) -> ElasticPolicy {
    ElasticPolicy {
        steal: true,
        steal_grain: grain,
        ..ElasticPolicy::default()
    }
}

/// Reserve a loopback port for the membership hub: bind an ephemeral
/// listener, note its address, release it. The driver re-binds it from
/// `join_listen` when the job starts.
fn reserve_hub_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap().to_string();
    drop(l);
    addr
}

/// A mid-job joiner: keeps dialing the coordinator's membership hub
/// (which only exists once the job starts) until it gets in, then
/// serves the rest of the job from the inside. A hub that vanishes
/// after the handshake (job ended first) is a clean no-op in
/// `node::join`, so this thread never hangs.
fn spawn_joiner(hub: &str) -> JoinHandle<()> {
    let addr: SocketAddr = hub.parse().unwrap();
    std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match node::join(&addr, Behaviour::default()) {
                Ok(()) => return,
                Err(e) => {
                    assert!(Instant::now() < deadline, "joiner never connected: {e}");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    })
}

/// Spawn `n` external-style node agents, each serving `sessions`
/// sequential jobs. `slow` nodes sleep that many ms before every work
/// unit (deterministic stragglers, forcing steals); a `leave` entry
/// `(node, session, after_rounds)` makes that node announce a voluntary
/// Leave in that session after handling `after_rounds` rounds (serving
/// every other session healthy).
fn elastic_agents(
    n: usize,
    sessions: usize,
    slow: &[(usize, u64)],
    leave: &[(usize, usize, u32)],
) -> (Vec<SocketAddr>, Vec<JoinHandle<()>>) {
    let mut addrs = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for id in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap());
        let slow_ms = slow
            .iter()
            .find(|&&(node, _)| node == id)
            .map_or(0, |&(_, ms)| ms);
        let plan = leave
            .iter()
            .find(|&&(node, _, _)| node == id)
            .map(|&(_, s, r)| (s, r));
        handles.push(std::thread::spawn(move || {
            for session in 0..sessions {
                let behaviour = match plan {
                    Some((leave_in, rounds)) if leave_in == session => {
                        Behaviour::leaves_after(rounds)
                    }
                    _ => Behaviour::slow(slow_ms),
                };
                if node::serve_with(&listener, behaviour).is_err() {
                    break;
                }
            }
        }));
    }
    (addrs, handles)
}

/// Tentpole acceptance gate: k-means under full membership churn — a
/// straggler forcing steals, a node joining mid-job, and a node leaving
/// voluntarily — is bit-identical to the undisturbed elastic run of the
/// same initial shape, at 2 and 4 nodes, without burning an FT retry.
#[test]
fn kmeans_elastic_churn_is_bit_identical() {
    let params = KmeansParams::new(240, 3, 4, 4);
    for nodes in [2usize, 4] {
        let baseline = kmeans_cluster_ft(
            &params,
            &Nodes::Loopback(nodes),
            &FtOptions::default().with_elastic(stealing(10)),
        )
        .unwrap();

        // Node 0 straggles (20 ms per unit), the last node leaves after
        // round 2, and a fresh node joins at a round barrier.
        let hub = reserve_hub_addr();
        let mut elastic = stealing(10);
        elastic.join_listen = Some(hub.clone());
        let (addrs, handles) = elastic_agents(nodes, 1, &[(0, 20)], &[(nodes - 1, 0, 2)]);
        let joiner = spawn_joiner(&hub);
        let out = kmeans_cluster_ft(
            &params,
            &Nodes::External(addrs),
            &FtOptions::default().with_elastic(elastic),
        )
        .unwrap();
        for h in handles {
            h.join().unwrap();
        }
        joiner.join().unwrap();

        assert_eq!(
            bits(&out.centroids),
            bits(&baseline.centroids),
            "{nodes}-node churned centroids"
        );
        assert_eq!(bits(&out.counts), bits(&baseline.counts));
        assert_eq!(out.stats.joins, 1, "{nodes} nodes: joiner absorbed");
        assert_eq!(out.stats.leaves, 1, "{nodes} nodes: voluntary leave");
        assert!(
            out.stats.steals >= 1,
            "{nodes} nodes: straggler stolen from"
        );
        assert_eq!(out.stats.retries, 0, "churn must not burn FT retries");
        assert_eq!(out.stats.recoveries, 0);
    }
}

/// PCA's two-phase driver composes with elastic scheduling: a node that
/// serves the mean phase healthy and then leaves at the start of the
/// cov phase (its units requeued and drained by the survivor) yields
/// bit-identical mean and scatter results.
#[test]
fn pca_elastic_leave_is_bit_identical() {
    let params = PcaParams::new(4, 60);
    let baseline = pca_cluster_ft(
        &params,
        &Nodes::Loopback(2),
        &FtOptions::default().with_elastic(stealing(8)),
    )
    .unwrap();

    // Two sessions per agent (one per phase); node 1 leaves immediately
    // in the second session, i.e. at the cov phase's only round.
    let (addrs, handles) = elastic_agents(2, 2, &[], &[(1, 1, 0)]);
    let out = pca_cluster_ft(
        &params,
        &Nodes::External(addrs),
        &FtOptions::default().with_elastic(stealing(8)),
    )
    .unwrap();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(bits(&out.mean), bits(&baseline.mean), "mean");
    assert_eq!(bits(&out.cov), bits(&baseline.cov), "scatter");
    assert_eq!(out.stats[0].leaves, 0, "mean phase served healthy");
    assert_eq!(out.stats[1].leaves, 1, "cov phase absorbed the leave");
    assert_eq!(out.stats[0].retries + out.stats[1].retries, 0);
}

/// Work-stealing composes with the nnz-balanced sparse shard cut: units
/// are sub-ranges of the explicit bounds, so steals forced by a
/// straggler plus a voluntary leave still merge to the exact integer
/// sums of the undisturbed elastic run.
#[test]
fn sparse_kmeans_elastic_steal_and_leave_bit_identical() {
    let params = SparseKmeansParams::new(300, 12, 4, 3, 3);
    let baseline = sparse_kmeans_cluster_ft(
        &params,
        &Nodes::Loopback(2),
        &FtOptions::default().with_elastic(stealing(16)),
    )
    .unwrap();

    // Node 0 straggles; node 1 leaves after the first round.
    let (addrs, handles) = elastic_agents(2, 1, &[(0, 10)], &[(1, 0, 1)]);
    let out = sparse_kmeans_cluster_ft(
        &params,
        &Nodes::External(addrs),
        &FtOptions::default().with_elastic(stealing(16)),
    )
    .unwrap();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(bits(&out.sums), bits(&baseline.sums), "integer sums");
    assert_eq!(bits(&out.centroids), bits(&baseline.centroids), "centroids");
    assert_eq!(bits(&out.counts), bits(&baseline.counts), "counts");
    assert!(out.stats.steals >= 1, "straggler stolen from");
    assert_eq!(out.stats.leaves, 1);
    assert_eq!(out.stats.retries, 0);
}
