//! Differential tests: the distributed engine vs the single-process
//! engine vs the `chapel-interp` oracle, on the paper's applications.
//!
//! A 1/2/4-node loopback cluster must produce the same k-means
//! centroids and PCA matrices as `cfr_apps::{kmeans,pca}::run` (within
//! combine-order floating-point tolerance), and a single round must
//! match the Chapel interpreter running the original program.

use cfr_apps::cluster::{kmeans_cluster, pca_cluster, Nodes};
use cfr_apps::kmeans::{self, KmeansParams};
use cfr_apps::pca::{self, PcaParams};
use cfr_apps::{data, Version};
use chapel_frontend::programs;
use linearize::{Linearizer, Shape};

fn close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

#[test]
fn cluster_kmeans_matches_single_process_engine() {
    let params = KmeansParams::new(240, 3, 4, 3).threads(2);
    let single = kmeans::run(&params, Version::Manual).unwrap();
    for nodes in [1usize, 2, 4] {
        let cluster = kmeans_cluster(&params, &Nodes::Loopback(nodes)).unwrap();
        close(
            &cluster.centroids,
            &single.centroids,
            1e-9,
            &format!("{nodes}-node centroids"),
        );
        close(
            &cluster.counts,
            &single.counts,
            0.0,
            &format!("{nodes}-node counts"),
        );
        assert_eq!(cluster.stats.nodes, nodes);
        assert_eq!(cluster.stats.rounds, 3);
    }
}

#[test]
fn cluster_kmeans_paper_config_matches_single_process() {
    // The paper's Figure-9 reduction shape (k=100, i=10) at container
    // scale: 100 centroids refined for 10 rounds on a 2-node cluster.
    let params = KmeansParams::new(2000, 8, 100, 10).threads(2);
    let single = kmeans::run(&params, Version::Manual).unwrap();
    let cluster = kmeans_cluster(&params, &Nodes::Loopback(2)).unwrap();
    close(
        &cluster.centroids,
        &single.centroids,
        1e-9,
        "k=100 centroids",
    );
    close(&cluster.counts, &single.counts, 0.0, "k=100 counts");
    assert_eq!(cluster.stats.rounds, 10);
}

#[test]
fn cluster_kmeans_single_round_matches_interpreter_oracle() {
    let (n, k, d) = (40usize, 3usize, 2usize);
    let interp = chapel_interp::Interpreter::run_source(&programs::kmeans(n, k, d)).unwrap();
    let new_cent = interp.global("newCent").unwrap().to_linear().unwrap();
    let oracle = Linearizer::new(&data::kmeans_centroid_shape(k, d))
        .linearize(&new_cent)
        .unwrap()
        .buffer;

    let params = KmeansParams::new(n, d, k, 1);
    let cluster = kmeans_cluster(&params, &Nodes::Loopback(2)).unwrap();
    // The oracle holds one round's raw sums; reconstruct them from the
    // averaged centroids and the counts (as the single-process test does).
    for c in 0..k {
        let count = cluster.counts[c];
        assert_eq!(count, oracle[c * (d + 1) + d], "count[{c}]");
        for j in 0..d {
            let sum = oracle[c * (d + 1) + j];
            if count > 0.0 {
                let avg = cluster.centroids[c * d + j];
                assert!((avg * count - sum).abs() < 1e-9, "sum[{c}][{j}]");
            }
        }
    }
}

#[test]
fn cluster_pca_matches_single_process_engine() {
    let params = PcaParams::new(4, 60).threads(2);
    let single = pca::run(&params, Version::Manual).unwrap();
    for nodes in [1usize, 2, 4] {
        let cluster = pca_cluster(&params, &Nodes::Loopback(nodes)).unwrap();
        close(
            &cluster.mean,
            &single.mean,
            1e-9,
            &format!("{nodes}-node mean"),
        );
        close(
            &cluster.cov,
            &single.cov,
            1e-9,
            &format!("{nodes}-node cov"),
        );
        assert_eq!(cluster.stats.len(), 2, "mean job + cov job");
    }
}

#[test]
fn cluster_pca_matches_interpreter_oracle() {
    let (rows, cols) = (3usize, 8usize);
    let interp = chapel_interp::Interpreter::run_source(&programs::pca(rows, cols)).unwrap();
    let oracle_mean = interp.global("mean").unwrap().to_linear().unwrap();
    let oracle_mean = Linearizer::new(&Shape::array(Shape::Real, rows))
        .linearize(&oracle_mean)
        .unwrap()
        .buffer;
    let oracle_cov = interp.global("cov").unwrap().to_linear().unwrap();
    let oracle_cov = Linearizer::new(&Shape::array(Shape::array(Shape::Real, rows), rows))
        .linearize(&oracle_cov)
        .unwrap()
        .buffer;

    let cluster = pca_cluster(&PcaParams::new(rows, cols), &Nodes::Loopback(2)).unwrap();
    close(&cluster.mean, &oracle_mean, 1e-12, "mean vs oracle");
    close(&cluster.cov, &oracle_cov, 1e-9, "cov vs oracle");
}

#[test]
fn traced_cluster_kmeans_ships_multi_pid_trace() {
    let mut params = KmeansParams::new(120, 2, 3, 2).threads(1);
    params.config.trace = obs::TraceLevel::Phases;
    let cluster = kmeans_cluster(&params, &Nodes::Loopback(2)).unwrap();
    let trace = cluster.trace.expect("tracing was requested");
    let pids: std::collections::BTreeSet<usize> = trace.spans.iter().map(|s| s.pid).collect();
    assert_eq!(pids.len(), 3, "coordinator + 2 nodes");
    assert_eq!(trace.count("node.pass"), 4, "2 nodes × 2 rounds");
    let telemetry = cluster.telemetry.expect("hub was enabled");
    assert!(telemetry.counter("dist.bytes_sent") > 0);
    // Per-node RunStats reconstructed from shipped traces.
    assert_eq!(cluster.stats.node_stats.len(), 2);
}

#[test]
fn external_style_nodes_serve_both_pca_sessions() {
    // PCA runs two jobs; multi-session agents must survive both, as
    // `cfr-node --sessions 2` does.
    let (addrs, handles) = cfr_apps::cluster::spawn_multi_session_loopback(2, 2).unwrap();
    let params = PcaParams::new(3, 30);
    let single = pca::run(&params, Version::Manual).unwrap();
    let cluster = pca_cluster(&params, &Nodes::External(addrs)).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    close(&cluster.mean, &single.mean, 1e-9, "external mean");
    close(&cluster.cov, &single.cov, 1e-9, "external cov");
}
