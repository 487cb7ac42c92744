//! The cluster round protocol, seen by tier-1 (`cargo test` at the
//! root runs only this package's tests; the full matrix lives in
//! `crates/dist/tests`): one round dialogue serves stealing on and off,
//! recovery is bit-identical in both, and a peer speaking the previous
//! wire version is refused with a typed error.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use freeride_dist::node::{self, Behaviour};
use freeride_dist::proto::{Message, WIRE_VERSION};
use freeride_dist::{run_loopback, ClusterConfig, Coordinator, DistError, LoopbackCluster};

/// Integer-valued rows: every partial sum is exact in f64, so results
/// must agree to the bit whatever the unit split or fold order.
fn dataset(tag: &str) -> (PathBuf, Vec<f64>) {
    let data: Vec<f64> = (0..1200).map(|i| ((i * 13 + 5) % 91) as f64).collect();
    let mut path = std::env::temp_dir();
    path.push(format!(
        "cfr-round-protocol-{tag}-{}.frds",
        std::process::id()
    ));
    freeride::source::write_dataset(&path, 2, &data).unwrap();
    (path, data)
}

fn kmeans_cfg(path: &PathBuf, steal: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::new("kmeans", path);
    cfg.params = vec![3, 2];
    cfg.init_state = vec![10.0, 10.0, 45.0, 45.0, 80.0, 80.0];
    cfg.rounds = 3;
    cfg.ft.backoff = Duration::from_millis(1);
    cfg.elastic.steal = steal;
    cfg.elastic.steal_grain = 40;
    cfg
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn steal_off_equals_steal_on_equals_direct_sum() {
    let (path, data) = dataset("sum");
    let direct: f64 = data.iter().sum();
    for nodes in [2usize, 3] {
        for steal in [false, true] {
            let mut cfg = ClusterConfig::new("sum", &path);
            cfg.elastic.steal = steal;
            cfg.elastic.steal_grain = 40;
            let out = run_loopback(cfg, nodes).unwrap();
            assert_eq!(
                out.robj.get(0, 0).to_bits(),
                direct.to_bits(),
                "{nodes} nodes, steal {steal}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn kill_recovery_is_bit_identical_with_steal_off_and_on() {
    let (path, _) = dataset("kill");
    for steal in [false, true] {
        let baseline = run_loopback(kmeans_cfg(&path, steal), 3).unwrap();
        // Node 1 completes one round, then drops its socket mid-round.
        let cluster = LoopbackCluster::spawn_with(3, &[(1, Behaviour::dies_after(1))]).unwrap();
        let out = Coordinator::new(kmeans_cfg(&path, steal))
            .run(cluster.addrs())
            .unwrap();
        cluster.join().unwrap();
        assert_eq!(bits(&out.state), bits(&baseline.state), "steal {steal}");
        assert_eq!(
            bits(out.robj.cells()),
            bits(baseline.robj.cells()),
            "steal {steal}"
        );
        assert_eq!(out.stats.retries, 1, "steal {steal}");
        assert_eq!(out.stats.shards_reassigned, 1, "steal {steal}");
    }
    std::fs::remove_file(&path).ok();
}

/// A frame stamped with the previous wire version is a typed protocol
/// error on whichever side reads it — never a hang, never a panic.
#[test]
fn previous_wire_version_is_a_typed_error_on_both_sides() {
    use std::io::{Read, Write};
    let stale = |msg: Message| {
        let mut frame = msg.encode();
        frame[4] = WIRE_VERSION - 1;
        frame
    };

    // A v6 coordinator dialing this node.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let agent = std::thread::spawn(move || node::serve_with(&listener, Behaviour::default()));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&stale(Message::Hello { node_id: 0 }))
        .unwrap();
    let err = agent.join().unwrap().unwrap_err();
    assert!(matches!(err, DistError::Protocol { .. }), "{err}");
    assert!(err.to_string().contains("wire version 6"), "{err}");

    // A v6 node answering this coordinator.
    let (path, _) = dataset("skew");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let old_node = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut hello = [0u8; 14];
        stream.read_exact(&mut hello).unwrap();
        stream
            .write_all(&stale(Message::HelloAck { node_id: 0 }))
            .unwrap();
    });
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.read_timeout = Duration::from_secs(2);
    let err = Coordinator::new(cfg).run(&[addr]).unwrap_err();
    old_node.join().unwrap();
    assert!(matches!(err, DistError::Protocol { .. }), "{err}");
    assert!(err.to_string().contains("wire version 6"), "{err}");
    std::fs::remove_file(&path).ok();
}
