//! End-to-end loopback cluster tests: coordinator + node agents over
//! real TCP sockets on 127.0.0.1, in-process for determinism.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use freeride_dist::node::Behaviour;
use freeride_dist::proto::{read_message, write_message, Message};
use freeride_dist::{
    resume_loopback, run_loopback, ClusterConfig, Coordinator, DistError, LoopbackCluster,
};
use obs::TraceLevel;

fn dataset(tag: &str, unit: usize, data: &[f64]) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("freeride-dist-{tag}-{}.frds", std::process::id()));
    freeride::source::write_dataset(&path, unit, data).unwrap();
    path
}

#[test]
fn sum_task_matches_direct_sum_at_every_cluster_size() {
    let data: Vec<f64> = (0..1200).map(|i| (i as f64 * 0.13).sin()).collect();
    let expected: f64 = data.iter().sum();
    let path = dataset("sum", 4, &data);
    for nodes in [1usize, 2, 4] {
        let cfg = ClusterConfig::new("sum", &path);
        let out = run_loopback(cfg, nodes).unwrap();
        assert!(
            (out.robj.get(0, 0) - expected).abs() < 1e-9,
            "{nodes} nodes: {} != {expected}",
            out.robj.get(0, 0)
        );
        assert_eq!(out.stats.nodes, nodes);
        assert_eq!(out.stats.rounds, 1);
        assert!(out.stats.bytes_sent > 0 && out.stats.bytes_recv > 0);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn traced_run_merges_nodes_as_separate_pids() {
    let data: Vec<f64> = (0..400).map(|i| i as f64).collect();
    let path = dataset("trace", 2, &data);
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.trace = TraceLevel::Phases;
    cfg.rounds = 2;
    let out = run_loopback(cfg, 2).unwrap();
    let trace = out.trace.expect("tracing was on");
    // Coordinator on pid 0, nodes on pids 1 and 2.
    let pids: std::collections::BTreeSet<usize> = trace.spans.iter().map(|s| s.pid).collect();
    assert_eq!(pids, [0usize, 1, 2].into_iter().collect());
    // node.pass per node per round, cluster spans on the coordinator.
    assert_eq!(trace.count("node.pass"), 4);
    assert!(trace.count("cluster.round") == 2);
    assert!(trace.count("cluster.combine") == 2);
    assert_eq!(trace.counters["dist.rounds"], 2 + 4); // coordinator 2, 2 per node
    assert!(trace.counters["dist.bytes_sent"] > 0);
    assert!(trace.counters["dist.bytes_recv"] > 0);
    // Per-node engine stats were reconstructed from shipped traces.
    assert_eq!(out.stats.node_stats.len(), 2);
    // The exported Chrome trace passes the validator with 3 pid tracks.
    let summary = obs::validate_chrome_trace(&trace.chrome_json()).unwrap();
    assert_eq!(summary.pids, 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_task_is_a_typed_error() {
    let data = vec![1.0; 16];
    let path = dataset("badtask", 2, &data);
    let err = run_loopback(ClusterConfig::new("no-such-task", &path), 1).unwrap_err();
    assert!(matches!(err, DistError::BadTask { .. }), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_dataset_is_a_typed_error() {
    let err = run_loopback(ClusterConfig::new("sum", "/nonexistent/nowhere.frds"), 1).unwrap_err();
    assert!(
        matches!(err, DistError::Engine(_) | DistError::Io(_)),
        "{err}"
    );
}

/// A "node" that handshakes, accepts the job, then drops the connection
/// mid-round. The coordinator must surface a clean typed error — the
/// read timeout path — not hang.
#[test]
fn node_dropping_mid_round_surfaces_clean_error_not_hang() {
    let data = vec![1.0; 64];
    let path = dataset("drop", 2, &data);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let saboteur = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (hello, _) = read_message(&mut stream).unwrap();
        let Message::Hello { node_id } = hello else {
            panic!("expected Hello")
        };
        write_message(&mut stream, &Message::HelloAck { node_id }).unwrap();
        let _job = read_message(&mut stream).unwrap();
        let _round_start = read_message(&mut stream).unwrap();
        // Drop the stream without answering the round.
        drop(stream);
    });

    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.read_timeout = Duration::from_millis(500);
    let start = std::time::Instant::now();
    let err = Coordinator::new(cfg).run(&[addr]).unwrap_err();
    saboteur.join().unwrap();
    // A dropped connection surfaces as a node/timeout error quickly;
    // never as a hang (generous bound for slow CI).
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "took {:?}",
        start.elapsed()
    );
    assert!(
        matches!(
            err,
            DistError::Node { node: 0, .. } | DistError::Timeout { node: 0, .. }
        ),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A node that hangs (connected but silent) trips the read timeout.
#[test]
fn silent_node_trips_read_timeout() {
    let data = vec![1.0; 64];
    let path = dataset("silent", 2, &data);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let hanger = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Hold the socket open but never speak.
        release_rx.recv().ok();
        drop(stream);
    });

    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.read_timeout = Duration::from_millis(300);
    let err = Coordinator::new(cfg).run(&[addr]).unwrap_err();
    assert!(err.is_timeout(), "{err}");
    assert!(err.to_string().contains("HelloAck"), "{err}");
    release_tx.send(()).ok();
    hanger.join().unwrap();
    std::fs::remove_file(&path).ok();
}

/// Version-skewed frames are rejected with a protocol error, end to end
/// over a real socket.
#[test]
fn version_mismatched_frame_rejected_over_socket() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        freeride_dist::node::serve_with(&listener, Behaviour::default())
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut frame = Message::Hello { node_id: 0 }.encode();
    frame[4] = 99; // wire version byte
    use std::io::Write;
    stream.write_all(&frame).unwrap();
    let err = server.join().unwrap().unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
}

/// Iterative state broadcast: with 2 rounds of k-means the centroids
/// move, and the loopback cluster stays in lockstep.
#[test]
fn kmeans_two_rounds_update_state() {
    let (n, d, k) = (60usize, 2usize, 2usize);
    let data: Vec<f64> = (0..n)
        .flat_map(|i| {
            let base = if i % 2 == 0 { 0.0 } else { 10.0 };
            [base + (i as f64 * 0.01), base - (i as f64 * 0.01)]
        })
        .collect();
    let path = dataset("kmeans2", d, &data);
    let mut cfg = ClusterConfig::new("kmeans", &path);
    cfg.params = vec![k as i64, d as i64];
    cfg.init_state = vec![1.0, 1.0, 9.0, 9.0];
    cfg.rounds = 2;
    let out = run_loopback(cfg, 2).unwrap();
    assert_eq!(out.state.len(), k * d);
    assert_ne!(out.state, vec![1.0, 1.0, 9.0, 9.0], "centroids should move");
    // Counts cover every point exactly once.
    let cells = out.robj.group_slice(0);
    let total: f64 = (0..k).map(|c| cells[c * (d + 1) + d]).sum();
    assert_eq!(total, n as f64);
    std::fs::remove_file(&path).ok();
}

/// Nodes running the streaming chunk pipeline must produce exactly the
/// result of the sync shard path — same cells, every cluster size —
/// and ship their `io.*` activity home in the trace.
#[test]
fn streaming_io_matches_sync_over_loopback() {
    // Small-integer data: sums are exact in f64, so "identical" means
    // bit-identical, not within-epsilon.
    let data: Vec<f64> = (0..8000).map(|i| ((i * 13 + 5) % 91) as f64).collect();
    let path = dataset("stream-diff", 4, &data);
    let rows = data.len() / 4;

    let sync = run_loopback(ClusterConfig::new("sum", &path), 2).unwrap();
    for nodes in [1usize, 2, 4] {
        let mut cfg = ClusterConfig::new("sum", &path);
        cfg.threads_per_node = 2;
        cfg.trace = TraceLevel::Phases;
        cfg.io = freeride::IoMode::Streaming {
            chunk_rows: 64,
            buffers: 3,
            readers: 2,
        };
        let out = run_loopback(cfg, nodes).unwrap();
        assert_eq!(out.robj.cells(), sync.robj.cells(), "{nodes} nodes");
        // Each node reconstructs its streaming activity from the
        // shipped trace; together they read the whole payload.
        let total_chunks: usize = out.stats.node_stats.iter().map(|s| s.io.chunks).sum();
        let total_bytes: u64 = out.stats.node_stats.iter().map(|s| s.io.bytes_read).sum();
        assert!(
            total_chunks >= rows.div_ceil(64),
            "{nodes} nodes: {total_chunks} chunks"
        );
        assert_eq!(total_bytes as usize, data.len() * 8, "{nodes} nodes");
    }

    // Iterative job: two k-means rounds stay in lockstep under
    // streaming I/O.
    let (d, k) = (4usize, 3usize);
    let mut sync_cfg = ClusterConfig::new("kmeans", &path);
    sync_cfg.params = vec![k as i64, d as i64];
    sync_cfg.init_state = vec![
        0.0, 0.0, 0.0, 0.0, 30.0, 30.0, 30.0, 30.0, 60.0, 60.0, 60.0, 60.0,
    ];
    sync_cfg.rounds = 2;
    let mut stream_cfg = sync_cfg.clone();
    stream_cfg.io = freeride::IoMode::Streaming {
        chunk_rows: 100,
        buffers: 4,
        readers: 2,
    };
    let a = run_loopback(sync_cfg, 2).unwrap();
    let b = run_loopback(stream_cfg, 2).unwrap();
    assert_eq!(a.state, b.state, "streaming k-means diverged from sync");
    assert_eq!(a.robj.cells(), b.robj.cells());
    std::fs::remove_file(&path).ok();
}

/// A dataset truncated mid-run (after the node validated it at Job
/// time) fails a streaming round with a typed [`DistError::Node`] at
/// the coordinator — never a hang. A frame-aware proxy sits between the
/// coordinator and a real node agent and truncates the file in the gap
/// between forwarding `Job` and `RoundStart`.
#[test]
fn streaming_truncation_mid_run_surfaces_as_node_error() {
    let data: Vec<f64> = (0..40_000).map(|i| i as f64).collect();
    let path = dataset("stream-trunc", 2, &data);

    let cluster = LoopbackCluster::spawn(1).unwrap();
    let node_addr = cluster.addrs()[0];
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy_addr = listener.local_addr().unwrap();
    let trunc_path = path.clone();
    let proxy = std::thread::spawn(move || {
        let (mut from_coord, _) = listener.accept().unwrap();
        let mut to_node = TcpStream::connect(node_addr).unwrap();
        let mut node_reply = to_node.try_clone().unwrap();
        let mut coord_reply = from_coord.try_clone().unwrap();
        let backward = std::thread::spawn(move || {
            while let Ok((msg, _)) = read_message(&mut node_reply) {
                if write_message(&mut coord_reply, &msg).is_err() {
                    break;
                }
            }
        });
        while let Ok((msg, _)) = read_message(&mut from_coord) {
            let was_job = matches!(msg, Message::Job { .. });
            if write_message(&mut to_node, &msg).is_err() {
                break;
            }
            if was_job {
                // Give the node time to validate the intact file, then
                // cut the payload in half before the round goes out.
                std::thread::sleep(Duration::from_millis(300));
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&trunc_path)
                    .unwrap();
                let len = f.metadata().unwrap().len();
                f.set_len(len / 2).unwrap();
            }
        }
        drop(to_node);
        backward.join().ok();
    });

    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.io = freeride::IoMode::Streaming {
        chunk_rows: 512,
        buffers: 3,
        readers: 2,
    };
    let start = std::time::Instant::now();
    let err = Coordinator::new(cfg).run(&[proxy_addr]).unwrap_err();
    assert!(matches!(err, DistError::Node { .. }), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "took {:?}",
        start.elapsed()
    );
    proxy.join().unwrap();
    // The node session legitimately ended in the I/O error it reported.
    assert!(cluster.join().is_err());
    std::fs::remove_file(&path).ok();
}

/// LoopbackCluster::spawn + explicit Coordinator composition (the
/// pieces `run_loopback` glues together).
#[test]
fn explicit_cluster_composition() {
    let data = vec![2.0; 100];
    let path = dataset("explicit", 2, &data);
    let cluster = LoopbackCluster::spawn(3).unwrap();
    assert_eq!(cluster.addrs().len(), 3);
    let out = Coordinator::new(ClusterConfig::new("sum", &path))
        .run(cluster.addrs())
        .unwrap();
    cluster.join().unwrap();
    assert_eq!(out.robj.get(0, 0), 200.0);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Fault tolerance: node-failure recovery and resume-from-checkpoint.
// ---------------------------------------------------------------------

fn ckpt_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("freeride-ckpt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn kmeans_cfg(path: &PathBuf, rounds: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new("kmeans", path);
    cfg.params = vec![3, 2];
    cfg.init_state = vec![0.0, 0.0, 5.0, 5.0, 11.0, 9.0];
    cfg.rounds = rounds;
    cfg.read_timeout = Duration::from_secs(5);
    cfg
}

fn kmeans_data() -> Vec<f64> {
    (0..300)
        .flat_map(|i| {
            let base = (i % 3) as f64 * 5.0;
            [
                base + (i as f64 * 0.017).sin(),
                base + (i as f64 * 0.031).cos(),
            ]
        })
        .collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The tentpole acceptance gate: kill a real node agent mid-round and
/// the recovered run is **bit-identical** to an undisturbed run of the
/// same cluster shape — per-unit results merged in global row order
/// make the combination fold independent of shard placement.
#[test]
fn killed_node_recovery_is_bit_identical_for_kmeans() {
    let data = kmeans_data();
    for nodes in [2usize, 4] {
        let path = dataset(&format!("ft-kmeans-{nodes}"), 2, &data);
        let baseline = run_loopback(kmeans_cfg(&path, 3), nodes).unwrap();

        // Node 1 completes one round, then severs its connection
        // mid-round — what a SIGKILLed process looks like on the wire.
        let cluster = LoopbackCluster::spawn_with(nodes, &[(1, Behaviour::dies_after(1))]).unwrap();
        let mut cfg = kmeans_cfg(&path, 3);
        cfg.trace = TraceLevel::Phases;
        let out = Coordinator::new(cfg).run(cluster.addrs()).unwrap();
        cluster.join().unwrap();

        assert_eq!(
            bits(&out.state),
            bits(&baseline.state),
            "{nodes} nodes: recovered centroids differ"
        );
        assert_eq!(
            bits(out.robj.cells()),
            bits(baseline.robj.cells()),
            "{nodes} nodes: recovered reduction object differs"
        );
        assert_eq!(out.stats.recoveries, 1);
        assert_eq!(out.stats.retries, 1);
        assert_eq!(out.stats.shards_reassigned, 1);
        let trace = out.trace.expect("tracing was on");
        assert_eq!(trace.count("ft.recover"), 1);
        assert_eq!(trace.counters["ft.recoveries"], 1);
        std::fs::remove_file(&path).ok();
    }
}

/// Same gate for a single-pass reduction: the dead node's shard lands on
/// a survivor and the sum is bit-identical.
#[test]
fn killed_node_recovery_is_bit_identical_for_sum() {
    let data: Vec<f64> = (0..900).map(|i| (i as f64 * 0.21).sin()).collect();
    let path = dataset("ft-sum", 4, &data);
    let baseline = run_loopback(ClusterConfig::new("sum", &path), 4).unwrap();

    let cluster = LoopbackCluster::spawn_with(4, &[(2, Behaviour::dies_after(0))]).unwrap();
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.read_timeout = Duration::from_secs(5);
    let out = Coordinator::new(cfg).run(cluster.addrs()).unwrap();
    cluster.join().unwrap();
    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(out.stats.recoveries, 1);
    std::fs::remove_file(&path).ok();
}

/// With one node there is no survivor to reassign to: a kill surfaces
/// the underlying typed error, fast.
#[test]
fn killed_node_with_no_survivors_is_typed_error() {
    let data = vec![1.0; 64];
    let path = dataset("ft-lonely", 2, &data);
    let cluster = LoopbackCluster::spawn_with(1, &[(0, Behaviour::dies_after(0))]).unwrap();
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.read_timeout = Duration::from_millis(500);
    let start = std::time::Instant::now();
    let err = Coordinator::new(cfg).run(cluster.addrs()).unwrap_err();
    assert!(
        matches!(err, DistError::Node { .. } | DistError::Timeout { .. }),
        "{err}"
    );
    assert!(start.elapsed() < Duration::from_secs(5));
    cluster.join().unwrap();
    std::fs::remove_file(&path).ok();
}

/// Failures beyond `max_retries` surface as `RetriesExhausted` wrapping
/// the last failure.
#[test]
fn retry_budget_exhaustion_is_typed() {
    let data = vec![1.0; 120];
    let path = dataset("ft-budget", 2, &data);
    // Two of three nodes die on their first round; budget allows one
    // recovery.
    let cluster = LoopbackCluster::spawn_with(
        3,
        &[(1, Behaviour::dies_after(0)), (2, Behaviour::dies_after(0))],
    )
    .unwrap();
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.read_timeout = Duration::from_millis(500);
    cfg.ft.max_retries = 1;
    cfg.ft.backoff = Duration::from_millis(1);
    let err = Coordinator::new(cfg).run(cluster.addrs()).unwrap_err();
    match err {
        DistError::RetriesExhausted { retries, .. } => assert_eq!(retries, 1),
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    // The fleet's drop-time goodbye reached the surviving node, so every
    // agent (survivor and scheduled chaos deaths alike) exits cleanly.
    cluster.join().unwrap();
    std::fs::remove_file(&path).ok();
}

/// `reassign: false` restores fail-fast: the first failure aborts the
/// run with the plain underlying error even with survivors available.
/// The abort must not strand the survivor: the fleet's drop-time
/// goodbye sends it a Shutdown frame, so its agent exits `Ok` instead
/// of erroring out of (or hanging on) a dead coordinator socket.
#[test]
fn reassign_false_fails_fast() {
    let data = vec![1.0; 120];
    let path = dataset("ft-failfast", 2, &data);
    let cluster = LoopbackCluster::spawn_with(2, &[(0, Behaviour::dies_after(0))]).unwrap();
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.read_timeout = Duration::from_millis(500);
    cfg.ft.reassign = false;
    let err = Coordinator::new(cfg).run(cluster.addrs()).unwrap_err();
    assert!(
        matches!(err, DistError::Node { .. } | DistError::Timeout { .. }),
        "{err}"
    );
    cluster.join().unwrap();
    std::fs::remove_file(&path).ok();
}

/// Checkpointing an undisturbed run must not perturb the results, and
/// the retention policy keeps the directory bounded.
#[test]
fn checkpointing_does_not_perturb_and_prunes() {
    let data = kmeans_data();
    let path = dataset("ft-ckpt-clean", 2, &data);
    let dir = ckpt_dir("clean");
    let plain = run_loopback(kmeans_cfg(&path, 6), 2).unwrap();
    let mut cfg = kmeans_cfg(&path, 6);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.trace = TraceLevel::Phases;
    let out = run_loopback(cfg, 2).unwrap();
    assert_eq!(bits(&out.state), bits(&plain.state));
    assert_eq!(bits(out.robj.cells()), bits(plain.robj.cells()));
    assert_eq!(out.stats.checkpoints_written, 6);
    assert!(out.stats.checkpoint_bytes > 0);
    // Default retention keeps the newest 4 of the 6 written rounds.
    let store = freeride_ft::CheckpointStore::open(&dir).unwrap();
    assert_eq!(store.rounds().unwrap(), vec![2, 3, 4, 5]);
    let latest = store.latest().unwrap().unwrap();
    assert_eq!(latest.round, 5);
    assert_eq!(bits(&latest.state), bits(&out.state));
    // The merged trace alone reconstructs the cluster-level stats.
    let trace = out.trace.expect("tracing was on");
    assert_eq!(trace.count("ft.checkpoint"), 6);
    let rebuilt = freeride_dist::ClusterStats::from_trace(&trace);
    assert_eq!(rebuilt.nodes, out.stats.nodes);
    assert_eq!(rebuilt.rounds, out.stats.rounds);
    assert_eq!(rebuilt.bytes_sent, out.stats.bytes_sent);
    assert_eq!(rebuilt.bytes_recv, out.stats.bytes_recv);
    assert_eq!(rebuilt.checkpoints_written, out.stats.checkpoints_written);
    assert_eq!(rebuilt.checkpoint_bytes, out.stats.checkpoint_bytes);
    assert_eq!(rebuilt.recoveries, 0);
    std::fs::remove_dir_all(&dir).ok();

    // A sparser cadence checkpoints every other round (the final round
    // is always among them) and still does not perturb the results.
    let dir = ckpt_dir("every-2");
    let mut cfg = kmeans_cfg(&path, 6);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.ft.checkpoint_every = 2;
    let out = run_loopback(cfg, 2).unwrap();
    assert_eq!(bits(&out.state), bits(&plain.state));
    assert_eq!(out.stats.checkpoints_written, 3);
    let store = freeride_ft::CheckpointStore::open(&dir).unwrap();
    assert_eq!(store.rounds().unwrap(), vec![1, 3, 5]);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// Coordinator-crash recovery: a run that dies mid-job leaves
/// checkpoints behind; `resume_from` on a fresh cluster of the same
/// shape finishes **bit-identical** to a run that never crashed.
#[test]
fn resume_after_coordinator_crash_is_bit_identical() {
    let data = kmeans_data();
    let path = dataset("ft-resume", 2, &data);
    let dir = ckpt_dir("resume");
    let baseline = run_loopback(kmeans_cfg(&path, 5), 2).unwrap();

    // The "crashing" run: recovery disabled so the node kill after two
    // answered rounds aborts the job, leaving checkpoints 0 and 1.
    let cluster = LoopbackCluster::spawn_with(2, &[(0, Behaviour::dies_after(2))]).unwrap();
    let mut cfg = kmeans_cfg(&path, 5);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.ft.reassign = false;
    cfg.read_timeout = Duration::from_millis(500);
    Coordinator::new(cfg.clone())
        .run(cluster.addrs())
        .unwrap_err();
    // Even the aborted run says goodbye: the surviving node got a
    // Shutdown frame, so the whole cluster joins cleanly.
    cluster.join().unwrap();

    // Resume on a fresh, healthy cluster of the same node count.
    cfg.ft.reassign = true;
    cfg.trace = TraceLevel::Phases;
    let resumed = resume_loopback(cfg, 2).unwrap();
    assert_eq!(bits(&resumed.state), bits(&baseline.state));
    assert_eq!(bits(resumed.robj.cells()), bits(baseline.robj.cells()));
    // The resumed process itself ran only the remaining rounds.
    assert_eq!(resumed.stats.rounds, 3);
    assert_eq!(resumed.stats.recoveries, 1);
    let trace = resumed.trace.expect("tracing was on");
    assert_eq!(trace.count("ft.recover"), 1);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// Resuming when every round is already checkpointed completes without
/// touching the cluster (and without needing one).
#[test]
fn resume_with_nothing_left_uses_checkpoint_only() {
    let data = kmeans_data();
    let path = dataset("ft-resume-done", 2, &data);
    let dir = ckpt_dir("resume-done");
    let mut cfg = kmeans_cfg(&path, 3);
    cfg.checkpoint_dir = Some(dir.clone());
    let full = run_loopback(cfg.clone(), 2).unwrap();
    // No cluster at all: resume straight from the final checkpoint.
    let resumed = Coordinator::new(cfg).resume_from(&[]).unwrap();
    assert_eq!(bits(&resumed.state), bits(&full.state));
    assert_eq!(bits(resumed.robj.cells()), bits(full.robj.cells()));
    assert_eq!(resumed.stats.rounds, 0);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// Resume without a checkpoint directory (or with an empty one) is a
/// typed error, not a panic or a silent fresh start.
#[test]
fn resume_without_checkpoints_is_typed_error() {
    let data = vec![1.0; 32];
    let path = dataset("ft-resume-none", 2, &data);
    let err = Coordinator::new(ClusterConfig::new("sum", &path))
        .resume_from(&[])
        .unwrap_err();
    assert!(matches!(err, DistError::BadTask { .. }), "{err}");
    let dir = ckpt_dir("resume-none");
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.checkpoint_dir = Some(dir.clone());
    let err = Coordinator::new(cfg).resume_from(&[]).unwrap_err();
    assert!(
        matches!(
            err,
            DistError::Ft(freeride_ft::FtError::NoCheckpoint { .. })
        ),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// Concurrent coordinator sessions multiplexed onto one shared fleet
/// ([`node::serve_concurrent`] via `spawn_concurrent`) produce exactly
/// the results of isolated runs — the shape the `cfr-serve` daemon
/// relies on.
#[test]
fn concurrent_sessions_share_one_fleet() {
    let data: Vec<f64> = (0..2000).map(|i| ((i * 7 + 3) % 53) as f64).collect();
    let path = dataset("concurrent-sessions", 4, &data);
    let baseline = run_loopback(ClusterConfig::new("sum", &path), 2).unwrap();

    // Each of the 2 nodes serves 2 sessions concurrently.
    let cluster = LoopbackCluster::spawn_concurrent(2, 2).unwrap();
    let addrs = cluster.addrs().to_vec();
    let (p2, a2) = (path.clone(), addrs.clone());
    let second =
        std::thread::spawn(move || Coordinator::new(ClusterConfig::new("sum", &p2)).run(&a2));
    let out1 = Coordinator::new(ClusterConfig::new("sum", &path))
        .run(&addrs)
        .unwrap();
    let out2 = second.join().unwrap().unwrap();
    cluster.join().unwrap();
    assert_eq!(bits(out1.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(bits(out2.robj.cells()), bits(baseline.robj.cells()));
    std::fs::remove_file(&path).ok();
}

/// Job tags namespace checkpoints under a shared root — concurrent
/// jobs neither prune each other's files nor resume from each other's
/// state — and a resume that reaches another job's checkpoints is
/// refused with the typed cross-job error.
#[test]
fn job_tags_namespace_checkpoints_and_reject_cross_job_resume() {
    let data = kmeans_data();
    let path = dataset("ft-jobtag", 2, &data);
    let root = ckpt_dir("jobtag");
    let baseline = run_loopback(kmeans_cfg(&path, 3), 2).unwrap();

    // Two tagged jobs share one checkpoint root.
    let mut a = kmeans_cfg(&path, 3);
    a.checkpoint_dir = Some(root.clone());
    a.job_tag = "alpha".into();
    let mut b = kmeans_cfg(&path, 3);
    b.checkpoint_dir = Some(root.clone());
    b.job_tag = "beta".into();
    let out_a = run_loopback(a.clone(), 2).unwrap();
    run_loopback(b, 2).unwrap();
    assert_eq!(bits(&out_a.state), bits(&baseline.state));
    assert!(root.join("job-alpha").is_dir());
    assert!(root.join("job-beta").is_dir());

    // Resuming alpha under its own tag reads its own namespace and is
    // bit-identical (everything already checkpointed → no cluster).
    let resumed = resume_loopback(a, 2).unwrap();
    assert_eq!(bits(&resumed.state), bits(&baseline.state));

    // The pre-namespacing hazard: an untagged job pointed straight at
    // alpha's checkpoints. The frame's job stamp refuses the resume.
    let mut untagged = kmeans_cfg(&path, 3);
    untagged.checkpoint_dir = Some(root.join("job-alpha"));
    let err = Coordinator::new(untagged).resume_from(&[]).unwrap_err();
    assert!(
        matches!(err, DistError::Ft(freeride_ft::FtError::JobMismatch { .. })),
        "{err}"
    );
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_file(&path).ok();
}

/// A checkpoint from a different job (task or params) is refused on
/// resume with a typed mismatch error.
#[test]
fn resume_rejects_mismatched_job() {
    let data = kmeans_data();
    let path = dataset("ft-resume-skew", 2, &data);
    let dir = ckpt_dir("resume-skew");
    let mut cfg = kmeans_cfg(&path, 2);
    cfg.checkpoint_dir = Some(dir.clone());
    run_loopback(cfg.clone(), 2).unwrap();
    let mut skewed = cfg.clone();
    skewed.task = "sum".into();
    skewed.params = vec![];
    let err = Coordinator::new(skewed).resume_from(&[]).unwrap_err();
    assert!(
        matches!(err, DistError::Ft(freeride_ft::FtError::Mismatch { .. })),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Live telemetry: fleet-aggregated metrics, straggler detection, and
// the flight recorder.
// ---------------------------------------------------------------------

/// The differential telemetry gate: the fleet-aggregated live counters
/// (coordinator hub merged with every node's final snapshot) must
/// exactly match the post-hoc reconstructions from the shipped trace —
/// `ClusterStats::from_trace` for cluster-level totals and
/// `RunStats::from_trace` for node I/O totals — and the aggregate must
/// survive an FRMT encode/decode round trip bit-identically.
#[test]
fn live_counters_bit_match_trace_reconstruction() {
    let data: Vec<f64> = (0..6000).map(|i| ((i * 11 + 7) % 83) as f64).collect();
    let path = dataset("telemetry-gate", 4, &data);
    let dir = ckpt_dir("telemetry-gate");
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.rounds = 4;
    cfg.trace = TraceLevel::Phases;
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.telemetry.stats_every = 1; // exercise in-band Stats absorption too
    cfg.io = freeride::IoMode::Streaming {
        chunk_rows: 128,
        buffers: 3,
        readers: 2,
    };
    let out = run_loopback(cfg, 2).unwrap();
    let trace = out.trace.as_ref().expect("tracing was on");
    let telemetry = out.telemetry.as_ref().expect("hub was enabled");

    let rebuilt = freeride_dist::ClusterStats::from_trace(trace);
    assert_eq!(telemetry.counter("fleet.rounds"), rebuilt.rounds as i64);
    assert_eq!(telemetry.counter("fleet.rounds"), out.stats.rounds as i64);
    assert_eq!(
        telemetry.counter("ft.checkpoints_written"),
        rebuilt.checkpoints_written as i64
    );
    assert_eq!(
        telemetry.counter("ft.checkpoint_bytes"),
        rebuilt.checkpoint_bytes as i64
    );
    assert_eq!(
        telemetry.counter("dist.bytes_sent"),
        rebuilt.bytes_sent as i64
    );
    assert_eq!(
        telemetry.counter("dist.bytes_recv"),
        rebuilt.bytes_recv as i64
    );

    // Node-side I/O counters summed across the fleet equal the per-node
    // engine stats reconstructed from the shipped traces.
    let trace_bytes: u64 = out.stats.node_stats.iter().map(|s| s.io.bytes_read).sum();
    let trace_chunks: usize = out.stats.node_stats.iter().map(|s| s.io.chunks).sum();
    assert_eq!(telemetry.counter("io.bytes_read"), trace_bytes as i64);
    assert_eq!(telemetry.counter("io.chunks"), trace_chunks as i64);
    // One node.pass span per work unit; the live counter agrees.
    assert_eq!(
        telemetry.counter("node.units"),
        trace.count("node.pass") as i64
    );

    // The aggregate survives the FRMT wire codec bit-identically.
    let decoded = obs::MetricsSnapshot::decode_bin(&telemetry.encode_bin()).unwrap();
    assert_eq!(&decoded, telemetry);

    // Round latency histograms: one node-measured sample per node per
    // round.
    let hist = telemetry
        .histograms
        .get("node.round_ns")
        .expect("histogram");
    assert_eq!(hist.count(), (out.stats.rounds * 2) as u64);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// A deterministically slow node is flagged as a straggler: counter,
/// `sched.straggler` instant span, per-node hub counter, and
/// `ClusterStats::from_trace` reconstruction — while results stay
/// bit-identical to an all-healthy run (detection only).
#[test]
fn slow_node_is_flagged_as_straggler() {
    let data: Vec<f64> = (0..800).map(|i| (i as f64 * 0.37).cos()).collect();
    let path = dataset("straggler", 4, &data);
    let baseline = run_loopback(ClusterConfig::new("sum", &path), 2).unwrap();

    let cluster = LoopbackCluster::spawn_with(2, &[(1, Behaviour::slow(60))]).unwrap();
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.rounds = 3;
    cfg.trace = TraceLevel::Phases;
    cfg.telemetry.straggler_multiplier = 4.0;
    cfg.telemetry.straggler_min_ns = 1_000_000; // 1 ms floor for test-sized rounds
    let coord = Coordinator::new(cfg);
    let out = coord.run(cluster.addrs()).unwrap();
    cluster.join().unwrap();

    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(out.stats.stragglers, 3, "every round flags node 1");
    let trace = out.trace.as_ref().expect("tracing was on");
    assert_eq!(trace.count("sched.straggler"), 3);
    assert_eq!(trace.counters["sched.stragglers"], 3);
    let rebuilt = freeride_dist::ClusterStats::from_trace(trace);
    assert_eq!(rebuilt.stragglers, 3);
    let telemetry = out.telemetry.as_ref().expect("hub was enabled");
    assert_eq!(telemetry.counter("sched.stragglers"), 3);
    assert_eq!(telemetry.counter("node1.stragglers"), 3);
    assert_eq!(telemetry.counter("node0.stragglers"), 0);

    // The coordinator's flight recorder retained recent spans for a
    // post-failure dump.
    let flight = coord.recorder().flight().expect("flight attached");
    assert!(!flight.is_empty());
    std::fs::remove_file(&path).ok();
}

/// An all-healthy, same-speed fleet flags nothing: the multiplier and
/// the minimum floor keep microsecond-scale jitter quiet.
#[test]
fn healthy_fleet_flags_no_stragglers() {
    let data = vec![1.5; 400];
    let path = dataset("no-straggler", 4, &data);
    let mut cfg = ClusterConfig::new("sum", &path);
    cfg.rounds = 3;
    cfg.trace = TraceLevel::Phases;
    let out = run_loopback(cfg, 3).unwrap();
    assert_eq!(out.stats.stragglers, 0);
    assert_eq!(out.telemetry.unwrap().counter("sched.stragglers"), 0);
    std::fs::remove_file(&path).ok();
}

/// A node killed mid-run still contributes telemetry: its last periodic
/// stats push survives into the fleet aggregate, alongside the
/// `health.node_failures` counter — and the recovery keeps its
/// bit-identity guarantee.
#[test]
fn dead_node_last_stats_push_survives_into_aggregate() {
    let data = kmeans_data();
    let path = dataset("telemetry-chaos", 2, &data);
    let baseline = run_loopback(kmeans_cfg(&path, 3), 2).unwrap();

    // Node 1 pushes stats every round and dies mid-round after
    // answering one round.
    let cluster = LoopbackCluster::spawn_with(2, &[(1, Behaviour::dies_after(1))]).unwrap();
    let mut cfg = kmeans_cfg(&path, 3);
    cfg.trace = TraceLevel::Phases;
    cfg.telemetry.stats_every = 1;
    let out = Coordinator::new(cfg).run(cluster.addrs()).unwrap();
    cluster.join().unwrap();

    assert_eq!(bits(&out.state), bits(&baseline.state));
    let telemetry = out.telemetry.as_ref().expect("hub was enabled");
    assert_eq!(telemetry.counter("health.node_failures"), 1);
    assert_eq!(telemetry.counter("fleet.rounds"), 3);
    // The survivor sees four rounds end (the aborted attempt included);
    // the dead node's single completed round is visible only through
    // its retained stats push.
    assert!(
        telemetry.counter("node.rounds") > 4,
        "dead node's push missing: node.rounds = {}",
        telemetry.counter("node.rounds")
    );
    std::fs::remove_file(&path).ok();
}

/// Tracing off ⇒ hub off ⇒ no telemetry in the outcome, and the
/// protocol carries empty metrics frames rather than inventing data.
#[test]
fn telemetry_absent_when_tracing_off() {
    let data = vec![2.0; 64];
    let path = dataset("telemetry-off", 2, &data);
    let out = run_loopback(ClusterConfig::new("sum", &path), 2).unwrap();
    assert!(out.telemetry.is_none());
    assert!(out.trace.is_none());
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Kernel backend: the compiled escape hatch over the cluster wire.
// ---------------------------------------------------------------------

/// Integer-valued k-means points (the `cfr-apps` dataset formula): all
/// partial sums are exact in f64, so cluster results are bitwise
/// order-independent and the two backends can be compared to the bit.
fn chapel_kmeans_data(n: usize, d: usize) -> Vec<f64> {
    let mut buf = Vec::with_capacity(n * d);
    for i in 1..=n {
        for j in 1..=d {
            buf.push(((i * 31 + j * 7) % 97) as f64);
        }
    }
    buf
}

fn chapel_kmeans_cfg(path: &PathBuf, n: usize, k: usize, d: usize, opt: i64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new("chapel.kmeans", path);
    cfg.params = vec![n as i64, k as i64, d as i64, opt];
    cfg.init_state = (1..=k)
        .flat_map(|c| (1..=d).map(move |j| ((c * 13 + j * 5) % 97) as f64))
        .collect();
    cfg.rounds = 2;
    cfg.threads_per_node = 2;
    cfg.read_timeout = Duration::from_secs(30);
    cfg
}

/// The acceptance gate for the codegen escape hatch on the cluster
/// path: `KernelBackend::Compiled` carried over the wire produces
/// **bit-identical** state and cells to the interpreter, on 2- and
/// 4-node loopback clusters, at every codegen strategy.
#[test]
fn cluster_backends_bit_identical_for_chapel_kmeans() {
    cfr_codegen::install();
    if !cfr_codegen::rustc_available() {
        eprintln!("skipping: rustc unavailable — compiled backend falls back to interpreter");
        return;
    }
    let (n, k, d) = (240usize, 3usize, 2usize);
    let path = dataset("chapel-kmeans", d, &chapel_kmeans_data(n, d));
    for opt in 0..=2i64 {
        for nodes in [2usize, 4] {
            let base = run_loopback(chapel_kmeans_cfg(&path, n, k, d, opt), nodes).unwrap();
            let mut cfg = chapel_kmeans_cfg(&path, n, k, d, opt);
            cfg.backend = freeride::KernelBackend::Compiled;
            let compiled = run_loopback(cfg, nodes).unwrap();
            assert_eq!(
                bits(&base.state),
                bits(&compiled.state),
                "opt {opt}, {nodes} nodes: final centroids diverge"
            );
            assert_eq!(
                bits(base.robj.group_slice(0)),
                bits(compiled.robj.group_slice(0)),
                "opt {opt}, {nodes} nodes: final cells diverge"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The nodes really take the native path when asked: a traced compiled
/// run ships node traces whose merged counters show codegen activity
/// and zero interpreter jobs (no silent fallback).
#[test]
fn cluster_compiled_run_records_codegen_in_node_traces() {
    cfr_codegen::install();
    if !cfr_codegen::rustc_available() {
        eprintln!("skipping: rustc unavailable — compiled backend falls back to interpreter");
        return;
    }
    let (n, k, d) = (120usize, 3usize, 2usize);
    let path = dataset("chapel-kmeans-trace", d, &chapel_kmeans_data(n, d));
    let mut cfg = chapel_kmeans_cfg(&path, n, k, d, 2);
    cfg.backend = freeride::KernelBackend::Compiled;
    cfg.trace = TraceLevel::Phases;
    let out = run_loopback(cfg, 2).unwrap();
    let trace = out.trace.expect("tracing was on");
    // 2 nodes × 2 rounds of make_runner, all landing on the compiled
    // backend (codegen.emit spans cache-hit after the first, but the
    // job counter ticks every selection).
    assert_eq!(trace.counters.get("core.codegen_jobs"), Some(&4));
    assert_eq!(trace.counters.get("core.codegen_fallback"), None);
    assert_eq!(trace.counters.get("core.interp_jobs"), None);
    assert!(trace.count("codegen.emit") >= 1, "no codegen.emit span");
    std::fs::remove_file(&path).ok();
}
