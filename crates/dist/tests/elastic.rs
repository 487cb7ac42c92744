//! Elastic scheduling end-to-end tests: work stealing, mid-job
//! membership (join/leave), hard death under stealing, and the
//! bit-identity invariant that holds through all of it — the unit set
//! is a pure function of the shard map and the run-fixed grain, and
//! the coordinator folds unit results in ascending `first_row` order,
//! so *who* computed a unit can never reach the floating-point fold.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use freeride_dist::node::{self, Behaviour};
use freeride_dist::proto::{write_message, Message};
use freeride_dist::{
    run_loopback, ClusterConfig, Coordinator, JobDriver, LoopbackCluster, MembershipHub,
};
use obs::{AttrValue, Recorder, TraceLevel};

fn dataset(tag: &str, unit: usize, data: &[f64]) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "freeride-elastic-{tag}-{}.frds",
        std::process::id()
    ));
    freeride::source::write_dataset(&path, unit, data).unwrap();
    path
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
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

fn kmeans_cfg(path: &PathBuf, rounds: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new("kmeans", path);
    cfg.params = vec![3, 2];
    cfg.init_state = vec![0.0, 0.0, 5.0, 5.0, 11.0, 9.0];
    cfg.rounds = rounds;
    cfg.read_timeout = Duration::from_secs(10);
    cfg
}

fn elastic(mut cfg: ClusterConfig, grain: u64) -> ClusterConfig {
    cfg.elastic.steal = true;
    cfg.elastic.steal_grain = grain;
    cfg
}

/// Grain-split rounds over integer-valued data are bit-identical to
/// one-unit-per-shard rounds at every grain and fleet size, and both
/// equal the plain sum: integer sums are exact in f64, so any
/// difference would be a coverage bug (a row lost or double-counted by
/// the unit split), not FP jitter.
#[test]
fn grain_split_rounds_match_whole_shard_rounds_for_integer_data() {
    let data: Vec<f64> = (0..1000).map(|i| ((i * 13 + 5) % 91) as f64).collect();
    let path = dataset("int-sum", 4, &data);
    let whole = run_loopback(ClusterConfig::new("sum", &path), 2).unwrap();
    let direct: f64 = data.iter().sum();
    assert_eq!(whole.robj.get(0, 0).to_bits(), direct.to_bits());
    let whole3 = run_loopback(ClusterConfig::new("sum", &path), 3).unwrap();
    assert_eq!(bits(whole3.robj.cells()), bits(whole.robj.cells()));
    for grain in [0u64, 1, 7, 25, 1000] {
        for nodes in [1usize, 2, 3] {
            let out = run_loopback(elastic(ClusterConfig::new("sum", &path), grain), nodes)
                .unwrap_or_else(|e| panic!("grain {grain}, {nodes} nodes: {e}"));
            assert_eq!(
                bits(out.robj.cells()),
                bits(whole.robj.cells()),
                "grain {grain}, {nodes} nodes"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The steal gate: a deterministically slow node loses units to its
/// fast peer (steals observed in stats, trace, and live telemetry),
/// and the disturbed run is **bit-identical** to an undisturbed
/// elastic run at the same grain.
#[test]
fn steal_under_slow_node_is_bit_identical() {
    let data = kmeans_data();
    let path = dataset("steal", 2, &data);
    // 150 rows, grain 10 → 15 units; node 1 sleeps 20 ms per unit, so
    // node 0 drains its own queue and then steals from node 1's back.
    // (An undisturbed elastic run may legitimately steal a unit or two
    // on scheduling jitter — stealing never reaches the fold, which is
    // the whole point — so the baseline is compared by bits, not by
    // steal count.)
    let baseline = run_loopback(elastic(kmeans_cfg(&path, 3), 10), 2).unwrap();

    let cluster = LoopbackCluster::spawn_with(2, &[(1, Behaviour::slow(20))]).unwrap();
    let mut cfg = elastic(kmeans_cfg(&path, 3), 10);
    cfg.trace = TraceLevel::Phases;
    let out = Coordinator::new(cfg).run(cluster.addrs()).unwrap();
    cluster.join().unwrap();

    assert_eq!(bits(&out.state), bits(&baseline.state));
    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert!(out.stats.steals >= 1, "no steals despite a 20 ms/unit node");
    assert_eq!(out.stats.retries, 0);
    let trace = out.trace.as_ref().expect("tracing was on");
    assert_eq!(trace.count("sched.steal"), out.stats.steals);
    let telemetry = out.telemetry.as_ref().expect("hub was enabled");
    assert_eq!(
        telemetry.counter("sched.steals"),
        out.stats.steals as i64,
        "counter and spans disagree"
    );
    assert!(telemetry.counter("node0.steals") >= 1, "thief counter");
    assert_eq!(telemetry.counter("node1.steals"), 0, "victim never steals");
    std::fs::remove_file(&path).ok();
}

/// The join gate: a `cfr-node --join`-style peer dialed into the
/// membership hub before the run is absorbed at the first round
/// barrier, participates through stealing, and the result is
/// bit-identical to the undisturbed 2-node elastic run (the unit set
/// never depends on live membership).
#[test]
fn mid_job_join_is_bit_identical_and_counted() {
    let data = kmeans_data();
    let path = dataset("join", 2, &data);
    let baseline = run_loopback(elastic(kmeans_cfg(&path, 3), 10), 2).unwrap();

    let hub = MembershipHub::bind("127.0.0.1:0").unwrap();
    let hub_addr = hub.addr();
    let joiner = std::thread::spawn(move || node::join(&hub_addr, Behaviour::default()));
    for _ in 0..400 {
        if hub.pending_count() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(hub.pending_count(), 1, "joiner never reached the hub");

    let cluster = LoopbackCluster::spawn(2).unwrap();
    let mut cfg = elastic(kmeans_cfg(&path, 3), 10);
    cfg.trace = TraceLevel::Phases;
    let rec = Arc::new(Recorder::new(cfg.trace));
    let out = JobDriver::new(&cfg, &rec)
        .run_with_hub(cluster.addrs(), &hub)
        .unwrap();
    cluster.join().unwrap();
    joiner.join().unwrap().unwrap();

    assert_eq!(bits(&out.state), bits(&baseline.state));
    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(out.stats.joins, 1);
    assert_eq!(out.stats.retries, 0);
    let trace = out.trace.as_ref().expect("tracing was on");
    assert_eq!(trace.count("sched.join"), 1);
    let telemetry = out.telemetry.as_ref().expect("hub was enabled");
    assert_eq!(telemetry.counter("sched.joins"), 1);
    // The joiner got id 2 (ids are never reused) and really worked:
    // its unit counter shipped home in its JobDone metrics.
    assert!(
        telemetry.counter("node.units") > 0,
        "no units recorded anywhere"
    );
    std::fs::remove_file(&path).ok();
}

/// A peer that dials the membership hub but never says `Join` is
/// dropped at the round barrier without failing the job or joining the
/// fleet, and the rejection is on record: a `sched.join_rejected`
/// instant carrying the error, and the `sched.join_rejections` hub
/// counter.
#[test]
fn rejected_joiner_is_recorded_and_changes_nothing() {
    let data = kmeans_data();
    let path = dataset("join-rejected", 2, &data);
    let baseline = run_loopback(elastic(kmeans_cfg(&path, 3), 10), 2).unwrap();

    let hub = MembershipHub::bind("127.0.0.1:0").unwrap();
    let mut stray = TcpStream::connect(hub.addr()).unwrap();
    write_message(&mut stray, &Message::Leave { node_id: 7 }).unwrap();
    for _ in 0..400 {
        if hub.pending_count() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(hub.pending_count(), 1, "stray peer never reached the hub");

    let cluster = LoopbackCluster::spawn(2).unwrap();
    let mut cfg = elastic(kmeans_cfg(&path, 3), 10);
    cfg.trace = TraceLevel::Phases;
    let rec = Arc::new(Recorder::new(cfg.trace));
    let out = JobDriver::new(&cfg, &rec)
        .run_with_hub(cluster.addrs(), &hub)
        .unwrap();
    cluster.join().unwrap();
    drop(stray);

    assert_eq!(bits(&out.state), bits(&baseline.state));
    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(out.stats.joins, 0);
    let telemetry = out.telemetry.as_ref().expect("hub was enabled");
    assert_eq!(telemetry.counter("sched.join_rejections"), 1);
    assert_eq!(telemetry.counter("sched.joins"), 0);
    let trace = out.trace.as_ref().expect("tracing was on");
    assert_eq!(trace.count("sched.join"), 0);
    let rejected: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "sched.join_rejected")
        .collect();
    assert_eq!(rejected.len(), 1);
    let error = rejected[0].attrs.iter().find(|(k, _)| *k == "error");
    assert!(
        matches!(error, Some((_, AttrValue::Str(e))) if e.contains("expected Join")),
        "{:?}",
        rejected[0]
    );
    std::fs::remove_file(&path).ok();
}

/// The leave gate: a node announcing a voluntary `Leave` mid-job hands
/// its units back to the queue, its shard moves to a survivor, **no FT
/// retry is burned**, and the run stays bit-identical to an
/// undisturbed 3-node elastic run.
#[test]
fn voluntary_leave_is_bit_identical_and_burns_no_retry() {
    let data = kmeans_data();
    let path = dataset("leave", 2, &data);
    let baseline = run_loopback(elastic(kmeans_cfg(&path, 4), 10), 3).unwrap();

    // Node 2 answers round 0, then replies to round 1's RoundStart
    // with Leave.
    let cluster = LoopbackCluster::spawn_with(3, &[(2, Behaviour::leaves_after(1))]).unwrap();
    let mut cfg = elastic(kmeans_cfg(&path, 4), 10);
    cfg.trace = TraceLevel::Phases;
    let out = Coordinator::new(cfg).run(cluster.addrs()).unwrap();
    cluster.join().unwrap();

    assert_eq!(bits(&out.state), bits(&baseline.state));
    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(out.stats.leaves, 1);
    assert_eq!(out.stats.retries, 0, "a voluntary leave burns no retry");
    assert_eq!(out.stats.recoveries, 0);
    let trace = out.trace.as_ref().expect("tracing was on");
    assert_eq!(trace.count("sched.leave"), 1);
    let telemetry = out.telemetry.as_ref().expect("hub was enabled");
    assert_eq!(telemetry.counter("sched.leaves"), 1);
    std::fs::remove_file(&path).ok();
}

/// Voluntary leave with stealing off: the leaver's whole-shard unit
/// reaches a survivor through the queue's overflow pool — never a
/// steal — its shard moves, no retry is burned, and the run is
/// bit-identical to the undisturbed steal-off run.
#[test]
fn leave_with_steal_off_is_bit_identical_and_burns_no_retry() {
    let data = kmeans_data();
    let path = dataset("leave-static", 2, &data);
    let baseline = run_loopback(kmeans_cfg(&path, 4), 3).unwrap();

    let cluster = LoopbackCluster::spawn_with(3, &[(2, Behaviour::leaves_after(1))]).unwrap();
    let out = Coordinator::new(kmeans_cfg(&path, 4))
        .run(cluster.addrs())
        .unwrap();
    cluster.join().unwrap();

    assert_eq!(bits(&out.state), bits(&baseline.state));
    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(out.stats.leaves, 1);
    assert_eq!(out.stats.steals, 0, "stealing is off");
    assert_eq!(out.stats.retries, 0, "a voluntary leave burns no retry");
    assert_eq!(out.stats.recoveries, 0);
    std::fs::remove_file(&path).ok();
}

/// Hard death under stealing: node 1 completes a round, then severs
/// its connection on its next unit. The attempt is aborted, the dead
/// node's shard moves to a survivor, the round re-runs over the *same*
/// 30 units — the in-flight one included — and the result is
/// bit-identical to the undisturbed steal-on run at the same grain.
#[test]
fn kill_under_steal_is_bit_identical() {
    let data = kmeans_data();
    let path = dataset("kill-steal", 2, &data);
    let baseline = run_loopback(elastic(kmeans_cfg(&path, 3), 10), 3).unwrap();

    let cluster = LoopbackCluster::spawn_with(3, &[(1, Behaviour::dies_after(1))]).unwrap();
    let mut cfg = elastic(kmeans_cfg(&path, 3), 10);
    cfg.trace = TraceLevel::Phases;
    let out = Coordinator::new(cfg).run(cluster.addrs()).unwrap();
    cluster.join().unwrap();

    assert_eq!(bits(&out.state), bits(&baseline.state));
    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(out.stats.retries, 1);
    assert_eq!(out.stats.recoveries, 1);
    assert_eq!(out.stats.shards_reassigned, 1);
    assert_eq!(out.stats.leaves, 0);

    // 300 rows at grain 10: every attempt is planned over all 30
    // units, and the re-run executes all 30 on the two survivors.
    let trace = out.trace.as_ref().expect("tracing was on");
    let rounds: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "cluster.round")
        .collect();
    assert_eq!(rounds.len(), 4, "three rounds plus one re-run");
    for r in &rounds {
        assert_eq!(r.attr_i64("units"), Some(30));
        assert_eq!(r.attr_i64("steal"), Some(1));
    }
    let rerun = rounds
        .iter()
        .find(|r| r.attr_i64("attempt") == Some(1))
        .and_then(|r| r.attr_i64("round"))
        .expect("one round ran under attempt 1");
    let rerun_passes = trace
        .spans
        .iter()
        .filter(|s| {
            s.name == "node.pass"
                && s.attr_i64("round") == Some(rerun)
                && s.attr_i64("attempt") == Some(1)
        })
        .count();
    assert_eq!(rerun_passes, 30, "a unit of the re-run round was lost");
    std::fs::remove_file(&path).ok();
}

/// Churn composition: a joiner arrives at round 1's barrier while
/// another node leaves at round 2 — the run still matches the
/// undisturbed elastic baseline to the bit.
#[test]
fn join_then_leave_composes_bit_identically() {
    let data = kmeans_data();
    let path = dataset("churn", 2, &data);
    let baseline = run_loopback(elastic(kmeans_cfg(&path, 4), 10), 2).unwrap();

    let hub = MembershipHub::bind("127.0.0.1:0").unwrap();
    let hub_addr = hub.addr();
    let joiner = std::thread::spawn(move || node::join(&hub_addr, Behaviour::default()));
    for _ in 0..400 {
        if hub.pending_count() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Node 1 leaves after handling 2 rounds.
    let cluster = LoopbackCluster::spawn_with(2, &[(1, Behaviour::leaves_after(2))]).unwrap();
    let cfg = elastic(kmeans_cfg(&path, 4), 10);
    let rec = Arc::new(Recorder::new(cfg.trace));
    let out = JobDriver::new(&cfg, &rec)
        .run_with_hub(cluster.addrs(), &hub)
        .unwrap();
    cluster.join().unwrap();
    joiner.join().unwrap().unwrap();

    assert_eq!(bits(&out.state), bits(&baseline.state));
    assert_eq!(bits(out.robj.cells()), bits(baseline.robj.cells()));
    assert_eq!(out.stats.joins, 1);
    assert_eq!(out.stats.leaves, 1);
    assert_eq!(out.stats.retries, 0);
    std::fs::remove_file(&path).ok();
}

/// Shutdown-tolerance regression (the Fleet-level half of the
/// MembershipHub unit test): a connection that dials the hub but never
/// completes the join handshake neither stalls the round barrier nor
/// the teardown — the job completes with zero joins and the broken
/// dialer reads EOF instead of hanging.
#[test]
fn half_joined_connection_does_not_stall_run_or_teardown() {
    let data: Vec<f64> = (0..200).map(|i| i as f64).collect();
    let path = dataset("half-join", 2, &data);

    let hub = MembershipHub::bind("127.0.0.1:0").unwrap();
    let mut half = TcpStream::connect(hub.addr()).unwrap();
    for _ in 0..400 {
        if hub.pending_count() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let cluster = LoopbackCluster::spawn(2).unwrap();
    let mut cfg = elastic(ClusterConfig::new("sum", &path), 25);
    cfg.rounds = 2;
    let rec = Arc::new(Recorder::new(cfg.trace));
    let start = std::time::Instant::now();
    let out = JobDriver::new(&cfg, &rec)
        .run_with_hub(cluster.addrs(), &hub)
        .unwrap();
    cluster.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "half-joined dialer stalled the run: {:?}",
        start.elapsed()
    );
    assert_eq!(out.stats.joins, 0, "a silent dialer must not be admitted");
    assert_eq!(out.robj.get(0, 0), (0..200).sum::<i32>() as f64);

    // The barrier's 500 ms handshake fuse dropped the connection; the
    // dialer sees EOF (or a reset), never a hang.
    use std::io::Read;
    half.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 8];
    match half.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("unexpected {n} bytes from the coordinator"),
    }
    std::fs::remove_file(&path).ok();
}
