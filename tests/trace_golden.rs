//! Golden-file test for the Chrome trace exporter: a fixed 2-thread
//! k-means run must produce exactly the span population recorded in
//! `tests/golden/kmeans_trace_shape.txt`, and the exported JSON must
//! have the `trace_event` shape Perfetto expects (`name`/`ph`/`ts`/
//! `dur`/`pid`/`tid` on every event).

use cfr_apps::kmeans::{self, KmeansParams};
use cfr_apps::Version;
use obs::{parse_json, validate_chrome_trace, Trace, TraceLevel};

/// The fixed configuration the golden file was recorded against:
/// 2 threads × 2 iterations of manual k-means ⇒ per pass 2 splits,
/// 1 combine, 1 finalize; one pool-growth event on the first pass.
fn golden_run() -> Trace {
    let mut params = KmeansParams::new(200, 4, 3, 2).threads(2);
    params.config.trace = TraceLevel::Splits;
    let result = kmeans::run(&params, Version::Manual).expect("manual k-means");
    result
        .timing
        .trace
        .expect("trace requested but not captured")
}

/// Sorted `name count` lines — the golden file's format.
fn span_population(trace: &Trace) -> String {
    let mut counts = std::collections::BTreeMap::new();
    for span in &trace.spans {
        *counts.entry(span.name).or_insert(0usize) += 1;
    }
    let mut out = String::new();
    for (name, count) in counts {
        out.push_str(&format!("{name} {count}\n"));
    }
    out
}

#[test]
fn kmeans_trace_matches_golden_shape() {
    let trace = golden_run();
    let expected = include_str!("golden/kmeans_trace_shape.txt");
    assert_eq!(
        span_population(&trace),
        expected,
        "span population drifted from golden file"
    );
}

#[test]
fn chrome_export_has_trace_event_shape() {
    // Which pool worker runs each split is a scheduling accident: under
    // single-vCPU load worker 0 can drain both splits before worker 1
    // wakes, collapsing the trace to one tid. Like the paper_claims
    // timing tests, re-measure a few times; the track count must be
    // right in at least one run.
    let mut trace = golden_run();
    for _ in 0..9 {
        let summary = validate_chrome_trace(&trace.chrome_json()).unwrap();
        if summary.tids == 2 {
            break;
        }
        trace = golden_run();
    }
    let json = trace.chrome_json();

    let summary = validate_chrome_trace(&json).expect("exporter must emit a valid Chrome trace");
    assert_eq!(summary.events, trace.spans.len());
    // Two worker tracks (tid 0 hosts the phase spans and worker 0).
    assert_eq!(summary.tids, 2, "expected the two OS worker tracks");

    // Belt and braces beyond the validator: every event carries the
    // exact keys Perfetto's importer reads.
    let doc = parse_json(&json).expect("exporter output parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing key `{key}`");
        }
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
    }
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
}

/// The fixed distributed configuration the cluster golden file was
/// recorded against: a 2-node loopback cluster, 1 engine thread per
/// node, 2 rounds of k-means ⇒ per node 2 `node.pass` spans each
/// wrapping a 1-split engine pass; the coordinator contributes one
/// `cluster.setup` plus per-round `cluster.round`/`cluster.combine`.
fn golden_cluster_run() -> Trace {
    use cfr_apps::cluster::{kmeans_cluster, Nodes};
    let mut params = KmeansParams::new(200, 4, 3, 2).threads(1);
    params.config.trace = TraceLevel::Splits;
    let result = kmeans_cluster(&params, &Nodes::Loopback(2)).expect("cluster k-means");
    result.trace.expect("trace requested but not captured")
}

#[test]
fn cluster_trace_matches_golden_shape() {
    let trace = golden_cluster_run();
    let expected = include_str!("golden/cluster_trace_shape.txt");
    assert_eq!(
        span_population(&trace),
        expected,
        "cluster span population drifted from golden file"
    );
}

#[test]
fn cluster_chrome_export_has_multi_node_shape() {
    let trace = golden_cluster_run();
    let json = trace.chrome_json();
    let summary = validate_chrome_trace(&json).expect("cluster trace must validate");
    assert_eq!(summary.events, trace.spans.len());
    // Coordinator (pid 0) plus one process track per node.
    assert_eq!(summary.pids, 3, "expected coordinator + 2 node tracks");
}

/// The fixed fault-tolerance configuration the ft golden file was
/// recorded against: the same 2-node 2-round k-means cluster as
/// [`golden_cluster_run`], but checkpointing every round and with node 1
/// severing its connection mid-round after one completed round. The
/// surviving node re-runs the failed round with both shards (its trace
/// shows 4 `node.pass`; the dead node's trace dies with it), and the
/// coordinator adds one `ft.recover`, one retried `cluster.round` (the
/// aborted attempt never reaches `cluster.combine`), and two
/// `ft.checkpoint` spans.
fn golden_ft_cluster_run() -> Trace {
    use freeride_dist::node::Behaviour;
    use freeride_dist::{ClusterConfig, Coordinator, LoopbackCluster};
    let mut path = std::env::temp_dir();
    path.push(format!("cfr-golden-ft-{}.frds", std::process::id()));
    let mut dir = std::env::temp_dir();
    dir.push(format!("cfr-golden-ft-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    freeride::source::write_dataset(&path, 4, &cfr_apps::data::kmeans_points_flat(200, 4))
        .expect("write dataset");

    let cluster = LoopbackCluster::spawn_with(2, &[(1, Behaviour::dies_after(1))])
        .expect("spawn chaos cluster");
    let mut cfg = ClusterConfig::new("kmeans", &path);
    cfg.params = vec![3, 4];
    cfg.init_state = cfr_apps::data::kmeans_centroids_flat(3, 4);
    cfg.rounds = 2;
    cfg.trace = TraceLevel::Splits;
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.ft.backoff = std::time::Duration::from_millis(1);
    let out = Coordinator::new(cfg)
        .run(cluster.addrs())
        .expect("recovered cluster run");
    cluster.join().expect("agents exit clean");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
    out.trace.expect("trace requested but not captured")
}

#[test]
fn ft_cluster_trace_matches_golden_shape() {
    let trace = golden_ft_cluster_run();
    let expected = include_str!("golden/cluster_ft_trace_shape.txt");
    assert_eq!(
        span_population(&trace),
        expected,
        "ft cluster span population drifted from golden file"
    );
}

#[test]
fn translated_run_emits_pipeline_spans() {
    let mut params = KmeansParams::new(200, 4, 3, 2).threads(2);
    params.config.trace = TraceLevel::Phases;
    let result = kmeans::run(&params, Version::Opt2).expect("opt-2 k-means");
    let trace = result
        .timing
        .trace
        .expect("trace requested but not captured");

    for name in [
        "frontend.lex",
        "frontend.parse",
        "sema.analyze",
        "core.detect",
        "core.compile",
        "linearize",
    ] {
        assert!(trace.count(name) >= 1, "missing pipeline span `{name}`");
    }
    // Phases level: engine phase spans but no per-split spans.
    assert_eq!(trace.count("split"), 0);
    assert_eq!(trace.count("pass"), 2);
}
