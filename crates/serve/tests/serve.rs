//! End-to-end job-server tests: in-process server, loopback node
//! fleet over real TCP sockets, real protocol clients.
//!
//! The central claim under test is the service's determinism contract:
//! a job submitted to `cfr-serve` — concurrently with other jobs, on a
//! shared fleet — finishes **bit-identical** to a serial one-shot
//! `Coordinator` run of the same configuration.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use cfr_serve::{Client, JobSpec, ServeConfig, ServeError, Server};
use freeride_dist::{run_loopback, ClusterConfig, LoopbackCluster};
use obs::{Trace, TraceLevel};

fn dataset(tag: &str, unit: usize, data: &[f64]) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("cfr-serve-{tag}-{}.frds", std::process::id()));
    freeride::source::write_dataset(&path, unit, data).unwrap();
    path
}

fn kmeans_data() -> Vec<f64> {
    (0..240)
        .map(|i| ((i * 31 + 7) % 97) as f64 * 0.25)
        .collect()
}

/// The serve-side k-means spec and the equivalent one-shot config; the
/// pair must stay in lockstep for the bit-identity comparisons.
fn kmeans_spec(path: &PathBuf, rounds: u32) -> JobSpec {
    JobSpec::Task {
        task: "kmeans".into(),
        params: vec![3, 2],
        init_state: vec![0.0, 1.0, 8.0, 3.0, 2.0, 9.0],
        rounds,
        dataset: path.to_string_lossy().into_owned(),
        threads_per_node: 1,
        backend: 0,
    }
}

fn kmeans_cfg(path: &PathBuf, rounds: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new("kmeans", path);
    cfg.params = vec![3, 2];
    cfg.init_state = vec![0.0, 1.0, 8.0, 3.0, 2.0, 9.0];
    cfg.rounds = rounds;
    cfg.trace = TraceLevel::Phases;
    cfg
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn concurrent_jobs_bit_identical_to_serial_one_shot_runs() {
    let km_path = dataset("conc-km", 2, &kmeans_data());
    let pca_data: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).cos()).collect();
    let pca_path = dataset("conc-pca", 5, &pca_data);

    // ---- Serial one-shot baselines, each on its own 2-node cluster.
    let km_base = run_loopback(kmeans_cfg(&km_path, 4), 2).unwrap();
    let mut pca_cfg = ClusterConfig::new("pca.mean", &pca_path);
    pca_cfg.params = vec![5];
    pca_cfg.trace = TraceLevel::Phases;
    let pca_base = run_loopback(pca_cfg, 2).unwrap();

    // ---- The service: a shared 2-node fleet, three concurrent jobs
    // (two k-means + one PCA), each node serving its sessions
    // concurrently.
    let fleet = LoopbackCluster::spawn_concurrent(2, 3).unwrap();
    let mut cfg = ServeConfig::new(fleet.addrs().to_vec());
    cfg.trace = TraceLevel::Phases;
    cfg.max_concurrent = 3;
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let km_spec = kmeans_spec(&km_path, 4);
    let pca_spec = JobSpec::Task {
        task: "pca.mean".into(),
        params: vec![5],
        init_state: vec![],
        rounds: 1,
        dataset: pca_path.to_string_lossy().into_owned(),
        threads_per_node: 1,
        backend: 0,
    };
    let threads: Vec<_> = [
        ("alice", km_spec.clone()),
        ("bob", km_spec.clone()),
        ("carol", pca_spec.clone()),
    ]
    .into_iter()
    .map(|(tenant, spec)| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, tenant, "").unwrap();
            let out = client.run(spec).unwrap();
            client.bye().unwrap();
            out
        })
    })
    .collect();
    let outs: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    // Both k-means jobs: state bit-identical to the serial baseline.
    for out in &outs[..2] {
        assert_eq!(bits(&out.state), bits(&km_base.state));
        assert_eq!(out.robj, km_base.robj.encode_cells());
        assert!(!out.trace.is_empty(), "job trace ships when tracing is on");
    }
    // The PCA job, which ran interleaved with them on the same nodes.
    assert_eq!(bits(&outs[2].state), bits(&pca_base.state));
    assert_eq!(outs[2].robj, pca_base.robj.encode_cells());

    // The server trace lays the jobs side by side: pid 0 = server,
    // pids 1..=3 = the three jobs.
    let mut client = Client::connect(addr, "alice", "").unwrap();
    let json = client.dump_trace().unwrap();
    let summary = obs::validate_chrome_trace(&json).unwrap();
    assert!(
        summary.pids >= 4,
        "expected 4 pid tracks, got {}",
        summary.pids
    );
    client.bye().unwrap();

    handle.stop();
    fleet.join().unwrap();
    std::fs::remove_file(&km_path).ok();
    std::fs::remove_file(&pca_path).ok();
}

#[test]
fn tenant_quota_rejects_excess_and_recovers_after_drain() {
    let path = dataset("quota", 2, &kmeans_data());
    let fleet = LoopbackCluster::spawn_concurrent(2, 2).unwrap();
    let mut cfg = ServeConfig::new(fleet.addrs().to_vec());
    cfg.max_concurrent = 1;
    cfg.tenant_max_queued = 1;
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr, "alice", "").unwrap();
    // Many rounds keep job 1 admitted while the second submission
    // arrives microseconds later.
    let job1 = client.submit(kmeans_spec(&path, 400)).unwrap();
    let err = client.submit(kmeans_spec(&path, 1)).unwrap_err();
    match err {
        ServeError::Rejected { reason } => {
            assert!(reason.contains("quota"), "{reason}");
        }
        other => panic!("expected Rejected, got {other}"),
    }
    // The session survives a rejection, and once the first job drains
    // the tenant may submit again.
    client.wait(job1).unwrap();
    let out = client.run(kmeans_spec(&path, 1)).unwrap();
    assert_eq!(out.state.len(), 6);
    client.bye().unwrap();

    handle.stop();
    fleet.join().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn queue_admits_beyond_concurrency_and_caps_running_jobs() {
    let path = dataset("queue", 2, &kmeans_data());
    let baseline = run_loopback(kmeans_cfg(&path, 3), 2).unwrap();

    // Six jobs from three tenants onto a queue two workers drain.
    let fleet = LoopbackCluster::spawn_concurrent(2, 6).unwrap();
    let mut cfg = ServeConfig::new(fleet.addrs().to_vec());
    cfg.trace = TraceLevel::Phases;
    cfg.max_concurrent = 2;
    cfg.tenant_max_running = 1;
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    static MAX_RUNNING_SEEN: AtomicU32 = AtomicU32::new(0);
    let workers: Vec<_> = ["a", "a", "b", "b", "c", "c"]
        .into_iter()
        .map(|tenant| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, tenant, "").unwrap();
                let id = client.submit(kmeans_spec(&path, 3)).unwrap();
                let status = client.status().unwrap();
                MAX_RUNNING_SEEN.fetch_max(status.running, Ordering::Relaxed);
                let out = client.wait(id).unwrap();
                client.bye().unwrap();
                out
            })
        })
        .collect();
    for t in workers {
        let out = t.join().unwrap();
        assert_eq!(bits(&out.state), bits(&baseline.state));
    }

    let mut client = Client::connect(addr, "a", "").unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.completed, 6);
    assert_eq!(status.failed, 0);
    assert_eq!(status.queued, 0);
    // The same dataset validated once, then five cache hits.
    assert_eq!(status.dataset_cache_misses, 1);
    assert_eq!(status.dataset_cache_hits, 5);
    client.bye().unwrap();
    assert!(MAX_RUNNING_SEEN.load(Ordering::Relaxed) <= 2);

    handle.stop();
    fleet.join().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn chapel_cache_hit_skips_compilation_entirely() {
    // Chapel jobs run on the server's own engine; no fleet needed.
    let mut cfg = ServeConfig::new(Vec::new());
    cfg.trace = TraceLevel::Phases;
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let spec = JobSpec::Chapel {
        source: chapel_frontend::programs::sum_reduce(400),
        opt: 2,
        threads: 2,
        globals: vec!["total".into()],
        backend: 0,
    };
    let mut client = Client::connect(addr, "alice", "").unwrap();
    let first = client.run(spec.clone()).unwrap();
    let second = client.run(spec).unwrap();

    // Same answer, bit-identical.
    let expected: f64 = (1..=400).map(|i| i as f64).sum();
    for out in [&first, &second] {
        assert_eq!(out.globals.len(), 1);
        assert_eq!(out.globals[0].0, "total");
        assert_eq!(out.globals[0].1[0].to_bits(), expected.to_bits());
    }

    // The first run compiled; the repeat came from the program cache
    // and its trace carries no frontend, sema, or compile spans at all.
    let t1 = Trace::decode_bin(&first.trace).unwrap();
    let t2 = Trace::decode_bin(&second.trace).unwrap();
    assert!(t1.count("core.compile") >= 1, "first run compiles");
    assert_eq!(t2.count("core.compile"), 0, "cache hit must not compile");
    assert_eq!(t2.count("frontend.parse"), 0);
    assert!(
        t2.count("core.engine.run") + t2.count("engine.run") + t2.spans.len() > 0,
        "cache hit still executes (has spans)"
    );

    let status = client.status().unwrap();
    assert_eq!(status.program_cache_misses, 1);
    assert_eq!(status.program_cache_hits, 1);
    client.bye().unwrap();
    handle.stop();
}

#[test]
fn program_cache_key_separates_kernel_backends() {
    // A compiled program bakes its runner choice in, so the server's
    // program cache must key on (source, opt, backend): the same
    // source at the same opt level submitted under the other backend
    // is a miss, not a hit. The answers still agree bitwise — the
    // compiled backend's contract (or, without a usable codegen
    // backend, its recorded interpreter fallback) guarantees it.
    cfr_codegen::install();
    let handle = Server::start(ServeConfig::new(Vec::new()), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let spec = |backend: u8| JobSpec::Chapel {
        source: chapel_frontend::programs::sum_reduce(300),
        opt: 2,
        threads: 2,
        globals: vec!["total".into()],
        backend,
    };
    let mut client = Client::connect(addr, "alice", "").unwrap();
    let interp = client.run(spec(0)).unwrap();
    let compiled = client.run(spec(1)).unwrap();
    let compiled_again = client.run(spec(1)).unwrap();

    let expected: f64 = (1..=300).map(|i| i as f64).sum();
    for out in [&interp, &compiled, &compiled_again] {
        assert_eq!(out.globals[0].1[0].to_bits(), expected.to_bits());
    }

    // interp: miss; compiled: miss (backend differs); repeat: hit.
    let status = client.status().unwrap();
    assert_eq!(status.program_cache_misses, 2);
    assert_eq!(status.program_cache_hits, 1);
    client.bye().unwrap();
    handle.stop();
}

#[test]
fn concurrent_jobs_share_a_checkpoint_root_without_collision() {
    let path = dataset("ckpt", 2, &kmeans_data());
    let baseline = run_loopback(kmeans_cfg(&path, 4), 2).unwrap();

    let mut root = std::env::temp_dir();
    root.push(format!("cfr-serve-ckpt-root-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();

    let fleet = LoopbackCluster::spawn_concurrent(2, 2).unwrap();
    let mut cfg = ServeConfig::new(fleet.addrs().to_vec());
    cfg.trace = TraceLevel::Phases;
    cfg.max_concurrent = 2;
    cfg.checkpoint_root = Some(root.clone());
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let threads: Vec<_> = ["alice", "bob"]
        .into_iter()
        .map(|tenant| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, tenant, "").unwrap();
                let out = client.run(kmeans_spec(&path, 4)).unwrap();
                client.bye().unwrap();
                out
            })
        })
        .collect();
    for t in threads {
        let out = t.join().unwrap();
        assert_eq!(bits(&out.state), bits(&baseline.state));
    }

    // Each job checkpointed into its own namespace under the shared
    // root — no retention-pruning collisions, no cross-job files.
    let mut dirs: Vec<String> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    assert_eq!(dirs, vec!["job-job1", "job-job2"]);
    for d in &dirs {
        let frames = std::fs::read_dir(root.join(d)).unwrap().count();
        assert!(frames > 0, "{d} holds checkpoint frames");
    }

    handle.stop();
    fleet.join().unwrap();
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn token_auth_gates_sessions() {
    let mut cfg = ServeConfig::new(Vec::new());
    cfg.token = "s3cret".into();
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let err = match Client::connect(addr, "mallory", "wrong") {
        Err(e) => e,
        Ok(_) => panic!("wrong token must be refused"),
    };
    assert!(
        matches!(err, ServeError::Server { ref message } if message.contains("token")),
        "{err}"
    );
    let client = Client::connect(addr, "alice", "s3cret").unwrap();
    assert!(client.session() >= 1);
    client.bye().unwrap();
    handle.stop();
}

#[test]
fn top_and_metrics_expose_fleet_telemetry() {
    let path = dataset("top", 2, &kmeans_data());
    let fleet = LoopbackCluster::spawn_concurrent(2, 2).unwrap();
    let mut cfg = ServeConfig::new(fleet.addrs().to_vec());
    cfg.trace = TraceLevel::Phases;
    cfg.max_concurrent = 2;
    cfg.metrics_listen = Some("127.0.0.1:0".into());
    // Run the jobs with stealing on and a skewed placement,
    // so the report's weight rows have something to say.
    cfg.elastic.steal = true;
    cfg.elastic.steal_grain = 8;
    cfg.elastic.placement.weights = vec![1.0, 2.5];
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let metrics_addr = handle.metrics_addr().expect("metrics endpoint bound");

    let mut client = Client::connect(addr, "alice", "").unwrap();
    for _ in 0..2 {
        client.run(kmeans_spec(&path, 4)).unwrap();
    }

    // ---- Top over the service protocol.
    let top = client.top().unwrap();
    assert_eq!(top.status.completed, 2);
    assert_eq!(top.status.failed, 0);
    assert_eq!(top.jobs.len(), 2);
    assert!(top
        .jobs
        .iter()
        .all(|j| j.tenant == "alice" && j.state == cfr_serve::job_state::DONE));
    // Fleet aggregate: both jobs' telemetry merged — 4 coordinator
    // rounds each — plus the server's own counters.
    assert_eq!(top.metrics.counter("fleet.rounds"), 8);
    assert_eq!(top.metrics.counter("serve.jobs_completed"), 2);
    assert_eq!(top.metrics.counter("serve.jobs_submitted"), 2);
    assert!(
        !top.metrics.node_rows().is_empty(),
        "per-node latency rows reconstruct from the aggregate"
    );
    assert!(
        top.metrics.histograms.contains_key("serve.job_run_ns"),
        "job runtime histogram present"
    );
    // v4: the configured placement weights travel in the report, in
    // milli-units and node order.
    assert_eq!(top.weights, vec![(0, 1000), (1, 2500)]);

    // ---- The HTTP endpoint, scraped without curl.
    let metrics_addr = metrics_addr.to_string();
    let body = cfr_serve::http::get(&metrics_addr, "/metrics").unwrap();
    let counters = obs::parse_prometheus_counters(&body);
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{body}"))
    };
    assert_eq!(get("cfr_serve_jobs_completed"), 2.0);
    assert_eq!(get("cfr_fleet_rounds"), 8.0);
    assert!(get("cfr_serve_job_run_ns_count") >= 2.0);
    assert_eq!(
        cfr_serve::http::get(&metrics_addr, "/healthz").unwrap(),
        "ok\n"
    );
    assert_eq!(
        cfr_serve::http::get(&metrics_addr, "/readyz").unwrap(),
        "ready\n"
    );
    let err = cfr_serve::http::get(&metrics_addr, "/nope").unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");

    // ---- v2 status carries tenant quota usage.
    let status = client.status().unwrap();
    assert!(status.queue.is_empty());
    assert!(status.tenants.is_empty(), "no job admitted right now");

    client.bye().unwrap();
    handle.stop();
    fleet.join().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn failed_job_counts_and_reports_through_telemetry() {
    // A fleet address nobody listens on: the job fails at connect, the
    // worker dumps the job's flight ring to stderr, and the failure
    // shows up in every telemetry surface.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let path = dataset("fail", 2, &kmeans_data());
    let mut cfg = ServeConfig::new(vec![dead]);
    cfg.trace = TraceLevel::Phases;
    cfg.job_retries = 0;
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr, "alice", "").unwrap();
    let err = client.run(kmeans_spec(&path, 2)).unwrap_err();
    assert!(matches!(err, ServeError::JobFailed { .. }), "{err}");

    let top = client.top().unwrap();
    assert_eq!(top.status.failed, 1);
    assert_eq!(top.metrics.counter("serve.jobs_failed"), 1);
    assert_eq!(top.jobs.len(), 1);
    assert_eq!(top.jobs[0].state, cfr_serve::job_state::FAILED);

    client.bye().unwrap();
    handle.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn stop_drains_queued_jobs_then_rejects_new_ones() {
    let path = dataset("stop", 2, &kmeans_data());
    let fleet = LoopbackCluster::spawn_concurrent(2, 1).unwrap();
    let mut cfg = ServeConfig::new(fleet.addrs().to_vec());
    cfg.max_concurrent = 1;
    let handle = Server::start(cfg, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr, "alice", "").unwrap();
    let id = client.submit(kmeans_spec(&path, 50)).unwrap();
    client.stop_server().unwrap();
    // The admitted job still finishes…
    let out = client.wait(id).unwrap();
    assert_eq!(out.state.len(), 6);
    // …but new submissions are refused.
    let err = client.submit(kmeans_spec(&path, 1)).unwrap_err();
    assert!(
        matches!(err, ServeError::Rejected { ref reason } if reason.contains("stopping")),
        "{err}"
    );
    client.bye().unwrap();

    handle.wait();
    fleet.join().unwrap();
    std::fs::remove_file(&path).ok();
}
