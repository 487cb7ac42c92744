//! bench — traced single-run driver for the k-means and PCA
//! applications.
//!
//! Runs one application in every relevant version (generated / opt-1 /
//! opt-2 / manual FR) with the engine + pipeline recorder enabled, then
//! exports the merged timeline:
//!
//! * `--trace-out PATH` — Chrome `trace_event` JSON, loadable in
//!   Perfetto / `chrome://tracing`; each version gets its own process
//!   track (`pid`), each OS worker its own thread track (`tid`).
//! * `--metrics-out PATH` — flat metrics JSON (counters, gauges,
//!   per-span totals).
//! * `--report` — an aligned per-phase table comparing the versions,
//!   the paper's phase breakdown (linearization / compute / combine).
//!
//! Example:
//!
//! ```text
//! cargo run -p bench --release -- kmeans --trace-out trace.json --report
//! ```

use std::process::ExitCode;

use cfr_apps::cluster::{kmeans_cluster_ft, pca_cluster_ft, FtOptions, Nodes};
use cfr_apps::kmeans::KmeansParams;
use cfr_apps::pca::PcaParams;
use cfr_apps::{kmeans, pca, Version};
use obs::{render_comparison, Trace, TraceLevel, TraceReport};

/// Pipeline + engine phases in execution order, as shown by `--report`.
const PHASES: &[&str] = &[
    "frontend.lex",
    "frontend.parse",
    "sema.analyze",
    "core.detect",
    "core.compile",
    "linearize",
    "split",
    "split.read",
    "combine",
    "finalize",
    "pass",
];

struct Opts {
    app: String,
    n: usize,
    d: usize,
    k: usize,
    iters: usize,
    rows: usize,
    cols: usize,
    threads: usize,
    level: TraceLevel,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    report: bool,
    /// `io` app: on-disk dataset size in MB.
    size_mb: usize,
    /// `io` app: streaming chunk-pool budget in MiB.
    budget_mib: usize,
    /// `io` app: thread counts to sweep.
    threads_list: Vec<usize>,
    /// Loopback cluster sizes to sweep (`--nodes 1,2,4`); non-empty
    /// switches to the distributed engine.
    nodes: Vec<usize>,
    /// Externally launched `cfr-node` addresses (`--node-addr`,
    /// repeatable); non-empty switches to the distributed engine.
    node_addrs: Vec<std::net::SocketAddr>,
    /// Cluster mode: round-checkpoint directory (enables fault
    /// tolerance persistence).
    checkpoint_dir: Option<String>,
    /// Cluster mode: checkpoint every N completed rounds.
    checkpoint_every: usize,
    /// Cluster mode: resume from the newest checkpoint in
    /// `--checkpoint-dir` instead of starting over.
    resume: bool,
    /// `serve` app: tenant counts to sweep.
    tenants_list: Vec<usize>,
    /// `serve` app: jobs each tenant submits back-to-back.
    jobs_per_tenant: usize,
    /// `telemetry` app: timed repetitions per configuration.
    repeats: usize,
    /// `sparse` app: stored tensor entries.
    nnz: usize,
    /// `sparse` app: CP factor rank.
    rank: usize,
    /// `sparse` app: hot-head sizes to sweep (0 = uniform scatter).
    skews: Vec<usize>,
    /// Sweep apps (`io`/`serve`/`telemetry`): also write the sweep as a
    /// machine-readable `BENCH_*.json` document.
    json_out: Option<String>,
    /// `elastic` app: straggler cost per work unit, milliseconds.
    slow_ms: u64,
    /// `elastic` app / cluster mode: rows per work unit.
    grain: u64,
    /// Cluster mode: cut shards into work units that idle nodes steal.
    steal: bool,
    /// Cluster mode: accept mid-job joiners (`cfr-node --join`) on this
    /// address.
    join_listen: Option<String>,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            app: String::new(),
            n: 20_000,
            d: 8,
            k: 16,
            iters: 3,
            rows: 16,
            cols: 20_000,
            threads: 2,
            level: TraceLevel::Splits,
            trace_out: None,
            metrics_out: None,
            report: false,
            size_mb: 64,
            budget_mib: 16,
            threads_list: vec![1, 2, 4, 8],
            nodes: Vec::new(),
            node_addrs: Vec::new(),
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            tenants_list: vec![1, 2, 4],
            jobs_per_tenant: 2,
            repeats: 3,
            nnz: 60_000,
            rank: 4,
            skews: vec![16, 0],
            json_out: None,
            slow_ms: 8,
            grain: 0,
            steal: false,
            join_listen: None,
        }
    }
}

const USAGE: &str =
    "usage: bench <kmeans|pca|io|ft|serve|telemetry|codegen|sparse|elastic> [options]
  --n N            k-means: number of points        (default 20000)
  --d D            k-means: point dimensionality    (default 8)
  --k K            k-means: centroid count          (default 16)
  --iters I        k-means: outer-loop iterations   (default 3)
  --rows R         pca: sample dimensionality       (default 16)
  --cols C         pca: number of samples           (default 20000)
  --threads T      FREERIDE thread count            (default 2)
  --size-mb M      io: on-disk dataset size in MB   (default 64)
  --budget-mib B   io: streaming memory budget MiB  (default 16)
  --threads-list L io: thread counts to sweep       (default 1,2,4,8)
  --level L        phases | splits | verbose        (default splits)
  --trace-out P    write merged Chrome trace JSON to P
  --metrics-out P  write flat metrics JSON to P
  --report         print the per-phase comparison table
  --nodes LIST     run on the distributed engine instead: sweep
                   loopback cluster sizes, e.g. --nodes 1,2,4
  --node-addr A    connect to an externally launched cfr-node at A
                   (host:port; repeatable — k-means needs 1 session
                   per agent, pca needs 2: cfr-node --sessions 2)
  --checkpoint-dir P   cluster: persist round checkpoints under P
  --checkpoint-every N cluster: checkpoint every N rounds (default 1)
  --steal          cluster: split shards into work units (--grain
                   rows each, 0 = automatic) that idle nodes steal
                   from stragglers
  --join-listen A  cluster: accept mid-job joiners (cfr-node --join A)
                   at round barriers on address A
  --resume         cluster: resume from the newest checkpoint in
                   --checkpoint-dir (fresh start if none exists)
  ft               fault-tolerance sweep: checkpoint overhead at
                   every=1/2/never plus recovery latency after an
                   injected mid-round node kill (uses --n/--d/--k/
                   --iters and the first --nodes entry, default 2)
  serve            job-server throughput sweep: an in-process
                   cfr-serve over a shared loopback fleet, k-means
                   jobs from 1..N concurrent tenants (uses --n/--d/
                   --k/--iters and the first --nodes entry, default 2)
  --tenants L      serve: tenant counts to sweep (default 1,2,4)
  --jobs-per-tenant N  serve: jobs per tenant (default 2)
  telemetry        live-metrics overhead sweep: manual k-means with the
                   MetricsHub disabled vs enabled (tracing off in both),
                   per --threads-list entry; bit-identity enforced
  --repeats N      telemetry|codegen: timed repetitions, best kept (default 3)
  codegen          kernel-backend sweep: translated k-means under every
                   strategy, bytecode interpreter vs natively compiled
                   kernels (cfr-codegen), per --threads-list entry;
                   bit-identity enforced; without rustc the compiled
                   column falls back to the interpreter (and says so)
  sparse           sparse-tier skew sweep: single-pass MTTKRP over the
                   closed-form COO tensor at each --skew entry, the
                   inspector-planned sync scheme timed against every
                   forced scheme, per --threads-list entry; bit-identity
                   enforced (--n is the tensor's mode-0 dimension; with
                   --trace-out an extra inspected run exports the
                   sparse.inspect span and sparse.* counters)
  elastic          work-stealing makespan sweep: k-means on a loopback
                   cluster whose node 0 is a deterministic straggler
                   (--slow-ms per grain-sized work unit), steal off vs
                   on, per --nodes entry (default 2,4); the steal-on
                   run must stay bit-identical across repetitions
  --slow-ms N      elastic: straggler cost per work unit ms (default 8)
  --grain N        elastic: rows per work unit (default 0 = automatic)
  --nnz N          sparse: stored tensor entries    (default 60000)
  --rank R         sparse: CP factor rank           (default 4)
  --skew L         sparse: hot-head sizes to sweep; rows [0,hot) soak up
                   a third of the entries, 0 = uniform (default 16,0)
  --json-out P     io|serve|telemetry|codegen|sparse|elastic: also write the sweep as JSON to P";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    opts.app = it.next().cloned().ok_or("missing application name")?;
    if ![
        "kmeans",
        "pca",
        "io",
        "ft",
        "serve",
        "telemetry",
        "codegen",
        "sparse",
        "elastic",
    ]
    .contains(&opts.app.as_str())
    {
        return Err(format!("unknown application `{}`", opts.app));
    }
    while let Some(flag) = it.next() {
        if flag == "--report" {
            opts.report = true;
            continue;
        }
        if flag == "--resume" {
            opts.resume = true;
            continue;
        }
        if flag == "--steal" {
            opts.steal = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = || {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--n" => opts.n = num()?,
            "--d" => opts.d = num()?,
            "--k" => opts.k = num()?,
            "--iters" => opts.iters = num()?,
            "--rows" => opts.rows = num()?,
            "--cols" => opts.cols = num()?,
            "--threads" => opts.threads = num()?,
            "--size-mb" => opts.size_mb = num()?,
            "--budget-mib" => opts.budget_mib = num()?,
            "--threads-list" => {
                opts.threads_list = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| {
                                format!("--threads-list: `{s}` is not a positive number")
                            })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--level" => {
                opts.level = TraceLevel::parse(value)
                    .ok_or_else(|| format!("--level: unknown level `{value}`"))?;
                if opts.level == TraceLevel::Off {
                    return Err("--level off records nothing; pick phases|splits|verbose".into());
                }
            }
            "--trace-out" => opts.trace_out = Some(value.clone()),
            "--metrics-out" => opts.metrics_out = Some(value.clone()),
            "--nodes" => {
                opts.nodes = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("--nodes: `{s}` is not a positive number"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--node-addr" => {
                let addr = value
                    .parse()
                    .map_err(|_| format!("--node-addr: `{value}` is not host:port"))?;
                opts.node_addrs.push(addr);
            }
            "--tenants" => {
                opts.tenants_list = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("--tenants: `{s}` is not a positive number"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--jobs-per-tenant" => {
                opts.jobs_per_tenant = num()?;
                if opts.jobs_per_tenant == 0 {
                    return Err("--jobs-per-tenant must be positive".into());
                }
            }
            "--repeats" => {
                opts.repeats = num()?;
                if opts.repeats == 0 {
                    return Err("--repeats must be positive".into());
                }
            }
            "--nnz" => {
                opts.nnz = num()?;
                if opts.nnz == 0 {
                    return Err("--nnz must be positive".into());
                }
            }
            "--rank" => {
                opts.rank = num()?;
                if opts.rank == 0 {
                    return Err("--rank must be positive".into());
                }
            }
            "--skew" => {
                // 0 is meaningful here (uniform scatter), so no
                // positivity filter.
                opts.skews = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("--skew: `{s}` is not a number"))
                    })
                    .collect::<Result<_, _>>()?;
                if opts.skews.is_empty() {
                    return Err("--skew needs at least one entry".into());
                }
            }
            "--json-out" => opts.json_out = Some(value.clone()),
            "--slow-ms" => {
                opts.slow_ms = value
                    .parse()
                    .map_err(|_| format!("--slow-ms: `{value}` is not a number"))?;
            }
            "--grain" => {
                opts.grain = value
                    .parse()
                    .map_err(|_| format!("--grain: `{value}` is not a number"))?;
            }
            "--join-listen" => opts.join_listen = Some(value.clone()),
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value.clone()),
            "--checkpoint-every" => {
                opts.checkpoint_every = num()?;
                if opts.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be positive".into());
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Run one version of the selected app, returning its drained trace.
fn run_version(opts: &Opts, version: Version) -> Result<Trace, String> {
    let trace = match opts.app.as_str() {
        "kmeans" => {
            let mut params = KmeansParams::new(opts.n, opts.d, opts.k, opts.iters);
            params.config.threads = opts.threads;
            params.config.trace = opts.level;
            kmeans::run(&params, version)
                .map_err(|e| format!("{} failed: {e}", version.label()))?
                .timing
                .trace
        }
        _ => {
            let mut params = PcaParams::new(opts.rows, opts.cols);
            params.config.threads = opts.threads;
            params.config.trace = opts.level;
            pca::run(&params, version)
                .map_err(|e| format!("{} failed: {e}", version.label()))?
                .timing
                .trace
        }
    };
    trace.ok_or_else(|| format!("{}: no trace captured", version.label()))
}

/// Run the selected app on the distributed engine, one run per
/// requested cluster size (or one run against the external agents).
fn run_cluster(opts: &Opts) -> Result<(), String> {
    use cfr_bench::{render_cluster_table, ClusterPoint};

    let placements: Vec<Nodes> = if opts.node_addrs.is_empty() {
        opts.nodes.iter().map(|&n| Nodes::Loopback(n)).collect()
    } else if opts.nodes.is_empty() {
        vec![Nodes::External(opts.node_addrs.clone())]
    } else {
        return Err("--nodes and --node-addr are mutually exclusive".into());
    };

    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".into());
    }
    let mut ft = FtOptions {
        checkpoint_dir: opts.checkpoint_dir.clone().map(Into::into),
        resume: opts.resume,
        ..FtOptions::default()
    };
    ft.policy.checkpoint_every = opts.checkpoint_every;
    ft.elastic.steal = opts.steal;
    ft.elastic.steal_grain = opts.grain;
    ft.elastic.join_listen = opts.join_listen.clone();

    let mut points: Vec<ClusterPoint> = Vec::new();
    let mut last_trace: Option<Trace> = None;
    for nodes in &placements {
        let (stats, trace) = match opts.app.as_str() {
            "kmeans" => {
                let mut params = KmeansParams::new(opts.n, opts.d, opts.k, opts.iters);
                params.config.threads = opts.threads;
                params.config.trace = opts.level;
                let r = kmeans_cluster_ft(&params, nodes, &ft).map_err(|e| e.to_string())?;
                (vec![r.stats], r.trace)
            }
            _ => {
                let mut params = PcaParams::new(opts.rows, opts.cols);
                params.config.threads = opts.threads;
                params.config.trace = opts.level;
                let r = pca_cluster_ft(&params, nodes, &ft).map_err(|e| e.to_string())?;
                (r.stats, r.traces.into_iter().last())
            }
        };
        for s in &stats {
            println!(
                "nodes {:>2}: rounds {:<3} wall {:>8.4} s  sent {:>9} B  recv {:>9} B  slowest node {:>8.4} s",
                s.nodes,
                s.rounds,
                s.wall_ns as f64 / 1e9,
                s.bytes_sent,
                s.bytes_recv,
                s.slowest_node_ns() as f64 / 1e9
            );
            if ft.checkpoint_dir.is_some() || s.recoveries > 0 {
                println!(
                    "          ft: {} checkpoints ({} KiB), {} recoveries, {} shards reassigned",
                    s.checkpoints_written,
                    s.checkpoint_bytes / 1024,
                    s.recoveries,
                    s.shards_reassigned
                );
            }
            if s.steals + s.joins + s.leaves > 0 {
                println!(
                    "          elastic: {} steals, {} joins, {} leaves",
                    s.steals, s.joins, s.leaves
                );
            }
            points.push(ClusterPoint {
                nodes: s.nodes,
                wall_s: s.wall_ns as f64 / 1e9,
                slowest_node_s: s.slowest_node_ns() as f64 / 1e9,
                wire_bytes: s.bytes_sent + s.bytes_recv,
                rounds: s.rounds,
            });
        }
        if trace.is_some() {
            last_trace = trace;
        }
    }

    // The coordinator already merged the shipped node traces (pid 0 =
    // coordinator, pid i+1 = node i); write the last run's trace as-is —
    // running it through merge_as would squash the node tracks.
    if let Some(path) = &opts.trace_out {
        let trace = last_trace.as_ref().ok_or("no cluster trace was captured")?;
        let json = trace.chrome_json();
        obs::validate_chrome_trace(&json).map_err(|e| format!("internal: bad trace: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "wrote Chrome trace ({} events) to {path}",
            trace.spans.len()
        );
    }
    if let Some(path) = &opts.metrics_out {
        let trace = last_trace.as_ref().ok_or("no cluster trace was captured")?;
        std::fs::write(path, trace.metrics_json()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote metrics to {path}");
    }
    if opts.report {
        println!();
        print!("{}", render_cluster_table(&opts.app, &points));
    }
    Ok(())
}

/// The out-of-core I/O sweep: sync vs streaming reads at each thread
/// count on a dataset written to disk by cfr-datagen, with the
/// streaming pipeline held to `--budget-mib` of chunk buffers. With
/// `--trace-out` an extra traced streaming run exports the reader-track
/// timeline (`io.read` spans, `io.*` counters).
fn run_io(opts: &Opts) -> Result<(), String> {
    let sweep = cfr_bench::io_overlap(
        opts.size_mb,
        opts.budget_mib,
        &opts.threads_list,
        opts.k,
        opts.iters,
    )?;
    print!("{}", cfr_bench::render_io_table(&sweep));
    if let Some(path) = &opts.json_out {
        std::fs::write(path, cfr_bench::io_json(&sweep))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote sweep JSON to {path}");
    }

    if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        // One more streaming run, traced, for the exported timeline.
        let d = 8usize;
        let (ds, _) = cfr_datagen::kmeans_sized(opts.size_mb.min(8), d, opts.k, 42);
        let mut path = std::env::temp_dir();
        path.push(format!("cfr-io-trace-{}.frds", std::process::id()));
        ds.write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let rows = ds.rows();
        drop(ds);
        let mut params = KmeansParams::new(rows, d, opts.k, opts.iters)
            .threads(*opts.threads_list.iter().max().unwrap_or(&2));
        params.config.trace = opts.level;
        params.config.io =
            freeride::IoMode::streaming_within(freeride::MemoryBudget::mib(opts.budget_mib), d, 2);
        let r = kmeans::run_manual_on_file(&params, &path);
        std::fs::remove_file(&path).ok();
        let trace = r
            .map_err(|e| format!("traced streaming run failed: {e}"))?
            .timing
            .trace
            .ok_or("no trace captured")?;
        if let Some(path) = &opts.trace_out {
            let json = trace.chrome_json();
            obs::validate_chrome_trace(&json).map_err(|e| format!("internal: bad trace: {e}"))?;
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "wrote Chrome trace ({} events) to {path}",
                trace.spans.len()
            );
        }
        if let Some(path) = &opts.metrics_out {
            std::fs::write(path, trace.metrics_json()).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote metrics to {path}");
        }
    }
    Ok(())
}

/// The fault-tolerance sweep: checkpoint overhead at every=1/2/never
/// plus recovery latency after an injected mid-round node kill.
fn run_ft(opts: &Opts) -> Result<(), String> {
    let nodes = opts.nodes.first().copied().unwrap_or(2).max(2);
    let mut params = KmeansParams::new(opts.n, opts.d, opts.k, opts.iters);
    params.config.threads = opts.threads;
    let dir = match &opts.checkpoint_dir {
        Some(d) => std::path::PathBuf::from(d),
        None => {
            let mut d = std::env::temp_dir();
            d.push(format!("cfr-bench-ft-{}", std::process::id()));
            d
        }
    };
    let sweep = cfr_bench::ft_overhead_kmeans(&params, nodes, &dir)?;
    print!("{}", cfr_bench::render_ft_table("kmeans", &sweep));
    Ok(())
}

/// The job-server throughput sweep: an in-process `cfr-serve` over a
/// shared loopback fleet, k-means jobs submitted by 1..N concurrent
/// tenants, reported as jobs/second per tenant count.
fn run_serve(opts: &Opts) -> Result<(), String> {
    let nodes = opts.nodes.first().copied().unwrap_or(2).max(1);
    let mut params = KmeansParams::new(opts.n, opts.d, opts.k, opts.iters);
    params.config.threads = opts.threads;
    let sweep =
        cfr_bench::serve_throughput(&params, nodes, &opts.tenants_list, opts.jobs_per_tenant)?;
    print!("{}", cfr_bench::render_serve_table(&sweep));
    if let Some(path) = &opts.json_out {
        std::fs::write(path, cfr_bench::serve_json(&sweep))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote sweep JSON to {path}");
    }
    Ok(())
}

/// The live-telemetry overhead sweep: manual k-means with tracing off,
/// `MetricsHub` disabled vs enabled, per thread count. The acceptance
/// bar for the telemetry layer is ≤2% here; the sweep also enforces
/// that enabling metrics leaves results bit-identical.
fn run_telemetry(opts: &Opts) -> Result<(), String> {
    let sweep = cfr_bench::telemetry_overhead(
        opts.n,
        opts.d,
        opts.k,
        opts.iters,
        &opts.threads_list,
        opts.repeats,
    )?;
    print!("{}", cfr_bench::render_telemetry_table(&sweep));
    if let Some(path) = &opts.json_out {
        std::fs::write(path, cfr_bench::telemetry_json(&sweep))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote sweep JSON to {path}");
    }
    Ok(())
}

/// The kernel-backend sweep: translated k-means, interpreter vs
/// natively compiled kernels, per strategy and thread count. The table
/// and `BENCH_codegen.json` carry an interpreted-vs-compiled column
/// pair; bit identity between the backends is enforced inside the
/// sweep itself.
fn run_codegen(opts: &Opts) -> Result<(), String> {
    let sweep = cfr_bench::codegen_speed(
        opts.n,
        opts.d,
        opts.k,
        opts.iters,
        &opts.threads_list,
        opts.repeats,
    )?;
    print!("{}", cfr_bench::render_codegen_table(&sweep));
    if let Some(path) = &opts.json_out {
        std::fs::write(path, cfr_bench::codegen_json(&sweep))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote sweep JSON to {path}");
    }
    Ok(())
}

/// The sparse skew sweep: single-pass MTTKRP at each `--skew` entry,
/// the inspector-planned sync scheme against every forced scheme. The
/// headline check: on skewed input the inspector's choice must keep up
/// with (or beat) the worst forced scheme — a planner that loses to a
/// blind guess would be pure overhead. With `--trace-out` an extra
/// inspected run exports the `sparse.inspect` span (scheme, reason,
/// per-region evidence) and the `sparse.*` counters.
fn run_sparse(opts: &Opts) -> Result<(), String> {
    let dims = [opts.n, 32, 32];
    let sweep = cfr_bench::sparse_scaling(
        dims,
        opts.nnz,
        opts.rank,
        &opts.skews,
        &opts.threads_list,
        opts.repeats,
    )?;
    print!("{}", cfr_bench::render_sparse_table(&sweep));
    for p in &sweep.points {
        let (worst_name, worst_s) = p.worst_forced();
        if p.inspect_s > worst_s {
            println!(
                "note: hot={} t={}: inspector ({}) ran {:.4}s, slower than the worst \
                 forced scheme {worst_name} ({worst_s:.4}s)",
                p.hot, p.threads, p.chosen, p.inspect_s
            );
        }
    }
    if let Some(path) = &opts.json_out {
        std::fs::write(path, cfr_bench::sparse_json(&sweep))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote sweep JSON to {path}");
    }

    if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        // One more inspected run, traced, for the exported timeline.
        let hot = sweep.points.first().map(|p| p.hot).unwrap_or(16);
        let mut params = cfr_apps::mttkrp::MttkrpParams::new(dims, opts.nnz, hot, opts.rank)
            .threads(*opts.threads_list.iter().max().unwrap_or(&2))
            .with_inspect();
        params.config.trace = opts.level;
        let r =
            cfr_apps::mttkrp::run(&params).map_err(|e| format!("traced sparse run failed: {e}"))?;
        let trace = r.timing.trace.ok_or("no trace captured")?;
        if let Some(path) = &opts.trace_out {
            let json = trace.chrome_json();
            obs::validate_chrome_trace(&json).map_err(|e| format!("internal: bad trace: {e}"))?;
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "wrote Chrome trace ({} events) to {path}",
                trace.spans.len()
            );
        }
        if let Some(path) = &opts.metrics_out {
            std::fs::write(path, trace.metrics_json()).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote metrics to {path}");
        }
    }
    Ok(())
}

/// The elastic work-stealing sweep: k-means with node 0 straggling
/// `--slow-ms` ms per grain-sized work unit, whole-shard units (steal
/// off) vs grain-sized units (steal on), per `--nodes` entry. The sweep
/// enforces that the steal-on run is bit-identical across repetitions;
/// the table and `BENCH_elastic.json` carry the makespan pair and the
/// observed steal count.
fn run_elastic(opts: &Opts) -> Result<(), String> {
    let nodes: Vec<usize> = if opts.nodes.is_empty() {
        vec![2, 4]
    } else {
        opts.nodes.clone()
    };
    let job = cfr_bench::ElasticJob {
        n: opts.n,
        d: opts.d,
        k: opts.k,
        iters: opts.iters,
        slow_ms: opts.slow_ms,
        grain: opts.grain,
        repeats: opts.repeats,
    };
    let sweep = cfr_bench::elastic_makespan(&job, &nodes)?;
    print!("{}", cfr_bench::render_elastic_table(&sweep));
    for p in &sweep.points {
        if p.on_s >= p.off_s {
            println!(
                "note: {} nodes: stealing did not beat the static schedule \
                 ({:.4}s vs {:.4}s) — straggler too cheap for this workload?",
                p.nodes, p.on_s, p.off_s
            );
        }
    }
    if let Some(path) = &opts.json_out {
        std::fs::write(path, cfr_bench::elastic_json(&sweep))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote sweep JSON to {path}");
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<(), String> {
    if opts.app == "io" {
        return run_io(opts);
    }
    if opts.app == "ft" {
        return run_ft(opts);
    }
    if opts.app == "serve" {
        return run_serve(opts);
    }
    if opts.app == "telemetry" {
        return run_telemetry(opts);
    }
    if opts.app == "codegen" {
        return run_codegen(opts);
    }
    if opts.app == "sparse" {
        return run_sparse(opts);
    }
    if opts.app == "elastic" {
        return run_elastic(opts);
    }
    if !opts.nodes.is_empty() || !opts.node_addrs.is_empty() {
        return run_cluster(opts);
    }
    // The paper compares all four k-means versions; for PCA it compares
    // only opt-2 against manual ("PCA does not use complex or nested
    // data structures").
    let versions: &[Version] = match opts.app.as_str() {
        "kmeans" => &Version::ALL,
        _ => &[Version::Opt2, Version::Manual],
    };

    let mut merged = Trace::default();
    let mut columns: Vec<(String, TraceReport)> = Vec::new();
    for (pid, version) in versions.iter().enumerate() {
        let trace = run_version(opts, *version)?;
        println!(
            "pid {pid}: {:<10} {} spans, {} counters",
            version.label(),
            trace.spans.len(),
            trace.counters.len()
        );
        columns.push((version.label().to_string(), TraceReport::from_trace(&trace)));
        merged.merge_as(pid, trace);
    }

    if let Some(path) = &opts.trace_out {
        let json = merged.chrome_json();
        obs::validate_chrome_trace(&json).map_err(|e| format!("internal: bad trace: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "wrote Chrome trace ({} events) to {path}",
            merged.spans.len()
        );
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, merged.metrics_json()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote metrics to {path}");
    }
    if opts.report {
        println!();
        print!("{}", render_comparison(PHASES, &columns));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
