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
//! With `--nodes N` or `--node-addr A` it instead makes one run on the
//! distributed engine (loopback or external `cfr-node` agents), with
//! optional checkpointing, work stealing and mid-job joiners. Timings
//! across workloads and commits live in the `benchmark/` ledger.
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
    /// Loopback cluster size (`--nodes N`); switches to the distributed
    /// engine.
    nodes: Option<usize>,
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
    /// Cluster mode: rows per work unit when stealing.
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
            nodes: None,
            node_addrs: Vec::new(),
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            grain: 0,
            steal: false,
            join_listen: None,
        }
    }
}

const USAGE: &str = "usage: bench <kmeans|pca> [options]
  --n N            k-means: number of points        (default 20000)
  --d D            k-means: point dimensionality    (default 8)
  --k K            k-means: centroid count          (default 16)
  --iters I        k-means: outer-loop iterations   (default 3)
  --rows R         pca: sample dimensionality       (default 16)
  --cols C         pca: number of samples           (default 20000)
  --threads T      FREERIDE thread count            (default 2)
  --level L        phases | splits                  (default splits)
  --trace-out P    write merged Chrome trace JSON to P
  --metrics-out P  write flat metrics JSON to P
  --report         print the per-phase table
  --nodes N        run once on the distributed engine instead, on an
                   N-node loopback cluster
  --node-addr A    connect to an externally launched cfr-node at A
                   (host:port; repeatable — k-means needs 1 session
                   per agent, pca needs 2: cfr-node --sessions 2)
  --checkpoint-dir P   cluster: persist round checkpoints under P
  --checkpoint-every N cluster: checkpoint every N rounds (default 1)
  --resume         cluster: resume from the newest checkpoint in
                   --checkpoint-dir (fresh start if none exists)
  --steal          cluster: split shards into work units (--grain
                   rows each, 0 = automatic) that idle nodes steal
                   from stragglers
  --grain N        cluster: rows per work unit (default 0 = automatic)
  --join-listen A  cluster: accept mid-job joiners (cfr-node --join A)
                   at round barriers on address A";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    opts.app = it.next().cloned().ok_or("missing application name")?;
    if !["kmeans", "pca"].contains(&opts.app.as_str()) {
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
            "--level" => {
                opts.level = TraceLevel::parse(value)
                    .ok_or_else(|| format!("--level: unknown level `{value}`"))?;
                if opts.level == TraceLevel::Off {
                    return Err("--level off records nothing; pick phases|splits".into());
                }
            }
            "--trace-out" => opts.trace_out = Some(value.clone()),
            "--metrics-out" => opts.metrics_out = Some(value.clone()),
            "--nodes" => {
                let n = num()?;
                if n == 0 {
                    return Err("--nodes must be positive".into());
                }
                opts.nodes = Some(n);
            }
            "--node-addr" => {
                let addr = value
                    .parse()
                    .map_err(|_| format!("--node-addr: `{value}` is not host:port"))?;
                opts.node_addrs.push(addr);
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

fn kmeans_params(opts: &Opts) -> KmeansParams {
    let mut params = KmeansParams::new(opts.n, opts.d, opts.k, opts.iters);
    params.config.threads = opts.threads;
    params.config.trace = opts.level;
    params
}

fn pca_params(opts: &Opts) -> PcaParams {
    let mut params = PcaParams::new(opts.rows, opts.cols);
    params.config.threads = opts.threads;
    params.config.trace = opts.level;
    params
}

/// Run one version of the selected app, returning its drained trace.
fn run_version(opts: &Opts, version: Version) -> Result<Trace, String> {
    let trace = match opts.app.as_str() {
        "kmeans" => kmeans::run(&kmeans_params(opts), version).map(|r| r.timing.trace),
        _ => pca::run(&pca_params(opts), version).map(|r| r.timing.trace),
    }
    .map_err(|e| format!("{} failed: {e}", version.label()))?;
    trace.ok_or_else(|| format!("{}: no trace captured", version.label()))
}

/// Write `--trace-out` (validated Chrome JSON) and `--metrics-out`.
fn export(opts: &Opts, trace: &Trace) -> Result<(), String> {
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
    Ok(())
}

/// One run of the selected app on the distributed engine: a loopback
/// cluster of `--nodes N`, or the external `--node-addr` agents.
fn run_cluster(opts: &Opts) -> Result<(), String> {
    let nodes = match (opts.nodes, opts.node_addrs.is_empty()) {
        (Some(n), true) => Nodes::Loopback(n),
        (None, false) => Nodes::External(opts.node_addrs.clone()),
        _ => return Err("--nodes and --node-addr are mutually exclusive".into()),
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

    let (stats, trace) = match opts.app.as_str() {
        "kmeans" => {
            let r =
                kmeans_cluster_ft(&kmeans_params(opts), &nodes, &ft).map_err(|e| e.to_string())?;
            (vec![r.stats], r.trace)
        }
        _ => {
            let r = pca_cluster_ft(&pca_params(opts), &nodes, &ft).map_err(|e| e.to_string())?;
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
    }

    // The coordinator already merged the shipped node traces (pid 0 =
    // coordinator, pid i+1 = node i); export it as-is — running it
    // through merge_as would squash the node tracks.
    if opts.trace_out.is_some() || opts.metrics_out.is_some() || opts.report {
        let trace = trace.ok_or("no cluster trace was captured")?;
        export(opts, &trace)?;
        if opts.report {
            println!();
            print!("{}", TraceReport::from_trace(&trace).render());
        }
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<(), String> {
    if opts.nodes.is_some() || !opts.node_addrs.is_empty() {
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

    export(opts, &merged)?;
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
