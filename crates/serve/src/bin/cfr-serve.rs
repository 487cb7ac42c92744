//! cfr-serve — the persistent FREERIDE job server daemon.
//!
//! Binds a listen socket, connects admitted jobs to an externally
//! launched `cfr-node` fleet (the nodes must run `--concurrent`), and
//! serves until a client sends `StopServer`, then drains and exits.
//!
//! ```text
//! cfr-serve --node-addr ADDR [--node-addr ADDR]...
//!           [--listen ADDR] [--port-file PATH] [--token T]
//!           [--max-concurrent N] [--tenant-max-queued N]
//!           [--tenant-max-running N] [--trace LEVEL]
//!           [--checkpoint-root DIR] [--job-retries N]
//!           [--metrics-listen ADDR] [--metrics-port-file PATH]
//!           [--steal] [--steal-grain N] [--node-weight ID=W]...
//!   --node-addr ADDR       a cfr-node agent (repeat per node)
//!   --listen ADDR          bind address (default 127.0.0.1:0)
//!   --port-file PATH       write the bound address to PATH once
//!                          listening (atomic temp+rename)
//!   --token T              require this session token (default open)
//!   --max-concurrent N     jobs running at once (default 2)
//!   --tenant-max-queued N  per-tenant admitted-job cap (default 8)
//!   --tenant-max-running N per-tenant running-job cap (default 2)
//!   --trace LEVEL          off|phases|splits|verbose (default off)
//!   --checkpoint-root DIR  per-job checkpoint namespaces under DIR
//!   --job-retries N        retries per failed job (default 1)
//!   --metrics-listen ADDR  serve /metrics, /healthz, /readyz over
//!                          HTTP on ADDR (metrics record even with
//!                          --trace off)
//!   --metrics-port-file PATH
//!                          write the bound metrics address to PATH
//!   --steal                cut every task job's shards into work units
//!                          that idle nodes steal from busy ones
//!   --steal-grain N        rows per work unit with --steal (default
//!                          0 = automatic)
//!   --node-weight ID=W     relative placement weight of fleet node ID
//!                          (e.g. 1=2.0 seeds node 1 with double work;
//!                          repeat per node, unlisted nodes weigh 1.0)
//! ```

use std::process::ExitCode;

use cfr_serve::{ServeConfig, Server};
use obs::TraceLevel;

const USAGE: &str = "usage: cfr-serve --node-addr ADDR [--node-addr ADDR]... [--listen ADDR] \
                     [--port-file PATH] [--token T] [--max-concurrent N] \
                     [--tenant-max-queued N] [--tenant-max-running N] [--trace LEVEL] \
                     [--checkpoint-root DIR] [--job-retries N] [--metrics-listen ADDR] \
                     [--metrics-port-file PATH] [--steal] [--steal-grain N] \
                     [--node-weight ID=W]...";

fn main() -> ExitCode {
    // Register the native codegen backend so in-process Chapel jobs
    // requesting `KernelBackend::Compiled` run natively (task jobs
    // forward the backend to the node fleet instead). Without it they
    // still run correctly via the recorded interpreter fallback.
    cfr_codegen::install();

    let mut listen = String::from("127.0.0.1:0");
    let mut port_file: Option<String> = None;
    let mut metrics_port_file: Option<String> = None;
    let mut nodes = Vec::new();
    let mut cfg = ServeConfig::new(Vec::new());

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(a) => listen = a,
                None => return usage_error("--listen requires an address"),
            },
            "--port-file" => match args.next() {
                Some(p) => port_file = Some(p),
                None => return usage_error("--port-file requires a path"),
            },
            "--node-addr" => match args.next().and_then(|a| a.parse().ok()) {
                Some(a) => nodes.push(a),
                None => return usage_error("--node-addr requires host:port"),
            },
            "--token" => match args.next() {
                Some(t) => cfg.token = t,
                None => return usage_error("--token requires a value"),
            },
            "--max-concurrent" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.max_concurrent = n,
                None => return usage_error("--max-concurrent requires a count"),
            },
            "--tenant-max-queued" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.tenant_max_queued = n,
                None => return usage_error("--tenant-max-queued requires a count"),
            },
            "--tenant-max-running" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.tenant_max_running = n,
                None => return usage_error("--tenant-max-running requires a count"),
            },
            "--trace" => match args.next().as_deref().and_then(TraceLevel::parse) {
                Some(l) => cfg.trace = l,
                None => return usage_error("--trace requires off|phases|splits|verbose"),
            },
            "--checkpoint-root" => match args.next() {
                Some(d) => cfg.checkpoint_root = Some(d.into()),
                None => return usage_error("--checkpoint-root requires a directory"),
            },
            "--job-retries" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.job_retries = n,
                None => return usage_error("--job-retries requires a count"),
            },
            "--metrics-listen" => match args.next() {
                Some(a) => cfg.metrics_listen = Some(a),
                None => return usage_error("--metrics-listen requires an address"),
            },
            "--metrics-port-file" => match args.next() {
                Some(p) => metrics_port_file = Some(p),
                None => return usage_error("--metrics-port-file requires a path"),
            },
            "--steal" => cfg.elastic.steal = true,
            "--steal-grain" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.elastic.steal_grain = n,
                None => return usage_error("--steal-grain requires a row count"),
            },
            "--node-weight" => match args.next().as_deref().and_then(parse_weight) {
                Some((id, w)) => {
                    let weights = &mut cfg.elastic.placement.weights;
                    if weights.len() <= id {
                        weights.resize(id + 1, 1.0);
                    }
                    weights[id] = w;
                }
                None => return usage_error("--node-weight requires ID=W with W > 0"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
    }
    if nodes.is_empty() {
        return usage_error("at least one --node-addr is required");
    }
    cfg.nodes = nodes;

    let handle = match Server::start(cfg, &listen) {
        Ok(h) => h,
        Err(e) => return fail(&e.to_string()),
    };
    let bound = handle.addr();
    if let Some(path) = &port_file {
        if let Err(e) = write_port_file(path, &bound.to_string()) {
            return fail(&format!("cannot write port file {path}: {e}"));
        }
    }
    if let Some(metrics) = handle.metrics_addr() {
        if let Some(path) = &metrics_port_file {
            if let Err(e) = write_port_file(path, &metrics.to_string()) {
                return fail(&format!("cannot write metrics port file {path}: {e}"));
            }
        }
        eprintln!("cfr-serve: metrics on http://{metrics}/metrics");
    }
    eprintln!("cfr-serve: listening on {bound}");
    handle.wait();
    eprintln!("cfr-serve: stopped");
    ExitCode::SUCCESS
}

/// Parse a `--node-weight ID=W` operand into `(node index, weight)`.
fn parse_weight(arg: &str) -> Option<(usize, f64)> {
    let (id, w) = arg.split_once('=')?;
    let id = id.parse().ok()?;
    let w: f64 = w.parse().ok()?;
    (w.is_finite() && w > 0.0).then_some((id, w))
}

/// Write the bound address atomically: temp file in the same directory,
/// `sync_all`, rename into place — same pattern as `cfr-node`, so
/// pollers never read a partial address.
fn write_port_file(path: &str, addr: &str) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = format!("{path}.{}.tmp", std::process::id());
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(addr.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("cfr-serve: error: {msg}");
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("cfr-serve: {msg}\n{USAGE}");
    ExitCode::FAILURE
}
