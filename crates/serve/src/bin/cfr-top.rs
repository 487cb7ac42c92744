//! cfr-top — live fleet telemetry for a running `cfr-serve` daemon.
//!
//! Two modes:
//!
//! * **Protocol mode** (`--server`): one `Top` round-trip over the
//!   service protocol, rendered as a table — queue/job counters,
//!   per-tenant quota usage, the job table, per-node round latency
//!   (p50/p95/p99 from the fleet's log-linear histograms), throughput,
//!   and straggler counts. `--interval N` redraws every N seconds until
//!   interrupted; the default is one shot.
//! * **Scrape mode** (`--scrape`): a raw HTTP GET against the daemon's
//!   metrics endpoint, printing the body. This is how scripts (and the
//!   ci smoke) check `/metrics` and `/healthz` without needing `curl`.
//!
//! ```text
//! cfr-top --server ADDR [--tenant NAME] [--token T] [--interval SECS]
//! cfr-top --scrape ADDR [--path PATH]
//!   --server ADDR    cfr-serve service address (protocol mode)
//!   --tenant NAME    session tenant (default "top")
//!   --token T        session token (default open)
//!   --interval SECS  redraw every SECS seconds (default: one shot)
//!   --scrape ADDR    metrics endpoint address (scrape mode)
//!   --path PATH      path to GET in scrape mode (default /metrics)
//! ```
//!
//! Every failure exits nonzero with a single `cfr-top: error: ...`
//! line.

use std::process::ExitCode;

use cfr_serve::{job_state, Client, TopSnapshot};

const USAGE: &str = "usage: cfr-top --server ADDR [--tenant NAME] [--token T] \
                     [--interval SECS] | cfr-top --scrape ADDR [--path PATH]";

fn main() -> ExitCode {
    let mut server: Option<String> = None;
    let mut tenant = String::from("top");
    let mut token = String::new();
    let mut interval: Option<u64> = None;
    let mut scrape: Option<String> = None;
    let mut path = String::from("/metrics");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--server" => match args.next() {
                Some(a) => server = Some(a),
                None => return usage_error("--server requires host:port"),
            },
            "--tenant" => match args.next() {
                Some(t) => tenant = t,
                None => return usage_error("--tenant requires a name"),
            },
            "--token" => match args.next() {
                Some(t) => token = t,
                None => return usage_error("--token requires a value"),
            },
            "--interval" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => interval = Some(n),
                None => return usage_error("--interval requires seconds"),
            },
            "--scrape" => match args.next() {
                Some(a) => scrape = Some(a),
                None => return usage_error("--scrape requires host:port"),
            },
            "--path" => match args.next() {
                Some(p) => path = p,
                None => return usage_error("--path requires a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
    }

    if let Some(addr) = scrape {
        return match cfr_serve::http::get(&addr, &path) {
            Ok(body) => {
                print!("{body}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e.to_string()),
        };
    }

    let Some(server) = server else {
        return usage_error("--server or --scrape is required");
    };
    let addr = match server.parse() {
        Ok(a) => a,
        Err(_) => return usage_error(&format!("cannot parse server address `{server}`")),
    };

    loop {
        let mut client = match Client::connect(addr, &tenant, &token) {
            Ok(c) => c,
            Err(e) => return fail(&e.to_string()),
        };
        let top = match client.top() {
            Ok(t) => t,
            Err(e) => return fail(&e.to_string()),
        };
        client.bye().ok();
        render(&top);
        match interval {
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs.max(1))),
            None => return ExitCode::SUCCESS,
        }
        println!();
    }
}

fn render(top: &TopSnapshot) {
    let s = &top.status;
    let m = &top.metrics;
    println!(
        "cfr-top: queued {} running {} completed {} failed {}",
        s.queued, s.running, s.completed, s.failed
    );
    println!(
        "  caches: program {}/{} dataset {}/{}",
        s.program_cache_hits,
        s.program_cache_hits + s.program_cache_misses,
        s.dataset_cache_hits,
        s.dataset_cache_hits + s.dataset_cache_misses,
    );
    if let Some(h) = m.histograms.get("serve.queue_wait_ns") {
        println!(
            "  queue wait: p50 {} p95 {} p99 {}  ({} picks)",
            fmt_ms(h.quantile(0.50)),
            fmt_ms(h.quantile(0.95)),
            fmt_ms(h.quantile(0.99)),
            h.count(),
        );
    }
    if let Some(h) = m.histograms.get("serve.job_run_ns") {
        println!(
            "  job runtime: p50 {} p95 {} p99 {}  ({} jobs)",
            fmt_ms(h.quantile(0.50)),
            fmt_ms(h.quantile(0.95)),
            fmt_ms(h.quantile(0.99)),
            h.count(),
        );
    }

    if !s.tenants.is_empty() {
        println!("  {:<16} {:>7} {:>8}", "TENANT", "ACTIVE", "RUNNING");
        for t in &s.tenants {
            println!("  {:<16} {:>7} {:>8}", t.tenant, t.active, t.running);
        }
    }

    if !top.jobs.is_empty() {
        println!("  {:<8} {:<16} {:<8}", "JOB", "TENANT", "STATE");
        for j in &top.jobs {
            println!(
                "  {:<8} {:<16} {:<8}",
                j.job_id,
                j.tenant,
                job_state::name(j.state)
            );
        }
    }

    let nodes = m.node_rows();
    if !nodes.is_empty() {
        println!(
            "  {:<6} {:>7} {:>10} {:>10} {:>10} {:>12} {:>10} {:>7} {:>6} {:>6}",
            "NODE",
            "ROUNDS",
            "P50",
            "P95",
            "P99",
            "BYTES",
            "STRAGGLER",
            "STEALS",
            "JOINS",
            "LEAVES"
        );
        for (node, rounds, p50, p95, p99, bytes) in nodes {
            let stragglers = m.counter(&format!("node{node}.stragglers"));
            let steals = m.counter(&format!("node{node}.steals"));
            let joins = m.counter(&format!("node{node}.joins"));
            let leaves = m.counter(&format!("node{node}.leaves"));
            println!(
                "  {:<6} {:>7} {:>10} {:>10} {:>10} {:>12} {:>10} {:>7} {:>6} {:>6}",
                node,
                rounds,
                fmt_ms(p50),
                fmt_ms(p95),
                fmt_ms(p99),
                bytes,
                stragglers,
                steals,
                joins,
                leaves,
            );
        }
    }

    let stragglers = m.counter("sched.stragglers");
    let failures = m.counter("health.node_failures");
    let steals = m.counter("sched.steals");
    let joins = m.counter("sched.joins");
    let leaves = m.counter("sched.leaves");
    if stragglers > 0 || failures > 0 {
        println!("  health: {stragglers} straggler round(s), {failures} node failure(s)");
    }
    if steals > 0 || joins > 0 || leaves > 0 {
        println!("  elastic: {steals} steal(s), {joins} join(s), {leaves} leave(s)");
    }
}

/// Render nanoseconds as milliseconds with enough digits for sub-ms
/// loopback rounds.
fn fmt_ms(ns: u64) -> String {
    format!("{:.2}ms", ns as f64 / 1e6)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("cfr-top: error: {msg}");
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("cfr-top: {msg}\n{USAGE}");
    ExitCode::FAILURE
}
