//! cfr-node — a FREERIDE cluster node agent.
//!
//! Listens for a coordinator, then reduces the row ranges it is handed
//! of a shared dataset file via the shared-memory engine. One process
//! serves one coordinator session by default; `--sessions N` serves N
//! in sequence (0 = forever).
//!
//! Every failure exits nonzero with a single `cfr-node: error: ...`
//! line carrying the typed error, so scripts and supervisors can grep
//! one predictable shape.
//!
//! ```text
//! cfr-node [--listen ADDR] [--port-file PATH] [--sessions N] [--concurrent]
//!          [--chaos-kill-after-rounds N] [--slow-ms N]
//!          [--join ADDR] [--leave-after-rounds N]
//!   --listen ADDR     bind address (default 127.0.0.1:0)
//!   --port-file PATH  write the bound address to PATH once listening
//!                     (atomic temp+rename, so pollers never read a
//!                     partial address; lets scripts use an ephemeral port)
//!   --sessions N      coordinator sessions to serve (default 1, 0 = forever)
//!   --concurrent      serve sessions concurrently (thread per
//!                     connection) instead of sequentially — required
//!                     when a cfr-serve daemon multiplexes jobs onto
//!                     this node
//!   --chaos-kill-after-rounds N
//!                     fault-injection: complete N rounds, then abort the
//!                     whole process on the next work unit (deterministic
//!                     stand-in for SIGKILL in recovery smoke tests)
//!   --slow-ms N       fault-injection: sleep N ms on every work unit,
//!                     turning this node into a deterministic straggler
//!                     for the coordinator's latency detection and for
//!                     stealing
//!   --join ADDR       instead of listening, dial a running coordinator's
//!                     membership hub (ClusterConfig::elastic.join_listen)
//!                     and serve that one job as a mid-job joiner; exits 0
//!                     when the job ends (or when the hub has gone away)
//!   --leave-after-rounds N
//!                     announce a voluntary Leave after handling N rounds
//!                     and exit cleanly — the coordinator reassigns this
//!                     node's work without burning an FT retry
//! ```

use std::net::TcpListener;
use std::process::ExitCode;

use freeride_dist::node;

const USAGE: &str = "usage: cfr-node [--listen ADDR] [--port-file PATH] [--sessions N] \
                     [--concurrent] [--chaos-kill-after-rounds N] [--slow-ms N] \
                     [--join ADDR] [--leave-after-rounds N]";

fn main() -> ExitCode {
    // Register the native codegen backend so jobs requesting
    // `KernelBackend::Compiled` run natively on this node (without it
    // they'd still run correctly, via the recorded interpreter
    // fallback).
    cfr_codegen::install();

    let mut listen = String::from("127.0.0.1:0");
    let mut port_file: Option<String> = None;
    let mut sessions: usize = 1;
    let mut concurrent = false;
    let mut behaviour = node::Behaviour::default();
    let mut join: Option<String> = None;

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
            "--sessions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => sessions = n,
                None => return usage_error("--sessions requires a count"),
            },
            "--concurrent" => concurrent = true,
            "--chaos-kill-after-rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => behaviour.die_after = Some(n),
                None => return usage_error("--chaos-kill-after-rounds requires a count"),
            },
            "--slow-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => behaviour.slow_ms = n,
                None => return usage_error("--slow-ms requires a count"),
            },
            "--join" => match args.next() {
                Some(a) => join = Some(a),
                None => return usage_error("--join requires a coordinator hub address"),
            },
            "--leave-after-rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => behaviour.leave_after = Some(n),
                None => return usage_error("--leave-after-rounds requires a count"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
    }

    if let Some(hub) = join {
        // Joiner mode: no listener of our own — dial the coordinator's
        // membership hub and serve that one job from the inside.
        let addr = match hub.parse() {
            Ok(a) => a,
            Err(e) => return usage_error(&format!("--join: bad address `{hub}`: {e}")),
        };
        eprintln!("cfr-node: joining coordinator hub at {addr}");
        return match node::join(&addr, behaviour) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        };
    }

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => return fail(&format!("cannot bind {listen}: cluster I/O error: {e}")),
    };
    let bound = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            return fail(&format!(
                "cannot read bound address: cluster I/O error: {e}"
            ))
        }
    };
    if let Some(path) = &port_file {
        if let Err(e) = write_port_file(path, &bound.to_string()) {
            return fail(&format!("cannot write port file {path}: {e}"));
        }
    }
    eprintln!("cfr-node: listening on {bound}");

    if let Some(rounds) = behaviour.die_after {
        // Fault injection: complete `rounds` rounds of the first
        // session, then die abruptly — abort() takes the whole process
        // down mid-round, exactly like a SIGKILL.
        match node::serve_with(&listener, behaviour) {
            Ok(()) => {
                eprintln!("cfr-node: chaos kill after {rounds} rounds");
                std::process::abort();
            }
            Err(e) => return fail(&e.to_string()),
        }
    }

    if concurrent {
        return match node::serve_concurrent(&listener, sessions, behaviour) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        };
    }

    let mut served = 0usize;
    loop {
        if let Err(e) = node::serve_with(&listener, behaviour) {
            return fail(&e.to_string());
        }
        served += 1;
        if sessions != 0 && served >= sessions {
            return ExitCode::SUCCESS;
        }
    }
}

/// Write the bound address atomically: temp file in the same directory,
/// `sync_all`, rename into place (the `crates/ft` checkpoint pattern).
/// A plain `fs::write` lets a poller doing `[ -s "$f" ] && cat "$f"`
/// read a partially written address.
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
    eprintln!("cfr-node: error: {msg}");
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("cfr-node: {msg}\n{USAGE}");
    ExitCode::FAILURE
}
