//! The performance ledger. See `README.md` for every metric and
//! workload; `BENCHMARK.json` for the contract the driver checks.
//!
//! `--workload <name>` runs one workload in this process and prints
//! its result as the last line; without it, every workload runs in a
//! child process of its own and the results are printed together.

mod host;
mod metrics;
mod reference;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub check_noise: bool,
    /// Internal: set up the workload in a fresh scratch directory,
    /// print the seconds it took, exit.
    pub setup_probe: bool,
}

const USAGE: &str = "usage: cfr-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace [0|1]] [--quick] [--check-noise]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 6.0,
        trace: false,
        quick: false,
        check_noise: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}`; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                let next = it.peek().map(String::as_str);
                args.trace = next != Some("0");
                if matches!(next, Some("0" | "1")) {
                    it.next();
                }
            }
            "--quick" => args.quick = true,
            "--check-noise" => args.check_noise = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cfr-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run::one(name, &args),
        None if args.check_noise => suite::check_noise(&args),
        None => suite::all(&args).map(|results| results.iter().all(|r| r.correct)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cfr-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
