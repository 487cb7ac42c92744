//! Every workload, each in a child process of its own, and the
//! run-to-run noise check over two such suites.

use std::process::Command;

use obs::{parse_json, JsonValue};

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{Res, NAMES};
use crate::{host, Args};

/// One workload's result line, parsed back.
pub struct WorkloadResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in table order: end-to-end, then — from the
    /// traced run, when there was one — per-layer.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Run `workload` in a child and parse its last line.
fn child(
    workload: &'static str,
    args: &Args,
    trace: bool,
    defs: &'static [MetricDef],
) -> Res<WorkloadResult> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.quick {
        cmd.arg("--quick");
    }
    // The child's stderr is this process's; its stdout is echoed here
    // once it ends, result line last.
    let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().unwrap_or("");
    let doc = parse_json(line).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_num)
            .ok_or(format!("{workload}: no `{k}`"))
    };
    let mut metrics = Vec::new();
    for d in defs {
        let value = doc
            .get("metrics")
            .and_then(|m| m.get(d.name))
            .and_then(|m| m.get("value"));
        let value = value
            .and_then(JsonValue::as_num)
            .ok_or(format!("{workload}: no metric `{}`", d.name))?;
        metrics.push((d.name, value));
    }
    Ok(WorkloadResult {
        workload,
        correct: doc.get("correct") == Some(&JsonValue::Bool(true)) && out.status.success(),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Every workload once (twice with `--trace`: the end-to-end run, then
/// the traced run), and a table of the end-to-end metrics.
pub fn all(args: &Args) -> Res<Vec<WorkloadResult>> {
    println!(
        "host: nproc {}, LLC {:.0} MiB as /sys reports it, memcpy {:.2} GiB/s; seed {}, {} s per run{}",
        host::nproc(),
        host::llc_mib(),
        host::memcpy_gib_s(),
        args.seed,
        args.seconds,
        if args.quick { ", quick sizes: timings mean nothing" } else { "" }
    );
    let mut results = Vec::new();
    for workload in NAMES {
        let mut result = child(workload, args, false, END_TO_END)?;
        if args.trace {
            let traced = child(workload, args, true, PER_LAYER)?;
            result.correct &= traced.correct;
            result.attempted += traced.attempted;
            result.failed += traced.failed;
            result.metrics.extend(traced.metrics);
        }
        results.push(result);
    }
    print!("\n{:<16}", "workload");
    for d in END_TO_END {
        print!(" {:>16}", format!("{} [{}]", d.name, d.unit));
    }
    println!(" {:>16}", "failed/attempted");
    for r in &results {
        print!("{:<16}", r.workload);
        for (_, v) in &r.metrics[..END_TO_END.len()] {
            print!(" {v:>16.4}");
        }
        println!(" {:>16}", format!("{}/{}", r.failed, r.attempted));
    }
    Ok(results)
}

fn json_results(results: &[WorkloadResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r.metrics.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
            format!(
                "    {{\"workload\": \"{}\", \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                r.workload,
                r.attempted,
                r.failed,
                metrics.join(", ")
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// Two suites of the same code on the same seed: print, per metric and
/// workload, how far the second is from the first beside the bound;
/// write both as `benchmark/baseline.json`. `Ok(false)` when any
/// difference passes its bound or any check failed.
pub fn check_noise(args: &Args) -> Res<bool> {
    let first = all(args)?;
    let second = all(args)?;
    let mut within = first.iter().chain(&second).all(|r| r.correct);
    println!(
        "\n{:<16} {:<14} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for (d, ((_, x), (_, y))) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
            let worse = if d.higher { (x - y) / x } else { (y - x) / x };
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let ok = worse.abs() <= bound;
            within &= ok;
            println!(
                "{:<16} {:<14} {x:>12.4} {y:>12.4} {:>8.2}% {:>6.0}%{}",
                a.workload,
                d.name,
                worse * 100.0,
                bound * 100.0,
                if ok { "" } else { "  PAST BOUND" }
            );
        }
    }
    let commit = Command::new("git").args(["rev-parse", "HEAD"]).output();
    let commit = commit.ok().filter(|o| o.status.success());
    let commit = commit.map_or("unknown".into(), |o| {
        String::from_utf8_lossy(&o.stdout).trim().to_string()
    });
    let doc = format!(
        "{{\n  \"measured_on_commit\": \"{commit}\",\n  \"seed\": {},\n  \"run_seconds\": {},\n  \
         \"traced\": {},\n  \"host\": {{\"nproc\": {}, \"llc_mib\": {}, \"memcpy_gib_s\": {}}},\n  \
         \"first\": {},\n  \"second\": {}\n}}\n",
        args.seed,
        args.seconds,
        args.trace,
        host::nproc(),
        host::llc_mib(),
        host::memcpy_gib_s(),
        json_results(&first),
        json_results(&second)
    );
    let path = crate::run::out_dir().with_file_name("baseline.json");
    std::fs::write(&path, doc)?;
    println!("wrote {}", path.display());
    Ok(within)
}
