//! One workload in this process: the timed run, the traced run, and
//! the set-up probe.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{layer_table, median, summarize};
use crate::trace::Tracer;
use crate::workloads::*;
use crate::{host, Args};

/// Share of the traced wall that may lie outside every layer span
/// before the workload's layer table counts as unresolved.
const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// Set-ups per timed run: this process's own and two probes.
const SETUPS: usize = 3;

/// Where runs leave their files: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory of this run's own, removed when the run ends. The
/// compiled-kernel cache lives in it, so every process compiles its
/// kernels cold and never loads another commit's.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        std::env::set_var("CFR_CODEGEN_DIR", dir.join("codegen"));
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one run reports: the contract's result line.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: String,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics
        )
    }
}

/// Run workload `name` as `args` ask; `Ok(true)` when every check held.
pub fn one(name: &str, args: &Args) -> Res<bool> {
    let scratch = Scratch::new()?;
    cfr_codegen::install();
    let ctx = Ctx {
        seed: args.seed,
        // One repetition under `--quick`: the loop stops after the first job.
        seconds: if args.quick { 0.0 } else { args.seconds },
        quick: args.quick,
        scratch: scratch.0.clone(),
    };
    macro_rules! dispatch {
        ($f:ident) => {
            match name {
                "chpl.pca" => $f::<ChplPca>(name, &ctx),
                "kmeans.opt2" => $f::<KmeansOpt2>(name, &ctx),
                "kmeans.manual" => $f::<KmeansManual>(name, &ctx),
                "kmeans.file" => $f::<KmeansFile>(name, &ctx),
                "cpals.sparse" => $f::<CpalsSparse>(name, &ctx),
                "cluster.kmeans" => $f::<ClusterKmeans>(name, &ctx),
                "serve.mix" => $f::<ServeMix>(name, &ctx),
                other => Err(format!("unknown workload `{other}`").into()),
            }
        };
    }
    if args.setup_probe {
        dispatch!(probe)?;
        return Ok(true);
    }
    let report = if args.trace {
        dispatch!(traced)
    } else {
        dispatch!(timed_run)
    }?;
    println!("{}", report.line());
    Ok(report.correct())
}

/// Count the outputs that differ from their reference, saying why.
fn count_failures(outputs: &[Output], references: &[Output]) -> usize {
    let mut failed = 0;
    for out in outputs {
        if let Err(why) = out.check(&references[out.kind]) {
            eprintln!("output check failed: {why}");
            failed += 1;
        }
    }
    failed
}

/// Set up and print the seconds it took.
fn probe<W: Workload>(_name: &str, ctx: &Ctx) -> Res<()> {
    let t0 = Instant::now();
    W::setup(ctx)?;
    println!("{}", t0.elapsed().as_secs_f64());
    Ok(())
}

/// Set-up time of `name` in a fresh process, seconds.
fn probe_setup(name: &str, ctx: &Ctx) -> Res<f64> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &ctx.seed.to_string(),
        "--setup-probe",
    ]);
    if ctx.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output()?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )
        .into());
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().parse()?)
}

/// The end-to-end run: program-side tracing off, caches warm.
fn timed_run<W: Workload>(name: &str, ctx: &Ctx) -> Res<Report> {
    let t0 = Instant::now();
    let mut w = W::setup(ctx)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    // Set-up buffers are gone: from here the high-water mark is the
    // jobs' own.
    host::reset_peak_rss();
    let samples = w.measure(ctx.seconds)?;
    let peak_rss_mib = host::peak_rss_mib();

    let references = w.references()?;
    let failed = samples.errors + count_failures(&samples.outputs, &references);
    drop(w);
    if !ctx.quick {
        for _ in 1..SETUPS {
            setups.push(probe_setup(name, ctx)?);
        }
    }

    let latency = summarize(&samples.latencies_s);
    println!(
        "{name}: {} jobs in {:.3} s; job_s min {:.4} q1 {:.4} median {:.4} q3 {:.4}; setups {setups:.3?}",
        latency.n, samples.wall_s, latency.min, latency.q1, latency.median, latency.q3
    );
    let mut m = Metrics::default();
    m.set("job_s", latency.median);
    m.set("jobs_per_s", latency.n as f64 / samples.wall_s);
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mib", peak_rss_mib);
    m.print(END_TO_END);
    Ok(Report {
        attempted: samples.latencies_s.len() + samples.errors,
        failed,
        metrics: m.json(END_TO_END),
    })
}

/// The traced run: the same job stage by stage under the benchmark's
/// own spans, and the comparison runs behind the per-layer metrics.
fn traced<W: Workload>(name: &str, ctx: &Ctx) -> Res<Report> {
    let mut m = Metrics::default();
    m.set("host.memcpy_gib_s", host::memcpy_gib_s());
    m.set("host.nproc", host::nproc() as f64);
    m.set("host.llc_mib", host::llc_mib());
    let mut w = W::setup(ctx)?;

    // Untraced jobs first: what the traced wall is held against. An
    // even number at least a second long, so a mix of two job kinds
    // weighs both alike.
    let mut untraced = Vec::new();
    let at_least_s = if ctx.quick { 0.0 } else { 1.0 };
    let start = Instant::now();
    while untraced.len() < 4
        || untraced.len() % 2 == 1
        || start.elapsed().as_secs_f64() < at_least_s
    {
        untraced.push(w.job()?);
    }
    let untraced_job_s = start.elapsed().as_secs_f64() / untraced.len() as f64;

    let tracer = Tracer::new();
    let staged = w.layers(ctx, &tracer, &mut m)?;
    let references = w.references()?;
    let mut failed = count_failures(&untraced, &references)
        + count_failures(std::slice::from_ref(&staged.output), &references);
    let timed = untraced.iter().find(|o| o.kind == staged.output.kind);
    if let Err(why) = staged
        .output
        .check(timed.ok_or("no timed job of the staged kind")?)
    {
        eprintln!("staged run differs from the timed run: {why}");
        failed += 1;
    }
    drop(w);

    let spans = tracer.spans();
    let table = layer_table(&spans);
    let wall_s = table.wall_ns as f64 / 1e9;
    m.set("trace.wall_ms", wall_s * 1e3);
    m.set(
        "trace.overhead_pct",
        (wall_s / staged.jobs as f64 / untraced_job_s - 1.0) * 100.0,
    );
    m.set(
        "trace.unattributed_pct",
        table.unattributed_ns as f64 / table.wall_ns as f64 * 100.0,
    );
    if let Some(&ns) = table.layers.get("linearize") {
        m.set("linearize.ms", ns as f64 / 1e6);
        m.set(
            "linearize.mib_s",
            staged.linearized_bytes as f64 / host::MIB / (ns as f64 / 1e9),
        );
    }
    println!(
        "{name}: traced wall {:.3} s over {} job(s); self time by layer:",
        wall_s, staged.jobs
    );
    for (layer, ns) in &table.layers {
        println!(
            "  {layer:<12} {:>10.3} ms {:>6.2} %",
            *ns as f64 / 1e6,
            *ns as f64 / table.wall_ns as f64 * 100.0
        );
    }
    println!(
        "  {:<12} {:>10.3} ms {:>6.2} %{}",
        "(no layer)",
        table.unattributed_ns as f64 / 1e6,
        table.unattributed_ns as f64 / table.wall_ns as f64 * 100.0,
        if table.resolved(LAYER_SUM_TOLERANCE) {
            ""
        } else {
            "  UNRESOLVED: layers do not sum to the traced wall within 5%"
        }
    );
    m.print(PER_LAYER);
    std::fs::create_dir_all(out_dir())?;
    tracer.write(name, &out_dir().join(format!("{name}.trace.json")))?;
    Ok(Report {
        attempted: untraced.len() + 1,
        failed,
        metrics: m.json(PER_LAYER),
    })
}
