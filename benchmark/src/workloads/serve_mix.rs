//! `serve.mix` — an in-process job server over a two-node concurrent
//! loopback fleet, two closed-loop clients alternating a k-means task
//! and a repeated Chapel program. Admission, queueing and the program
//! and dataset caches dominate; each job's compute is small.

use std::net::SocketAddr;
use std::path::PathBuf;

use cfr_serve::{Client, JobOutcome, JobSpec, ServeConfig, ServeError, Server, ServerHandle};
use freeride::source::write_dataset;
use freeride::{KernelBackend, ReductionObject};
use freeride_dist::{Coordinator, LoopbackCluster};

use super::chpl_pca::{pca_reference, pca_source, translator};
use super::*;
use crate::reference;
use crate::stats::{median, quantile};

const CLIENTS: usize = 2;
const ROUNDS: usize = 5;
const PCA_ROWS: usize = 8;
/// Task jobs are kind 0, Chapel jobs kind 1.
const KINDS: usize = 2;

pub struct ServeMix {
    /// The agents serve sessions until the process ends.
    fleet: LoopbackCluster,
    server: Option<ServerHandle>,
    addr: SocketAddr,
    client: Client,
    specs: [JobSpec; KINDS],
    submitted: usize,
    dataset: PathBuf,
    rows: usize,
    seed: u64,
    pca_cols: usize,
    pca_salt: usize,
    chapel_src: String,
}

fn to_output(kind: usize, out: &JobOutcome) -> Res<Output> {
    if kind == 0 {
        let robj = ReductionObject::decode_cells(&kmeans_layout(), &out.robj)?;
        let cells = robj.group_slice(0);
        let counts = (0..K).map(|c| cells[c * (D + 1) + D]).collect();
        return Ok(kmeans_output(out.state.clone(), counts));
    }
    let mut approx = Vec::new();
    for name in ["mean", "covflat"] {
        let (_, values) = out
            .globals
            .iter()
            .find(|(n, _)| n == name)
            .ok_or("global not returned")?;
        approx.extend(values);
    }
    Ok(Output {
        kind,
        approx,
        exact: Vec::new(),
    })
}

/// One client's closed loop: the next job goes out only when the
/// previous result is back. Starts on kind `first`, then alternates.
fn client_loop(
    addr: SocketAddr,
    first: usize,
    specs: &[JobSpec; KINDS],
    seconds: f64,
) -> Res<Samples> {
    let mut client = Client::connect(addr, &format!("client{first}"), "")?;
    let start = Instant::now();
    let mut s = Samples::default();
    let mut kind = first % KINDS;
    loop {
        let t0 = Instant::now();
        match client.run(specs[kind].clone()) {
            Ok(out) => {
                s.latencies_s.push(t0.elapsed().as_secs_f64());
                s.outputs.push(to_output(kind, &out)?);
            }
            Err(ServeError::Rejected { .. } | ServeError::JobFailed { .. }) => s.errors += 1,
            Err(e) => return Err(e.into()),
        }
        kind = (kind + 1) % KINDS;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    client.bye()?;
    Ok(s)
}

impl ServeMix {
    /// The task job run directly on the same fleet, no server between.
    fn direct_task(&self) -> Res<()> {
        Coordinator::new(kmeans_cluster_config(&self.dataset, ROUNDS)).run(self.fleet.addrs())?;
        Ok(())
    }
}

impl Workload for ServeMix {
    fn setup(ctx: &Ctx) -> Res<Self> {
        let rows = ctx.size(20_000, 5_000);
        let dataset = ctx.scratch.join("points.frds");
        write_dataset(&dataset, D, &kmeans_points(rows, ctx.seed))?;
        let fleet = LoopbackCluster::spawn_concurrent(2, 0)?;
        let server = Server::start(ServeConfig::new(fleet.addrs().to_vec()), "127.0.0.1:0")?;
        let addr = server.addr();

        let pca_cols = ctx.jitter(ctx.size(1_900, 400));
        let pca_salt = (splitmix(ctx.seed ^ 0xC0FFEE) % 19) as usize;
        let chapel_src = pca_source(PCA_ROWS, pca_cols, pca_salt, true);
        let specs = [
            JobSpec::Task {
                task: "kmeans".into(),
                params: vec![K as i64, D as i64],
                init_state: kmeans_init(),
                rounds: ROUNDS as u32,
                dataset: dataset.to_string_lossy().into_owned(),
                threads_per_node: 1,
                backend: KernelBackend::Interpreted.to_wire(),
            },
            JobSpec::Chapel {
                source: chapel_src.clone(),
                opt: 2,
                threads: 1,
                globals: vec!["mean".into(), "covflat".into()],
                backend: KernelBackend::Compiled.to_wire(),
            },
        ];
        let mut w = ServeMix {
            fleet,
            server: Some(server),
            addr,
            client: Client::connect(addr, "warmup", "")?,
            specs,
            submitted: 0,
            dataset,
            rows,
            seed: ctx.seed,
            pca_cols,
            pca_salt,
            chapel_src,
        };
        // Fill both caches and compile the Chapel kernels, cold.
        w.job()?;
        w.job()?;
        Ok(w)
    }

    /// The next job of the mix from one client.
    fn job(&mut self) -> Res<Output> {
        let kind = self.submitted % KINDS;
        self.submitted += 1;
        to_output(kind, &self.client.run(self.specs[kind].clone())?)
    }

    /// Two clients, closed loop; latency is submit → result.
    fn measure(&mut self, seconds: f64) -> Res<Samples> {
        let start = Instant::now();
        let (addr, specs) = (self.addr, &self.specs);
        let per_client = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || client_loop(addr, c, specs, seconds)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "a client thread panicked")?)
                .collect::<Res<Vec<Samples>>>()
        })?;
        let mut all = Samples {
            wall_s: start.elapsed().as_secs_f64(),
            ..Samples::default()
        };
        for s in per_client {
            all.latencies_s.extend(s.latencies_s);
            all.outputs.extend(s.outputs);
            all.errors += s.errors;
        }
        // The kinds are sized alike so the mix has one mode; show it.
        for (kind, name) in ["task", "chapel"].iter().enumerate() {
            let of_kind = all
                .latencies_s
                .iter()
                .zip(&all.outputs)
                .filter(|(_, o)| o.kind == kind);
            let of_kind: Vec<f64> = of_kind.map(|(l, _)| *l).collect();
            if !of_kind.is_empty() {
                println!(
                    "serve.mix: {} {name} jobs, median {:.4} s",
                    of_kind.len(),
                    median(&of_kind)
                );
            }
        }
        Ok(all)
    }

    fn references(&mut self) -> Res<Vec<Output>> {
        let data = kmeans_points(self.rows, self.seed);
        let (cents, counts) = reference::kmeans(&data, D, K, &kmeans_init(), ROUNDS);
        let mut chapel = pca_reference(PCA_ROWS, self.pca_cols, self.pca_salt);
        chapel.kind = 1;
        Ok(vec![kmeans_output(cents, counts), chapel])
    }

    fn layers(&mut self, ctx: &Ctx, tracer: &Tracer, m: &mut Metrics) -> Res<Staged> {
        // One unloaded client, each job as submit then wait.
        const PAIRS: usize = 10;
        let mut submit_s = Vec::new();
        let mut served_s = [Vec::new(), Vec::new()];
        let mut output = Output::default();
        tracer.root("client", 0, |root| -> Res<()> {
            for job in 0..PAIRS * KINDS {
                let kind = job % KINDS;
                let spec = self.specs[kind].clone();
                let (id, s) =
                    timed(|| tracer.span(root, "serve.submit", |_| self.client.submit(spec)));
                let id = id?;
                submit_s.push(s);
                let (out, wait_s) =
                    timed(|| tracer.span(root, "serve.wait", |_| self.client.wait(id)));
                served_s[kind].push(s + wait_s);
                if kind == 0 {
                    output = to_output(kind, &out?)?;
                }
            }
            Ok(())
        })?;
        m.set("serve.submit_ms", median(&submit_s) * 1e3);

        // The same jobs without the server: the task on the same fleet,
        // the program through the translator.
        let mut direct_s = [Vec::new(), Vec::new()];
        for _ in 0..PAIRS {
            let (r, s) = timed(|| self.direct_task());
            r?;
            direct_s[0].push(s);
            let (r, s) = timed(|| translator(1).run_program(&self.chapel_src));
            r?;
            direct_s[1].push(s);
        }
        let over: f64 = (0..KINDS)
            .map(|k| median(&served_s[k]) - median(&direct_s[k]))
            .sum();
        m.set("serve.over_direct_ms", over * 1e3 / KINDS as f64);

        // The loaded mix, for the tail and the caches.
        let mix = self.measure(ctx.seconds)?;
        let refs = self.references()?;
        for out in &mix.outputs {
            out.check(&refs[out.kind])
                .map_err(|e| format!("mix job of kind {}: {e}", out.kind))?;
        }
        let mut sorted = mix.latencies_s.clone();
        sorted.sort_by(f64::total_cmp);
        m.set("serve.job_p90_s", quantile(&sorted, 0.9));
        m.set("serve.rejected", mix.errors as f64);
        let status = self.client.status()?;
        let ratio = |hits: u32, misses: u32| hits as f64 / (hits + misses).max(1) as f64;
        m.set(
            "serve.program_cache_hit_ratio",
            ratio(status.program_cache_hits, status.program_cache_misses),
        );
        m.set(
            "serve.dataset_cache_hit_ratio",
            ratio(status.dataset_cache_hits, status.dataset_cache_misses),
        );
        Ok(Staged {
            output,
            jobs: PAIRS * KINDS,
            linearized_bytes: 0,
        })
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}
