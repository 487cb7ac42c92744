//! `kmeans.file` — the kernel of `kmeans.manual` with the rows
//! arriving through `io` from a `.frds` file instead of a slice:
//! streaming reads beside in-memory. A gain for one that costs the
//! other shows in the pair.

use std::path::PathBuf;

use cfr_apps::kmeans::{run_manual_on_file, KmeansParams};
use freeride::source::{write_dataset, FileDataset};
use freeride::{Engine, IoMode, JobConfig, RunStats};

use super::*;
use crate::trace::{maybe, At};
use crate::{host, reference};

pub struct KmeansFile {
    path: PathBuf,
    rows: usize,
    seed: u64,
}

fn params(io: IoMode) -> KmeansParams {
    let mut p = KmeansParams::new(0, D, K, ITERS).threads(2);
    p.config.io = io;
    p
}

/// `run_manual_on_file`, stage by stage.
fn staged_job(path: &std::path::Path, at: At<'_>) -> Res<(Output, RunStats)> {
    let file = maybe(at, "io.open", |_| FileDataset::open(path))?;
    let engine = Engine::new(JobConfig {
        io: IoMode::streaming(),
        ..JobConfig::with_threads(2)
    });
    let layout = kmeans_layout();
    kmeans_loop(at, "freeride.run_file", |cents, _| {
        Ok(engine.run_file(&file, &layout, &kmeans_kernel(cents))?)
    })
}

impl Workload for KmeansFile {
    fn setup(ctx: &Ctx) -> Res<Self> {
        let rows = ctx.size(2_000_000, 20_000);
        let path = ctx.scratch.join("points.frds");
        write_dataset(&path, D, &kmeans_points(rows, ctx.seed))?;
        let mut w = KmeansFile {
            path,
            rows,
            seed: ctx.seed,
        };
        w.job()?;
        Ok(w)
    }

    fn job(&mut self) -> Res<Output> {
        let r = run_manual_on_file(&params(IoMode::streaming()), &self.path)?;
        Ok(kmeans_output(r.centroids, r.counts))
    }

    fn references(&mut self) -> Res<Vec<Output>> {
        let data = kmeans_points(self.rows, self.seed);
        let (cents, counts) = reference::kmeans(&data, D, K, &kmeans_init(), ITERS);
        Ok(vec![kmeans_output(cents, counts)])
    }

    fn layers(&mut self, _ctx: &Ctx, tracer: &Tracer, m: &mut Metrics) -> Res<Staged> {
        m.set("host.seqread_mib_s", host::seqread_mib_s(&self.path)?);
        let (output, stats) =
            tracer.root("job", 0, |id| staged_job(&self.path, Some((tracer, id))))?;
        freeride_metrics(m, &stats, ITERS, self.rows, D);
        let pass_s = stats.phases.wall_ns as f64 / 1e9;
        m.set("io.read_ms", stats.io.read_ns as f64 / 1e6);
        m.set("io.stall_ms", stats.io.stall_ns as f64 / 1e6);
        m.set("io.backpressure_ms", stats.io.backpressure_ns as f64 / 1e6);
        m.set("io.mib_s", stats.io.bytes_read as f64 / MIB / pass_s);
        m.set("io.pool_mib", stats.io.pool_bytes as f64 / MIB);

        let (streamed, file_s) = timed(|| self.job());
        streamed?;
        let (sync, sync_s) = timed(|| run_manual_on_file(&params(IoMode::Sync), &self.path));
        sync?;
        let data = kmeans_points(self.rows, self.seed);
        let (mem, mem_s) = timed(|| super::kmeans_manual::engine_job(&data, 2, None));
        mem?;
        m.set("io.sync_ms", sync_s * 1e3);
        m.set("io.over_mem_x", file_s / mem_s);
        Ok(Staged {
            output,
            jobs: 1,
            linearized_bytes: 0,
        })
    }
}
