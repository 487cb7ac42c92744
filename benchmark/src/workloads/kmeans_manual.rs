//! `kmeans.manual` — hand-written FREERIDE k-means over a seeded
//! in-memory point cloud. Only `freeride` runs (split, reduce, combine,
//! pool): a translator change must not move it. It is the paper's
//! yardstick and the bandwidth row.

use freeride::{DataView, Engine, JobConfig, RunStats};

use super::*;
use crate::reference;
use crate::trace::At;

pub struct KmeansManual {
    data: Vec<f64>,
}

/// One k-means job on a fresh engine, as the application driver does.
pub fn engine_job(data: &[f64], threads: usize, at: At<'_>) -> Res<(Output, RunStats)> {
    let engine = Engine::new(JobConfig::with_threads(threads));
    let layout = kmeans_layout();
    let view = DataView::new(data, D)?;
    kmeans_loop(at, "freeride.run", |cents, _| {
        Ok(engine.run(view, &layout, &kmeans_kernel(cents)))
    })
}

impl Workload for KmeansManual {
    fn setup(ctx: &Ctx) -> Res<Self> {
        let mut w = KmeansManual {
            data: kmeans_points(ctx.size(2_400_000, 20_000), ctx.seed),
        };
        w.job()?;
        Ok(w)
    }

    fn job(&mut self) -> Res<Output> {
        Ok(engine_job(&self.data, 2, None)?.0)
    }

    fn references(&mut self) -> Res<Vec<Output>> {
        let (cents, counts) = reference::kmeans(&self.data, D, K, &kmeans_init(), ITERS);
        Ok(vec![kmeans_output(cents, counts)])
    }

    fn layers(&mut self, _ctx: &Ctx, tracer: &Tracer, m: &mut Metrics) -> Res<Staged> {
        let rows = self.data.len() / D;
        let (output, stats) =
            tracer.root("job", 0, |id| engine_job(&self.data, 2, Some((tracer, id))))?;
        freeride_metrics(m, &stats, ITERS, rows, D);

        let (_, two_s) = timed(|| engine_job(&self.data, 2, None));
        let (one, one_s) = timed(|| engine_job(&self.data, 1, None));
        one?;
        let (_, plain_s) = timed(|| reference::kmeans(&self.data, D, K, &kmeans_init(), ITERS));
        m.set("freeride.speedup_2t", one_s / two_s);
        m.set("freeride.over_plain_x", one_s / plain_s);
        Ok(Staged {
            output,
            jobs: 1,
            linearized_bytes: 0,
        })
    }
}
