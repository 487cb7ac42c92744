//! `kmeans.opt2` — the paper's Figure 9/10 shape: the Chapel k-means
//! loop translated at opt-2 and compiled natively. The translated
//! kernel does nearly all the work and linearization little, so this
//! is where closing the gap to manual FREERIDE must show.

use cfr_apps::kmeans::{self, KmeansParams};
use cfr_apps::{data, Version};
use cfr_core::{make_runner, zip_linearize, CompiledLoop};
use freeride::{DataView, Engine, KernelBackend, RunStats};
use linearize::{Linearizer, Value};

use super::translated::{front, Front, KernelTimes};
use super::*;
use crate::reference;
use crate::trace::{maybe, At};

pub struct KmeansOpt2 {
    params: KmeansParams,
    src: String,
    front: Front,
    kernels: KernelTimes,
}

fn the_loop(front: &Front) -> Res<&CompiledLoop> {
    let mut loops = front.loops.values();
    match (loops.next(), loops.next()) {
        (Some(c), None) => Ok(c),
        _ => Err("the k-means program has one reduction loop".into()),
    }
}

/// The nested Chapel centroid array (counts zero, as in the program's
/// fresh `newCent`).
fn centroids_value(flat: &[f64]) -> Value {
    Value::Array(
        flat.chunks_exact(D)
            .map(|pos| {
                Value::Record(vec![
                    Value::Array(pos.iter().map(|&x| Value::Real(x)).collect()),
                    Value::Int(0),
                ])
            })
            .collect(),
    )
}

/// The translated driver, stage by stage: compile the loop, linearize
/// the nested points once, then per iteration linearize the centroids
/// (opt-2's hot state), bind the compiled kernel, run the engine,
/// refine. Also returns the dataset's unit.
fn staged_job(params: &KmeansParams, src: &str, at: At<'_>) -> Res<(Output, RunStats, usize)> {
    let front = front(src, at)?;
    let c = the_loop(&front)?;
    let threads = params.config.threads;
    let nested = maybe(at, "apps.points", |_| {
        data::kmeans_points_nested(params.n, D)
    });
    let buffer = maybe(at, "linearize.zip", |_| {
        zip_linearize(
            std::slice::from_ref(&nested),
            params.n,
            c.dataset.unit,
            false,
            threads,
        )
    })?;
    let engine = Engine::new(params.config.clone());
    let layout = kmeans_layout();
    let view = DataView::new(&buffer, c.dataset.unit)?;
    let state_shape = data::kmeans_centroid_shape(K, D);
    let (output, stats) = kmeans_loop(at, "apps.pass", |cents, at| {
        let nested = centroids_value(cents);
        let flat = maybe(at, "linearize.state", |_| {
            Linearizer::new(&state_shape).linearize(&nested)
        })?;
        let choice = maybe(at, "codegen.load", |_| {
            make_runner(
                params.config.backend,
                &c.kernel,
                vec![nested],
                vec![flat.buffer],
                c.lo,
                c.opt,
                None,
            )
        })?;
        if choice.backend != KernelBackend::Compiled {
            return Err(
                format!("kernel fell back to the interpreter: {:?}", choice.fallback).into(),
            );
        }
        Ok(maybe(at, "freeride.run", |_| {
            engine.run(view, &layout, choice.runner.as_ref())
        }))
    })?;
    Ok((output, stats, c.dataset.unit))
}

impl Workload for KmeansOpt2 {
    fn setup(ctx: &Ctx) -> Res<Self> {
        let n = ctx.jitter(ctx.size(250_000, 4_000));
        let mut params = KmeansParams::new(n, D, K, ITERS).threads(2);
        params.config.backend = KernelBackend::Compiled;
        let src = chapel_frontend::programs::kmeans(n, K, D);
        let front = front(&src, None)?;
        the_loop(&front)?;
        let kernels = front.load_kernels()?;
        let mut w = KmeansOpt2 {
            params,
            src,
            front,
            kernels,
        };
        w.job()?;
        Ok(w)
    }

    fn job(&mut self) -> Res<Output> {
        let r = kmeans::run(&self.params, Version::Opt2)?;
        Ok(kmeans_output(r.centroids, r.counts))
    }

    fn references(&mut self) -> Res<Vec<Output>> {
        let points = data::kmeans_points_flat(self.params.n, D);
        let (cents, counts) = reference::kmeans(&points, D, K, &kmeans_init(), ITERS);
        Ok(vec![kmeans_output(cents, counts)])
    }

    fn layers(&mut self, _ctx: &Ctx, tracer: &Tracer, m: &mut Metrics) -> Res<Staged> {
        self.front.report(&self.kernels, m);
        let n = self.params.n;
        let (output, stats, unit) = tracer.root("job", 0, |id| {
            staged_job(&self.params, &self.src, Some((tracer, id)))
        })?;
        freeride_metrics(m, &stats, ITERS, n, unit);

        // The paper's yardstick, on identical parameters: translated
        // opt-2 engine pass over hand-written engine pass.
        let manual = kmeans::run(&self.params, Version::Manual)?;
        kmeans_output(manual.centroids, manual.counts)
            .check(&output)
            .map_err(|e| format!("manual FR vs opt-2: {e}"))?;
        let opt2 = kmeans::run(&self.params, Version::Opt2)?;
        m.set(
            "paper.gap_x",
            opt2.timing.stats.phases.wall_ns as f64 / manual.timing.stats.phases.wall_ns as f64,
        );
        Ok(Staged {
            output,
            jobs: 1,
            linearized_bytes: (n * unit + ITERS * K * (D + 1)) * 8,
        })
    }
}
