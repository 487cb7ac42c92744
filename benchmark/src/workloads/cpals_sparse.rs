//! `cpals.sparse` — CP-ALS over a skewed sparse 3-tensor with the
//! inspector choosing the sync scheme. It uses `freeride` differently
//! from the k-means workloads: scattered writes into a large reduction
//! object under locking or hybrid schemes instead of dense sums into a
//! small replicated one, and it is multi-pass, so amortising the
//! inspection can show.

use cfr_apps::mttkrp::{cp_als, mttkrp_kernel, MttkrpParams};
use cfr_sparse::{coo_to_quads, plan_quads, synthetic_coo, synthetic_factor, PlanParams, COO_UNIT};
use freeride::{CombineOp, DataView, Engine, GroupSpec, RObjLayout, RunStats, SyncScheme};

use super::*;
use crate::reference;
use crate::trace::{maybe, At};

const HOT: usize = 32;
const RANK: usize = 4;
const SWEEPS: usize = 3;

pub struct CpalsSparse {
    params: MttkrpParams,
}

fn output(factors: &[Vec<f64>; 3], fit: f64) -> Output {
    let mut approx = factors.concat();
    approx.push(fit);
    Output {
        kind: 0,
        approx,
        exact: Vec::new(),
    }
}

fn scheme_code(s: SyncScheme) -> f64 {
    match s {
        SyncScheme::FullReplication => 0.0,
        SyncScheme::FullLocking => 1.0,
        SyncScheme::BucketLocking { .. } => 2.0,
        SyncScheme::Atomic => 3.0,
        SyncScheme::Hybrid { .. } => 4.0,
    }
}

/// What the staged run measured besides its result.
struct StagedRun {
    scheme: SyncScheme,
    /// Seconds in `plan_quads`, called directly.
    inspect_s: f64,
    stats: RunStats,
    passes: usize,
}

/// `cp_als` with inspection, stage by stage: generate and linearize the
/// tensor, inspect once, then per mode one engine MTTKRP pass and the
/// least-squares solve.
fn staged_job(p: &MttkrpParams, at: At<'_>) -> Res<(Output, StagedRun)> {
    let rank = p.rank;
    let (quads, norm_x2) = maybe(at, "sparse.generate", |_| -> Res<_> {
        let t = synthetic_coo(p.dims, p.nnz, p.hot);
        Ok((
            coo_to_quads(&t)?,
            t.values.iter().map(|v| v * v).sum::<f64>(),
        ))
    })?;
    let (plan, inspect_s) = timed(|| {
        maybe(at, "sparse.inspect", |_| {
            let params = PlanParams::new(p.dims[0] * rank, rank);
            plan_quads(&quads, 0, p.dims[0], &params, &obs::Recorder::default()).1
        })
    });
    let mut config = p.config.clone();
    config.scheme = plan.scheme;
    let engine = Engine::new(config);
    let view = DataView::new(&quads, COO_UNIT)?;
    let mut run = StagedRun {
        scheme: plan.scheme,
        inspect_s,
        stats: RunStats::default(),
        passes: 0,
    };
    let mut pass = |mode: usize, factors: &[Vec<f64>; 3]| {
        let (m1, m2) = [(1, 2), (0, 2), (0, 1)][mode];
        let layout = RObjLayout::new(vec![GroupSpec::new(
            "M",
            p.dims[mode] * rank,
            CombineOp::Sum,
        )]);
        let kernel = mttkrp_kernel(
            mode,
            rank,
            p.dims[mode],
            factors[m1].clone(),
            factors[m2].clone(),
        );
        let outcome = maybe(at, "freeride.run", |_| engine.run(view, &layout, &kernel));
        run.stats.absorb(&outcome.stats);
        run.passes += 1;
        (outcome.robj.group_slice(0).to_vec(), m1, m2)
    };
    let mut factors = p.dims.map(|rows| synthetic_factor(rows, rank));
    for _ in 0..SWEEPS {
        for mode in 0..3 {
            let (m, m1, m2) = pass(mode, &factors);
            factors[mode] = maybe(at, "apps.solve", |_| {
                reference::als_solve(&m, &factors[m1], &factors[m2], rank)
            });
        }
    }
    let (m0, _, _) = pass(0, &factors);
    let fit = maybe(at, "apps.fit", |_| {
        reference::cp_fit(norm_x2, &m0, &factors, rank)
    });
    Ok((output(&factors, fit), run))
}

impl Workload for CpalsSparse {
    fn setup(ctx: &Ctx) -> Res<Self> {
        let dims = [ctx.size(32_768, 2_048), 32, 32];
        let nnz = ctx.jitter(ctx.size(2_600_000, 20_000));
        let params = MttkrpParams::new(dims, nnz, HOT, RANK)
            .threads(2)
            .with_inspect();
        let mut w = CpalsSparse { params };
        w.job()?;
        Ok(w)
    }

    fn job(&mut self) -> Res<Output> {
        let r = cp_als(&self.params, SWEEPS)?;
        Ok(output(&r.factors, r.fit))
    }

    fn references(&mut self) -> Res<Vec<Output>> {
        let p = &self.params;
        let (factors, fit) = reference::cp_als(p.dims, p.nnz, p.hot, p.rank, SWEEPS);
        Ok(vec![output(&factors, fit)])
    }

    fn layers(&mut self, _ctx: &Ctx, tracer: &Tracer, m: &mut Metrics) -> Res<Staged> {
        let p = &self.params;
        let (output, run) = tracer.root("job", 0, |id| staged_job(p, Some((tracer, id))))?;
        freeride_metrics(m, &run.stats, run.passes, p.nnz, COO_UNIT);
        m.set("sparse.exec_ms", run.stats.phases.wall_ns as f64 / 1e6);
        m.set("sparse.scheme", scheme_code(run.scheme));
        m.set("sparse.inspect_ms", run.inspect_s * 1e3);

        // The inspector's choice, inspection included, against each
        // scheme forced: private copies, striped locks, compare-and-swap.
        let (chosen, chosen_s) = timed(|| cp_als(p, SWEEPS));
        chosen?;
        let mut best = (f64::INFINITY, SyncScheme::FullReplication);
        let forced = [
            SyncScheme::FullReplication,
            SyncScheme::BucketLocking { stripes: 64 },
            SyncScheme::Atomic,
        ];
        for scheme in forced {
            let mut q = MttkrpParams::new(p.dims, p.nnz, p.hot, p.rank).threads(2);
            q.config.scheme = scheme;
            let (r, s) = timed(|| cp_als(&q, SWEEPS));
            let r = r?;
            self::output(&r.factors, r.fit)
                .check(&output)
                .map_err(|e| format!("forced {scheme:?} vs inspected: {e}"))?;
            if s < best.0 {
                best = (s, scheme);
            }
        }
        m.set("sparse.best_forced_ms", best.0 * 1e3);
        m.set("sparse.best_forced", scheme_code(best.1));
        m.set("sparse.chosen_over_best_x", chosen_s / best.0);
        Ok(Staged {
            output,
            jobs: 1,
            linearized_bytes: 0,
        })
    }
}
