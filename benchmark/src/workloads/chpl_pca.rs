//! `chpl.pca` — a whole Chapel program through `Translator::run_program`
//! at opt-2 with native kernels: the `cfr file.chpl` path. Two
//! offloaded reductions with an interpreted statement between them;
//! `chapel-interp`, `linearize` and write-back do most of the work,
//! the engine little.

use cfr_core::{make_runner, zip_linearize, CompiledLoop, OptLevel, Translator};
use chapel_frontend::ast::Item;
use chapel_interp::{Interpreter, RtValue};
use freeride::{
    CombineOp, DataView, Engine, GroupSpec, JobConfig, KernelBackend, RObjLayout, RunStats,
};
use linearize::{delinearize, linearize_it, Linearizer};

use super::translated::{front, Front, KernelTimes};
use super::*;
use crate::reference;
use crate::trace::{maybe, At};

pub const ROWS: usize = 16;

/// Sample `i`, component `a` (both 1-based) of the PCA matrix; `salt`
/// is the seed's share of the init expression.
pub fn pca_value(i: usize, a: usize, salt: usize) -> f64 {
    ((i * 17 + a * 3 + salt) % 19) as f64
}

/// The repository's PCA program with `salt` folded into the init
/// expression. `flat_cov` appends an interpreted copy of `cov` into the
/// 1-D `covflat`, the only array rank the job server returns.
pub fn pca_source(rows: usize, cols: usize, salt: usize, flat_cov: bool) -> String {
    let mut src = format!(
        "record Sample {{ val: [1..{rows}] real; }}
var data: [1..{cols}] Sample;
var mean: [1..{rows}] real;
var cov: [1..{rows}, 1..{rows}] real;
for i in 1..{cols} {{
    for a in 1..{rows} {{
        data[i].val[a] = (i * 17 + a * 3 + {salt}) % 19;
    }}
}}
for i in 1..{cols} {{
    for a in 1..{rows} {{
        mean[a] += data[i].val[a];
    }}
}}
for a in 1..{rows} {{
    mean[a] /= {cols};
}}
for i in 1..{cols} {{
    for a in 1..{rows} {{
        for b in 1..{rows} {{
            cov[a, b] += (data[i].val[a] - mean[a]) * (data[i].val[b] - mean[b]);
        }}
    }}
}}
"
    );
    if flat_cov {
        src.push_str(&format!(
            "var covflat: [1..{}] real;
for a in 1..{rows} {{
    for b in 1..{rows} {{
        covflat[(a - 1) * {rows} + b] = cov[a, b];
    }}
}}
",
            rows * rows
        ));
    }
    src
}

pub fn pca_reference(rows: usize, cols: usize, salt: usize) -> Output {
    let (mut mean, cov) = reference::pca(rows, cols, |i, a| pca_value(i, a, salt));
    mean.extend(cov);
    Output {
        kind: 0,
        approx: mean,
        exact: Vec::new(),
    }
}

pub fn translator(threads: usize) -> Translator {
    Translator::new(OptLevel::Opt2, threads).backend(KernelBackend::Compiled)
}

/// `mean` then `cov`, flattened.
fn globals(interp: &Interpreter) -> Res<Output> {
    let mut approx = Vec::new();
    for name in ["mean", "cov"] {
        let value = interp.global(name).and_then(RtValue::to_linear);
        approx.extend(linearize_it(
            &value.ok_or_else(|| format!("global `{name}` missing"))?,
        ));
    }
    Ok(Output {
        kind: 0,
        approx,
        exact: Vec::new(),
    })
}

pub struct ChplPca {
    cols: usize,
    salt: usize,
    src: String,
    front: Front,
    kernels: KernelTimes,
}

/// What the offloaded statements of one staged run did, summed.
#[derive(Default)]
struct Offloads {
    linearized_bytes: usize,
    stats: RunStats,
    passes: usize,
    rows: usize,
    unit: usize,
}

/// One offloaded reduction loop, stage by stage: the interpreter's
/// arrays out, linearized, the compiled kernel bound and run, the
/// reduction object written back.
fn offload(c: &CompiledLoop, interp: &mut Interpreter, at: At<'_>, acc: &mut Offloads) -> Res<()> {
    let linear = |interp: &Interpreter, name: &str| {
        let value = interp.global(name).and_then(RtValue::to_linear);
        value.ok_or_else(|| format!("`{name}` is not linearizable at run time"))
    };
    let dataset = maybe(at, "interp.to_linear", |_| {
        c.dataset
            .vars
            .iter()
            .map(|v| linear(interp, &v.name))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let buffer = maybe(at, "linearize.zip", |_| {
        zip_linearize(&dataset, c.dataset.rows, c.dataset.unit, false, 2)
    })?;
    let mut nested = Vec::new();
    let mut flat = Vec::new();
    for s in &c.states {
        let value = maybe(at, "interp.to_linear", |_| linear(interp, &s.name))?;
        flat.push(
            maybe(at, "linearize.state", |_| {
                Linearizer::new(&s.shape).linearize(&value)
            })?
            .buffer,
        );
        nested.push(value);
    }
    acc.linearized_bytes += (buffer.len() + flat.iter().map(Vec::len).sum::<usize>()) * 8;

    let groups = c
        .outputs
        .iter()
        .map(|o| GroupSpec::new(&o.name, o.cells, CombineOp::Sum));
    let layout = RObjLayout::new(groups.collect());
    let choice = maybe(at, "codegen.load", |_| {
        make_runner(
            KernelBackend::Compiled,
            &c.kernel,
            nested,
            flat,
            c.lo,
            c.opt,
            None,
        )
    })?;
    if choice.backend != KernelBackend::Compiled {
        return Err(format!("kernel fell back to the interpreter: {:?}", choice.fallback).into());
    }
    let view = DataView::new(&buffer, c.dataset.unit)?;
    let outcome = maybe(at, "freeride.run", |_| {
        Engine::new(JobConfig::with_threads(2)).run(view, &layout, choice.runner.as_ref())
    });
    acc.stats.absorb(&outcome.stats);
    acc.passes += 1;
    (acc.rows, acc.unit) = (c.dataset.rows, c.dataset.unit);

    maybe(at, "core.writeback", |_| -> Res<()> {
        for (g, out) in c.outputs.iter().enumerate() {
            let current = interp.global(&out.name).ok_or("output missing")?.clone();
            let nested = current.to_linear().ok_or("output is not linearizable")?;
            let mut cells = Linearizer::new(&out.shape).linearize(&nested)?.buffer;
            for (cell, add) in cells.iter_mut().zip(outcome.robj.group_slice(g)) {
                *cell += add;
            }
            let merged = delinearize(&cells, &out.shape)?;
            interp.set_global(&out.name, RtValue::from_linear(&merged, Some(&current)));
        }
        Ok(())
    })
}

/// `Translator::run_program`, stage by stage.
fn staged_job(src: &str, at: At<'_>) -> Res<(Output, Offloads)> {
    let compiled = front(src, at)?;
    let mut interp = Interpreter::new();
    maybe(at, "interp.prepare", |_| interp.prepare(&compiled.program));
    let mut acc = Offloads::default();
    for (i, item) in compiled.program.items.iter().enumerate() {
        let Item::Stmt(stmt) = item else { continue };
        match compiled.loops.get(&i) {
            Some(c) => maybe(at, "core.offload", |at| {
                offload(c, &mut interp, at, &mut acc)
            })?,
            None => maybe(at, "interp.exec", |_| interp.exec_top(stmt))?,
        }
    }
    Ok((globals(&interp)?, acc))
}

impl Workload for ChplPca {
    fn setup(ctx: &Ctx) -> Res<Self> {
        let cols = ctx.jitter(ctx.size(110_000, 2_000));
        let salt = (splitmix(ctx.seed ^ 0xC0FFEE) % 19) as usize;
        let src = pca_source(ROWS, cols, salt, false);
        let front = front(&src, None)?;
        if front.loops.len() != 2 {
            return Err("the PCA program has two offloaded reductions".into());
        }
        let kernels = front.load_kernels()?;
        let mut w = ChplPca {
            cols,
            salt,
            src,
            front,
            kernels,
        };
        w.job()?;
        Ok(w)
    }

    fn job(&mut self) -> Res<Output> {
        globals(&translator(2).run_program(&self.src)?.interp)
    }

    fn references(&mut self) -> Res<Vec<Output>> {
        // The interpreter is the oracle for the translated path, at a
        // size it can run in a fraction of a second (it copies arrays on
        // access, so its time grows with the square of the sample count).
        let small = pca_source(ROWS, 48, self.salt, false);
        let oracle = globals(&Interpreter::run_source(&small)?)?;
        globals(&translator(2).run_program(&small)?.interp)?
            .check(&oracle)
            .map_err(|e| format!("translated vs interpreted at 48 samples: {e}"))?;
        Ok(vec![pca_reference(ROWS, self.cols, self.salt)])
    }

    fn layers(&mut self, _ctx: &Ctx, tracer: &Tracer, m: &mut Metrics) -> Res<Staged> {
        self.front.report(&self.kernels, m);
        let (output, acc) =
            tracer.root("job", 0, |id| staged_job(&self.src, Some((tracer, id))))?;
        freeride_metrics(m, &acc.stats, acc.passes, acc.rows, acc.unit);

        // Host time of the run half, from outside: its wall minus what
        // the offloaded jobs report.
        let translator = translator(2);
        let program = translator.compile_program(&self.src)?;
        let (run, run_s) = timed(|| translator.run_compiled(&program));
        let jobs_ns: u64 = run?.jobs.iter().map(|j| j.wall_ns).sum();
        m.set("interp.host_ms", run_s * 1e3 - jobs_ns as f64 / 1e6);
        Ok(Staged {
            output,
            jobs: 1,
            linearized_bytes: acc.linearized_bytes,
        })
    }
}
