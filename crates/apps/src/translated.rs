//! The driver the translated versions share: compile the Chapel program
//! through the translator's front door, linearize the dataset once, and
//! run the application's outer loop over one engine.

use std::sync::Arc;
use std::time::Instant;

use cfr_core::{zip_linearize_into, CompiledLoop, CompiledProgram, OptLevel};
use freeride::{DataView, Engine, JobConfig, KernelBackend, ReductionObject, RunStats};
use linearize::Value;
use obs::{AttrValue, Recorder, TraceLevel};

use crate::error::AppError;
use crate::timing::AppTiming;

/// The reduction passes of one translated run, over one engine and one
/// linearized dataset.
pub(crate) struct Passes<'a> {
    engine: Engine,
    view: DataView<'a>,
    backend: KernelBackend,
    rec: &'a Recorder,
    linearize_ns: u64,
    stats: RunStats,
}

impl Passes<'_> {
    /// One pass of `c` with `state` (one value per state variable):
    /// linearized at opt-2, bound to the loop's kernel, run.
    pub(crate) fn run(
        &mut self,
        c: &CompiledLoop,
        state: Vec<Value>,
    ) -> Result<ReductionObject, AppError> {
        let state = c.job_state(state, Some(self.rec))?;
        self.linearize_ns += state.linearize_ns;
        let choice = c.runner(self.backend, state, Some(self.rec))?;
        let outcome = self
            .engine
            .run(self.view, &c.layout(), choice.runner.as_ref());
        self.stats.absorb(&outcome.stats);
        Ok(outcome.robj)
    }
}

/// Compile `src` at `opt`, build and linearize `dataset` (the values of
/// the first loop's dataset variables) once, then hand the offloaded
/// loops, in statement order, to `outer`, which runs its passes.
pub(crate) fn run<T>(
    src: &str,
    opt: OptLevel,
    config: &JobConfig,
    dataset: impl FnOnce() -> Vec<Value>,
    outer: impl FnOnce(&[&CompiledLoop], &mut Passes<'_>) -> Result<T, AppError>,
) -> Result<(T, AppTiming), AppError> {
    let wall = Instant::now();
    let rec = Arc::new(Recorder::new(config.trace));
    let program = CompiledProgram::compile(src, opt, config.backend, Some(&rec))?;
    let loops: Vec<&CompiledLoop> = program.loops().map(|(_, c)| c).collect();
    let spec = &loops
        .first()
        .ok_or_else(|| AppError::new("no reduction loop offloaded"))?
        .dataset;

    // The buffer comes before the values it is filled from: a repeated
    // run then finds one block of its size where the last run freed it,
    // and the values' many small blocks fill the rest. Allocated after
    // them, repeated 250k-point k-means runs kept another 16 MiB
    // resident. Its zeroing still counts as linearization.
    let alloc_start = Instant::now();
    let mut buffer = vec![0.0f64; spec.rows * spec.unit];
    let alloc_ns = alloc_start.elapsed().as_nanos() as u64;
    let values = dataset();
    let lin_start = Instant::now();
    zip_linearize_into(&values, &mut buffer, spec.unit, false, config.threads)?;
    let linearize_ns = alloc_ns + lin_start.elapsed().as_nanos() as u64;
    rec.push_complete(
        TraceLevel::Phases,
        "linearize",
        "pipeline",
        0,
        rec.offset_ns(lin_start),
        linearize_ns,
        vec![
            ("rows", AttrValue::Int(spec.rows as i64)),
            ("unit", AttrValue::Int(spec.unit as i64)),
        ],
    );

    let mut passes = Passes {
        engine: Engine::with_recorder(config.clone(), rec.clone()),
        view: DataView::new(&buffer, spec.unit)?,
        backend: config.backend,
        rec: &rec,
        linearize_ns,
        stats: RunStats {
            logical_threads: config.threads,
            ..Default::default()
        },
    };
    let out = outer(&loops, &mut passes)?;
    let timing = AppTiming::recorded(passes.linearize_ns, passes.stats, wall, &rec);
    Ok((out, timing))
}
