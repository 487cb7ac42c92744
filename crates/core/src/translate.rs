//! The translation driver: interleaves interpretation with FREERIDE
//! offloading.
//!
//! This is the reproduction of the paper's modified Chapel compiler as a
//! whole: a program's top-level statements execute in order; statements
//! detected as generalized reductions are compiled to kernels and run on
//! the FREERIDE engine (with the dataset — and, at opt-2, the hot state —
//! linearized first), and their results are written back into the Chapel
//! world; everything else runs on the interpreter.

use std::sync::Arc;
use std::time::Instant;

use chapel_frontend::ast::{Item, ReduceOp};
use chapel_interp::{Interpreter, RtValue};
use chapel_sema::analyze;
use freeride::{DataView, Engine, JobConfig, KernelBackend, RunStats};
use linearize::{delinearize, Linearizer, Slots};
use obs::{AttrValue, Recorder, TraceLevel};

use crate::backend::JobState;
use crate::compile::{compile_loop, compile_reduce_expr, CompiledLoop, OptLevel};
use crate::detect::{detect, Detected, Rejection};
use crate::error::{CodegenError, CoreError};

/// The Chapel-with-FREERIDE "compiler" configuration.
#[derive(Debug, Clone, Default)]
pub struct Translator {
    /// Code-generation strategy (generated / opt-1 / opt-2).
    pub opt: OptLevel,
    /// FREERIDE job configuration (threads, sync scheme, splitter,
    /// execution mode).
    pub config: JobConfig,
    /// Linearize the dataset in parallel (the paper's stated future
    /// work; an ablation in this reproduction).
    pub parallel_linearize: bool,
    /// Span recorder for the compiler pipeline; when set, every stage
    /// (`frontend.lex` … `core.writeback`) and every FREERIDE engine
    /// run lands on one shared timeline.
    pub recorder: Option<Arc<Recorder>>,
}

impl Translator {
    /// A translator at `opt` with `threads` FREERIDE threads.
    pub fn new(opt: OptLevel, threads: usize) -> Translator {
        Translator {
            opt,
            config: JobConfig::with_threads(threads),
            parallel_linearize: false,
            recorder: None,
        }
    }

    /// This translator recording pipeline + engine spans into
    /// `recorder` (whose level also becomes the engine trace level).
    pub fn traced(mut self, recorder: Arc<Recorder>) -> Translator {
        self.config.trace = recorder.level();
        self.recorder = Some(recorder);
        self
    }

    /// This translator executing offloaded kernels on `backend`. A
    /// `Compiled` request degrades to the interpreter (with a recorded
    /// fallback) when no codegen backend is installed or usable.
    pub fn backend(mut self, backend: freeride::KernelBackend) -> Translator {
        self.config.backend = backend;
        self
    }

    /// Parse, analyze, and execute a program, offloading detected
    /// reductions to FREERIDE. Equivalent to
    /// [`Translator::compile_program`] followed by
    /// [`Translator::run_compiled`].
    pub fn run_program(&self, src: &str) -> Result<TranslatedRun, CoreError> {
        let compiled = self.compile_program(src)?;
        self.run_compiled(&compiled)
    }

    /// The compile half of the pipeline: parse, analyze, detect, and
    /// compile every offloadable statement to a kernel — everything
    /// that depends only on the *source text* and the opt level, none
    /// of it on run-time data. The result is a reusable
    /// [`CompiledProgram`]: a job server caches it by source hash so a
    /// repeat submission of the same program skips straight to
    /// [`Translator::run_compiled`] (no `frontend.*`, `sema.*`, or
    /// `core.compile` spans on the repeat run's trace).
    pub fn compile_program(&self, src: &str) -> Result<CompiledProgram, CoreError> {
        CompiledProgram::compile(src, self.opt, self.config.backend, self.recorder.as_deref())
    }

    /// The execute half of the pipeline: run a [`CompiledProgram`]
    /// against fresh interpreter state, offloading the planned
    /// statements to FREERIDE. Repeatable — each call is an independent
    /// run (this is the cache-hit path of a job server, and the only
    /// phase that appears on a repeat submission's trace).
    pub fn run_compiled(&self, compiled: &CompiledProgram) -> Result<TranslatedRun, CoreError> {
        let mut interp = Interpreter::new();
        interp.prepare(&compiled.program);
        let mut jobs = Vec::new();

        for (i, item) in compiled.program.items.iter().enumerate() {
            let Item::Stmt(stmt) = item else { continue };
            match &compiled.plans[i] {
                StmtPlan::Offload {
                    compiled: c,
                    kind,
                    expr_target,
                } => {
                    let report = self.execute_job(c, &mut interp, expr_target.clone())?;
                    jobs.push(JobReport {
                        stmt_index: i,
                        kind: kind.clone(),
                        ..report
                    });
                }
                StmtPlan::Interp => {
                    let start = Instant::now();
                    let steps = interp.steps();
                    interp.exec_top(stmt)?;
                    if let Some(r) = self.recorder.as_deref() {
                        r.push_complete(
                            TraceLevel::Phases,
                            "interp.exec",
                            "pipeline",
                            0,
                            r.offset_ns(start),
                            start.elapsed().as_nanos() as u64,
                            vec![
                                ("stmt", AttrValue::Int(i as i64)),
                                ("steps", AttrValue::Int((interp.steps() - steps) as i64)),
                            ],
                        );
                    }
                }
                StmtPlan::Decl => unreachable!("Decl plan recorded for a Stmt item"),
            }
        }

        Ok(TranslatedRun {
            interp,
            jobs,
            skipped: compiled.skipped.clone(),
        })
    }

    /// Linearize inputs, run the FREERIDE job, write results back.
    fn execute_job(
        &self,
        c: &CompiledLoop,
        interp: &mut Interpreter,
        expr_target: Option<(String, ReduceOp)>,
    ) -> Result<JobReport, CoreError> {
        let wall_start = Instant::now();

        // ---- Linearization (the paper's first overhead; sequential by
        // default, parallel as the future-work ablation), straight from
        // the interpreter's values. ----
        let lin_start = Instant::now();
        let mut dataset: Vec<&RtValue> = Vec::with_capacity(c.dataset.vars.len());
        for var in &c.dataset.vars {
            dataset.push(interp.global(&var.name).ok_or_else(|| {
                CoreError::translate(format!("`{}` missing at run time", var.name))
            })?);
        }
        let (rows, unit) = (c.dataset.rows, c.dataset.unit);
        let buffer = if self.parallel_linearize {
            // Interpreter values cannot cross threads: the parallel
            // ablation copies them into `Value` trees first.
            let values = dataset
                .iter()
                .map(|v| v.to_linear())
                .collect::<Option<Vec<_>>>()
                .ok_or_else(not_linearizable)?;
            zip_linearize(&values, rows, unit, true, self.config.threads)?
        } else {
            zip_rows(&dataset, rows, unit)?
        };

        // State, in the one representation the strategy reads: flat
        // buffers (opt-2) or nested values (generated/opt-1).
        let mut state = JobState {
            nested: Vec::new(),
            flat: Vec::new(),
            linearize_ns: 0,
        };
        for s in &c.states {
            let rt = interp
                .global(&s.name)
                .ok_or_else(|| CoreError::translate(format!("state `{}` missing", s.name)))?;
            if c.opt == OptLevel::Opt2 {
                state
                    .flat
                    .push(Linearizer::new(&s.shape).linearize(rt)?.buffer);
            } else {
                state.nested.push(rt.to_linear().ok_or_else(|| {
                    CoreError::translate(format!("state `{}` not linearizable", s.name))
                })?);
            }
        }
        let linearize_ns = lin_start.elapsed().as_nanos() as u64;
        if let Some(r) = self.recorder.as_deref() {
            r.push_complete(
                TraceLevel::Phases,
                "linearize",
                "pipeline",
                0,
                r.offset_ns(lin_start),
                linearize_ns,
                vec![
                    ("rows", AttrValue::Int(c.dataset.rows as i64)),
                    ("unit", AttrValue::Int(c.dataset.unit as i64)),
                ],
            );
        }

        // Backend dispatch: compiled when requested *and* possible,
        // interpreter otherwise (fallback is recorded, never fatal).
        let choice = c.runner(self.config.backend, state, self.recorder.as_deref())?;
        let view = DataView::new(&buffer, c.dataset.unit)?;
        let engine = match &self.recorder {
            Some(rec) => Engine::with_recorder(self.config.clone(), rec.clone()),
            None => Engine::new(self.config.clone()),
        };
        let outcome = engine.run(view, &c.layout(), choice.runner.as_ref());

        // ---- Write-back. ----
        let writeback_start = Instant::now();
        match &expr_target {
            Some((target, ReduceOp::UserDefined(class))) => {
                // Materialise the combined reduction object as a class
                // instance and let the interpreter run `generate` — the
                // paper's post-processing step.
                let obj = interp.instantiate_object(class)?;
                for (g, out) in c.outputs.iter().enumerate() {
                    obj.borrow_mut()
                        .fields
                        .insert(out.name.clone(), RtValue::Real(outcome.robj.get(g, 0)));
                }
                let result = interp.call_method(
                    &obj,
                    "generate",
                    Vec::new(),
                    chapel_frontend::token::Span::default(),
                )?;
                interp.set_global(target, result);
            }
            Some((target, _)) => {
                let v = outcome.robj.get(0, 0);
                interp.set_global(target, RtValue::Real(v));
            }
            None => {
                for (g, out) in c.outputs.iter().enumerate() {
                    let cur = interp
                        .global(&out.name)
                        .ok_or_else(|| {
                            CoreError::translate(format!("output `{}` missing", out.name))
                        })?
                        .clone();
                    let cur_lin = cur
                        .to_linear()
                        .ok_or_else(|| CoreError::translate("output not linearizable"))?;
                    let mut cells = Linearizer::new(&out.shape).linearize(&cur_lin)?.buffer;
                    for (cell, add) in cells.iter_mut().zip(outcome.robj.group_slice(g)) {
                        *cell += add;
                    }
                    let merged = delinearize(&cells, &out.shape)?;
                    interp.set_global(&out.name, RtValue::from_linear(&merged, Some(&cur)));
                }
            }
        }
        if let Some(r) = self.recorder.as_deref() {
            r.push_complete(
                TraceLevel::Phases,
                "core.writeback",
                "pipeline",
                0,
                r.offset_ns(writeback_start),
                writeback_start.elapsed().as_nanos() as u64,
                vec![("outputs", AttrValue::Int(c.outputs.len() as i64))],
            );
        }

        Ok(JobReport {
            stmt_index: 0,
            kind: String::new(),
            backend: choice.backend,
            fallback: choice.fallback,
            linearize_ns,
            stats: outcome.stats,
            wall_ns: wall_start.elapsed().as_nanos() as u64,
        })
    }
}

/// Zip-linearize dataset variables row-by-row into one dense buffer
/// (Algorithm 2 over the zipped shape). The parallel variant splits the
/// row range across threads — the paper's proposed fix for sequential
/// linearization limiting scalability.
///
/// Public so application drivers (which run FREERIDE's outer sequential
/// loop themselves) can linearize once and reuse the buffer across
/// iterations.
pub fn zip_linearize<V: Slots + Sync>(
    elem_values: &[V],
    rows: usize,
    unit: usize,
    parallel: bool,
    threads: usize,
) -> Result<Vec<f64>, CoreError> {
    let mut buffer = vec![0.0f64; rows * unit];
    zip_linearize_into(elem_values, &mut buffer, unit, parallel, threads)?;
    Ok(buffer)
}

/// [`zip_linearize`] into `buffer`, one row per `unit` slots, for a
/// driver that allocates the buffer before it builds the values.
pub fn zip_linearize_into<V: Slots + Sync>(
    elem_values: &[V],
    buffer: &mut [f64],
    unit: usize,
    parallel: bool,
    threads: usize,
) -> Result<(), CoreError> {
    let rows = buffer.len() / unit;
    let vars: Vec<&V> = elem_values.iter().collect();
    let items = row_items(&vars, rows)?;
    let filled = if parallel && threads > 1 && rows > 1 {
        let chunk_rows = rows.div_ceil(threads);
        std::thread::scope(|scope| {
            let workers: Vec<_> = buffer
                .chunks_mut(chunk_rows * unit)
                .enumerate()
                .map(|(i, chunk)| {
                    let items = &items;
                    scope.spawn(move || fill_rows(items, chunk, i * chunk_rows, unit))
                })
                .collect();
            // The scope joins any worker this stops short of.
            workers
                .into_iter()
                .all(|w| w.join().expect("linearization worker panicked"))
        })
    } else {
        fill_rows(&items, buffer, 0, unit)
    };
    filled.then_some(()).ok_or_else(not_linearizable)
}

/// The sequential [`zip_linearize`], for values that cannot be shared
/// across threads (the interpreter's own).
fn zip_rows<V: Slots>(vars: &[&V], rows: usize, unit: usize) -> Result<Vec<f64>, CoreError> {
    let items = row_items(vars, rows)?;
    let mut buffer = vec![0.0f64; rows * unit];
    if !fill_rows(&items, &mut buffer, 0, unit) {
        return Err(not_linearizable());
    }
    Ok(buffer)
}

/// Each dataset variable's elements, checked to cover `rows`.
fn row_items<'a, V: Slots>(vars: &[&'a V], rows: usize) -> Result<Vec<&'a [V]>, CoreError> {
    vars.iter()
        .map(|v| match v.elements() {
            Some(xs) if xs.len() >= rows => Ok(xs),
            Some(_) => Err(CoreError::translate("dataset shorter than loop range")),
            None => Err(CoreError::translate("dataset variable is not an array")),
        })
        .collect()
}

/// Fill `chunk` with the zipped rows starting at `first_row`; `false`
/// when a slot has no numeric value.
fn fill_rows<V: Slots>(items: &[&[V]], chunk: &mut [f64], first_row: usize, unit: usize) -> bool {
    let mut pos = 0usize;
    for r in first_row..first_row + chunk.len() / unit {
        for var_items in items {
            let ok = var_items[r].visit_slots(&mut |x| {
                chunk[pos] = x;
                pos += 1;
            });
            if !ok {
                return false;
            }
        }
    }
    true
}

fn not_linearizable() -> CoreError {
    CoreError::translate("dataset variable is not linearizable")
}

/// Timing and provenance of one offloaded job.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// Which top-level statement this job came from.
    pub stmt_index: usize,
    /// Human-readable description.
    pub kind: String,
    /// The kernel backend that ran the job.
    pub backend: KernelBackend,
    /// Why the compiled backend was requested but not used.
    pub fallback: Option<CodegenError>,
    /// Sequential (or parallel) linearization time, ns — the paper's
    /// first overhead.
    pub linearize_ns: u64,
    /// FREERIDE engine statistics (per-split times, combination,
    /// finalize).
    pub stats: RunStats,
    /// Wall time of the whole job including linearization and
    /// write-back, ns.
    pub wall_ns: u64,
}

impl JobReport {
    /// Modeled parallel time for `threads` logical threads: sequential
    /// linearization + reduce makespan + combination (DESIGN.md §5).
    /// With `parallel_linearize`, divide the linearization term by the
    /// thread count before calling this.
    pub fn modeled_parallel_ns(&self, threads: usize) -> u64 {
        self.linearize_ns + self.stats.modeled_parallel_ns(threads)
    }
}

/// A program after the compile half of the pipeline: the parsed AST
/// plus, per top-level item, the execution plan (offload to FREERIDE
/// with a compiled kernel, or fall back to the interpreter).
///
/// Everything here is derived from the source text and the opt level
/// alone, so the value is safely reusable across runs — wrap it in an
/// `Arc` and hand it to [`Translator::run_compiled`] as many times as
/// needed (each call gets fresh interpreter state).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    program: chapel_frontend::ast::Program,
    /// One plan per `program.items` entry, index-aligned.
    plans: Vec<StmtPlan>,
    /// Candidates that will stay on the interpreter, with reasons.
    pub skipped: Vec<Rejection>,
}

impl CompiledProgram {
    /// Parse, analyze, detect and compile `src` at `opt`, recording
    /// every stage on `rec`; with the compiled `backend`, also compile
    /// the native kernels (see [`Translator::compile_program`]).
    pub fn compile(
        src: &str,
        opt: OptLevel,
        backend: KernelBackend,
        rec: Option<&Recorder>,
    ) -> Result<CompiledProgram, CoreError> {
        let program = match rec {
            Some(r) => chapel_frontend::parse_traced(src, r)?,
            None => chapel_frontend::parse(src)?,
        };
        let analysis = match rec {
            Some(r) => chapel_sema::analyze_traced(&program, r)?,
            None => analyze(&program)?,
        };
        let detect_start = Instant::now();
        let detection = detect(&program, &analysis);
        if let Some(r) = rec {
            r.push_complete(
                TraceLevel::Phases,
                "core.detect",
                "pipeline",
                0,
                r.offset_ns(detect_start),
                detect_start.elapsed().as_nanos() as u64,
                vec![
                    ("detected", AttrValue::Int(detection.detected.len() as i64)),
                    (
                        "rejections",
                        AttrValue::Int(detection.rejections.len() as i64),
                    ),
                ],
            );
        }

        let mut plans = Vec::with_capacity(program.items.len());
        let mut skipped: Vec<Rejection> = detection.rejections.clone();

        for (i, item) in program.items.iter().enumerate() {
            if !matches!(item, Item::Stmt(_)) {
                plans.push(StmtPlan::Decl);
                continue;
            }
            let compile_start = Instant::now();
            let compiled = match detection.detected.get(&i) {
                Some(Detected::Loop(red)) => match compile_loop(&program, &analysis, red, opt) {
                    Ok(c) => Some((c, format!("loop → {}", red.outputs.join(", ")), None)),
                    Err(CoreError::Translate(reason)) => {
                        skipped.push(Rejection {
                            stmt_index: i,
                            reason,
                        });
                        None
                    }
                    Err(e) => return Err(e),
                },
                Some(Detected::Expr(red)) => {
                    let compiled = match &red.op {
                        ReduceOp::UserDefined(class) => {
                            let decl = analysis
                                .decls
                                .classes
                                .get(class)
                                .map(|c| c.decl.clone())
                                .ok_or_else(|| {
                                    CoreError::translate(format!("unknown class `{class}`"))
                                })?;
                            crate::compile::compile_user_reduce(&analysis, red, &decl)
                        }
                        _ => compile_reduce_expr(&analysis, red),
                    };
                    match compiled {
                        Ok(c) => Some((
                            c,
                            format!("reduce → {}", red.target),
                            Some((red.target.clone(), red.op.clone())),
                        )),
                        Err(CoreError::Translate(reason)) => {
                            skipped.push(Rejection {
                                stmt_index: i,
                                reason,
                            });
                            None
                        }
                        Err(e) => return Err(e),
                    }
                }
                None => None,
            };
            if let (Some(r), Some(_)) = (rec, detection.detected.get(&i)) {
                let instrs = compiled
                    .as_ref()
                    .map_or(0, |(c, _, _)| c.kernel.count_matching(|_| true));
                r.push_complete(
                    TraceLevel::Phases,
                    "core.compile",
                    "pipeline",
                    0,
                    r.offset_ns(compile_start),
                    compile_start.elapsed().as_nanos() as u64,
                    vec![
                        ("stmt", AttrValue::Int(i as i64)),
                        ("instrs", AttrValue::Int(instrs as i64)),
                    ],
                );
            }
            plans.push(match compiled {
                Some((c, kind, expr_target)) => StmtPlan::Offload {
                    compiled: Box::new(c),
                    kind,
                    expr_target,
                },
                None => StmtPlan::Interp,
            });
        }

        let compiled = CompiledProgram {
            program,
            plans,
            skipped,
        };
        if backend == KernelBackend::Compiled {
            let loops: Vec<&CompiledLoop> = compiled.loops().map(|(_, c)| c).collect();
            crate::backend::precompile(&loops, rec);
        }
        Ok(compiled)
    }

    /// The statements planned for FREERIDE offload, in statement order:
    /// each one's top-level statement index and compiled kernel.
    pub fn loops(&self) -> impl Iterator<Item = (usize, &CompiledLoop)> {
        self.plans.iter().enumerate().filter_map(|(i, p)| match p {
            StmtPlan::Offload { compiled, .. } => Some((i, &**compiled)),
            _ => None,
        })
    }

    /// Number of statements planned for FREERIDE offload.
    pub fn offloads(&self) -> usize {
        self.loops().count()
    }
}

/// Per-item execution plan inside a [`CompiledProgram`].
#[derive(Debug, Clone)]
enum StmtPlan {
    /// Detected reduction, compiled to a kernel: run on FREERIDE.
    Offload {
        compiled: Box<CompiledLoop>,
        kind: String,
        expr_target: Option<(String, ReduceOp)>,
    },
    /// Ordinary statement: execute on the interpreter.
    Interp,
    /// Non-statement item (declaration); handled by `prepare`.
    Decl,
}

/// The result of running a program under translation.
#[derive(Debug)]
pub struct TranslatedRun {
    /// Final interpreter state (globals, output).
    pub interp: Interpreter,
    /// One report per offloaded job, in execution order.
    pub jobs: Vec<JobReport>,
    /// Candidates that stayed on the interpreter, with reasons.
    pub skipped: Vec<Rejection>,
}

impl TranslatedRun {
    /// Look up a global after the run.
    pub fn global(&self, name: &str) -> Option<&RtValue> {
        self.interp.global(name)
    }

    /// Total linearization time across all jobs, ns.
    pub fn total_linearize_ns(&self) -> u64 {
        self.jobs.iter().map(|j| j.linearize_ns).sum()
    }

    /// Total modeled parallel time across all jobs, ns.
    pub fn total_modeled_ns(&self, threads: usize) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.modeled_parallel_ns(threads))
            .sum()
    }
}
