//! Kernel backend selection: the installable native-codegen hook.
//!
//! `cfr-core` cannot depend on `cfr-codegen` (codegen consumes the
//! kernel IR defined *here*), so the native backend is injected at
//! process start: binary entry points call `cfr_codegen::install()`,
//! which registers a [`KernelCompiler`] through [`install_compiler`].
//! Library users that never install one simply always get the
//! interpreter — requesting [`KernelBackend::Compiled`] without a
//! backend is a recorded fallback, not an error.
//!
//! A [`CompiledLoop`] compiles its native kernel once, on first use,
//! and keeps the result; [`CompiledLoop::runner`] then binds one pass's
//! state to it. [`make_runner`] is the same dispatch for a bare kernel,
//! compiling it on every call. Either returns the [`SplitKernel`] that
//! will actually run, which backend that is and (if it differs from the
//! one requested) why.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use freeride::{KernelBackend, Recorder, SplitKernel, TraceLevel};
use linearize::{Linearizer, Value};
use obs::AttrValue;

use crate::compile::{CompiledLoop, OptLevel};
use crate::error::{CodegenError, CoreError};
use crate::exec_kernel::KernelRuntime;
use crate::kernel_ir::Kernel;

/// A native-codegen backend: compiles a validated [`Kernel`] once into
/// a [`NativeKernel`] that binds any number of passes' state.
///
/// Implementations are expected to cache compiled artifacts keyed by
/// the kernel, so separately compiled programs share one artifact.
pub trait KernelCompiler: Send + Sync {
    /// Compile (or fetch from the process-wide cache) the kernel. Any
    /// error means "use the interpreter instead"; a kernel that walks
    /// nested state ([`crate::Instr::LoadStateNested`]) is one.
    fn compile(
        &self,
        kernel: &Kernel,
        recorder: Option<&Recorder>,
    ) -> Result<Arc<dyn NativeKernel>, CodegenError>;
}

/// A natively compiled kernel, not yet bound to any state.
pub trait NativeKernel: Send + Sync {
    /// Bind one pass's flat state. An error (e.g. state shorter than
    /// the kernel's proven loads assume) means "use the interpreter".
    fn bind(
        self: Arc<Self>,
        flat_state: Vec<Vec<f64>>,
        row_lo: i64,
    ) -> Result<Arc<dyn SplitKernel>, CodegenError>;
}

/// The memoized outcome of compiling one [`CompiledLoop`]'s kernel.
#[derive(Clone, Default)]
pub(crate) struct NativeMemo(OnceLock<Result<Arc<dyn NativeKernel>, CodegenError>>);

impl std::fmt::Debug for NativeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.0.get() {
            None => "not compiled",
            Some(Ok(_)) => "compiled",
            Some(Err(_)) => "fallback",
        };
        f.write_str(state)
    }
}

static COMPILER: OnceLock<&'static dyn KernelCompiler> = OnceLock::new();

/// Register the process-wide native-codegen backend. First caller wins;
/// later calls are ignored (`false`). Typically called once from
/// `cfr_codegen::install()` at binary start-up.
pub fn install_compiler(c: &'static dyn KernelCompiler) -> bool {
    COMPILER.set(c).is_ok()
}

/// Is a native-codegen backend installed in this process?
pub fn compiler_installed() -> bool {
    COMPILER.get().is_some()
}

fn compile_native(
    kernel: &Kernel,
    recorder: Option<&Recorder>,
) -> Result<Arc<dyn NativeKernel>, CodegenError> {
    match COMPILER.get() {
        Some(c) => c.compile(kernel, recorder),
        None => Err(CodegenError::NotInstalled),
    }
}

/// Compile the native kernels of `loops` that are not compiled yet:
/// one inline, two or more on one thread each, so a program's cold
/// compiles overlap instead of queueing.
pub fn precompile(loops: &[&CompiledLoop], recorder: Option<&Recorder>) {
    if !compiler_installed() {
        return;
    }
    if let [one] = loops {
        let _ = one.native(recorder);
        return;
    }
    std::thread::scope(|s| {
        for &l in loops {
            s.spawn(move || l.native(recorder));
        }
    });
}

/// The kernel that will actually run a job, after backend dispatch.
pub struct RunnerChoice {
    /// The split kernel the engine should call.
    pub runner: Arc<dyn SplitKernel>,
    /// The backend `runner` actually uses (may differ from the one
    /// requested when codegen fell back to the interpreter).
    pub backend: KernelBackend,
    /// Why the compiled backend was not used, when it was requested but
    /// `backend` came back [`KernelBackend::Interpreted`].
    pub fallback: Option<CodegenError>,
}

/// One job's state in the one representation its strategy reads.
pub struct JobState {
    /// Nested values, which generated and opt-1 kernels walk (empty for
    /// opt-2).
    pub nested: Vec<Value>,
    /// Linearized buffers, which opt-2 kernels load (empty otherwise).
    pub flat: Vec<Vec<f64>>,
    /// Time spent linearizing, ns.
    pub linearize_ns: u64,
}

impl CompiledLoop {
    /// The loop's native kernel, compiled on the first call; every
    /// later call returns the same result, `Ok` or the fallback.
    pub(crate) fn native(
        &self,
        recorder: Option<&Recorder>,
    ) -> Result<Arc<dyn NativeKernel>, CodegenError> {
        let compile = || compile_native(&self.kernel, recorder);
        self.native.0.get_or_init(compile).clone()
    }

    /// `values`, one per state variable, as one pass's state: linearized
    /// by each state's shape at opt-2, recorded as one `linearize` span
    /// on `recorder` (none for a loop without state); nested as they are
    /// otherwise.
    pub fn job_state(
        &self,
        values: Vec<Value>,
        recorder: Option<&Recorder>,
    ) -> Result<JobState, CoreError> {
        if values.len() != self.states.len() {
            return Err(CoreError::translate(format!(
                "{} state values for {} state variables",
                values.len(),
                self.states.len()
            )));
        }
        if self.opt != OptLevel::Opt2 || values.is_empty() {
            return Ok(JobState {
                nested: values,
                flat: Vec::new(),
                linearize_ns: 0,
            });
        }
        let start = Instant::now();
        let flat = self
            .states
            .iter()
            .zip(&values)
            .map(|(s, v)| Ok(Linearizer::new(&s.shape).linearize(v)?.buffer))
            .collect::<Result<Vec<_>, CoreError>>()?;
        let linearize_ns = start.elapsed().as_nanos() as u64;
        if let Some(r) = recorder {
            let cells = flat.iter().map(Vec::len).sum::<usize>();
            r.push_complete(
                TraceLevel::Phases,
                "linearize",
                "pipeline",
                0,
                r.offset_ns(start),
                linearize_ns,
                vec![("state_cells", AttrValue::Int(cells as i64))],
            );
        }
        Ok(JobState {
            nested: Vec::new(),
            flat,
            linearize_ns,
        })
    }

    /// The runner for one pass over `state`: the requested backend if
    /// possible, the interpreter otherwise. The native kernel is
    /// compiled once per `CompiledLoop`, so a pass only binds.
    pub fn runner(
        &self,
        requested: KernelBackend,
        state: JobState,
        recorder: Option<&Recorder>,
    ) -> Result<RunnerChoice, CoreError> {
        dispatch(
            requested,
            || self.native(recorder),
            &self.kernel,
            state.nested,
            state.flat,
            self.lo,
            self.opt,
            recorder,
        )
    }
}

/// Build the runner for one job: the requested backend if possible,
/// the interpreter otherwise. Unlike [`CompiledLoop::runner`], the
/// compiled backend compiles `kernel` on every call (its artifact
/// caches make the repeats cheap).
///
/// The state comes in the representation the kernel's strategy reads
/// ([`CompiledLoop::job_state`]): `flat_state` for opt-2,
/// `nested_state` for generated and opt-1; the other may be empty. The
/// compiled backend binds `flat_state` only, so a kernel that reads
/// nested state runs on the interpreter with a
/// [`CodegenError::Unsupported`] fallback.
///
/// The compiled path *never* fails the job: any [`CodegenError`] is
/// recorded (hub counter `core.codegen_fallback`, instant span
/// `codegen.fallback` with the error tag) and execution degrades to the
/// always-correct interpreter. The only fatal error is kernel
/// validation itself failing — then neither backend could run.
pub fn make_runner(
    requested: KernelBackend,
    kernel: &Kernel,
    nested_state: Vec<Value>,
    flat_state: Vec<Vec<f64>>,
    row_lo: i64,
    opt: OptLevel,
    recorder: Option<&Recorder>,
) -> Result<RunnerChoice, CoreError> {
    dispatch(
        requested,
        || compile_native(kernel, recorder),
        kernel,
        nested_state,
        flat_state,
        row_lo,
        opt,
        recorder,
    )
}

/// The one dispatch behind [`make_runner`] and [`CompiledLoop::runner`];
/// `native` yields the compiled kernel when the compiled backend is
/// requested.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    requested: KernelBackend,
    native: impl FnOnce() -> Result<Arc<dyn NativeKernel>, CodegenError>,
    kernel: &Kernel,
    nested_state: Vec<Value>,
    flat_state: Vec<Vec<f64>>,
    row_lo: i64,
    opt: OptLevel,
    recorder: Option<&Recorder>,
) -> Result<RunnerChoice, CoreError> {
    let mut fallback: Option<CodegenError> = None;

    if requested == KernelBackend::Compiled {
        match native().and_then(|n| n.bind(flat_state.clone(), row_lo)) {
            Ok(runner) => {
                if let Some(r) = recorder {
                    r.hub().add("core.codegen_jobs", 1);
                }
                return Ok(RunnerChoice {
                    runner,
                    backend: KernelBackend::Compiled,
                    fallback: None,
                });
            }
            Err(e) => {
                if let Some(r) = recorder {
                    r.hub().add("core.codegen_fallback", 1);
                    r.instant(
                        TraceLevel::Phases,
                        "codegen.fallback",
                        "pipeline",
                        0,
                        vec![
                            ("reason", AttrValue::Str(e.tag().to_string())),
                            ("opt", AttrValue::Str(opt.label().to_string())),
                        ],
                    );
                }
                fallback = Some(e);
            }
        }
    }

    let runtime = KernelRuntime::new(kernel.clone(), nested_state, flat_state, row_lo, opt)?;
    if let Some(r) = recorder {
        r.hub().add("core.interp_jobs", 1);
    }
    Ok(RunnerChoice {
        runner: Arc::new(runtime),
        backend: KernelBackend::Interpreted,
        fallback,
    })
}

#[cfg(test)]
mod backend_tests {
    use super::*;

    fn trivial_kernel() -> Kernel {
        Kernel {
            code: Vec::new(),
            entry: 0,
            regs: vec![crate::RegClass::I64; 2],
            paths: Vec::new(),
            state_names: Vec::new(),
            out_names: Vec::new(),
            combine: freeride::CombineOp::Sum,
        }
    }

    #[test]
    fn compiled_without_backend_falls_back() {
        // No compiler installed in unit tests: requesting the compiled
        // backend must degrade, never fail, and the fallback is recorded.
        let recorder = Recorder::new(TraceLevel::Phases);
        let choice = make_runner(
            KernelBackend::Compiled,
            &trivial_kernel(),
            Vec::new(),
            Vec::new(),
            0,
            OptLevel::Generated,
            Some(&recorder),
        )
        .unwrap();
        assert_eq!(choice.backend, KernelBackend::Interpreted);
        assert!(matches!(
            choice.fallback,
            Some(CodegenError::NotInstalled) | Some(CodegenError::RustcUnavailable(_))
        ));
        let trace = recorder.drain();
        assert_eq!(trace.count("codegen.fallback"), 1);
        assert_eq!(recorder.hub().counter("core.codegen_fallback"), 1);
        assert_eq!(recorder.hub().counter("core.interp_jobs"), 1);
    }

    #[test]
    fn interpreted_request_has_no_fallback() {
        let choice = make_runner(
            KernelBackend::Interpreted,
            &trivial_kernel(),
            Vec::new(),
            Vec::new(),
            0,
            OptLevel::Opt2,
            None,
        )
        .unwrap();
        assert_eq!(choice.backend, KernelBackend::Interpreted);
        assert!(choice.fallback.is_none());
    }
}
