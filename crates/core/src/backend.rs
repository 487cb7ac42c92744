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
//! [`make_runner`] is the single dispatch point the translator and the
//! application drivers share: given the backend the job *requested*, it
//! returns the [`SplitKernel`] that will actually run, plus which
//! backend that is and (if they differ) why.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use freeride::{KernelBackend, Recorder, SplitKernel, TraceLevel};
use linearize::{Linearizer, Shape, Value};
use obs::AttrValue;

use crate::compile::OptLevel;
use crate::error::{CodegenError, CoreError};
use crate::exec_kernel::KernelRuntime;
use crate::kernel_ir::Kernel;

/// A native-codegen backend: turns a validated [`Kernel`] plus one
/// job's state into a ready-to-run [`SplitKernel`].
///
/// Implementations are expected to cache compiled artifacts keyed by
/// the kernel (instantiation with fresh state must be cheap — k-means
/// rebuilds its runtime every outer iteration).
pub trait KernelCompiler: Send + Sync {
    /// Compile (or fetch from the process-wide cache) the kernel and
    /// bind it to this job's flat state. Any error means "use the
    /// interpreter instead"; a kernel that walks nested state
    /// ([`crate::Instr::LoadStateNested`]) is one.
    fn instantiate(
        &self,
        kernel: &Kernel,
        flat_state: Vec<Vec<f64>>,
        row_lo: i64,
        recorder: Option<&Recorder>,
    ) -> Result<Arc<dyn SplitKernel>, CodegenError>;

    /// Compile the kernel into the process-wide cache without binding
    /// state, so a later `instantiate` only binds. A failure is left
    /// for `instantiate` to report.
    fn precompile(&self, _kernel: &Kernel, _recorder: Option<&Recorder>) {}
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

/// Compile `kernels` into the installed backend's cache, one thread
/// each, so a program's cold compiles overlap instead of queueing.
pub fn precompile(kernels: &[&Kernel], recorder: Option<&Recorder>) {
    let Some(c) = COMPILER.get() else { return };
    std::thread::scope(|s| {
        for &k in kernels {
            s.spawn(move || c.precompile(k, recorder));
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

/// `value` as the state of a job at `opt`: linearized by `shape` for
/// opt-2, recorded as one `linearize` span on `recorder`; nested as it
/// is otherwise.
pub fn job_state(
    opt: OptLevel,
    value: Value,
    shape: &Shape,
    recorder: Option<&Recorder>,
) -> Result<JobState, CoreError> {
    if opt != OptLevel::Opt2 {
        return Ok(JobState {
            nested: vec![value],
            flat: Vec::new(),
            linearize_ns: 0,
        });
    }
    let start = Instant::now();
    let flat = Linearizer::new(shape).linearize(&value)?.buffer;
    let linearize_ns = start.elapsed().as_nanos() as u64;
    if let Some(r) = recorder {
        r.push_complete(
            TraceLevel::Phases,
            "linearize",
            "pipeline",
            0,
            r.offset_ns(start),
            linearize_ns,
            vec![("state_cells", AttrValue::Int(flat.len() as i64))],
        );
    }
    Ok(JobState {
        nested: Vec::new(),
        flat: vec![flat],
        linearize_ns,
    })
}

/// Build the runner for one job: the requested backend if possible,
/// the interpreter otherwise.
///
/// The state comes in the representation the kernel's strategy reads
/// ([`job_state`]): `flat_state` for opt-2, `nested_state` for
/// generated and opt-1; the other may be empty. The compiled backend
/// binds `flat_state` only, so a kernel that reads nested state runs on
/// the interpreter with a [`CodegenError::Unsupported`] fallback.
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
    let mut fallback: Option<CodegenError> = None;

    if requested == KernelBackend::Compiled {
        let attempt = match COMPILER.get() {
            Some(c) => c.instantiate(kernel, flat_state.clone(), row_lo, recorder),
            None => Err(CodegenError::NotInstalled),
        };
        match attempt {
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
