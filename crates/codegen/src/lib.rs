//! cfr-codegen — the native-codegen escape hatch.
//!
//! The kernel VM in `cfr-core` is the *always-correct reference
//! implementation* of the paper's generated C code; this crate is the
//! performance escape hatch layered on top of it (the Treebeard
//! pattern: keep an interpreter as ground truth, add compilation as an
//! optimization that must match it bit-for-bit):
//!
//! 1. [`emit`] lowers a validated `Kernel` (any strategy: generated /
//!    opt-1 / opt-2) to a single-function Rust translation unit;
//! 2. [`driver`] compiles it **once per process** by shelling out to
//!    `rustc --crate-type cdylib -C opt-level=3` into a content-hashed
//!    artifact cache, then `dlopen`s the result ([`dylib`]);
//! 3. [`runtime`] binds the loaded function to one job's state behind
//!    `freeride::SplitKernel`, with reduction-object updates and
//!    nested-state walks calling back into the host.
//!
//! Wiring: `cfr-core` cannot depend on this crate (it would cycle
//! through the kernel IR), so binaries opt in by calling [`install`]
//! once at start-up, which registers the backend through
//! `cfr_core::install_compiler`. Jobs then select it with
//! `JobConfig::backend = KernelBackend::Compiled`; any failure
//! (`rustc` missing, unsupported shape, load error) is a **recorded
//! fallback to the interpreter**, never a job failure.

#![warn(missing_docs)]

pub mod driver;
pub mod dylib;
pub mod emit;
pub mod runtime;

use cfr_core::{CodegenError, Kernel, KernelCompiler};
use freeride::{Recorder, SplitKernel};
use linearize::Value;
use std::sync::Arc;

pub use driver::{cache_dir, load_or_compile, rustc_available, LoadedKernel};
pub use emit::{emit_kernel, EmittedKernel, NestedSite};
pub use runtime::CompiledKernelRuntime;

/// The `KernelCompiler` this crate registers: emit + compile + load via
/// [`driver::load_or_compile`], bind state via
/// [`runtime::CompiledKernelRuntime`].
pub struct NativeCompiler;

impl KernelCompiler for NativeCompiler {
    fn instantiate(
        &self,
        kernel: &Kernel,
        nested_state: Vec<Value>,
        flat_state: Vec<Vec<f64>>,
        row_lo: i64,
        recorder: Option<&Recorder>,
    ) -> Result<Arc<dyn SplitKernel>, CodegenError> {
        let loaded = load_or_compile(kernel, recorder)?;
        Ok(Arc::new(CompiledKernelRuntime::new(
            loaded,
            nested_state,
            flat_state,
            row_lo,
        )))
    }
}

static COMPILER: NativeCompiler = NativeCompiler;

/// Register the native backend process-wide. Idempotent (first caller
/// wins); returns whether this call did the installing. Every binary
/// that wants `KernelBackend::Compiled` to mean anything calls this
/// once at start-up.
pub fn install() -> bool {
    cfr_core::install_compiler(&COMPILER)
}
