//! cfr-codegen — the native-codegen escape hatch.
//!
//! The kernel VM in `cfr-core` is the *always-correct reference
//! implementation* of the paper's generated C code; this crate is the
//! performance escape hatch layered on top of it (the Treebeard
//! pattern: keep an interpreter as ground truth, add compilation as an
//! optimization that must match it bit-for-bit):
//!
//! 1. [`emit`] lowers a validated opt-2 `Kernel` (state read only from
//!    flat buffers) to a Rust translation unit, printing the loads
//!    [`range`] proves in bounds as unchecked reads;
//! 2. [`driver`] compiles it by shelling out to `rustc --crate-type
//!    cdylib -C opt-level=3` into a content-hashed artifact cache, then
//!    `dlopen`s the result ([`dylib`]). A `cfr_core::CompiledLoop` asks
//!    for this once and keeps the [`LoadedKernel`], so each kernel of a
//!    compiled program is emitted, hashed and loaded once;
//! 3. [`runtime`] binds the loaded function to one pass's flat state
//!    behind `freeride::SplitKernel` (`NativeKernel::bind`, per pass):
//!    reduction-object updates go in place into a worker's lent cells,
//!    or call back under the shared sync schemes.
//!
//! Wiring: `cfr-core` cannot depend on this crate (it would cycle
//! through the kernel IR), so binaries opt in by calling [`install`]
//! once at start-up, which registers the backend through
//! `cfr_core::install_compiler`. Jobs then select it with
//! `JobConfig::backend = KernelBackend::Compiled`; any failure
//! (`rustc` missing, unsupported shape such as a generated or opt-1
//! kernel's nested-state walk, load error) is a **recorded fallback to
//! the interpreter**, never a job failure.

#![warn(missing_docs)]

pub mod abi;
pub mod driver;
pub mod dylib;
pub mod emit;
pub mod range;
pub mod runtime;

use cfr_core::{CodegenError, Kernel, KernelCompiler, NativeKernel};
use freeride::{Recorder, SplitKernel};
use std::sync::Arc;

pub use driver::{cache_dir, load_or_compile, rustc_available, LoadedKernel};
pub use emit::{emit_kernel, EmittedKernel};
pub use runtime::CompiledKernelRuntime;

/// The `KernelCompiler` this crate registers: emit + compile + load via
/// [`driver::load_or_compile`]; the [`LoadedKernel`] it returns binds
/// each pass's state as a [`runtime::CompiledKernelRuntime`].
pub struct NativeCompiler;

impl KernelCompiler for NativeCompiler {
    fn compile(
        &self,
        kernel: &Kernel,
        recorder: Option<&Recorder>,
    ) -> Result<Arc<dyn NativeKernel>, CodegenError> {
        Ok(load_or_compile(kernel, recorder)?)
    }
}

impl NativeKernel for LoadedKernel {
    fn bind(
        self: Arc<Self>,
        flat_state: Vec<Vec<f64>>,
        row_lo: i64,
    ) -> Result<Arc<dyn SplitKernel>, CodegenError> {
        Ok(Arc::new(CompiledKernelRuntime::new(
            self, flat_state, row_lo,
        )?))
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
