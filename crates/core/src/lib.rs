//! cfr-core — the Chapel-to-FREERIDE translator.
//!
//! The paper's contribution, reproduced end-to-end:
//!
//! 1. [`detect`] finds generalized-reduction loops and built-in `reduce`
//!    expressions in a type-checked Chapel program and classifies their
//!    variables into *dataset* / *state* / *outputs*.
//! 2. [`compile_loop`] / [`compile_reduce_expr`] emit a per-element
//!    kernel whose access instructions embody the evaluated
//!    code-generation strategy ([`OptLevel`]): naive per-access
//!    `computeIndex` (*generated*), strength reduction (*opt-1*), and
//!    selective linearization of hot state (*opt-2*).
//! 3. [`Translator::run_program`] interleaves interpretation with
//!    FREERIDE offloading: datasets are linearized (Algorithm 2),
//!    kernels run on the [`freeride`] engine, and reduction-object
//!    results are de-linearized back into Chapel values.
//!
//! ```
//! use cfr_core::{OptLevel, Translator};
//!
//! let src = "
//!     var A: [1..100] real;
//!     for i in 1..100 { A[i] = i; }
//!     var total: real = + reduce A;
//! ";
//! let run = Translator::new(OptLevel::Opt2, 2).run_program(src).unwrap();
//! assert_eq!(run.global("total").unwrap().as_f64().unwrap(), 5050.0);
//! assert_eq!(run.jobs.len(), 1); // the reduce ran on FREERIDE
//! ```

#![warn(missing_docs)]

pub mod backend;
mod chapel_abi;
mod compile;
mod detect;
mod error;
mod exec_kernel;
mod kernel_ir;
mod translate;

pub use backend::{
    compiler_installed, install_compiler, make_runner, JobState, KernelCompiler, NativeKernel,
    RunnerChoice,
};
pub use compile::{
    compile_loop, compile_reduce_expr, CompiledLoop, DatasetSpec, DatasetVar, OptLevel, OutSpec,
    StateSpec,
};
pub use detect::{detect, Detected, Detection, ExprReduction, LoopReduction, Rejection};
pub use error::{CodegenError, CoreError};
pub use exec_kernel::KernelRuntime;
pub use kernel_ir::{ArithOp, CmpOp, Instr, Kernel, KernelValidateError, NavStep, RegClass};
pub use translate::{
    zip_linearize, zip_linearize_into, CompiledProgram, JobReport, TranslatedRun, Translator,
};

#[cfg(test)]
mod tests;
