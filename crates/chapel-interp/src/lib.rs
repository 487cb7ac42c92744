//! Tree-walking interpreter for the Chapel subset — the semantic oracle
//! of the chapel-freeride reproduction.
//!
//! Every translated (FREERIDE-backed) execution is differentially tested
//! against direct interpretation of the same program. The interpreter
//! implements Chapel value semantics for records/arrays, reference
//! semantics for classes, 1-based declared-bound indexing, and both
//! built-in (`+ reduce A`) and user-defined (`MyOp reduce A`)
//! reductions, including a simulated-parallel path that exercises the
//! user's `combine` method.
//!
//! ```
//! use chapel_interp::Interpreter;
//!
//! let interp = Interpreter::run_source(
//!     "var A: [1..5] real; for i in 1..5 { A[i] = i; } var s = + reduce A;",
//! ).unwrap();
//! assert_eq!(interp.global("s").unwrap().as_f64().unwrap(), 15.0);
//! ```

#![warn(missing_docs)]

mod error;
mod exec;
mod resolve;
mod value;

pub use error::InterpError;
pub use exec::Interpreter;
pub use value::{ObjectData, RtValue};

#[cfg(test)]
mod tests;
