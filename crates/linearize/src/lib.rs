//! Linearization of nested data structures and index mapping.
//!
//! This crate implements the core compiler transformations of the paper
//! *"Translating Chapel to Use FREERIDE"* (IPPS 2011):
//!
//! * **Algorithm 1** — [`compute_linearize_size`]: recursively compute the
//!   number of primitive slots a nested value occupies once flattened.
//! * **Algorithm 2** — [`linearize_it`] / [`Linearizer`]: copy a nested
//!   value into a dense, contiguous buffer while collecting the metadata
//!   (`unitSize[]`, `unitOffset[][]`, `position[][]`, `levels`) shown in
//!   Figure 6 of the paper.
//! * **Algorithm 3** — [`compute_index`]: map the multi-level index vector
//!   used by the original (nested) reduction loop onto a flat offset into
//!   the linearized buffer.
//!
//! The paper's *opt-1* (strength reduction: hoist `computeIndex` out of
//! the innermost loop and step by [`PathMeta::innermost_stride`]) is a
//! code-generation transformation, so it lives in `cfr_core`'s kernel
//! compiler (`compile.rs`), not here.
//!
//! FREERIDE exposes a simple 2-D view of the input data set, so the Chapel
//! compiler must translate arbitrarily nested records/arrays into a dense
//! buffer before it can hand the data to the runtime. Everything in this
//! crate is independent of both the Chapel frontend and the FREERIDE
//! runtime — it operates on the reflective [`Shape`]/[`Value`] model —
//! which mirrors the paper's observation that linearization "is not
//! specific to Chapel and FREERIDE".
//!
//! # Quick example
//!
//! ```
//! use linearize::{Shape, Value, Linearizer, AccessPath, compute_index};
//!
//! // record A { a1: [1..3] real; a2: int; }
//! let rec_a = Shape::record(vec![
//!     ("a1", Shape::array(Shape::Real, 3)),
//!     ("a2", Shape::Int),
//! ]);
//! // data: [1..2] A;
//! let shape = Shape::array(rec_a, 2);
//! let value = Value::from_fn(&shape, |slot| slot as f64);
//!
//! let lin = Linearizer::new(&shape).linearize(&value).unwrap();
//! assert_eq!(lin.buffer.len(), 8); // 2 * (3 + 1)
//!
//! // Access data[i].a1[k] through the mapping algorithm.
//! let path = AccessPath::fields(&[0]); // select field `a1` at level 0
//! let meta = lin.meta.for_path(&path).unwrap();
//! let idx = compute_index(&meta, &[1, 2]); // data[1].a1[2] (0-based)
//! assert_eq!(lin.buffer[idx], value.slot(6).unwrap());
//! ```

mod algorithms;
mod error;
mod meta;
mod shape;
pub mod sparse;
mod value;
mod writeback;

pub use algorithms::{
    compute_index, compute_index_recursive, compute_linearize_size, linearize_it, Linearized,
    Linearizer,
};
pub use error::LinearizeError;
pub use meta::{AccessPath, LinearMeta, PathMeta};
pub use shape::{PrimType, Shape};
pub use value::{Slots, Value};
pub use writeback::delinearize;

#[cfg(test)]
mod tests;
