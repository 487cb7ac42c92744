//! FREERIDE — *FRamework for Rapid Implementation of Datamining
//! Engines* — reimplemented in Rust.
//!
//! This crate is a from-scratch implementation of the generalized-
//! reduction middleware the paper *"Translating Chapel to Use FREERIDE"*
//! (IPPS 2011) targets: the multi-core FREERIDE variant (Jiang, Ravi &
//! Agrawal, CCGRID 2010) whose API is summarised in the paper's Table I.
//!
//! The key design points, faithfully reproduced:
//!
//! * An **explicit reduction object** ([`ReductionObject`]) the
//!   programmer declares and updates directly — unlike Map-Reduce's
//!   implicit intermediate pairs.
//! * **Fused map+reduce**: "each data element is processed and reduced
//!   before the next data element is processed", avoiding sort, group,
//!   shuffle, and intermediate `(key, value)` storage. (The contrasting
//!   Phoenix-style engine lives in [`mapreduce`] for the structural
//!   comparison of Figure 4.)
//! * A **simple 2-D view** of the input ([`DataView`]) with a default
//!   [`Splitter`] dividing rows among threads.
//! * Selectable **shared-memory techniques** ([`SyncScheme`]): full
//!   replication, full locking, bucket (striped) locking, and atomic
//!   updates.
//! * A **combination phase** (all-to-one, or a parallel tree merge for
//!   large objects) and a **finalize** step, both transparent to the
//!   local reduction.
//! * An **outer sequential loop** for iterative algorithms (k-means).
//! * **Disk-resident datasets** served split-by-split ([`source`]),
//!   with an optional out-of-core streaming pipeline ([`IoMode`]) that
//!   prefetches chunks through a bounded recycled-buffer pool.
//!
//! Start with [`Runtime`] (the Table I facade) or the lower-level
//! [`Engine`].

#![warn(missing_docs)]

mod api;
mod engine;
mod error;
mod kernel;
pub mod mapreduce;
pub mod pool;
mod robj;
pub mod source;
mod split;
mod stats;
mod sync;

pub use api::{Application, ReductionFn, Runtime};
pub use engine::{
    CombinationFn, Engine, ExecMode, FinalizeFn, IoMode, JobConfig, JobOutcome, PassHooks,
    PassInput,
};
pub use error::FreerideError;
pub use kernel::{KernelBackend, SplitKernel};
pub use pool::WorkerPool;
pub use robj::{fnv1a64, CombineOp, GroupSpec, RObjLayout, ReductionObject};
pub use split::{DataView, Split, Splitter, SplitterFn};
pub use stats::{IoActivity, PhaseTimes, RunStats, SplitStat};
// Re-export the streaming-I/O substrate likewise: `IoMode::Streaming`
// users size pipelines with these without naming `freeride-io`.
pub use freeride_io::{IoStats, MemoryBudget, RowReader, RowSource, StreamConfig};
// Re-export the tracing substrate so engine users configure trace
// levels and drain traces without naming the `obs` crate directly.
pub use obs::{Recorder, Trace, TraceLevel};
pub use sync::{
    Accumulator, AtomicCells, HybridHandle, LentCells, LockedCells, RObjHandle, SharedCells,
    SharedHandle, StripedCells, SyncScheme,
};
