//! freeride-dist — the multi-process cluster engine over FREERIDE.
//!
//! FREERIDE was originally *cluster* middleware; the shared-memory
//! engine in the `freeride` crate is its multicore instantiation. This
//! crate crosses the process boundary with the same processing
//! structure: a [`Coordinator`] shards a dataset file by row ranges
//! across N node agents (the `cfr-node` binary, or in-process
//! [`LoopbackCluster`] threads for deterministic tests); each node runs
//! its shard through the existing shared-memory engine
//! (`Engine::run_pass` over a `PassInput::File` shard), ships its
//! serialized [`ReductionObject`](freeride::ReductionObject) back over a
//! length-prefixed versioned TCP protocol ([`proto`]), and the
//! coordinator performs global combination with the existing
//! `CombineOp` machinery, applies the task's outer-loop step, and
//! broadcasts the updated state for the next round (the iterative
//! k-means loop).
//!
//! Zero external dependencies: the wire layer is `std::net` TCP with
//! explicit read timeouts, so a node dropping its connection mid-round
//! surfaces as a typed [`DistError`] — never a hang. Node traces ship
//! with the results and merge into one Chrome trace with each node on
//! its own `pid` track.

#![warn(missing_docs)]

mod coord;
mod error;
pub mod proto;
mod sched;
pub mod tasks;

pub mod node;

pub use cfr_elastic::{ElasticPolicy, MembershipHub, PlacementPolicy};
pub use coord::{
    resume_loopback, run_loopback, ClusterConfig, ClusterOutcome, ClusterStats, Coordinator,
    FtPolicy, LoopbackCluster, TelemetryPolicy,
};
pub use error::DistError;
pub use sched::{Fleet, JobDriver};
