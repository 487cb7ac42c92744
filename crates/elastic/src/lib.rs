//! Elastic, placement-aware scheduling primitives.
//!
//! This crate is the policy/mechanism layer under the cluster
//! scheduler in `freeride-dist`: it knows nothing about the FRDM wire
//! protocol or the engine — it only reasons about **row ranges**.
//!
//! * [`units`] — split the fixed shard map into sub-range
//!   [`WorkUnit`]s. The partition is a pure function of the shard map
//!   and the grain, never of live membership, which is what lets
//!   joins, leaves and steals preserve bit-identity: the coordinator's
//!   first_row-sorted merge sees the same covered row set in the same
//!   fold order no matter which node computed each unit.
//! * [`queue`] — a blocking multi-queue with work-stealing `pop`,
//!   modelled on the chunk channel in `freeride-io`.
//! * [`policy`] — the declarative [`PlacementPolicy`] (heterogeneous
//!   weights, locality pins, anti-affinity) and the deterministic
//!   planner mapping units onto live nodes.
//! * [`membership`] — a tiny accept loop collecting mid-job joiner
//!   connections for the driver to absorb at round barriers.

pub mod membership;
pub mod policy;
pub mod queue;
pub mod units;

pub use membership::MembershipHub;
pub use policy::{plan, PlacementPolicy};
pub use queue::StealQueue;
pub use units::{auto_grain, split_units, WorkUnit};

/// Elastic scheduling knobs, carried on the cluster config.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ElasticPolicy {
    /// Cut each shard into grain-sized work units and let an idle node
    /// take units from the back of a busy peer's queue. Off, a round's
    /// units are the shards themselves and each stays on its owner.
    pub steal: bool,
    /// Rows per work unit when `steal` is on; 0 lets the driver pick
    /// [`auto_grain`].
    pub steal_grain: u64,
    /// Listen address for mid-job joiners (`cfr-node --join`); `None`
    /// keeps membership fixed at job start.
    pub join_listen: Option<String>,
    /// Declarative placement of grain-split units onto nodes.
    pub placement: PlacementPolicy,
}
