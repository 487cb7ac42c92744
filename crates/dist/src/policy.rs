//! The elastic scheduling knobs ([`ElasticPolicy`]) and the
//! deterministic planner.
//!
//! The job says nothing about where units run. The planner seeds each
//! node with an equal contiguous share, and work stealing is the one
//! balancer from there on. Because the unit partition is
//! membership-invariant and the merge is first_row-sorted, where a unit
//! runs cannot touch results — the planner only shapes *performance*.

use crate::units::WorkUnit;

/// Elastic scheduling knobs, carried on the cluster config.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ElasticPolicy {
    /// Cut each shard into grain-sized work units and let an idle node
    /// take units from the back of a busy peer's queue. Off, a round's
    /// units are the shards themselves and each stays on its owner.
    pub steal: bool,
    /// Rows per work unit when `steal` is on; 0 lets the driver pick
    /// eight units per node of the initial fleet.
    pub steal_grain: u64,
    /// Listen address for mid-job joiners (`cfr-node --join`); `None`
    /// keeps membership fixed at job start.
    pub join_listen: Option<String>,
}

/// Deterministically seed `units` onto `nodes` live nodes.
///
/// Returns one queue per node, in driver order. Units are laid out
/// contiguously in the order given (row order for
/// [`split_units`](crate::split_units) output), each node taking an
/// equal share (earlier nodes at most one unit fewer).
pub fn plan(units: &[WorkUnit], nodes: usize) -> Vec<Vec<WorkUnit>> {
    let bound = |slot: usize| units.len() * slot / nodes;
    (0..nodes)
        .map(|slot| units[bound(slot)..bound(slot + 1)].to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::split_units;

    #[test]
    fn default_policy_balances_evenly() {
        let units = split_units(&[(0, 80)], 10);
        let q = plan(&units, 2);
        assert_eq!(q[0].len(), 4);
        assert_eq!(q[1].len(), 4);
        assert_eq!(q.concat(), units, "plan must cover every unit exactly once");
        // Contiguity: node 0 gets the low rows.
        assert!(q[0].iter().all(|u| u.first_row < 40));
    }

    #[test]
    fn plan_is_deterministic() {
        let units = split_units(&[(0, 33), (33, 67)], 7);
        let a = plan(&units, 3);
        let b = plan(&units, 3);
        assert_eq!(a, b);
        assert_eq!(a.concat(), units);
    }
}
