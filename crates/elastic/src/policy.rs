//! The declarative placement policy and the deterministic planner.
//!
//! Placement is a *separate concern* from the reduction itself (the
//! Mapple idea): the job says nothing about where units run; the
//! policy does. Because the unit partition is membership-invariant and
//! the merge is first_row-sorted, placement can be arbitrary without
//! touching results — the planner only shapes *performance*.

use crate::units::WorkUnit;

/// Declarative placement: relative node capacities over the default
/// "equal weights" behaviour.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlacementPolicy {
    /// Relative capacity per node id; missing, non-finite or
    /// non-positive entries count as 1.0. A node with weight 2.0 is
    /// seeded with twice the rows of a weight-1.0 peer.
    pub weights: Vec<f64>,
}

impl PlacementPolicy {
    /// Effective weight of `node` (always finite and positive).
    pub fn weight(&self, node: u32) -> f64 {
        match self.weights.get(node as usize) {
            Some(&w) if w.is_finite() && w > 0.0 => w,
            _ => 1.0,
        }
    }

    /// Effective weight in milli-units, for the wire and displays.
    pub fn weight_milli(&self, node: u32) -> u64 {
        (self.weight(node) * 1000.0).round().min(u64::MAX as f64) as u64
    }
}

/// Deterministically seed `units` onto the live nodes.
///
/// Returns one queue per entry of `live` (a slice of node *ids*, in
/// driver order). Units are laid out contiguously in the order given
/// (row order for [`split_units`](crate::split_units) output), each
/// node's share proportional to its weight (cumulative-sum boundaries,
/// so the same inputs always produce the same plan).
pub fn plan(units: &[WorkUnit], live: &[u32], policy: &PlacementPolicy) -> Vec<Vec<WorkUnit>> {
    let n = live.len();
    let total: f64 = live.iter().map(|&id| policy.weight(id)).sum();
    let mut cum = 0.0;
    let mut taken = 0usize;
    live.iter()
        .enumerate()
        .map(|(slot, &id)| {
            cum += policy.weight(id);
            // How many of the units the first slot..=slot nodes hold.
            let boundary = if slot + 1 == n {
                units.len()
            } else {
                ((cum / total) * units.len() as f64).round() as usize
            };
            let boundary = boundary.clamp(taken, units.len());
            let queue = units[taken..boundary].to_vec();
            taken = boundary;
            queue
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::split_units;

    fn flat(queues: &[Vec<WorkUnit>]) -> Vec<WorkUnit> {
        let mut all: Vec<WorkUnit> = queues.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn default_policy_balances_evenly() {
        let units = split_units(&[(0, 80)], 10);
        let q = plan(&units, &[0, 1], &PlacementPolicy::default());
        assert_eq!(q[0].len(), 4);
        assert_eq!(q[1].len(), 4);
        assert_eq!(flat(&q), units, "plan must cover every unit exactly once");
        // Contiguity: node 0 gets the low rows.
        assert!(q[0].iter().all(|u| u.first_row < 40));
    }

    #[test]
    fn weights_shift_the_split() {
        let units = split_units(&[(0, 80)], 10);
        let policy = PlacementPolicy {
            weights: vec![3.0, 1.0],
        };
        let q = plan(&units, &[0, 1], &policy);
        assert_eq!(q[0].len(), 6);
        assert_eq!(q[1].len(), 2);
        assert_eq!(flat(&q), units);
    }

    #[test]
    fn bad_weights_fall_back_to_one() {
        let p = PlacementPolicy {
            weights: vec![f64::NAN, -2.0, 0.0, 2.5],
        };
        assert_eq!(p.weight(0), 1.0);
        assert_eq!(p.weight(1), 1.0);
        assert_eq!(p.weight(2), 1.0);
        assert_eq!(p.weight(3), 2.5);
        assert_eq!(p.weight(9), 1.0);
        assert_eq!(p.weight_milli(3), 2500);
    }

    #[test]
    fn plan_is_deterministic() {
        let units = split_units(&[(0, 33), (33, 67)], 7);
        let policy = PlacementPolicy {
            weights: vec![1.0, 2.0, 1.5],
        };
        let a = plan(&units, &[0, 1, 2], &policy);
        let b = plan(&units, &[0, 1, 2], &policy);
        assert_eq!(a, b);
        assert_eq!(flat(&a), units);
    }
}
