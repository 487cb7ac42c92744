//! The work-stealing unit queue.
//!
//! One lane per live node, seeded by the planner. `pop_for(i)` takes
//! from node *i*'s own lane (front, preserving row order and
//! locality) and, only when the queue was built with stealing on,
//! **steals from the back** of the longest peer lane: the rows the
//! victim would have reached last, which is exactly what a straggler
//! won't get to. Otherwise it returns `None`.
//!
//! The queue never blocks. A unit leaves it only by being popped: a
//! node leaves only at a round barrier, after its lane is drained, and
//! a failed node's units are re-run by the next attempt over a fresh
//! queue. Mutex poisoning is ignored, as in the chunk channel of
//! `freeride-io`.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::units::WorkUnit;

pub struct StealQueue {
    lanes: Mutex<Vec<VecDeque<WorkUnit>>>,
    /// Whether a popper may take from another node's lane.
    steal: bool,
}

/// A successful pop: the unit, and the victim's slot when it was
/// stolen rather than drawn from our own lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Popped {
    pub unit: WorkUnit,
    pub stolen_from: Option<usize>,
}

impl StealQueue {
    /// Build the queue from per-node seed queues; `steal` lets an
    /// idle node take from a peer's lane.
    pub fn new(seeded: Vec<Vec<WorkUnit>>, steal: bool) -> StealQueue {
        StealQueue {
            lanes: Mutex::new(seeded.into_iter().map(VecDeque::from).collect()),
            steal,
        }
    }

    /// Pop the next unit for node slot `i`: its own lane first, then
    /// (stealing on) a peer's. `None` once there is nothing it may take.
    pub fn pop_for(&self, i: usize) -> Option<Popped> {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(unit) = lanes.get_mut(i).and_then(VecDeque::pop_front) {
            return Some(Popped {
                unit,
                stolen_from: None,
            });
        }
        if !self.steal {
            return None;
        }
        // Steal from the most-loaded peer; ties go to the lowest slot so
        // the choice is deterministic.
        let mut victim: Option<usize> = None;
        for (j, q) in lanes.iter().enumerate() {
            if j != i && !q.is_empty() && victim.is_none_or(|v| q.len() > lanes[v].len()) {
                victim = Some(j);
            }
        }
        let v = victim?;
        lanes[v].pop_back().map(|unit| Popped {
            unit,
            stolen_from: Some(v),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::split_units;
    use std::sync::Arc;

    fn seeded(per_node: &[&[(u64, u64)]]) -> Vec<Vec<WorkUnit>> {
        per_node
            .iter()
            .map(|ranges| split_units(ranges, 0))
            .collect()
    }

    #[test]
    fn own_queue_first_in_row_order() {
        let q = StealQueue::new(seeded(&[&[(0, 2), (2, 2)], &[(4, 2)]]), true);
        let p = q.pop_for(0).unwrap();
        assert_eq!(p.unit.first_row, 0);
        assert_eq!(p.stolen_from, None);
        let p = q.pop_for(0).unwrap();
        assert_eq!(p.unit.first_row, 2);
    }

    #[test]
    fn steals_from_back_of_most_loaded_peer() {
        let q = StealQueue::new(
            seeded(&[&[], &[(0, 1), (1, 1)], &[(2, 1), (3, 1), (4, 1)]]),
            true,
        );
        let p = q.pop_for(0).unwrap();
        assert_eq!(p.stolen_from, Some(2), "slot 2 holds the most units");
        assert_eq!(p.unit.first_row, 4, "steal takes the victim's last unit");
    }

    #[test]
    fn drains_then_returns_none() {
        let q = StealQueue::new(seeded(&[&[(0, 1)], &[(1, 1)]]), true);
        let a = q.pop_for(0).unwrap();
        let b = q.pop_for(0).unwrap();
        assert_eq!(
            [a.unit.first_row, b.unit.first_row],
            [0, 1],
            "second pop steals slot 1's unit"
        );
        assert_eq!(q.pop_for(0), None);
        assert_eq!(q.pop_for(1), None);
    }

    /// Stealing off: an idle slot gets `None` at once, without waiting,
    /// while a peer's lane still holds units; the peer drains it.
    #[test]
    fn steal_off_never_takes_a_peer_lane() {
        let q = StealQueue::new(seeded(&[&[], &[(0, 1), (1, 1)]]), false);
        assert_eq!(q.pop_for(0), None);
        assert_eq!(q.pop_for(1).unwrap().unit.first_row, 0);
        assert_eq!(q.pop_for(0), None);
        assert_eq!(q.pop_for(1).unwrap().unit.first_row, 1);
        assert_eq!(q.pop_for(1), None);
    }

    #[test]
    fn concurrent_drain_covers_every_unit_exactly_once() {
        let units = split_units(&[(0, 100)], 1);
        let seedq = crate::policy::plan(&units, 4);
        let q = Arc::new(StealQueue::new(seedq, true));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(p) = q.pop_for(i) {
                        got.push(p.unit);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<WorkUnit> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, units);
    }
}
