//! The work-stealing unit queue.
//!
//! One pending deque per live node (seeded by the planner) plus a
//! shared overflow pool for units handed back by leavers. `pop_for(i)`
//! prefers node *i*'s own queue (front, preserving row order and
//! locality), then the overflow pool, and only then — when the queue
//! was built with stealing on — **steals from the back** of the
//! most-loaded peer: the rows the victim would have reached last,
//! which is exactly what a straggler won't get to. With stealing off a
//! unit leaves its seeded lane only through the overflow pool, i.e.
//! when its node left or died.
//!
//! Like the chunk channel in `freeride-io`, the queue is the error
//! path too: mutex poisoning is ignored, and `close()` wakes every
//! blocked popper so an aborting round never strands a driver thread.
//! A popper blocks (rather than returning "drained") while any unit
//! is still pending or in flight, because it may yet be `requeue`d or
//! `abandon`ed by a leaver and must then be picked up by a survivor.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::units::WorkUnit;

pub struct StealQueue {
    state: Mutex<State>,
    ready: Condvar,
    /// Whether a popper may take from another node's lane.
    steal: bool,
}

struct State {
    pending: Vec<VecDeque<WorkUnit>>,
    overflow: VecDeque<WorkUnit>,
    in_flight: usize,
    closed: bool,
}

/// A successful pop: the unit, and the victim's slot when it was
/// stolen rather than drawn from our own (or the overflow) queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Popped {
    pub unit: WorkUnit,
    pub stolen_from: Option<usize>,
}

fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl StealQueue {
    /// Build the queue from per-node seed queues; `steal` lets an
    /// idle node take from a peer's lane.
    pub fn new(seeded: Vec<Vec<WorkUnit>>, steal: bool) -> StealQueue {
        StealQueue {
            steal,
            state: Mutex::new(State {
                pending: seeded.into_iter().map(VecDeque::from).collect(),
                overflow: VecDeque::new(),
                in_flight: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Pop the next unit for node slot `i`, blocking while there is
    /// nothing for it to take but work is still pending elsewhere or
    /// in flight (it may be requeued). Returns `None` once the round
    /// is drained or the queue closed.
    pub fn pop_for(&self, i: usize) -> Option<Popped> {
        let mut s = lock(&self.state);
        loop {
            if s.closed {
                return None;
            }
            if let Some(unit) = s.pending.get_mut(i).and_then(VecDeque::pop_front) {
                s.in_flight += 1;
                return Some(Popped {
                    unit,
                    stolen_from: None,
                });
            }
            if let Some(unit) = s.overflow.pop_front() {
                s.in_flight += 1;
                return Some(Popped {
                    unit,
                    stolen_from: None,
                });
            }
            // Steal from the most-loaded peer; ties go to the lowest
            // slot so the choice is deterministic.
            let mut victim: Option<usize> = None;
            for (j, q) in s.pending.iter().enumerate() {
                if j == i || q.is_empty() {
                    continue;
                }
                if victim.is_none_or(|v| q.len() > s.pending[v].len()) {
                    victim = Some(j);
                }
            }
            if let Some(v) = victim.filter(|_| self.steal) {
                let unit = s.pending[v].pop_back().expect("victim queue is non-empty");
                s.in_flight += 1;
                return Some(Popped {
                    unit,
                    stolen_from: Some(v),
                });
            }
            if s.in_flight == 0 && victim.is_none() {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A popped unit completed.
    pub fn done(&self) {
        let mut s = lock(&self.state);
        s.in_flight = s.in_flight.saturating_sub(1);
        drop(s);
        self.ready.notify_all();
    }

    /// A popped unit's node left before answering: hand the unit back
    /// for a survivor to pick up.
    pub fn requeue(&self, unit: WorkUnit) {
        let mut s = lock(&self.state);
        s.in_flight = s.in_flight.saturating_sub(1);
        s.overflow.push_back(unit);
        drop(s);
        self.ready.notify_all();
    }

    /// Node slot `i` left: move its untouched seed queue into the
    /// overflow pool (so survivors drain it without counting steals).
    pub fn abandon(&self, i: usize) {
        let mut s = lock(&self.state);
        if let Some(q) = s.pending.get_mut(i) {
            let drained: Vec<WorkUnit> = q.drain(..).collect();
            s.overflow.extend(drained);
        }
        drop(s);
        self.ready.notify_all();
    }

    /// Abort: wake every blocked popper; all further pops return `None`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Units not yet popped (pending + overflow), for tests/telemetry.
    pub fn remaining(&self) -> usize {
        let s = lock(&self.state);
        s.pending.iter().map(VecDeque::len).sum::<usize>() + s.overflow.len()
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
        q.done();
        let p = q.pop_for(0).unwrap();
        assert_eq!(p.unit.first_row, 2);
        q.done();
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
        q.done();
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
        q.done();
        q.done();
        assert_eq!(q.pop_for(0), None);
        assert_eq!(q.pop_for(1), None);
    }

    /// Stealing off: an idle slot never takes from a peer's lane, but
    /// neither does it call the round drained while that lane still
    /// holds units — they reach it through the overflow pool if the
    /// peer leaves.
    #[test]
    fn steal_off_waits_for_peer_lane_and_takes_only_overflow() {
        let q = Arc::new(StealQueue::new(seeded(&[&[], &[(0, 1), (1, 1)]]), false));
        let q2 = q.clone();
        let idle = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(p) = q2.pop_for(0) {
                assert_eq!(p.stolen_from, None);
                got.push(p.unit.first_row);
                q2.done();
            }
            got
        });
        let first = q.pop_for(1).unwrap();
        assert_eq!(first.unit.first_row, 0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.remaining(), 1, "slot 0 must not steal row 1");
        // Slot 1 leaves mid-unit: both its units go to the pool.
        q.requeue(first.unit);
        q.abandon(1);
        let mut got = idle.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn blocks_on_in_flight_until_requeue() {
        let q = Arc::new(StealQueue::new(seeded(&[&[(0, 4)], &[]]), true));
        let popped = q.pop_for(0).unwrap();
        // Slot 1 has nothing to do but must NOT see "drained": the
        // in-flight unit might come back.
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.pop_for(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.requeue(popped.unit);
        let got = waiter
            .join()
            .unwrap()
            .expect("requeued unit reaches slot 1");
        assert_eq!(got.unit, popped.unit);
        assert_eq!(got.stolen_from, None, "overflow pops are not steals");
        q.done();
        assert_eq!(q.pop_for(1), None);
    }

    #[test]
    fn abandon_moves_seed_queue_to_overflow() {
        let q = StealQueue::new(seeded(&[&[(0, 1)], &[(1, 1), (2, 1)]]), false);
        q.abandon(1);
        let mut rows = Vec::new();
        while let Some(p) = q.pop_for(0) {
            assert_eq!(p.stolen_from, None);
            rows.push(p.unit.first_row);
            q.done();
        }
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 2]);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(StealQueue::new(seeded(&[&[(0, 1)], &[]]), true));
        let _held = q.pop_for(0).unwrap(); // keep one unit in flight
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.pop_for(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn concurrent_drain_covers_every_unit_exactly_once() {
        let units = split_units(&[(0, 100)], 1);
        let seedq = crate::policy::plan(&units, &[0, 1, 2, 3], &Default::default());
        let q = Arc::new(StealQueue::new(seedq, true));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(p) = q.pop_for(i) {
                        got.push(p.unit);
                        q.done();
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
