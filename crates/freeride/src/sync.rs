//! Shared-memory parallelization techniques for the reduction object.
//!
//! The FREERIDE line of work evaluates several ways for threads on one
//! node to update the reduction object; the paper says local results "are
//! combined locally depending on the shared memory technique chosen by
//! the application developer". We implement the four classical ones:
//!
//! * [`SyncScheme::FullReplication`] — every thread owns a private copy
//!   of the reduction object; copies are merged in the local combination
//!   phase. No synchronisation in the hot loop; memory grows with the
//!   thread count.
//! * [`SyncScheme::FullLocking`] — one shared copy, one lock per cell.
//! * [`SyncScheme::BucketLocking`] — one shared copy, a fixed pool of
//!   striped locks (`cell id mod stripes`); trades contention for memory.
//! * [`SyncScheme::Atomic`] — one shared copy updated with per-cell
//!   compare-and-swap loops on the f64 bit pattern.
//!
//! A fifth, planned scheme exists for irregular workloads:
//! [`SyncScheme::Hybrid`] implements *selective replication* — the flat
//! cell space is cut into fixed-size regions, and each region is either
//! replicated into per-worker private copies (hot, frequently-touched
//! regions) or served by one shared bucket-locked copy (cold or
//! wide-scatter regions). The sparse inspector (`crates/sparse`) derives
//! the region map from a one-time scan of a shard's index pattern.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::robj::{RObjLayout, ReductionObject};

/// Which shared-memory technique the job uses for reduction-object
/// updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncScheme {
    /// Per-thread private copies merged during local combination.
    #[default]
    FullReplication,
    /// A lock per reduction-object cell.
    FullLocking,
    /// A fixed pool of striped locks shared by all cells.
    BucketLocking {
        /// Number of lock stripes.
        stripes: usize,
    },
    /// Lock-free compare-and-swap updates.
    Atomic,
    /// Selective replication over fixed-size cell regions: region `r`
    /// covers flat cells `r * region_cells ..` (region 63 extends to the
    /// end of the object). Regions whose bit is set in `replicated`
    /// accumulate into per-worker private copies merged during local
    /// combination; all other regions share one bucket-locked copy with
    /// `stripes` lock stripes.
    Hybrid {
        /// Flat cells per region (≥ 1; clamped when 0).
        region_cells: usize,
        /// Bit `r` set ⇒ region `r` is replicated (bit 63 covers every
        /// region past the 63rd).
        replicated: u64,
        /// Lock stripes of the shared (non-replicated) backend.
        stripes: usize,
    },
}

impl SyncScheme {
    /// Whether workers under this scheme hold a private
    /// [`ReductionObject`] that must be merged during combination
    /// (full replication, and the replicated regions of
    /// [`SyncScheme::Hybrid`]).
    pub fn worker_private(&self) -> bool {
        matches!(
            self,
            SyncScheme::FullReplication | SyncScheme::Hybrid { .. }
        )
    }
}

/// The view of the reduction object handed to a local-reduction function.
///
/// `accumulate` is the paper's `accumulate(int, int, void* value)`;
/// `get` is `get_intermediate_result`. A single trait lets the same user
/// kernel run unchanged under every [`SyncScheme`].
pub trait RObjHandle {
    /// Fold `value` into cell `(group, index)` with the group's op.
    fn accumulate(&mut self, group: usize, index: usize, value: f64);
    /// Read cell `(group, index)`. Under shared schemes this is a racy
    /// snapshot (each cell read is individually atomic/locked).
    fn get(&self, group: usize, index: usize) -> f64;
    /// Lend this worker's private cells for in-place updates, or `None`
    /// when the cells are shared with other workers (every locking and
    /// atomic scheme, and [`SyncScheme::Hybrid`]), where `accumulate`
    /// stays the only way in.
    fn lend(&mut self) -> Option<LentCells<'_>> {
        None
    }
}

impl RObjHandle for ReductionObject {
    #[inline]
    fn accumulate(&mut self, group: usize, index: usize, value: f64) {
        ReductionObject::accumulate(self, group, index, value);
    }
    #[inline]
    fn get(&self, group: usize, index: usize) -> f64 {
        ReductionObject::get(self, group, index)
    }
    fn lend(&mut self) -> Option<LentCells<'_>> {
        let (layout, cells) = self.parts_mut();
        Some(LentCells { cells, layout })
    }
}

/// A worker's private reduction-object cells, lent for one split: the
/// flat cells plus the layout that gives each group's offset and op.
/// [`LentCells::accumulate`] is exactly `ReductionObject::accumulate`,
/// with no call through a handle.
pub struct LentCells<'a> {
    /// The flat cells; group `g` starts at `layout.offsets()[g]`.
    pub cells: &'a mut [f64],
    /// Group offsets and combine ops.
    pub layout: &'a RObjLayout,
}

impl LentCells<'_> {
    /// Fold `value` into cell `(group, index)` with the group's op.
    #[inline]
    pub fn accumulate(&mut self, group: usize, index: usize, value: f64) {
        let id = self.layout.cell_id(group, index);
        self.cells[id] = self.layout.group(group).op.apply(self.cells[id], value);
    }
}

/// A hand-written kernel's update path for one split: the lent cells
/// when the handle lends them, `accumulate` through the handle
/// otherwise. Built once per split, so the choice is made per split,
/// never per update, and the kernel itself keeps one code path.
pub enum Accumulator<'a> {
    /// In place, into a worker's private cells.
    Lent(LentCells<'a>),
    /// Through the handle (shared cells).
    Handle(&'a mut dyn RObjHandle),
}

impl<'a> Accumulator<'a> {
    /// Take `robj`'s cells if it lends them.
    pub fn new(robj: &'a mut dyn RObjHandle) -> Accumulator<'a> {
        if robj.lend().is_none() {
            return Accumulator::Handle(robj);
        }
        Accumulator::Lent(robj.lend().expect("the handle lent its cells just above"))
    }

    /// Fold `value` into cell `(group, index)` with the group's op.
    #[inline]
    pub fn accumulate(&mut self, group: usize, index: usize, value: f64) {
        match self {
            Accumulator::Lent(cells) => cells.accumulate(group, index, value),
            Accumulator::Handle(robj) => robj.accumulate(group, index, value),
        }
    }
}

/// Full-locking backend: one mutex-wrapped cell per element, cache-padded
/// to avoid false sharing between adjacent cells.
pub struct LockedCells {
    layout: Arc<RObjLayout>,
    cells: Vec<CachePadded<Mutex<f64>>>,
}

impl LockedCells {
    /// Allocate with every cell at its group identity.
    pub fn alloc(layout: Arc<RObjLayout>) -> LockedCells {
        let cells = layout
            .initial_cells()
            .into_iter()
            .map(|x| CachePadded::new(Mutex::new(x)))
            .collect();
        LockedCells { layout, cells }
    }

    /// Apply the group op to one cell under its lock.
    #[inline]
    pub fn accumulate(&self, group: usize, index: usize, value: f64) {
        let id = self.layout.cell_id(group, index);
        let op = &self.layout.group(group).op;
        let mut cell = self.cells[id].lock();
        *cell = op.apply(*cell, value);
    }

    /// Read one cell under its lock.
    #[inline]
    pub fn get(&self, group: usize, index: usize) -> f64 {
        *self.cells[self.layout.cell_id(group, index)].lock()
    }

    /// Materialise the shared state into a plain [`ReductionObject`].
    pub fn snapshot(&self) -> ReductionObject {
        let mut out = ReductionObject::alloc(self.layout.clone());
        for (id, cell) in self.cells.iter().enumerate() {
            out.cells_mut()[id] = *cell.lock();
        }
        out
    }
}

/// Bucket-locking backend: cells live in an `UnsafeCell` array guarded by
/// `stripes` mutexes; the lock for cell `id` is `locks[id % stripes]`.
///
/// # Safety invariant
///
/// A cell `id` is only read or written while `locks[id % stripes]` is
/// held, so no two threads ever access the same `UnsafeCell`
/// concurrently. `snapshot` takes every stripe lock before reading.
pub struct StripedCells {
    layout: Arc<RObjLayout>,
    locks: Vec<CachePadded<Mutex<()>>>,
    cells: Vec<UnsafeCell<f64>>,
}

// SAFETY: all access to `cells` is mediated by the stripe locks (see the
// type-level invariant above).
unsafe impl Sync for StripedCells {}
unsafe impl Send for StripedCells {}

impl StripedCells {
    /// Allocate with `stripes` lock stripes (clamped to ≥ 1).
    pub fn alloc(layout: Arc<RObjLayout>, stripes: usize) -> StripedCells {
        let stripes = stripes.max(1);
        let cells = layout
            .initial_cells()
            .into_iter()
            .map(UnsafeCell::new)
            .collect();
        let locks = (0..stripes)
            .map(|_| CachePadded::new(Mutex::new(())))
            .collect();
        StripedCells {
            layout,
            locks,
            cells,
        }
    }

    #[inline]
    fn stripe(&self, id: usize) -> &Mutex<()> {
        &self.locks[id % self.locks.len()]
    }

    /// Apply the group op to one cell under its stripe lock.
    #[inline]
    pub fn accumulate(&self, group: usize, index: usize, value: f64) {
        let id = self.layout.cell_id(group, index);
        let op = &self.layout.group(group).op;
        let _guard = self.stripe(id).lock();
        // SAFETY: stripe lock held (invariant above).
        unsafe {
            let cell = &mut *self.cells[id].get();
            *cell = op.apply(*cell, value);
        }
    }

    /// Read one cell under its stripe lock.
    #[inline]
    pub fn get(&self, group: usize, index: usize) -> f64 {
        let id = self.layout.cell_id(group, index);
        let _guard = self.stripe(id).lock();
        // SAFETY: stripe lock held.
        unsafe { *self.cells[id].get() }
    }

    /// Materialise the shared state into a plain [`ReductionObject`].
    pub fn snapshot(&self) -> ReductionObject {
        // Hold every stripe lock for a consistent snapshot.
        let guards: Vec<_> = self.locks.iter().map(|l| l.lock()).collect();
        let mut out = ReductionObject::alloc(self.layout.clone());
        for id in 0..self.cells.len() {
            // SAFETY: all stripe locks held.
            out.cells_mut()[id] = unsafe { *self.cells[id].get() };
        }
        drop(guards);
        out
    }
}

/// Lock-free backend: each cell is an `AtomicU64` holding f64 bits;
/// updates are compare-and-swap loops applying the group op.
pub struct AtomicCells {
    layout: Arc<RObjLayout>,
    cells: Vec<AtomicU64>,
}

impl AtomicCells {
    /// Allocate with every cell at its group identity.
    pub fn alloc(layout: Arc<RObjLayout>) -> AtomicCells {
        let cells = layout
            .initial_cells()
            .into_iter()
            .map(|x| AtomicU64::new(x.to_bits()))
            .collect();
        AtomicCells { layout, cells }
    }

    /// CAS-loop the group op into one cell.
    #[inline]
    pub fn accumulate(&self, group: usize, index: usize, value: f64) {
        let id = self.layout.cell_id(group, index);
        let op = &self.layout.group(group).op;
        let cell = &self.cells[id];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = op.apply(f64::from_bits(cur), value).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomically read one cell.
    #[inline]
    pub fn get(&self, group: usize, index: usize) -> f64 {
        f64::from_bits(self.cells[self.layout.cell_id(group, index)].load(Ordering::Acquire))
    }

    /// Materialise the shared state into a plain [`ReductionObject`].
    pub fn snapshot(&self) -> ReductionObject {
        let mut out = ReductionObject::alloc(self.layout.clone());
        for (id, cell) in self.cells.iter().enumerate() {
            out.cells_mut()[id] = f64::from_bits(cell.load(Ordering::Acquire));
        }
        out
    }
}

/// Type-erased shared backend selected by the engine from the
/// [`SyncScheme`]. (Full replication does not appear here: it hands each
/// worker a private [`ReductionObject`] instead.)
pub enum SharedCells {
    /// One lock per cell.
    Locked(LockedCells),
    /// Striped locks.
    Striped(StripedCells),
    /// CAS updates.
    Atomic(AtomicCells),
}

impl SharedCells {
    /// Allocate the backend matching `scheme`. Returns `None` for
    /// [`SyncScheme::FullReplication`], which uses private copies.
    pub fn for_scheme(scheme: SyncScheme, layout: &Arc<RObjLayout>) -> Option<SharedCells> {
        match scheme {
            SyncScheme::FullReplication => None,
            SyncScheme::FullLocking => {
                Some(SharedCells::Locked(LockedCells::alloc(layout.clone())))
            }
            SyncScheme::BucketLocking { stripes } => Some(SharedCells::Striped(
                StripedCells::alloc(layout.clone(), stripes),
            )),
            SyncScheme::Atomic => Some(SharedCells::Atomic(AtomicCells::alloc(layout.clone()))),
            // The shared half of a hybrid plan: the backend is allocated
            // full-size, but workers only route non-replicated regions
            // here, so replicated regions stay at their identities and
            // merge as no-ops during combination.
            SyncScheme::Hybrid { stripes, .. } => Some(SharedCells::Striped(StripedCells::alloc(
                layout.clone(),
                stripes,
            ))),
        }
    }

    /// Fold a value into one cell.
    #[inline]
    pub fn accumulate(&self, group: usize, index: usize, value: f64) {
        match self {
            SharedCells::Locked(c) => c.accumulate(group, index, value),
            SharedCells::Striped(c) => c.accumulate(group, index, value),
            SharedCells::Atomic(c) => c.accumulate(group, index, value),
        }
    }

    /// Read one cell.
    #[inline]
    pub fn get(&self, group: usize, index: usize) -> f64 {
        match self {
            SharedCells::Locked(c) => c.get(group, index),
            SharedCells::Striped(c) => c.get(group, index),
            SharedCells::Atomic(c) => c.get(group, index),
        }
    }

    /// Materialise into a plain [`ReductionObject`].
    pub fn snapshot(&self) -> ReductionObject {
        match self {
            SharedCells::Locked(c) => c.snapshot(),
            SharedCells::Striped(c) => c.snapshot(),
            SharedCells::Atomic(c) => c.snapshot(),
        }
    }
}

/// A handle over a shared backend, so user kernels written against
/// [`RObjHandle`] run unchanged under shared schemes.
pub struct SharedHandle<'a> {
    backend: &'a SharedCells,
}

impl<'a> SharedHandle<'a> {
    /// Wrap a shared backend.
    pub fn new(backend: &'a SharedCells) -> SharedHandle<'a> {
        SharedHandle { backend }
    }
}

impl RObjHandle for SharedHandle<'_> {
    #[inline]
    fn accumulate(&mut self, group: usize, index: usize, value: f64) {
        self.backend.accumulate(group, index, value);
    }
    #[inline]
    fn get(&self, group: usize, index: usize) -> f64 {
        self.backend.get(group, index)
    }
}

/// One worker's view under [`SyncScheme::Hybrid`]: updates to replicated
/// regions go to the worker's private copy (no synchronisation), updates
/// to everything else go to the shared bucket-locked backend. The
/// private copies are merged into the shared snapshot during local
/// combination; since each side only ever touches its own regions, the
/// other side's cells stay at their group identities and merge as
/// no-ops.
pub struct HybridHandle<'a, 'b> {
    private: &'a mut ReductionObject,
    shared: &'b SharedCells,
    region_cells: usize,
    replicated: u64,
}

impl<'a, 'b> HybridHandle<'a, 'b> {
    /// Wrap a worker's private copy and the shared backend with the
    /// region map of `scheme`. A non-hybrid scheme yields an all-shared
    /// routing (correct, just never constructed by the engine).
    pub fn new(
        private: &'a mut ReductionObject,
        shared: &'b SharedCells,
        scheme: SyncScheme,
    ) -> HybridHandle<'a, 'b> {
        let (region_cells, replicated) = match scheme {
            SyncScheme::Hybrid {
                region_cells,
                replicated,
                ..
            } => (region_cells.max(1), replicated),
            _ => (1, 0),
        };
        HybridHandle {
            private,
            shared,
            region_cells,
            replicated,
        }
    }

    #[inline]
    fn is_replicated(&self, group: usize, index: usize) -> bool {
        let id = self.private.layout().cell_id(group, index);
        let region = (id / self.region_cells).min(63);
        (self.replicated >> region) & 1 == 1
    }
}

impl RObjHandle for HybridHandle<'_, '_> {
    #[inline]
    fn accumulate(&mut self, group: usize, index: usize, value: f64) {
        if self.is_replicated(group, index) {
            self.private.accumulate(group, index, value);
        } else {
            self.shared.accumulate(group, index, value);
        }
    }
    #[inline]
    fn get(&self, group: usize, index: usize) -> f64 {
        if self.is_replicated(group, index) {
            self.private.get(group, index)
        } else {
            self.shared.get(group, index)
        }
    }
}

#[cfg(test)]
mod sync_tests {
    use super::*;
    use crate::robj::{CombineOp, GroupSpec};

    fn layout() -> Arc<RObjLayout> {
        RObjLayout::new(vec![
            GroupSpec::new("sum", 8, CombineOp::Sum),
            GroupSpec::new("min", 8, CombineOp::Min),
        ])
    }

    fn hammer(backend: &SharedCells, threads: usize, per_thread: usize) {
        crossbeam::thread::scope(|s| {
            for t in 0..threads {
                let backend = &backend;
                s.spawn(move |_| {
                    for i in 0..per_thread {
                        backend.accumulate(0, (t + i) % 8, 1.0);
                        backend.accumulate(1, i % 8, (t * per_thread + i) as f64);
                    }
                });
            }
        })
        .unwrap();
    }

    fn check_counts(snap: &ReductionObject, threads: usize, per_thread: usize) {
        let total: f64 = snap.group_slice(0).iter().sum();
        assert_eq!(total, (threads * per_thread) as f64);
        // Min group: the global minimum over all accumulated values is 0
        // (thread 0, i = 0 hits index 0).
        assert_eq!(snap.get(1, 0), 0.0);
    }

    #[test]
    fn full_locking_concurrent_sums() {
        let b = SharedCells::for_scheme(SyncScheme::FullLocking, &layout()).unwrap();
        hammer(&b, 4, 1000);
        check_counts(&b.snapshot(), 4, 1000);
    }

    #[test]
    fn bucket_locking_concurrent_sums() {
        let b =
            SharedCells::for_scheme(SyncScheme::BucketLocking { stripes: 3 }, &layout()).unwrap();
        hammer(&b, 4, 1000);
        check_counts(&b.snapshot(), 4, 1000);
    }

    #[test]
    fn atomic_concurrent_sums() {
        let b = SharedCells::for_scheme(SyncScheme::Atomic, &layout()).unwrap();
        hammer(&b, 4, 1000);
        check_counts(&b.snapshot(), 4, 1000);
    }

    #[test]
    fn full_replication_returns_no_backend() {
        assert!(SharedCells::for_scheme(SyncScheme::FullReplication, &layout()).is_none());
    }

    #[test]
    fn all_schemes_agree_with_sequential() {
        let seq = {
            let mut r = ReductionObject::alloc(layout());
            for t in 0..4usize {
                for i in 0..500usize {
                    r.accumulate(0, (t + i) % 8, 1.0);
                    r.accumulate(1, i % 8, (t * 500 + i) as f64);
                }
            }
            r
        };
        for scheme in [
            SyncScheme::FullLocking,
            SyncScheme::BucketLocking { stripes: 5 },
            SyncScheme::Atomic,
        ] {
            let b = SharedCells::for_scheme(scheme, &layout()).unwrap();
            hammer(&b, 4, 500);
            let snap = b.snapshot();
            assert_eq!(snap.cells(), seq.cells(), "{scheme:?}");
        }
    }

    #[test]
    fn shared_handle_is_an_robj_handle() {
        let b = SharedCells::for_scheme(SyncScheme::Atomic, &layout()).unwrap();
        let mut h = SharedHandle::new(&b);
        h.accumulate(0, 0, 2.5);
        assert_eq!(h.get(0, 0), 2.5);
    }

    #[test]
    fn only_a_private_copy_lends_its_cells() {
        let mut private = ReductionObject::alloc(layout());
        let lent = private.lend().expect("a private copy lends");
        assert_eq!(lent.cells.len(), 16);
        assert_eq!(lent.layout.offsets(), &[0, 8]);
        let shared = SharedCells::for_scheme(SyncScheme::Atomic, &layout()).unwrap();
        assert!(SharedHandle::new(&shared).lend().is_none());
        let scheme = SyncScheme::Hybrid {
            region_cells: 4,
            replicated: 0b01,
            stripes: 2,
        };
        let striped = SharedCells::for_scheme(scheme, &layout()).unwrap();
        let mut hybrid_private = ReductionObject::alloc(layout());
        assert!(HybridHandle::new(&mut hybrid_private, &striped, scheme)
            .lend()
            .is_none());
    }

    #[test]
    fn accumulator_lent_and_handle_paths_agree() {
        let updates = |acc: &mut Accumulator<'_>| {
            for i in 0..40usize {
                acc.accumulate(0, i % 8, i as f64 * 0.5);
                acc.accumulate(1, (i * 3) % 8, 100.0 - i as f64);
            }
        };
        let mut lent = ReductionObject::alloc(layout());
        let mut acc = Accumulator::new(&mut lent);
        assert!(matches!(acc, Accumulator::Lent(_)));
        updates(&mut acc);

        let shared = SharedCells::for_scheme(SyncScheme::FullLocking, &layout()).unwrap();
        let mut handle = SharedHandle::new(&shared);
        let mut acc = Accumulator::new(&mut handle);
        assert!(matches!(acc, Accumulator::Handle(_)));
        updates(&mut acc);
        assert_eq!(lent.cells(), shared.snapshot().cells());
    }

    #[test]
    fn striped_single_stripe_still_correct() {
        let b =
            SharedCells::for_scheme(SyncScheme::BucketLocking { stripes: 1 }, &layout()).unwrap();
        hammer(&b, 2, 200);
        check_counts(&b.snapshot(), 2, 200);
    }
}
