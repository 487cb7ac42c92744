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

use parking_lot::Mutex;

use crate::robj::{LentCells, RObjLayout, ReductionObject};

/// A value padded and aligned to 128 bytes, so neighbouring locks never
/// share a cache line (false-sharing avoidance).
#[repr(align(128))]
struct CachePadded<T>(T);

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
            .map(|x| CachePadded(Mutex::new(x)))
            .collect();
        LockedCells { layout, cells }
    }

    /// Apply the group op to one cell under its lock.
    #[inline]
    pub fn accumulate(&self, group: usize, index: usize, value: f64) {
        let (id, op) = self.layout.locate(group, index);
        let mut cell = self.cells[id].0.lock();
        *cell = op.apply(*cell, value);
    }

    /// Read one cell under its lock.
    #[inline]
    pub fn get(&self, group: usize, index: usize) -> f64 {
        *self.cells[self.layout.cell_id(group, index)].0.lock()
    }

    /// Materialise the shared state into a plain [`ReductionObject`].
    pub fn snapshot(&self) -> ReductionObject {
        let mut out = ReductionObject::alloc(self.layout.clone());
        for (id, cell) in self.cells.iter().enumerate() {
            out.cells_mut()[id] = *cell.0.lock();
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
        let locks = (0..stripes).map(|_| CachePadded(Mutex::new(()))).collect();
        StripedCells {
            layout,
            locks,
            cells,
        }
    }

    #[inline]
    fn stripe(&self, id: usize) -> &Mutex<()> {
        &self.locks[id % self.locks.len()].0
    }

    /// Apply the group op to one cell under its stripe lock.
    #[inline]
    pub fn accumulate(&self, group: usize, index: usize, value: f64) {
        let (id, op) = self.layout.locate(group, index);
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
        let guards: Vec<_> = self.locks.iter().map(|l| l.0.lock()).collect();
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
        let (id, op) = self.layout.locate(group, index);
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
    private: LentCells<'a>,
    shared: &'b SharedCells,
    region_cells: usize,
    replicated: u64,
}

impl<'a, 'b> HybridHandle<'a, 'b> {
    /// Wrap a worker's lent private cells and the shared backend with
    /// the region map of `scheme`. A non-hybrid scheme yields an all-shared
    /// routing (correct, just never constructed by the engine).
    pub fn new(
        private: LentCells<'a>,
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
    fn is_replicated(&self, id: usize) -> bool {
        let region = (id / self.region_cells).min(63);
        (self.replicated >> region) & 1 == 1
    }
}

impl RObjHandle for HybridHandle<'_, '_> {
    #[inline]
    fn accumulate(&mut self, group: usize, index: usize, value: f64) {
        let (id, op) = self.private.layout.locate(group, index);
        if self.is_replicated(id) {
            let cells = &mut self.private.cells;
            cells[id] = op.apply(cells[id], value);
        } else {
            self.shared.accumulate(group, index, value);
        }
    }
    #[inline]
    fn get(&self, group: usize, index: usize) -> f64 {
        let (id, _) = self.private.layout.locate(group, index);
        if self.is_replicated(id) {
            self.private.cells[id]
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
        std::thread::scope(|s| {
            for t in 0..threads {
                let backend = &backend;
                s.spawn(move || {
                    for i in 0..per_thread {
                        backend.accumulate(0, (t + i) % 8, 1.0);
                        backend.accumulate(1, i % 8, (t * per_thread + i) as f64);
                    }
                });
            }
        });
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
        let mut lent = private.lend();
        assert_eq!(lent.cells.len(), 16);
        assert_eq!(lent.layout.offsets(), &[0, 8]);
        // The lent cells are themselves the handle, and lend again.
        let handle: &mut dyn RObjHandle = &mut lent;
        handle.accumulate(1, 2, -4.0);
        assert_eq!(handle.lend().expect("lent cells lend").cells[10], -4.0);
        assert_eq!(private.get(1, 2), -4.0);
        let shared = SharedCells::for_scheme(SyncScheme::Atomic, &layout()).unwrap();
        assert!(SharedHandle::new(&shared).lend().is_none());
        let scheme = SyncScheme::Hybrid {
            region_cells: 4,
            replicated: 0b01,
            stripes: 2,
        };
        let striped = SharedCells::for_scheme(scheme, &layout()).unwrap();
        let mut hybrid_private = ReductionObject::alloc(layout());
        assert!(HybridHandle::new(hybrid_private.lend(), &striped, scheme)
            .lend()
            .is_none());
    }

    fn every_scheme() -> [SyncScheme; 5] {
        [
            SyncScheme::FullReplication,
            SyncScheme::FullLocking,
            SyncScheme::BucketLocking { stripes: 3 },
            SyncScheme::Atomic,
            SyncScheme::Hybrid {
                region_cells: 4,
                replicated: 0b0101,
                stripes: 2,
            },
        ]
    }

    /// Every update path the engine can hand a kernel — each scheme's
    /// handle, threaded or sequential, 1 or 3 threads, rows from memory,
    /// a file or a source — folds bit-identically to a sequential
    /// `ReductionObject::accumulate` over one group of each op. Rows
    /// hold small integers, so no result depends on claim order.
    #[test]
    fn every_update_path_matches_a_sequential_fold() {
        use crate::engine::{Engine, ExecMode, JobConfig, PassHooks, PassInput};
        use crate::source::{write_dataset, FileDataset};
        use crate::split::{DataView, Split};
        use freeride_io::{MemSource, RowSource};

        let absmax = CombineOp::Custom(Arc::new(|a: f64, b: f64| a.abs().max(b.abs())));
        let layout = RObjLayout::new(vec![
            GroupSpec::new("sum", 3, CombineOp::Sum),
            GroupSpec::new("min", 2, CombineOp::Min),
            GroupSpec::new("max", 2, CombineOp::Max),
            GroupSpec::new("product", 2, CombineOp::Product),
            GroupSpec::new("absmax", 2, absmax),
        ]);
        let fold = |row: &[f64], robj: &mut dyn RObjHandle| {
            let (a, b) = (row[0], row[1]);
            let key = a as usize;
            robj.accumulate(0, key % 3, a + b);
            robj.accumulate(1, key % 2, b);
            robj.accumulate(2, key % 2, b);
            // ±1 and ±2 only: every product stays an exact power of two.
            robj.accumulate(3, key % 2, if key % 5 == 0 { -2.0 } else { 1.0 });
            robj.accumulate(4, key % 2, b);
        };
        let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                fold(row, robj);
            }
        };
        let rows = 240;
        let raw: Vec<f64> = (0..rows)
            .flat_map(|i| [i as f64, ((i * 37) % 101) as f64 - 50.0])
            .collect();
        let mut expect = ReductionObject::alloc(layout.clone());
        for row in raw.chunks(2) {
            expect.accumulate(0, row[0] as usize % 3, row[0] + row[1]);
            expect.accumulate(1, row[0] as usize % 2, row[1]);
            expect.accumulate(2, row[0] as usize % 2, row[1]);
            let factor = if row[0] as usize % 5 == 0 { -2.0 } else { 1.0 };
            expect.accumulate(3, row[0] as usize % 2, factor);
            expect.accumulate(4, row[0] as usize % 2, row[1]);
        }

        let mut path = std::env::temp_dir();
        path.push(format!("freeride-update-paths-{}.frds", std::process::id()));
        write_dataset(&path, 2, &raw).unwrap();
        let file = FileDataset::open(&path).unwrap();
        let view = DataView::new(&raw, 2).unwrap();
        let source: Arc<dyn RowSource> = Arc::new(MemSource::new(raw.clone(), 2).unwrap());
        for scheme in every_scheme() {
            for exec in [ExecMode::Threads, ExecMode::Sequential] {
                for threads in [1usize, 3] {
                    let engine = Engine::new(JobConfig {
                        threads,
                        scheme,
                        exec,
                        ..Default::default()
                    });
                    let inputs = [
                        ("rows", PassInput::Rows(view)),
                        (
                            "file",
                            PassInput::File {
                                file: &file,
                                first_row: 0,
                                rows,
                            },
                        ),
                        (
                            "source",
                            PassInput::Source {
                                source: &source,
                                first_row: 0,
                                rows,
                            },
                        ),
                    ];
                    for (kind, input) in inputs {
                        let out = engine
                            .run_pass(input, &layout, &kernel, PassHooks::default())
                            .unwrap();
                        let bits = |r: &ReductionObject| -> Vec<u64> {
                            r.cells().iter().map(|c| c.to_bits()).collect()
                        };
                        assert_eq!(
                            bits(&out.robj),
                            bits(&expect),
                            "{kind} {scheme:?} {exec:?} t={threads}"
                        );
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// An index one past its group's end panics under every scheme, in
    /// release builds too, and never reaches the next group's cells.
    #[test]
    fn an_index_past_its_group_panics_and_spares_the_next_group() {
        use crate::engine::{Engine, JobConfig};
        use crate::split::{DataView, Split};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicUsize;

        let raw: Vec<f64> = (0..40).map(f64::from).collect();
        let view = DataView::new(&raw, 1).unwrap();
        for scheme in every_scheme() {
            let engine = Engine::new(JobConfig {
                threads: 2,
                scheme,
                ..Default::default()
            });
            let past_end = |_: &Split<'_>, robj: &mut dyn RObjHandle| robj.accumulate(0, 8, 5.0);
            let pass = catch_unwind(AssertUnwindSafe(|| engine.run(view, &layout(), &past_end)));
            assert!(pass.is_err(), "{scheme:?}: the pass must panic");

            // The same write, caught per update: the pass completes and
            // group 1 is still at its identity.
            let refused = AtomicUsize::new(0);
            let caught = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
                for _ in split.iter_rows() {
                    let write = catch_unwind(AssertUnwindSafe(|| robj.accumulate(0, 8, 5.0)));
                    if write.is_err() {
                        refused.fetch_add(1, Ordering::Relaxed);
                    }
                }
            };
            let out = engine.run(view, &layout(), &caught);
            assert_eq!(refused.into_inner(), raw.len(), "{scheme:?}");
            assert!(
                out.robj.group_slice(1).iter().all(|&c| c == f64::INFINITY),
                "{scheme:?}: group 1 changed: {:?}",
                out.robj.group_slice(1)
            );
        }
    }

    #[test]
    fn striped_single_stripe_still_correct() {
        let b =
            SharedCells::for_scheme(SyncScheme::BucketLocking { stripes: 1 }, &layout()).unwrap();
        hammer(&b, 2, 200);
        check_counts(&b.snapshot(), 2, 200);
    }
}
