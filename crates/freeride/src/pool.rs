//! Persistent worker pool for the FREERIDE engine.
//!
//! The paper's processing structure is an *outer sequential loop* around
//! the reduction loop, and the original FREERIDE middleware keeps its
//! pthreads alive across passes. Spawning `threads` OS threads per
//! [`Engine::run`](crate::Engine::run) call therefore pays a cost the
//! system being reproduced never paid — and pays it once per iteration
//! in exactly the thread-scaling measurements (Figures 9–13) the
//! reproduction exists to pin. This module provides the persistent
//! replacement: workers are created once, then parked on a condition
//! variable between reduction passes.
//!
//! # Dispatch protocol
//!
//! The pool state holds an **epoch counter** and the current job (a
//! type-erased `Fn(worker_index)` borrow). A dispatch:
//!
//! 1. takes the dispatch lock (one job at a time pool-wide),
//! 2. bumps the epoch, stores the job and the number of *active*
//!    workers, and wakes everyone via the work condvar,
//! 3. blocks on the done condvar until every active worker has finished
//!    the epoch.
//!
//! Each worker parks until it observes a fresh epoch. Workers with
//! index `>= active` skip the epoch and park again — a pool that has
//! grown to 8 workers can serve a 3-thread job with exactly 3
//! participants, so a job's reduction-object replication count is its
//! thread count, never the pool's size. Because `dispatch` does not
//! return until `remaining == 0`, the job closure may safely borrow
//! the caller's stack (the `'static` transmute below is the classic
//! scoped-pool argument: the borrow cannot outlive the blocked caller).
//!
//! A worker panic is caught, recorded, and surfaced by `dispatch` as a
//! panic on the calling thread after the pass drains.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::sync::unpoisoned;

/// A borrowed job, lifetime-erased for storage in the shared state.
/// Sound because [`WorkerPool::dispatch`] blocks until all active
/// workers are done with it (see module docs).
#[derive(Clone, Copy)]
struct Job(&'static (dyn Fn(usize) + Sync));

struct PoolState {
    /// Incremented per dispatch; workers detect new work by comparing
    /// against the last epoch they served.
    epoch: u64,
    /// Workers participating in the current epoch (indices `0..active`).
    active: usize,
    /// Active workers that have not yet finished the current epoch.
    remaining: usize,
    /// The current pass's work closure (present while `remaining > 0`).
    job: Option<Job>,
    /// Set by `Drop`; workers exit their loop when they observe it.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a new epoch (or shutdown) is published.
    work_cv: Condvar,
    /// Signalled by the last active worker of an epoch.
    done_cv: Condvar,
    /// A worker panicked during the current epoch.
    panicked: AtomicBool,
    /// Parking episodes: a worker blocking on `work_cv` counts once per
    /// episode, however many spurious wakeups it absorbs.
    parks_total: AtomicUsize,
    /// Parked workers woken into a job they participate in.
    wakes_total: AtomicUsize,
}

/// A persistent pool of parked OS worker threads (see module docs).
///
/// Created empty; [`ensure_workers`](WorkerPool::ensure_workers) grows
/// it on demand and it never shrinks until dropped. Cloning the owning
/// [`Engine`](crate::Engine) shares one pool via `Arc`, so an engine
/// cloned per benchmark iteration still spawns each worker once.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes dispatches; the job slot holds one job at a time.
    dispatch_lock: Mutex<()>,
    spawned_total: AtomicUsize,
    dispatches_total: AtomicUsize,
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Create an empty pool; no threads are spawned until
    /// [`ensure_workers`](WorkerPool::ensure_workers).
    pub fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    active: 0,
                    remaining: 0,
                    job: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                panicked: AtomicBool::new(false),
                parks_total: AtomicUsize::new(0),
                wakes_total: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
            dispatch_lock: Mutex::new(()),
            spawned_total: AtomicUsize::new(0),
            dispatches_total: AtomicUsize::new(0),
        }
    }

    /// Grow the pool to at least `n` workers. Returns how many OS
    /// threads were spawned by this call (0 once warm).
    pub fn ensure_workers(&self, n: usize) -> usize {
        let mut handles = unpoisoned(self.handles.lock());
        let have = handles.len();
        if have >= n {
            return 0;
        }
        for index in have..n {
            let shared = self.shared.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("freeride-worker-{index}"))
                    .spawn(move || worker_loop(index, shared))
                    .expect("spawn pool worker"),
            );
        }
        let newly = n - have;
        self.spawned_total.fetch_add(newly, Ordering::Relaxed);
        newly
    }

    /// Current number of live workers.
    pub fn workers(&self) -> usize {
        unpoisoned(self.handles.lock()).len()
    }

    /// OS threads spawned over the pool's lifetime.
    pub fn total_spawned(&self) -> usize {
        self.spawned_total.load(Ordering::Relaxed)
    }

    /// Reduction passes dispatched over the pool's lifetime.
    pub fn total_dispatches(&self) -> usize {
        self.dispatches_total.load(Ordering::Relaxed)
    }

    /// Worker parking episodes over the pool's lifetime (one per stretch
    /// a worker spends blocked on the work condvar).
    pub fn total_parks(&self) -> usize {
        self.shared.parks_total.load(Ordering::Relaxed)
    }

    /// Times a parked worker was woken into a pass it participated in.
    pub fn total_wakes(&self) -> usize {
        self.shared.wakes_total.load(Ordering::Relaxed)
    }

    /// Run `job(worker_index)` on workers `0..active` and block until
    /// all of them return. Panics if a worker panicked (after the pass
    /// drains).
    ///
    /// Callers must have grown the pool to at least `active` workers.
    pub fn dispatch(&self, active: usize, job: &(dyn Fn(usize) + Sync)) {
        if active == 0 {
            return;
        }
        debug_assert!(self.workers() >= active, "pool not grown before dispatch");
        let _serialize = unpoisoned(self.dispatch_lock.lock());
        self.dispatches_total.fetch_add(1, Ordering::Relaxed);

        // SAFETY: the borrow is only reachable through `PoolState.job`,
        // which is cleared before this function returns, and we block
        // until every worker that loaded it has finished running it.
        let job: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
        {
            let mut st = unpoisoned(self.shared.state.lock());
            st.epoch += 1;
            st.active = active;
            st.remaining = active;
            st.job = Some(Job(job));
            self.shared.work_cv.notify_all();
            while st.remaining > 0 {
                st = unpoisoned(self.shared.done_cv.wait(st));
            }
            st.job = None;
        }
        if self.shared.panicked.swap(false, Ordering::SeqCst) {
            panic!("worker thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = unpoisoned(self.shared.state.lock());
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *unpoisoned(self.handles.lock()));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("total_spawned", &self.total_spawned())
            .field("total_dispatches", &self.total_dispatches())
            .finish()
    }
}

fn worker_loop(index: usize, shared: Arc<PoolShared>) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = unpoisoned(shared.state.lock());
            let mut parked = false;
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if index < st.active {
                        // The job is present for the whole epoch: it is
                        // cleared only after `remaining` hits 0, and we
                        // have not decremented yet.
                        if parked {
                            shared.wakes_total.fetch_add(1, Ordering::Relaxed);
                        }
                        break st.job.expect("job present for live epoch");
                    }
                    // Not a participant this pass; park again.
                }
                if !parked {
                    parked = true;
                    shared.parks_total.fetch_add(1, Ordering::Relaxed);
                }
                st = unpoisoned(shared.work_cv.wait(st));
            }
        };
        if catch_unwind(AssertUnwindSafe(|| (job.0)(index))).is_err() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
        let mut st = unpoisoned(shared.state.lock());
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    #[test]
    fn spawns_once_and_reuses() {
        let pool = WorkerPool::new();
        assert_eq!(pool.ensure_workers(4), 4);
        assert_eq!(pool.ensure_workers(4), 0);
        assert_eq!(pool.ensure_workers(2), 0);
        assert_eq!(pool.ensure_workers(6), 2);
        assert_eq!(pool.total_spawned(), 6);
        assert_eq!(pool.workers(), 6);
    }

    #[test]
    fn dispatch_runs_exactly_active_workers() {
        let pool = WorkerPool::new();
        pool.ensure_workers(8);
        let hits = AtomicUsize::new(0);
        let mask = Mutex::new(vec![false; 8]);
        pool.dispatch(3, &|w| {
            hits.fetch_add(1, Ordering::SeqCst);
            unpoisoned(mask.lock())[w] = true;
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert_eq!(
            &*unpoisoned(mask.lock()),
            &[true, true, true, false, false, false, false, false]
        );
    }

    #[test]
    fn many_dispatches_reuse_threads() {
        let pool = WorkerPool::new();
        pool.ensure_workers(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.dispatch(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 400);
        assert_eq!(pool.total_spawned(), 4);
        assert_eq!(pool.total_dispatches(), 100);
    }

    #[test]
    fn borrows_caller_stack_safely() {
        let pool = WorkerPool::new();
        pool.ensure_workers(4);
        let local: Vec<usize> = (0..1000).collect();
        let sum = AtomicUsize::new(0);
        pool.dispatch(4, &|w| {
            let part: usize = local.iter().skip(w).step_by(4).sum();
            sum.fetch_add(part, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1000 * 999 / 2);
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        let pool = WorkerPool::new();
        pool.ensure_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(2, &|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "dispatch must re-panic");
        // The pool remains usable after a panicked pass.
        let ok = AtomicUsize::new(0);
        pool.dispatch(2, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn parks_and_wakes_are_counted() {
        let pool = WorkerPool::new();
        pool.ensure_workers(2);
        // Give both workers time to park before the first dispatch.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(pool.total_parks() >= 2, "idle workers must park");
        pool.dispatch(2, &|_| {});
        assert!(
            pool.total_wakes() >= 2,
            "parked workers woken into the pass"
        );
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new();
        pool.ensure_workers(3);
        pool.dispatch(3, &|_| {});
        drop(pool); // must not hang
    }
}
