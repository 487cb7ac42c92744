//! The FREERIDE execution engine.
//!
//! Implements the processing structure of the paper's Figure 4 (left):
//!
//! ```text
//! {* Outer Sequential Loop *}
//! While() {
//!    {* Reduction Loop *}
//!    Foreach(element e) {
//!       (i, val) = Process(e);
//!       RObj(i) = Reduce(RObj(i), val);
//!    }
//!    Global Reduction to Combine RObj
//! }
//! ```
//!
//! Each data element is processed *and reduced* before the next — there
//! is no intermediate (key, value) storage, no sort/group/shuffle. The
//! engine splits the 2-D data view across worker threads, hands each
//! worker a reduction-object handle appropriate to the configured
//! [`SyncScheme`], then runs the (local + global) combination phase and
//! the optional finalize step. The outer sequential loop is driven by
//! the caller (see `run` in a loop, or [`Engine::run_iterations`]).
//!
//! There is one pass ([`Engine::run_pass`]) whatever the input: rows
//! borrowed from memory, read split-by-split from a file, or streamed
//! through the chunk pipeline ([`PassInput`]). Only where a worker's
//! next split comes from differs; the worker loop, the combination
//! phase and the instrumentation are shared.
//!
//! Like the original FREERIDE middleware's persistent pthreads, worker
//! threads are created once per [`Engine`] and parked between reduction
//! passes (see [`crate::pool`]); iterative jobs pay the spawn cost only
//! on the first pass.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use freeride_io::{ChunkReader, RowSource};
use obs::{AttrValue, Recorder, Trace, TraceLevel};

use crate::kernel::{KernelBackend, SplitKernel};
use crate::pool::WorkerPool;
use crate::robj::{RObjLayout, ReductionObject};
use crate::source::FileDataset;
use crate::split::{DataView, Split, Splitter};
use crate::stats::{IoActivity, PhaseTimes, RunStats, SplitStat};
use crate::sync::{unpoisoned, SharedCells, SharedHandle, SyncScheme};
use crate::FreerideError;

/// Pairwise reduction-object combination (the paper's `combination_t`).
/// `None` selects the default combine (cell-wise group ops).
pub type CombinationFn = Arc<dyn Fn(&mut ReductionObject, &ReductionObject) + Send + Sync>;

/// Post-processing of the merged reduction object (`finalize_t`).
pub type FinalizeFn = Arc<dyn Fn(&mut ReductionObject) + Send + Sync>;

/// How worker execution is realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run on the engine's persistent worker pool (real parallel
    /// execution; workers are spawned once and reused across passes).
    Threads,
    /// Execute every split on the calling thread, recording per-split
    /// busy times for the modeled-scalability harness (DESIGN.md §5).
    /// Semantics are identical to `Threads`; the pool is bypassed
    /// entirely (no OS threads are ever spawned).
    Sequential,
}

/// How the engine reads disk-resident datasets (`run_file*` paths).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IoMode {
    /// Each worker synchronously reads its own statically cut split
    /// before reducing it — reads and reduction never overlap, and peak
    /// memory is one split per worker.
    #[default]
    Sync,
    /// Out-of-core pipeline (see the `freeride-io` crate): dedicated
    /// reader threads prefetch fixed-size row chunks into a recycled
    /// buffer pool while the workers reduce. Chunks are handed out
    /// dynamically in completion order (no static range partitioning),
    /// resident payload memory is exactly
    /// `buffers × chunk_rows × unit × 8` bytes, and the configured
    /// [`Splitter`] is bypassed (the chunk size *is* the split size).
    Streaming {
        /// Rows per chunk.
        chunk_rows: usize,
        /// Buffers in the recycled pool (2+ for read/compute overlap).
        buffers: usize,
        /// Reader threads issuing positioned reads.
        readers: usize,
    },
}

impl IoMode {
    /// Streaming with the `freeride-io` default shape (triple-buffered
    /// 4096-row chunks, two readers).
    pub fn streaming() -> IoMode {
        IoMode::from(freeride_io::StreamConfig::default())
    }

    /// Streaming sized to keep the resident chunk-buffer pool within
    /// `budget` for rows of `unit` slots, with `readers` reader threads.
    pub fn streaming_within(
        budget: freeride_io::MemoryBudget,
        unit: usize,
        readers: usize,
    ) -> IoMode {
        IoMode::from(freeride_io::config_within(budget, unit, readers))
    }

    /// The pipeline shape, when this mode streams.
    pub fn stream_config(&self) -> Option<freeride_io::StreamConfig> {
        match *self {
            IoMode::Sync => None,
            IoMode::Streaming {
                chunk_rows,
                buffers,
                readers,
            } => Some(freeride_io::StreamConfig {
                chunk_rows,
                buffers,
                readers,
            }),
        }
    }
}

impl From<freeride_io::StreamConfig> for IoMode {
    fn from(c: freeride_io::StreamConfig) -> IoMode {
        IoMode::Streaming {
            chunk_rows: c.chunk_rows,
            buffers: c.buffers,
            readers: c.readers,
        }
    }
}

/// Cell count from which the combination phase uses a parallel tree
/// merge ("if the size of the reduction object is large, both local
/// and global combination phases perform a parallel merge").
const PARALLEL_MERGE_CELLS: usize = 1 << 16;

/// Configuration of one reduction job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Logical thread count (`req_units` passed to the splitter).
    pub threads: usize,
    /// Shared-memory technique for reduction-object updates.
    pub scheme: SyncScheme,
    /// Work decomposition policy.
    pub splitter: Splitter,
    /// Real threads or instrumented sequential execution.
    pub exec: ExecMode,
    /// Tracing detail captured by the engine's [`Recorder`]:
    /// [`TraceLevel::Off`] records nothing (and the hot loop performs
    /// no extra clock reads), `Phases` records pass/combine/finalize
    /// spans (the `pass` span carries the pool and streaming-I/O
    /// figures), `Splits` adds one span per split on its
    /// worker's track.
    pub trace: TraceLevel,
    /// How disk-resident datasets are read (`run_file*` paths only;
    /// in-memory runs ignore it).
    pub io: IoMode,
    /// How *translated* jobs execute their kernel bytecode: the
    /// interpreted kernel VM (reference) or the native codegen escape
    /// hatch with automatic interpreter fallback. Manual closure
    /// kernels ignore it.
    pub backend: KernelBackend,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            threads: 1,
            scheme: SyncScheme::FullReplication,
            splitter: Splitter::Default,
            exec: ExecMode::Threads,
            trace: TraceLevel::Off,
            io: IoMode::Sync,
            backend: KernelBackend::Interpreted,
        }
    }
}

impl JobConfig {
    /// A full-replication job with `threads` real threads.
    pub fn with_threads(threads: usize) -> JobConfig {
        JobConfig {
            threads,
            ..Default::default()
        }
    }

    /// Instrumented sequential execution with `threads` *logical*
    /// threads (for modeled scalability).
    pub fn modeled(threads: usize) -> JobConfig {
        JobConfig {
            threads,
            exec: ExecMode::Sequential,
            ..Default::default()
        }
    }

    /// This configuration with tracing at `level`.
    pub fn traced(self, level: TraceLevel) -> JobConfig {
        JobConfig {
            trace: level,
            ..self
        }
    }
}

/// Result of one engine run: the merged, finalized reduction object plus
/// instrumentation.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The combined reduction object after finalize.
    pub robj: ReductionObject,
    /// Timing instrumentation.
    pub stats: RunStats,
}

/// What one reduction pass reads. File and source inputs name the
/// `first_row .. first_row + rows` **shard** of a shared dataset, so a
/// cluster node processes only its part without copying the file.
/// Splits are cut from the shard and carry absolute `first_row`, so
/// kernels that use row indices behave identically whether they see a
/// shard or the whole dataset, and results over a disjoint cover
/// combine (via [`ReductionObject::merge_from`] or the distributed
/// coordinator) to the whole-dataset result.
#[derive(Clone, Copy)]
pub enum PassInput<'a> {
    /// Rows borrowed from memory, cut by the configured [`Splitter`].
    Rows(DataView<'a>),
    /// A shard of a `.frds` file, read as `config.io` says: under
    /// [`IoMode::Sync`] each worker reads its own splits into a buffer
    /// it reuses (per-split timings include the read, so modeled
    /// scaling accounts for I/O); under [`IoMode::Streaming`] the file
    /// goes through the chunk pipeline like a `Source`.
    File {
        /// The dataset file.
        file: &'a FileDataset,
        /// First row of the shard.
        first_row: usize,
        /// Rows in the shard.
        rows: usize,
    },
    /// A shard of any [`RowSource`], always through the streaming chunk
    /// pipeline: reader threads prefetch chunks into a recycled buffer
    /// pool while the workers reduce, and chunks are handed out in
    /// completion order, so a slow read cannot straggle the pass. The
    /// pipeline shape comes from `config.io` (the `freeride-io`
    /// defaults when that says `Sync`).
    Source {
        /// The row source.
        source: &'a Arc<dyn RowSource>,
        /// First row of the shard.
        first_row: usize,
        /// Rows in the shard.
        rows: usize,
    },
}

/// The optional user functions of a pass (the paper's `combination_t`
/// and `finalize_t`); the default is the cell-wise group-op combine and
/// no finalize.
#[derive(Clone, Copy, Default)]
pub struct PassHooks<'a> {
    /// Pairwise combination of reduction-object copies.
    pub combination: Option<&'a CombinationFn>,
    /// Post-processing of the merged object.
    pub finalize: Option<&'a FinalizeFn>,
}

/// The FREERIDE engine. Holds the configuration plus a lazily grown
/// persistent [`WorkerPool`] and a span [`Recorder`]; clones share
/// both, so cloning an engine per pass still spawns each worker exactly
/// once and all passes land in one trace.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Job configuration used by [`Engine::run`].
    pub config: JobConfig,
    pool: Arc<WorkerPool>,
    recorder: Arc<Recorder>,
}

/// Per-run thread-accounting deltas against the shared pool's counters.
struct PoolCounters {
    spawned0: usize,
    dispatches0: usize,
    parks0: usize,
    wakes0: usize,
}

/// What one run consumed from the pool, for stats and `pass` attributes.
struct PoolDelta {
    spawned: usize,
    reuses: usize,
    dispatches: usize,
    parks: usize,
    wakes: usize,
}

impl PoolCounters {
    fn start(pool: &WorkerPool) -> PoolCounters {
        PoolCounters {
            spawned0: pool.total_spawned(),
            dispatches0: pool.total_dispatches(),
            parks0: pool.total_parks(),
            wakes0: pool.total_wakes(),
        }
    }

    /// Pool-usage delta for the run that began at `start`. A dispatch
    /// counts as a reuse when it required no new OS threads.
    fn finish(self, pool: &WorkerPool) -> PoolDelta {
        let spawned = pool.total_spawned() - self.spawned0;
        let dispatches = pool.total_dispatches() - self.dispatches0;
        let reuses = dispatches - usize::from(spawned > 0).min(dispatches);
        PoolDelta {
            spawned,
            reuses,
            dispatches,
            parks: pool.total_parks() - self.parks0,
            wakes: pool.total_wakes() - self.wakes0,
        }
    }
}

impl Engine {
    /// Create an engine with the given configuration. No worker threads
    /// are spawned until the first pooled run (or [`Engine::warmup`]).
    /// The engine owns a fresh [`Recorder`] at `config.trace`.
    pub fn new(config: JobConfig) -> Engine {
        let recorder = Arc::new(Recorder::new(config.trace));
        Engine {
            config,
            pool: Arc::new(WorkerPool::new()),
            recorder,
        }
    }

    /// Create an engine that records into a caller-supplied recorder —
    /// used by the translation pipeline so compiler-stage spans and
    /// engine spans share one timeline. The recorder's level wins over
    /// `config.trace`.
    pub fn with_recorder(mut config: JobConfig, recorder: Arc<Recorder>) -> Engine {
        config.trace = recorder.level();
        Engine {
            config,
            pool: Arc::new(WorkerPool::new()),
            recorder,
        }
    }

    /// Pre-spawn the pool's workers so the first pass does not pay the
    /// spawn cost inside its measurement. No-op unless the engine runs
    /// in [`ExecMode::Threads`]. Returns how many OS threads this call
    /// spawned (0 once warm) and emits a `pool.grow` event when that is
    /// non-zero.
    pub fn warmup(&self) -> usize {
        if !matches!(self.config.exec, ExecMode::Threads) {
            return 0;
        }
        let newly = self.pool.ensure_workers(self.config.threads.max(1));
        if newly > 0 {
            self.recorder.instant(
                TraceLevel::Phases,
                "pool.grow",
                "pool",
                0,
                vec![("threads_spawned", AttrValue::Int(newly as i64))],
            );
        }
        newly
    }

    /// The engine's persistent worker pool (shared across clones).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The engine's span recorder (shared across clones).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Take everything recorded so far as a [`Trace`] (empty at
    /// [`TraceLevel::Off`]). Later runs keep recording on the same
    /// timeline.
    pub fn drain_trace(&self) -> Trace {
        self.recorder.drain()
    }

    /// Run one reduction loop over `view` with the default combination.
    pub fn run<K>(&self, view: DataView<'_>, layout: &Arc<RObjLayout>, kernel: &K) -> JobOutcome
    where
        K: SplitKernel + ?Sized,
    {
        self.run_pass(PassInput::Rows(view), layout, kernel, PassHooks::default())
            .expect("an in-memory pass reads nothing that can fail")
    }

    /// Run one reduction loop over a whole **disk-resident** dataset
    /// with the default combination, read as `config.io` says.
    pub fn run_file<K>(
        &self,
        file: &FileDataset,
        layout: &Arc<RObjLayout>,
        kernel: &K,
    ) -> Result<JobOutcome, FreerideError>
    where
        K: SplitKernel + ?Sized,
    {
        let input = PassInput::File {
            file,
            first_row: 0,
            rows: file.rows(),
        };
        self.run_pass(input, layout, kernel, PassHooks::default())
    }

    /// Run one reduction pass: split `input`, reduce every split into
    /// the reduction object the configured [`SyncScheme`] calls for,
    /// combine, finalize. "The order in which data instances are read
    /// … is determined by the runtime system": workers claim splits
    /// from one shared feed until it drains.
    ///
    /// Errors propagate, never hang: a shard outside the dataset is
    /// rejected up front; on a failed read every worker stops claiming
    /// splits and the *first* error is returned in bounded time.
    pub fn run_pass<K>(
        &self,
        input: PassInput<'_>,
        layout: &Arc<RObjLayout>,
        kernel: &K,
        hooks: PassHooks<'_>,
    ) -> Result<JobOutcome, FreerideError>
    where
        K: SplitKernel + ?Sized,
    {
        let wall_start = Instant::now();
        let threads = self.config.threads.max(1);
        let scheme = self.config.scheme;
        let rec = &*self.recorder;
        let splits_on = rec.enabled(TraceLevel::Splits);
        let feed = self.open_feed(input, threads, splits_on)?;
        let counters = PoolCounters::start(&self.pool);

        let shared = SharedCells::for_scheme(scheme, layout);
        let collected: Mutex<Vec<ReductionObject>> = Mutex::new(Vec::with_capacity(threads));
        let stats: Mutex<Vec<SplitStat>> = Mutex::new(Vec::new());

        // A pool worker is one logical thread (`lanes == 1`). Under
        // `Sequential` the caller plays all of them: split `i` belongs
        // to logical thread `i % threads`, each with its own private
        // copy, so the later (timed) merge reflects the real
        // combination cost at this thread count.
        let worker = |w: usize, lanes: usize| {
            // Copies are built per dispatch: a pool worker serves many
            // passes, so per-pass state cannot be tied to thread birth.
            let mut locals: Vec<ReductionObject> = if scheme.worker_private() {
                (0..lanes)
                    .map(|_| ReductionObject::alloc(layout.clone()))
                    .collect()
            } else {
                Vec::new()
            };
            let mut my_stats = Vec::new();
            let mut held = Held::default();
            while let Some(claim) = feed.next(&mut held) {
                let lane = claim.seq % lanes;
                let local = locals.get_mut(lane);
                run_split_on(kernel, &claim.split, local, shared.as_ref(), scheme);
                my_stats.push(SplitStat {
                    split: claim.seq,
                    first_row: claim.split.first_row,
                    rows: claim.split.row_count,
                    nanos: claim.started.elapsed().as_nanos() as u64,
                    read_ns: claim.read_ns,
                    start_ns: if splits_on {
                        rec.offset_ns(claim.started)
                    } else {
                        0
                    },
                    os_worker: w,
                    logical_thread: w + lane,
                });
            }
            unpoisoned(collected.lock()).extend(locals);
            unpoisoned(stats.lock()).extend(my_stats);
        };
        match self.config.exec {
            ExecMode::Threads => {
                self.pool.ensure_workers(threads);
                self.pool.dispatch(threads, &|w| worker(w, 1));
            }
            ExecMode::Sequential => worker(0, threads),
        }

        let io = feed.finish()?;
        let (robj, combine_ns, finalize_ns) =
            self.combine_and_finalize(unpoisoned(collected.into_inner()), shared, layout, hooks);
        let mut splits = unpoisoned(stats.into_inner());
        splits.sort_by_key(|s| s.split);
        let delta = counters.finish(&self.pool);
        let wall_ns = wall_start.elapsed().as_nanos() as u64;
        self.record_pass_trace(wall_start, &splits, &delta, wall_ns, threads, io.as_ref());
        if self.recorder.enabled(TraceLevel::Phases) {
            kernel.record_pass(&self.recorder);
        }
        Ok(JobOutcome {
            robj,
            stats: RunStats {
                splits,
                phases: PhaseTimes {
                    combine_ns,
                    finalize_ns,
                    wall_ns,
                },
                logical_threads: threads,
                threads_spawned: delta.spawned,
                pool_reuses: delta.reuses,
                io: io.map_or_else(IoActivity::default, |io| IoActivity {
                    chunks: io.chunks,
                    bytes_read: io.bytes_read,
                    read_ns: io.read_ns,
                    stall_ns: io.stall_ns,
                    backpressure_ns: io.backpressure_ns,
                    pool_bytes: io.pool_bytes,
                }),
            },
        })
    }

    /// Check the input's shard against its dataset and open the feed
    /// the workers will claim splits from.
    fn open_feed<'a>(
        &self,
        input: PassInput<'a>,
        threads: usize,
        splits_on: bool,
    ) -> Result<Feed<'a>, FreerideError> {
        let (first_row, rows, total) = match input {
            PassInput::Rows(view) => (0, view.rows(), view.rows()),
            PassInput::File {
                file,
                first_row,
                rows,
            } => (first_row, rows, file.rows()),
            PassInput::Source {
                source,
                first_row,
                rows,
            } => (first_row, rows, source.rows()),
        };
        if first_row.checked_add(rows).is_none_or(|end| end > total) {
            return Err(FreerideError::BadDataset {
                reason: format!(
                    "shard {first_row}..{} exceeds {total} rows",
                    first_row.saturating_add(rows)
                ),
            });
        }
        // Ranges are cut from the shard (the weighted splitter needs
        // its position) and made absolute.
        let queue = || {
            let mut ranges = self.config.splitter.ranges_at(first_row, rows, threads);
            for r in &mut ranges {
                r.0 += first_row;
            }
            SplitQueue {
                ranges,
                next: AtomicUsize::new(0),
            }
        };
        let stream = |source: Arc<dyn RowSource>, shape: freeride_io::StreamConfig| {
            let unit = source.unit();
            // Reader tracks sit past the worker tracks in the trace;
            // spans are only recorded at Splits level, matching `split`
            // spans.
            let recorder = splits_on.then(|| self.recorder.clone());
            let reader = ChunkReader::spawn(source, first_row, rows, shape, recorder, threads);
            Feed::Stream { reader, unit }
        };
        let shape = self.config.io.stream_config();
        Ok(match (input, shape) {
            (PassInput::Rows(view), _) => Feed::View {
                view,
                queue: queue(),
            },
            (PassInput::File { file, .. }, None) => Feed::File {
                file,
                queue: queue(),
                abort: AtomicBool::new(false),
                failed: Mutex::new(None),
            },
            (PassInput::File { file, .. }, Some(shape)) => stream(file.row_source(), shape),
            (PassInput::Source { source, .. }, shape) => {
                stream(source.clone(), shape.unwrap_or_default())
            }
        })
    }

    /// The outer sequential loop: reduction passes `first_pass..iters`
    /// over `input` (`first_pass` is 0 for a fresh run, `c + 1` to
    /// resume after a checkpoint of completed pass `c`), `hooks`
    /// applied on every pass. After each pass `step` inspects the
    /// combined object and may mutate shared state for the next pass
    /// (e.g. new centroids), returning `false` to stop early; then
    /// `checkpoint` sees the same pass index and object — the place to
    /// persist a recovery point (e.g. via `freeride-dist`'s
    /// `CheckpointStore`). Returns the last outcome with stats
    /// accumulated across the passes run.
    ///
    /// Iteration is deterministic, so a resumed run recomputes exactly
    /// the passes the interrupted run would have — the caller must
    /// restore its own `step` state from the same checkpoint. A
    /// `first_pass` at or past `iters.max(1)` is
    /// [`FreerideError::BadResume`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_iterations<K>(
        &self,
        input: PassInput<'_>,
        layout: &Arc<RObjLayout>,
        first_pass: usize,
        iters: usize,
        kernel: &K,
        hooks: PassHooks<'_>,
        mut step: impl FnMut(usize, &ReductionObject) -> bool,
        mut checkpoint: impl FnMut(usize, &ReductionObject),
    ) -> Result<JobOutcome, FreerideError>
    where
        K: SplitKernel + ?Sized,
    {
        let iters = iters.max(1);
        if first_pass >= iters {
            return Err(FreerideError::BadResume { first_pass, iters });
        }
        let mut total = RunStats {
            logical_threads: self.config.threads,
            ..Default::default()
        };
        let mut pass = first_pass;
        loop {
            let mut outcome = self.run_pass(input, layout, kernel, hooks)?;
            total.absorb(&outcome.stats);
            let go_on = step(pass, &outcome.robj);
            checkpoint(pass, &outcome.robj);
            pass += 1;
            if !go_on || pass == iters {
                outcome.stats = total;
                return Ok(outcome);
            }
        }
    }

    /// Emit the trace events for one finished pass. The hot loops never
    /// touch the recorder: split spans are synthesized *post hoc* from
    /// the [`SplitStat`]s the workers recorded anyway (plus the
    /// `start_ns` stamp they take only when `Splits` tracing is on), so
    /// reconstruction via [`RunStats::from_trace`] is exact and a
    /// disabled trace costs the hot path nothing.
    fn record_pass_trace(
        &self,
        wall_start: Instant,
        splits: &[SplitStat],
        delta: &PoolDelta,
        wall_ns: u64,
        threads: usize,
        io: Option<&freeride_io::IoStats>,
    ) {
        let rec = &*self.recorder;
        // Job totals go to the hub, gated independently of the trace
        // level so a daemon can expose pass latency with span recording
        // off; the pass's own facts ride on its `pass` span below.
        let hub = rec.hub();
        if hub.is_enabled() {
            hub.add("engine.passes", 1);
            hub.add("engine.splits", splits.len() as i64);
            hub.observe("engine.pass_ns", wall_ns);
            if let Some(io) = io {
                hub.add("io.chunks", io.chunks as i64);
                hub.add("io.bytes_read", io.bytes_read as i64);
                hub.observe("io.pass_read_ns", io.read_ns);
                if wall_ns > 0 {
                    hub.gauge(
                        "io.bytes_per_sec",
                        io.bytes_read as f64 / (wall_ns as f64 / 1e9),
                    );
                }
            }
        }
        if !rec.enabled(TraceLevel::Phases) {
            return;
        }
        if rec.enabled(TraceLevel::Splits) {
            for s in splits {
                if s.read_ns > 0 {
                    rec.push_complete(
                        TraceLevel::Splits,
                        "split.read",
                        "io",
                        s.os_worker,
                        s.start_ns,
                        s.read_ns,
                        vec![
                            ("split", AttrValue::Int(s.split as i64)),
                            ("rows", AttrValue::Int(s.rows as i64)),
                        ],
                    );
                }
                rec.push_complete(
                    TraceLevel::Splits,
                    "split",
                    "engine",
                    s.os_worker,
                    s.start_ns + s.read_ns,
                    s.nanos - s.read_ns,
                    vec![
                        ("split", AttrValue::Int(s.split as i64)),
                        ("first_row", AttrValue::Int(s.first_row as i64)),
                        ("rows", AttrValue::Int(s.rows as i64)),
                        ("logical_thread", AttrValue::Int(s.logical_thread as i64)),
                        ("read_ns", AttrValue::Int(s.read_ns as i64)),
                    ],
                );
            }
        }
        let mut attrs = vec![
            ("splits", AttrValue::Int(splits.len() as i64)),
            ("threads", AttrValue::Int(threads as i64)),
            ("threads_spawned", AttrValue::Int(delta.spawned as i64)),
            ("dispatches", AttrValue::Int(delta.dispatches as i64)),
            ("reuses", AttrValue::Int(delta.reuses as i64)),
            ("parks", AttrValue::Int(delta.parks as i64)),
            ("wakes", AttrValue::Int(delta.wakes as i64)),
        ];
        if let Some(io) = io {
            attrs.extend([
                ("io_chunks", AttrValue::Int(io.chunks as i64)),
                ("io_bytes_read", AttrValue::Int(io.bytes_read as i64)),
                ("io_read_ns", AttrValue::Int(io.read_ns as i64)),
                ("io_stall_ns", AttrValue::Int(io.stall_ns as i64)),
                (
                    "io_backpressure_ns",
                    AttrValue::Int(io.backpressure_ns as i64),
                ),
                ("io_pool_bytes", AttrValue::Int(io.pool_bytes as i64)),
            ]);
        }
        rec.push_complete(
            TraceLevel::Phases,
            "pass",
            "engine",
            0,
            rec.offset_ns(wall_start),
            wall_ns,
            attrs,
        );
        if delta.spawned > 0 {
            rec.instant(
                TraceLevel::Phases,
                "pool.grow",
                "pool",
                0,
                vec![("threads_spawned", AttrValue::Int(delta.spawned as i64))],
            );
        }
    }

    /// Combination + finalize. Returns the object with the two phases'
    /// durations, ns.
    fn combine_and_finalize(
        &self,
        copies: Vec<ReductionObject>,
        shared: Option<SharedCells>,
        layout: &Arc<RObjLayout>,
        hooks: PassHooks<'_>,
    ) -> (ReductionObject, u64, u64) {
        let merged_copies = copies.len();
        let combine_start = Instant::now();
        // Shared schemes contribute a snapshot of the backend; under
        // `SyncScheme::Hybrid` the workers' private (replicated-region)
        // copies additionally join the merge — each side left the other
        // side's regions at their identities, so a plain merge is exact.
        let mut copies = copies;
        if let Some(backend) = &shared {
            copies.insert(0, backend.snapshot());
        }
        let mut robj = if copies.is_empty() {
            ReductionObject::alloc(layout.clone())
        } else if self.config.exec == ExecMode::Threads
            && layout.total_cells() >= PARALLEL_MERGE_CELLS
            && copies.len() > 2
        {
            self.pooled_tree_merge(copies, hooks.combination)
        } else {
            sequential_merge(copies, hooks.combination)
        };
        let combine_ns = combine_start.elapsed().as_nanos() as u64;

        let finalize_start = Instant::now();
        if let Some(f) = hooks.finalize {
            f(&mut robj);
        }
        let finalize_ns = finalize_start.elapsed().as_nanos() as u64;

        // Span timestamps reuse the Instants already taken for the
        // stats, so trace and RunStats agree to the nanosecond.
        let rec = &*self.recorder;
        if !rec.enabled(TraceLevel::Phases) {
            return (robj, combine_ns, finalize_ns);
        }
        rec.push_complete(
            TraceLevel::Phases,
            "combine",
            "engine",
            0,
            rec.offset_ns(combine_start),
            combine_ns,
            vec![("copies", AttrValue::Int(merged_copies as i64))],
        );
        rec.push_complete(
            TraceLevel::Phases,
            "finalize",
            "engine",
            0,
            rec.offset_ns(finalize_start),
            finalize_ns,
            Vec::new(),
        );
        (robj, combine_ns, finalize_ns)
    }

    /// Parallel tree merge on the persistent pool: each round merges
    /// pairs concurrently via one pool dispatch (no extra threads).
    fn pooled_tree_merge(
        &self,
        mut copies: Vec<ReductionObject>,
        combination: Option<&CombinationFn>,
    ) -> ReductionObject {
        let workers = self.pool.workers().max(1);
        while copies.len() > 1 {
            let odd = if copies.len() % 2 == 1 {
                copies.pop()
            } else {
                None
            };
            let pairs: Vec<Mutex<Option<(ReductionObject, ReductionObject)>>> = {
                let mut it = copies.into_iter();
                let mut v = Vec::new();
                while let (Some(a), Some(b)) = (it.next(), it.next()) {
                    v.push(Mutex::new(Some((a, b))));
                }
                v
            };
            let merged: Mutex<Vec<ReductionObject>> = Mutex::new(Vec::with_capacity(pairs.len()));
            let next = AtomicUsize::new(0);
            let active = workers.min(pairs.len());
            self.pool.dispatch(active, &|_w| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= pairs.len() {
                    break;
                }
                let (mut a, b) = unpoisoned(pairs[i].lock())
                    .take()
                    .expect("pair claimed once");
                match combination {
                    Some(f) => f(&mut a, &b),
                    None => a.merge_from(&b),
                }
                unpoisoned(merged.lock()).push(a);
            });
            let mut round = unpoisoned(merged.into_inner());
            round.extend(odd);
            copies = round;
        }
        copies.pop().expect("non-empty copies")
    }
}

/// Where a pass's splits come from. `View` and `File` hand out a queue
/// of statically cut ranges; `Stream` hands out the chunk pipeline's
/// chunks as they complete (the chunk size *is* the split size, the
/// configured [`Splitter`] is bypassed).
enum Feed<'a> {
    View {
        view: DataView<'a>,
        queue: SplitQueue,
    },
    File {
        file: &'a FileDataset,
        queue: SplitQueue,
        /// Raised by the first failed read: no worker claims again.
        abort: AtomicBool,
        failed: Mutex<Option<FreerideError>>,
    },
    Stream {
        reader: ChunkReader,
        unit: usize,
    },
}

/// Absolute `(first_row, row_count)` ranges, claimed in order.
struct SplitQueue {
    ranges: Vec<(usize, usize)>,
    next: AtomicUsize,
}

impl SplitQueue {
    fn claim(&self) -> Option<(usize, usize, usize)> {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let &(first, count) = self.ranges.get(seq)?;
        Some((seq, first, count))
    }
}

/// A worker's hold on the rows of its current split: the read buffer
/// (one per worker, reused across every split it reads — no per-split
/// allocation churn) or the chunk to recycle at the next claim.
#[derive(Default)]
struct Held {
    buf: Vec<f64>,
    chunk: Option<freeride_io::Chunk>,
}

/// One claimed split, timed from `started` (which precedes a sync read
/// and follows a streamed one — that read ran on a reader track).
struct Claim<'s> {
    seq: usize,
    split: Split<'s>,
    started: Instant,
    read_ns: u64,
}

impl Feed<'_> {
    /// Claim the next split for the worker holding `held`; `None` once
    /// the input is drained or a read has failed.
    fn next<'s>(&'s self, held: &'s mut Held) -> Option<Claim<'s>> {
        match self {
            Feed::View { view, queue } => {
                let (seq, first, count) = queue.claim()?;
                Some(Claim {
                    seq,
                    split: view.split(first, count),
                    started: Instant::now(),
                    read_ns: 0,
                })
            }
            Feed::File {
                file,
                queue,
                abort,
                failed,
            } => {
                if abort.load(Ordering::Relaxed) {
                    return None;
                }
                let (seq, first, count) = queue.claim()?;
                let started = Instant::now();
                if let Err(e) = file.read_rows_into(first, count, &mut held.buf) {
                    abort.store(true, Ordering::Relaxed);
                    // First error wins; later ones are dropped.
                    unpoisoned(failed.lock()).get_or_insert(e);
                    return None;
                }
                Some(Claim {
                    seq,
                    split: Split {
                        rows: &held.buf,
                        unit: file.unit(),
                        first_row: first,
                        row_count: count,
                    },
                    started,
                    read_ns: started.elapsed().as_nanos() as u64,
                })
            }
            Feed::Stream { reader, unit } => {
                if let Some(done) = held.chunk.take() {
                    reader.recycle(done);
                }
                // `recv` returns None when the shard is exhausted *or*
                // the pipeline aborted — either way the worker drains out.
                let chunk = held.chunk.insert(reader.recv()?);
                Some(Claim {
                    seq: chunk.seq,
                    split: Split {
                        rows: &chunk.data,
                        unit: *unit,
                        first_row: chunk.first_row,
                        row_count: chunk.rows,
                    },
                    started: Instant::now(),
                    read_ns: 0,
                })
            }
        }
    }

    /// Close the drained feed: the first read error, or the pipeline's
    /// measurements when the pass streamed (this joins the readers, and
    /// returns in bounded time even when one of them died).
    fn finish(self) -> Result<Option<freeride_io::IoStats>, FreerideError> {
        match self {
            Feed::View { .. } => Ok(None),
            Feed::File { failed, .. } => unpoisoned(failed.into_inner()).map_or(Ok(None), Err),
            Feed::Stream { reader, .. } => Ok(Some(reader.finish()?)),
        }
    }
}

/// Run one split against the reduction target implied by the worker's
/// `(private copy, shared backend)` pair: full replication lends the
/// private copy's cells, the locked/atomic schemes use the shared
/// backend, and [`SyncScheme::Hybrid`] routes per region through both.
fn run_split_on<K>(
    kernel: &K,
    split: &Split<'_>,
    local: Option<&mut ReductionObject>,
    shared: Option<&SharedCells>,
    scheme: SyncScheme,
) where
    K: SplitKernel + ?Sized,
{
    match (local, shared) {
        (Some(robj), None) => kernel.run_split(split, &mut robj.lend()),
        (None, Some(backend)) => {
            let mut handle = SharedHandle::new(backend);
            kernel.run_split(split, &mut handle);
        }
        (Some(robj), Some(backend)) => {
            let mut handle = crate::sync::HybridHandle::new(robj.lend(), backend, scheme);
            kernel.run_split(split, &mut handle);
        }
        (None, None) => unreachable!("no reduction target"),
    }
}

/// All-to-one merge on the calling thread.
fn sequential_merge(
    mut copies: Vec<ReductionObject>,
    combination: Option<&CombinationFn>,
) -> ReductionObject {
    let mut acc = copies.remove(0);
    for c in &copies {
        match combination {
            Some(f) => f(&mut acc, c),
            None => acc.merge_from(c),
        }
    }
    acc
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::robj::{CombineOp, GroupSpec};
    use crate::sync::RObjHandle;

    fn sum_layout() -> Arc<RObjLayout> {
        RObjLayout::new(vec![GroupSpec::new("sum", 1, CombineOp::Sum)])
    }

    /// Kernel: sum all slots of every row into cell (0,0).
    fn sum_kernel(split: &Split<'_>, robj: &mut dyn RObjHandle) {
        for row in split.iter_rows() {
            let s: f64 = row.iter().sum();
            robj.accumulate(0, 0, s);
        }
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    fn shard(file: &FileDataset, first_row: usize, rows: usize) -> PassInput<'_> {
        PassInput::File {
            file,
            first_row,
            rows,
        }
    }

    /// `iters` passes from pass 0 with the default hooks and no
    /// checkpointing.
    fn iterate(
        engine: &Engine,
        view: DataView<'_>,
        iters: usize,
        step: impl FnMut(usize, &ReductionObject) -> bool,
    ) -> JobOutcome {
        let hooks = PassHooks::default();
        engine
            .run_iterations(
                PassInput::Rows(view),
                &sum_layout(),
                0,
                iters,
                &sum_kernel,
                hooks,
                step,
                |_, _| {},
            )
            .unwrap()
    }

    #[test]
    fn sums_match_sequential_all_schemes_and_modes() {
        let raw = data(1000);
        let expect: f64 = raw.iter().sum();
        let view = DataView::new(&raw, 4).unwrap();
        for scheme in [
            SyncScheme::FullReplication,
            SyncScheme::FullLocking,
            SyncScheme::BucketLocking { stripes: 4 },
            SyncScheme::Atomic,
        ] {
            for exec in [ExecMode::Threads, ExecMode::Sequential] {
                for threads in [1usize, 3, 8] {
                    let engine = Engine::new(JobConfig {
                        threads,
                        scheme,
                        exec,
                        ..Default::default()
                    });
                    let out = engine.run(view, &sum_layout(), &sum_kernel);
                    assert_eq!(
                        out.robj.get(0, 0),
                        expect,
                        "{scheme:?} {exec:?} t={threads}"
                    );
                    assert_eq!(out.stats.logical_threads, threads);
                }
            }
        }
    }

    /// The pass against an engine-independent oracle — the kernel folded
    /// over the shard into one `ReductionObject`, no engine — for every
    /// input kind × exec mode × scheme × thread count × splitter, over
    /// whole, empty and ragged shards. Values are small integers, so
    /// every summation order gives the same bits; the histogram is keyed
    /// by *absolute* row index, so a shard-relative `first_row` fails.
    #[test]
    fn pass_matches_plain_fold_oracle_sweep() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-oracle-sweep-{}.frds", std::process::id()));
        let raw = data(1200);
        crate::source::write_dataset(&path, 4, &raw).unwrap();
        let file = FileDataset::open(&path).unwrap();
        let view = DataView::new(&raw, 4).unwrap();
        let source: Arc<dyn RowSource> =
            Arc::new(freeride_io::MemSource::new(raw.clone(), 4).unwrap());
        let layout = RObjLayout::new(vec![
            GroupSpec::new("sum", 1, CombineOp::Sum),
            GroupSpec::new("hist", 8, CombineOp::Sum),
        ]);
        let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for (r, row) in split.iter_rows().enumerate() {
                robj.accumulate(0, 0, row.iter().sum());
                robj.accumulate(1, (split.first_row + r) % 8, 1.0);
            }
        };
        let oracle = |first_row: usize, rows: usize| {
            let mut robj = ReductionObject::alloc(layout.clone());
            kernel(&view.split(first_row, rows), &mut robj.lend());
            robj
        };
        let streaming = IoMode::Streaming {
            chunk_rows: 17,
            buffers: 3,
            readers: 2,
        };
        // (first_row, rows): whole, empty at both ends, ragged (fewer
        // rows than threads), interior.
        let shards = [(0usize, 300usize), (0, 0), (300, 0), (1, 2), (100, 117)];
        for scheme in [
            SyncScheme::FullReplication,
            SyncScheme::FullLocking,
            SyncScheme::BucketLocking { stripes: 4 },
            SyncScheme::Atomic,
            SyncScheme::Hybrid {
                region_cells: 3,
                replicated: 0b101,
                stripes: 4,
            },
        ] {
            for exec in [ExecMode::Threads, ExecMode::Sequential] {
                for splitter in [Splitter::Default, Splitter::Chunked { rows_per_chunk: 17 }] {
                    for threads in [1usize, 2, 3, 4] {
                        for io in [IoMode::Sync, streaming] {
                            let engine = Engine::new(JobConfig {
                                threads,
                                scheme,
                                exec,
                                splitter: splitter.clone(),
                                io,
                                ..Default::default()
                            });
                            let what = format!("{scheme:?} {exec:?} {splitter:?} t={threads}");
                            let check = |kind: &str, input, first_row, rows| {
                                let out = engine
                                    .run_pass(input, &layout, &kernel, PassHooks::default())
                                    .unwrap_or_else(|e| panic!("{kind} {what} {io:?}: {e}"));
                                assert_eq!(
                                    out.robj.cells(),
                                    oracle(first_row, rows).cells(),
                                    "{kind} {first_row}+{rows} {what} {io:?}"
                                );
                                let covered: usize = out.stats.splits.iter().map(|s| s.rows).sum();
                                assert_eq!(covered, rows, "{kind} {first_row}+{rows} {what}");
                            };
                            for (first_row, rows) in shards {
                                check("file", shard(&file, first_row, rows), first_row, rows);
                                let input = PassInput::Source {
                                    source: &source,
                                    first_row,
                                    rows,
                                };
                                check("source", input, first_row, rows);
                            }
                            if io == IoMode::Sync {
                                check("rows", PassInput::Rows(view), 0, 300);
                            }
                        }
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The hybrid (selective-replication) scheme must agree exactly
    /// with every pure scheme, for region maps that put the hot head,
    /// the tail, or nothing at all in the replicated half.
    #[test]
    fn hybrid_scheme_matches_pure_schemes() {
        let raw = data(1200);
        let view = DataView::new(&raw, 4).unwrap();
        let layout = RObjLayout::new(vec![
            GroupSpec::new("sum", 1, CombineOp::Sum),
            GroupSpec::new("hist", 8, CombineOp::Sum),
        ]);
        let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                robj.accumulate(0, 0, row.iter().sum());
                robj.accumulate(1, (row[0] as usize) % 8, 1.0);
            }
        };
        let oracle = Engine::new(JobConfig::with_threads(1))
            .run(view, &layout, &kernel)
            .robj;
        for replicated in [0u64, 0b1, 0b10, 0b101, u64::MAX] {
            for region_cells in [1usize, 3, 9] {
                for threads in [1usize, 2, 8] {
                    let engine = Engine::new(JobConfig {
                        threads,
                        scheme: SyncScheme::Hybrid {
                            region_cells,
                            replicated,
                            stripes: 4,
                        },
                        ..Default::default()
                    });
                    let out = engine.run(view, &layout, &kernel);
                    assert_eq!(
                        out.robj.cells(),
                        oracle.cells(),
                        "replicated={replicated:#b} region_cells={region_cells} t={threads}"
                    );
                }
            }
        }
    }

    /// Empty and ragged shards must run to an identity contribution
    /// (zero-nnz rows and shards smaller than the thread count are the
    /// normal case for sparse data), never error.
    #[test]
    fn empty_and_ragged_shards_run_to_identity() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-empty-shard-{}.frds", std::process::id()));
        let raw = data(12);
        crate::source::write_dataset(&path, 4, &raw).unwrap();
        let file = crate::source::FileDataset::open(&path).unwrap();
        for scheme in [
            SyncScheme::FullReplication,
            SyncScheme::FullLocking,
            SyncScheme::BucketLocking { stripes: 2 },
            SyncScheme::Atomic,
            SyncScheme::Hybrid {
                region_cells: 1,
                replicated: 0b1,
                stripes: 2,
            },
        ] {
            let engine = Engine::new(JobConfig {
                threads: 8,
                scheme,
                ..Default::default()
            });
            // Zero-row shard at both ends of the file.
            for first in [0usize, 3] {
                let out = engine
                    .run_pass(
                        shard(&file, first, 0),
                        &sum_layout(),
                        &sum_kernel,
                        PassHooks::default(),
                    )
                    .unwrap_or_else(|e| panic!("empty shard at {first} under {scheme:?}: {e}"));
                assert_eq!(out.robj.get(0, 0), 0.0, "{scheme:?}");
            }
            // Ragged shard: fewer rows than threads still covers all rows.
            let out = engine
                .run_pass(
                    shard(&file, 1, 2),
                    &sum_layout(),
                    &sum_kernel,
                    PassHooks::default(),
                )
                .unwrap();
            let expect: f64 = raw[4..12].iter().sum();
            assert_eq!(out.robj.get(0, 0), expect, "{scheme:?}");
        }
        // An entirely empty dataset (zero rows) opens and runs too.
        let mut empty = std::env::temp_dir();
        empty.push(format!("freeride-empty-ds-{}.frds", std::process::id()));
        crate::source::write_dataset(&empty, 4, &[]).unwrap();
        let file = crate::source::FileDataset::open(&empty).unwrap();
        let engine = Engine::new(JobConfig::with_threads(4));
        let out = engine.run_file(&file, &sum_layout(), &sum_kernel).unwrap();
        assert_eq!(out.robj.get(0, 0), 0.0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&empty).ok();
    }

    #[test]
    fn pool_spawns_once_across_runs() {
        let raw = data(400);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(3));
        let first = engine.run(view, &sum_layout(), &sum_kernel);
        let second = engine.run(view, &sum_layout(), &sum_kernel);
        // Two consecutive runs spawn config.threads threads in total.
        assert_eq!(
            first.stats.threads_spawned + second.stats.threads_spawned,
            3
        );
        assert_eq!(first.stats.threads_spawned, 3);
        assert_eq!(second.stats.threads_spawned, 0);
        assert_eq!(second.stats.pool_reuses, 1);
    }

    #[test]
    fn pool_spawns_once_across_iterations() {
        let raw = data(400);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(3));
        let out = iterate(&engine, view, 10, |_, _| true);
        // 10 passes spawn config.threads threads in total...
        assert_eq!(out.stats.threads_spawned, 3);
        // ...and the 9 warm passes are all pool reuses.
        assert_eq!(out.stats.pool_reuses, 9);
    }

    #[test]
    fn warm_pool_spawns_nothing_in_fifty_iterations() {
        let raw = data(4000);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(8));
        engine.warmup();
        let out = iterate(&engine, view, 50, |_, _| true);
        assert_eq!(out.stats.threads_spawned, 0, "warm pool must not respawn");
        assert_eq!(out.stats.pool_reuses, 50);
        assert_eq!(engine.pool().total_spawned(), 8);
    }

    #[test]
    fn sequential_mode_bypasses_the_pool() {
        let raw = data(400);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::modeled(4));
        let out = engine.run(view, &sum_layout(), &sum_kernel);
        assert_eq!(out.stats.threads_spawned, 0);
        assert_eq!(out.stats.pool_reuses, 0);
        assert_eq!(engine.pool().workers(), 0);
    }

    #[test]
    fn cloned_engines_share_one_pool() {
        let raw = data(400);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(2));
        engine.run(view, &sum_layout(), &sum_kernel);
        let clone = engine.clone();
        let out = clone.run(view, &sum_layout(), &sum_kernel);
        assert_eq!(out.stats.threads_spawned, 0, "clone reuses the shared pool");
    }

    #[test]
    fn empty_input_yields_identity() {
        let raw: Vec<f64> = Vec::new();
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(4));
        let out = engine.run(view, &sum_layout(), &sum_kernel);
        assert_eq!(out.robj.get(0, 0), 0.0);
    }

    #[test]
    fn chunked_splitter_records_all_splits() {
        let raw = data(400);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig {
            threads: 2,
            splitter: Splitter::Chunked { rows_per_chunk: 10 },
            ..Default::default()
        });
        let out = engine.run(view, &sum_layout(), &sum_kernel);
        assert_eq!(out.stats.splits.len(), 10);
        assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>());
        let rows: usize = out.stats.splits.iter().map(|s| s.rows).sum();
        assert_eq!(rows, 100);
    }

    #[test]
    fn custom_combination_is_used() {
        // A "count the merges" combination: default merge plus a marker
        // cell increment, detectable in the result.
        let layout = RObjLayout::new(vec![
            GroupSpec::new("sum", 1, CombineOp::Sum),
            GroupSpec::new("merges", 1, CombineOp::Sum),
        ]);
        let raw = data(100);
        let view = DataView::new(&raw, 4).unwrap();
        let comb: CombinationFn = Arc::new(|a, b| {
            a.merge_from(b);
            let m = a.get(1, 0);
            a.set(1, 0, m + 1.0);
        });
        let engine = Engine::new(JobConfig::with_threads(4));
        let hooks = PassHooks {
            combination: Some(&comb),
            finalize: None,
        };
        let out = engine
            .run_pass(PassInput::Rows(view), &layout, &sum_kernel, hooks)
            .unwrap();
        assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>());
        assert_eq!(out.robj.get(1, 0), 3.0); // 4 copies -> 3 pairwise merges
    }

    /// Regression: `run_iterations` used to route through `run`, which
    /// silently dropped custom combination/finalize. The marker cell
    /// must count 3 merges on *every* iteration.
    #[test]
    fn iterations_apply_custom_combination_every_pass() {
        let layout = RObjLayout::new(vec![
            GroupSpec::new("sum", 1, CombineOp::Sum),
            GroupSpec::new("merges", 1, CombineOp::Sum),
        ]);
        let raw = data(100);
        let view = DataView::new(&raw, 4).unwrap();
        let comb: CombinationFn = Arc::new(|a, b| {
            a.merge_from(b);
            let m = a.get(1, 0);
            a.set(1, 0, m + 1.0);
        });
        let fin: FinalizeFn = Arc::new(|r| {
            let v = r.get(0, 0);
            r.set(0, 0, v * 2.0);
        });
        let engine = Engine::new(JobConfig::with_threads(4));
        let mut marker_seen = Vec::new();
        let hooks = PassHooks {
            combination: Some(&comb),
            finalize: Some(&fin),
        };
        let out = engine
            .run_iterations(
                PassInput::Rows(view),
                &layout,
                0,
                5,
                &sum_kernel,
                hooks,
                |_, robj| {
                    marker_seen.push(robj.get(1, 0));
                    true
                },
                |_, _| {},
            )
            .unwrap();
        // Every pass merged 4 copies -> 3 merges, and finalize doubled
        // the sum on every pass.
        assert_eq!(marker_seen, vec![3.0; 5]);
        assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>() * 2.0);
        assert_eq!(out.robj.get(1, 0), 3.0);
    }

    #[test]
    fn finalize_runs_after_combination() {
        let raw = data(100);
        let view = DataView::new(&raw, 4).unwrap();
        let fin: FinalizeFn = Arc::new(|r| {
            let s = r.get(0, 0);
            r.set(0, 0, s / 25.0); // average per row
        });
        let engine = Engine::new(JobConfig::with_threads(2));
        let hooks = PassHooks {
            combination: None,
            finalize: Some(&fin),
        };
        let out = engine
            .run_pass(PassInput::Rows(view), &sum_layout(), &sum_kernel, hooks)
            .unwrap();
        assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>() / 25.0);
        assert!(out.stats.phases.wall_ns > 0);
    }

    #[test]
    fn parallel_merge_large_object() {
        // Large reduction object to trip the parallel-merge path.
        let cells = 1 << 17;
        let layout = RObjLayout::new(vec![GroupSpec::new("big", cells, CombineOp::Sum)]);
        let raw = data(64);
        let view = DataView::new(&raw, 4).unwrap();
        let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                robj.accumulate(0, (row[0] as usize) % cells, 1.0);
            }
        };
        for exec in [ExecMode::Threads, ExecMode::Sequential] {
            let engine = Engine::new(JobConfig {
                threads: 4,
                exec,
                ..Default::default()
            });
            let out = engine.run(view, &layout, &kernel);
            let total: f64 = out.robj.cells().iter().sum();
            assert_eq!(total, 16.0, "{exec:?}");
        }
    }

    #[test]
    fn pooled_merge_reuses_the_pool() {
        let cells = 1 << 17;
        let layout = RObjLayout::new(vec![GroupSpec::new("big", cells, CombineOp::Sum)]);
        let raw = data(64);
        let view = DataView::new(&raw, 4).unwrap();
        let kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for row in split.iter_rows() {
                robj.accumulate(0, (row[0] as usize) % cells, 1.0);
            }
        };
        let engine = Engine::new(JobConfig {
            threads: 4,
            ..Default::default()
        });
        engine.warmup();
        let out = engine.run(view, &layout, &kernel);
        // 4 copies -> two merge rounds -> reduce dispatch + 2 merge
        // dispatches, all on the warm pool.
        assert_eq!(out.stats.threads_spawned, 0);
        assert_eq!(out.stats.pool_reuses, 3);
        assert_eq!(engine.pool().total_spawned(), 4);
    }

    #[test]
    fn run_file_streams_splits_from_disk() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-engine-{}.frds", std::process::id()));
        let raw = data(4000);
        crate::source::write_dataset(&path, 4, &raw).unwrap();
        let file = crate::source::FileDataset::open(&path).unwrap();

        for scheme in [SyncScheme::FullReplication, SyncScheme::Atomic] {
            let engine = Engine::new(JobConfig {
                threads: 3,
                scheme,
                ..Default::default()
            });
            let out = engine.run_file(&file, &sum_layout(), &sum_kernel).unwrap();
            assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>(), "{scheme:?}");
            assert_eq!(out.stats.splits.len(), 3);
            let rows: usize = out.stats.splits.iter().map(|s| s.rows).sum();
            assert_eq!(rows, 1000);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_file_matches_in_memory_run() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-engine-cmp-{}.frds", std::process::id()));
        let raw: Vec<f64> = (0..600).map(|i| (i as f64).cos()).collect();
        crate::source::write_dataset(&path, 2, &raw).unwrap();
        let file = crate::source::FileDataset::open(&path).unwrap();

        let engine = Engine::new(JobConfig::with_threads(2));
        let from_disk = engine.run_file(&file, &sum_layout(), &sum_kernel).unwrap();
        let view = DataView::new(&raw, 2).unwrap();
        let from_mem = engine.run(view, &sum_layout(), &sum_kernel);
        assert!(
            (from_disk.robj.get(0, 0) - from_mem.robj.get(0, 0)).abs() < 1e-12,
            "disk and memory runs disagree"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Disjoint shard runs merge to exactly the full-file result — the
    /// invariant the distributed coordinator relies on.
    #[test]
    fn shard_results_combine_to_full_file_result() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-engine-shard-{}.frds", std::process::id()));
        let raw: Vec<f64> = (0..900).map(|i| (i as f64 * 0.37).sin()).collect();
        crate::source::write_dataset(&path, 3, &raw).unwrap();
        let file = crate::source::FileDataset::open(&path).unwrap();
        let engine = Engine::new(JobConfig::with_threads(2));

        let full = engine.run_file(&file, &sum_layout(), &sum_kernel).unwrap();
        for nodes in [1usize, 2, 3, 4] {
            let mut merged = ReductionObject::alloc(sum_layout());
            let mut covered = 0;
            for n in 0..nodes {
                let first = n * file.rows() / nodes;
                let count = (n + 1) * file.rows() / nodes - first;
                let out = engine
                    .run_pass(
                        shard(&file, first, count),
                        &sum_layout(),
                        &sum_kernel,
                        PassHooks::default(),
                    )
                    .unwrap();
                merged.merge_from(&out.robj);
                covered += count;
            }
            assert_eq!(covered, file.rows());
            assert!(
                (merged.get(0, 0) - full.robj.get(0, 0)).abs() < 1e-9,
                "{nodes}-shard merge {} != full {}",
                merged.get(0, 0),
                full.robj.get(0, 0)
            );
        }

        // Splits carry absolute row indices, so index-dependent kernels
        // are shard-invariant.
        let idx_kernel = |split: &Split<'_>, robj: &mut dyn RObjHandle| {
            for r in 0..split.row_count {
                let row = split.row(r);
                robj.accumulate(0, 0, row[0] * (split.first_row + r) as f64);
            }
        };
        let full = engine.run_file(&file, &sum_layout(), &idx_kernel).unwrap();
        let a = engine
            .run_pass(
                shard(&file, 0, 100),
                &sum_layout(),
                &idx_kernel,
                PassHooks::default(),
            )
            .unwrap();
        let b = engine
            .run_pass(
                shard(&file, 100, 200),
                &sum_layout(),
                &idx_kernel,
                PassHooks::default(),
            )
            .unwrap();
        let mut merged = a.robj;
        merged.merge_from(&b.robj);
        assert!((merged.get(0, 0) - full.robj.get(0, 0)).abs() < 1e-9);

        // Out-of-range shards are a typed error, not a panic.
        assert!(matches!(
            engine.run_pass(
                shard(&file, 200, 200),
                &sum_layout(),
                &sum_kernel,
                PassHooks::default()
            ),
            Err(crate::FreerideError::BadDataset { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// The disk path now honours custom combination and finalize,
    /// exactly like the in-memory path.
    #[test]
    fn run_file_with_combination_and_finalize() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-engine-comb-{}.frds", std::process::id()));
        let raw = data(800);
        crate::source::write_dataset(&path, 4, &raw).unwrap();
        let file = crate::source::FileDataset::open(&path).unwrap();

        let layout = RObjLayout::new(vec![
            GroupSpec::new("sum", 1, CombineOp::Sum),
            GroupSpec::new("merges", 1, CombineOp::Sum),
        ]);
        let comb: CombinationFn = Arc::new(|a, b| {
            a.merge_from(b);
            let m = a.get(1, 0);
            a.set(1, 0, m + 1.0);
        });
        let fin: FinalizeFn = Arc::new(|r| {
            let v = r.get(0, 0);
            r.set(0, 0, v + 0.5);
        });
        let engine = Engine::new(JobConfig::with_threads(4));
        let hooks = PassHooks {
            combination: Some(&comb),
            finalize: Some(&fin),
        };
        let out = engine
            .run_pass(shard(&file, 0, file.rows()), &layout, &sum_kernel, hooks)
            .unwrap();
        assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>() + 0.5);
        assert_eq!(out.robj.get(1, 0), 3.0); // 4 copies -> 3 merges
        std::fs::remove_file(&path).ok();
    }

    /// On an I/O error, all workers stop pulling splits and the *first*
    /// error is returned.
    #[test]
    fn run_file_aborts_all_workers_on_first_error() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-engine-abort-{}.frds", std::process::id()));
        let raw = data(4000);
        crate::source::write_dataset(&path, 4, &raw).unwrap();
        let file = crate::source::FileDataset::open(&path).unwrap();
        // Truncate the payload after the header so every read fails.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..24]).unwrap();

        let engine = Engine::new(JobConfig {
            threads: 4,
            splitter: Splitter::Chunked { rows_per_chunk: 10 },
            ..Default::default()
        });
        let err = engine
            .run_file(&file, &sum_layout(), &sum_kernel)
            .unwrap_err();
        // 100 splits were queued; with the abort flag the queue drains
        // almost immediately. The exact pull count is racy, but the
        // returned error must be an I/O error (first one wins).
        assert!(
            matches!(err, crate::FreerideError::Io(_)),
            "expected the first worker's I/O error, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_iterations_accumulates_stats() {
        let raw = data(100);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(2));
        let out = iterate(&engine, view, 5, |_, _| true);
        // 5 iterations × 2 splits each.
        assert_eq!(out.stats.splits.len(), 10);
    }

    #[test]
    fn run_iterations_early_stop() {
        let raw = data(100);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(2));
        let out = iterate(&engine, view, 10, |it, _| it < 2);
        assert_eq!(out.stats.splits.len(), 6); // iterations 0, 1, 2
    }

    /// Satellite: a traced `run_iterations` must emit exactly
    /// `iters × splits` split spans and one combine + one finalize span
    /// per pass, at every `ExecMode`.
    #[test]
    fn traced_iterations_emit_expected_spans_every_exec_mode() {
        let raw = data(1200);
        let view = DataView::new(&raw, 4).unwrap();
        let (threads, iters) = (3usize, 4usize);
        for exec in [ExecMode::Threads, ExecMode::Sequential] {
            let engine = Engine::new(
                JobConfig {
                    threads,
                    exec,
                    ..Default::default()
                }
                .traced(TraceLevel::Splits),
            );
            let out = iterate(&engine, view, iters, |_, _| true);
            assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>(), "{exec:?}");
            let trace = engine.drain_trace();
            assert_eq!(trace.count("split"), iters * threads, "{exec:?}");
            assert_eq!(trace.count("combine"), iters, "{exec:?}");
            assert_eq!(trace.count("finalize"), iters, "{exec:?}");
            assert_eq!(trace.count("pass"), iters, "{exec:?}");
            assert_eq!(trace.count("split.read"), 0, "in-memory run has no reads");
        }
    }

    /// Satellite: `TraceLevel::Off` allocates nothing — the recorder
    /// buffer stays empty through a full iterative run.
    #[test]
    fn trace_off_records_nothing() {
        let raw = data(400);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(2)); // trace: Off
        iterate(&engine, view, 5, |_, _| true);
        assert_eq!(engine.recorder().event_count(), 0);
        let trace = engine.drain_trace();
        assert!(trace.spans.is_empty());
        assert!(engine.recorder().hub().snapshot().is_empty());
    }

    /// Satellite: `Engine::warmup` growth is now observable — it
    /// returns the spawn count and emits a `pool.grow` event.
    #[test]
    fn warmup_emits_pool_growth_event_once() {
        let engine = Engine::new(JobConfig::with_threads(3).traced(TraceLevel::Phases));
        assert_eq!(engine.warmup(), 3, "cold warmup spawns the full pool");
        assert_eq!(engine.warmup(), 0, "warm warmup spawns nothing");
        let trace = engine.drain_trace();
        assert_eq!(trace.count("pool.grow"), 1);
        let grow = trace.spans.iter().find(|s| s.name == "pool.grow").unwrap();
        assert_eq!(grow.attr_i64("threads_spawned"), Some(3));
        // Sequential engines never touch the pool.
        let seq = Engine::new(JobConfig::modeled(4).traced(TraceLevel::Phases));
        assert_eq!(seq.warmup(), 0);
        assert_eq!(seq.pool().workers(), 0);
    }

    /// Trace-derived stats must reproduce the directly returned stats
    /// for a single pass (the `stats.rs`-as-consumer contract).
    #[test]
    fn run_stats_reconstructible_from_trace() {
        let raw = data(2000);
        let view = DataView::new(&raw, 4).unwrap();
        for exec in [ExecMode::Threads, ExecMode::Sequential] {
            let engine = Engine::new(
                JobConfig {
                    threads: 3,
                    exec,
                    ..Default::default()
                }
                .traced(TraceLevel::Splits),
            );
            let out = engine.run(view, &sum_layout(), &sum_kernel);
            let rebuilt = RunStats::from_trace(&engine.drain_trace());
            let mut sorted = rebuilt.splits.clone();
            sorted.sort_by_key(|s| s.split);
            assert_eq!(sorted, out.stats.splits, "{exec:?}");
            assert_eq!(
                rebuilt.phases.combine_ns, out.stats.phases.combine_ns,
                "{exec:?}"
            );
            assert_eq!(
                rebuilt.phases.finalize_ns, out.stats.phases.finalize_ns,
                "{exec:?}"
            );
            assert_eq!(rebuilt.phases.wall_ns, out.stats.phases.wall_ns, "{exec:?}");
            assert_eq!(
                rebuilt.logical_threads, out.stats.logical_threads,
                "{exec:?}"
            );
            assert_eq!(
                rebuilt.threads_spawned, out.stats.threads_spawned,
                "{exec:?}"
            );
            assert_eq!(rebuilt.pool_reuses, out.stats.pool_reuses, "{exec:?}");
        }
    }

    /// Disk runs split each split span into a `split.read` I/O span and
    /// the reduce-only `split` span.
    #[test]
    fn file_run_emits_read_spans() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-engine-trace-{}.frds", std::process::id()));
        let raw = data(3000);
        crate::source::write_dataset(&path, 4, &raw).unwrap();
        let file = crate::source::FileDataset::open(&path).unwrap();

        let engine = Engine::new(JobConfig::with_threads(3).traced(TraceLevel::Splits));
        let out = engine.run_file(&file, &sum_layout(), &sum_kernel).unwrap();
        assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>());
        let trace = engine.drain_trace();
        assert_eq!(trace.count("split"), 3);
        assert_eq!(trace.count("split.read"), 3, "one read span per split");
        assert!(out
            .stats
            .splits
            .iter()
            .all(|s| s.read_ns > 0 && s.read_ns <= s.nanos));
        std::fs::remove_file(&path).ok();
    }

    /// Phase-level tracing stays coarse: no per-split spans.
    #[test]
    fn phase_level_omits_split_spans() {
        let raw = data(400);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(2).traced(TraceLevel::Phases));
        engine.run(view, &sum_layout(), &sum_kernel);
        let trace = engine.drain_trace();
        assert_eq!(trace.count("split"), 0);
        assert_eq!(trace.count("pass"), 1);
        assert_eq!(trace.count("combine"), 1);
        // Splits were not traced, so their start stamps stay zero.
        let pass = trace.spans.iter().find(|s| s.name == "pass").unwrap();
        assert_eq!(pass.attr_i64("dispatches"), Some(1));
    }

    /// Modeled scaling on file inputs: under `Sequential` a `.frds` file,
    /// read synchronously or streamed, gets the in-memory assignment —
    /// split `i` on logical thread `i % threads`, one private copy per
    /// logical thread — so `assigned_makespan_ns` divides the work
    /// instead of equalling total busy time.
    #[test]
    fn sequential_file_inputs_get_the_in_memory_assignment() {
        let mut path = std::env::temp_dir();
        path.push(format!("freeride-engine-lanes-{}.frds", std::process::id()));
        let raw = data(4000);
        crate::source::write_dataset(&path, 4, &raw).unwrap();
        let file = FileDataset::open(&path).unwrap();
        let view = DataView::new(&raw, 4).unwrap();

        // (split -> rows, logical thread) map and merged-copy count.
        let observe = |engine: &Engine, out: JobOutcome| {
            assert_eq!(out.robj.get(0, 0), raw.iter().sum::<f64>());
            let map: Vec<_> = out
                .stats
                .splits
                .iter()
                .map(|s| (s.split, s.first_row, s.rows, s.os_worker, s.logical_thread))
                .collect();
            let trace = engine.drain_trace();
            let combine = trace.spans.iter().find(|s| s.name == "combine").unwrap();
            (
                map,
                combine.attr_i64("copies"),
                out.stats.assigned_makespan_ns(),
            )
        };
        let engine_with = |io| {
            Engine::new(
                JobConfig {
                    splitter: Splitter::Chunked {
                        rows_per_chunk: 100,
                    },
                    io,
                    ..JobConfig::modeled(4)
                }
                .traced(TraceLevel::Phases),
            )
        };
        let engine = engine_with(IoMode::Sync);
        let (mem_map, mem_copies, _) =
            observe(&engine, engine.run(view, &sum_layout(), &sum_kernel));
        assert_eq!(mem_map.len(), 10);
        assert!(mem_map
            .iter()
            .all(|&(i, _, _, w, lt)| w == 0 && lt == i % 4));
        assert_eq!(mem_copies, Some(4));

        let streaming = IoMode::Streaming {
            chunk_rows: 100,
            buffers: 3,
            readers: 2,
        };
        for io in [IoMode::Sync, streaming] {
            let engine = engine_with(io);
            let out = engine.run_file(&file, &sum_layout(), &sum_kernel).unwrap();
            let busy = out.stats.total_reduce_ns();
            let (map, copies, makespan) = observe(&engine, out);
            assert_eq!(map, mem_map, "{io:?}");
            assert_eq!(copies, mem_copies, "{io:?}");
            assert!(makespan < busy, "{io:?}: modeled scaling is flat");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A resume index past the job's last pass (e.g. taken from a
    /// checkpoint of a longer job) is a typed error, not a panic, and
    /// runs nothing.
    #[test]
    fn resume_past_the_last_pass_is_a_typed_error() {
        let raw = data(100);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::with_threads(2));
        let resume = |first_pass: usize, iters: usize| {
            let mut passes = Vec::new();
            let out = engine.run_iterations(
                PassInput::Rows(view),
                &sum_layout(),
                first_pass,
                iters,
                &sum_kernel,
                PassHooks::default(),
                |_, _| true,
                |pass, _| passes.push(pass),
            );
            (out.map(|o| o.stats.splits.len()), passes)
        };
        for (first_pass, iters) in [(3, 3), (7, 3), (1, 0)] {
            let (out, passes) = resume(first_pass, iters);
            assert!(
                matches!(
                    out,
                    Err(FreerideError::BadResume { first_pass: f, .. }) if f == first_pass
                ),
                "resume {first_pass} of {iters}: {out:?}"
            );
            assert!(passes.is_empty());
        }
        // The last valid index runs exactly the last pass.
        let (out, passes) = resume(2, 3);
        assert_eq!(out.unwrap(), 2);
        assert_eq!(passes, vec![2]);
    }

    #[test]
    fn modeled_time_is_consistent_with_split_times() {
        let raw = data(8000);
        let view = DataView::new(&raw, 4).unwrap();
        let engine = Engine::new(JobConfig::modeled(4));
        let out = engine.run(view, &sum_layout(), &sum_kernel);
        assert_eq!(out.stats.splits.len(), 4);
        let m1 = out.stats.modeled_parallel_ns(1);
        let m4 = out.stats.modeled_parallel_ns(4);
        assert!(m4 <= m1, "modeled time must not grow with threads");
    }
}
