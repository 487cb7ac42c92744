//! Execution instrumentation and the modeled-parallel-time harness.
//!
//! The paper's testbed is an 8-core Xeon; this reproduction may run on
//! fewer cores. The engine therefore records the busy time of every
//! split during *real* execution and can compute a **modeled parallel
//! time** for any logical thread count: splits are placed on logical
//! threads by list scheduling (the same policy the dynamic chunk queue
//! follows; with the default one-split-per-thread splitter it degenerates
//! to the identity assignment), and the modeled time is the makespan plus
//! the measured serial phases (combination, finalize). FREERIDE's local
//! reduction is embarrassingly parallel under full replication, so the
//! makespan is an accurate first-order model — see DESIGN.md §5.
//!
//! Since the observability layer landed (`crates/obs`), `RunStats` is
//! one *consumer* of the span recorder rather than a parallel bespoke
//! system: [`RunStats::from_trace`] rebuilds the full statistics from
//! the `split` / `combine` / `finalize` / `pass` spans the engine emits
//! at [`obs::TraceLevel::Splits`], byte-for-byte equal to the stats the
//! engine returned directly (single-pass runs; multi-pass traces
//! reconstruct the absorbed aggregate).

/// Timing of one executed split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitStat {
    /// Sequence number of the split in submission order.
    pub split: usize,
    /// First row of the split.
    pub first_row: usize,
    /// Rows processed.
    pub rows: usize,
    /// Busy time spent on the split (read + reduce), in nanoseconds.
    pub nanos: u64,
    /// Portion of `nanos` spent reading the split from disk
    /// (`run_file`); 0 for in-memory runs.
    pub read_ns: u64,
    /// Start of the split relative to the recorder epoch, ns. Stamped
    /// only when the engine traces at `TraceLevel::Splits` or above
    /// (0 otherwise) — the hot loop pays for a clock read only when a
    /// trace is being captured.
    pub start_ns: u64,
    /// OS worker that executed the split. In `ExecMode::Sequential`
    /// everything runs on the caller, so this is always 0.
    pub os_worker: usize,
    /// Logical thread the split was assigned to: equal to `os_worker`
    /// in the real-thread modes, the round-robin pre-assignment
    /// (`split % threads`) in `ExecMode::Sequential`.
    pub logical_thread: usize,
}

/// Phase breakdown of one engine run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Wall time of the (local + global) combination phase, ns.
    pub combine_ns: u64,
    /// Wall time of the finalize step, ns.
    pub finalize_ns: u64,
    /// Wall time of the whole run, ns.
    pub wall_ns: u64,
}

/// Streaming-I/O activity of one engine run (all zeros for in-memory
/// runs and for `IoMode::Sync` file runs, whose read time lives in
/// [`SplitStat::read_ns`] instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoActivity {
    /// Chunks delivered by the streaming pipeline.
    pub chunks: usize,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Total reader-thread time spent inside reads, ns.
    pub read_ns: u64,
    /// Total worker time blocked waiting for a filled chunk (compute
    /// starved by the disk), ns.
    pub stall_ns: u64,
    /// Total reader time blocked waiting for a free buffer (disk
    /// throttled by compute — the memory budget at work), ns.
    pub backpressure_ns: u64,
    /// Resident chunk-buffer memory of the pipeline, bytes (max across
    /// absorbed passes).
    pub pool_bytes: usize,
}

impl IoActivity {
    /// Fold another pass's activity into this one (counters add, the
    /// resident pool takes the max — buffers are recycled, not stacked).
    pub fn absorb(&mut self, other: &IoActivity) {
        self.chunks += other.chunks;
        self.bytes_read += other.bytes_read;
        self.read_ns += other.read_ns;
        self.stall_ns += other.stall_ns;
        self.backpressure_ns += other.backpressure_ns;
        self.pool_bytes = self.pool_bytes.max(other.pool_bytes);
    }
}

/// Statistics of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-split busy times.
    pub splits: Vec<SplitStat>,
    /// Phase wall times.
    pub phases: PhaseTimes,
    /// Logical thread count the job was configured with.
    pub logical_threads: usize,
    /// OS threads created during this run: new pool workers in
    /// `ExecMode::Threads` (0 once the pool is warm), always 0 in
    /// `ExecMode::Sequential`.
    pub threads_spawned: usize,
    /// Reduction/merge passes served by already-running pool workers
    /// (dispatches that required no new OS threads).
    pub pool_reuses: usize,
    /// Streaming-I/O activity (`IoMode::Streaming` file runs only).
    pub io: IoActivity,
}

impl RunStats {
    /// Total busy time across all splits (the serial reduce work), ns.
    pub fn total_reduce_ns(&self) -> u64 {
        self.splits.iter().map(|s| s.nanos).sum()
    }

    /// Makespan of the splits when list-scheduled onto `threads` logical
    /// threads in submission order (each split goes to the currently
    /// least-loaded thread), ns.
    pub fn makespan_ns(&self, threads: usize) -> u64 {
        let threads = threads.max(1);
        let mut load = vec![0u64; threads];
        for s in &self.splits {
            let t = (0..threads).min_by_key(|&t| load[t]).expect("threads >= 1");
            load[t] += s.nanos;
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// Makespan under the assignment the run *actually used* (each
    /// split charged to its recorded `logical_thread`), ns. Compare
    /// with [`RunStats::makespan_ns`] to see how far the real
    /// round-robin/queue placement is from greedy list scheduling.
    pub fn assigned_makespan_ns(&self) -> u64 {
        let mut load = std::collections::BTreeMap::<usize, u64>::new();
        for s in &self.splits {
            *load.entry(s.logical_thread).or_insert(0) += s.nanos;
        }
        load.into_values().max().unwrap_or(0)
    }

    /// Modeled parallel wall time for `threads` logical threads:
    /// reduce makespan + measured combination + finalize, ns.
    ///
    /// Combination under full replication merges one copy per thread;
    /// the measured `combine_ns` already corresponds to the configured
    /// `logical_threads` copies, so we scale it linearly with the thread
    /// count (all-to-one merge; the engine switches to a parallel tree
    /// merge for large objects, which callers can model by measuring at
    /// each thread count — the benches do exactly that).
    pub fn modeled_parallel_ns(&self, threads: usize) -> u64 {
        let combine = if self.logical_threads > 0 {
            (self.phases.combine_ns as f64 * threads as f64 / self.logical_threads as f64) as u64
        } else {
            self.phases.combine_ns
        };
        self.makespan_ns(threads) + combine + self.phases.finalize_ns
    }

    /// Rebuild run statistics from the spans the engine emitted into
    /// `trace`. Requires a trace captured at `TraceLevel::Splits` (the
    /// level at which per-split spans exist); phase-only traces yield
    /// empty `splits`.
    ///
    /// For a trace that covers one `Engine::run*` call this reproduces
    /// the directly returned [`RunStats`] exactly; a trace spanning
    /// several passes reproduces the [`RunStats::absorb`]ed aggregate
    /// except that `splits[i].split` keeps its per-pass numbering.
    pub fn from_trace(trace: &obs::Trace) -> RunStats {
        let mut stats = RunStats::default();
        for span in &trace.spans {
            match span.name {
                "split" => {
                    let read_ns = span.attr_i64("read_ns").unwrap_or(0) as u64;
                    stats.splits.push(SplitStat {
                        split: span.attr_i64("split").unwrap_or(0) as usize,
                        first_row: span.attr_i64("first_row").unwrap_or(0) as usize,
                        rows: span.attr_i64("rows").unwrap_or(0) as usize,
                        nanos: span.dur_ns + read_ns,
                        read_ns,
                        start_ns: span.start_ns.saturating_sub(read_ns),
                        os_worker: span.tid,
                        logical_thread: span.attr_i64("logical_thread").unwrap_or(span.tid as i64)
                            as usize,
                    });
                }
                "combine" => stats.phases.combine_ns += span.dur_ns,
                "finalize" => stats.phases.finalize_ns += span.dur_ns,
                "pass" => {
                    let attr = |key: &str| span.attr_i64(key).unwrap_or(0).max(0) as u64;
                    stats.phases.wall_ns += span.dur_ns;
                    stats.logical_threads = stats.logical_threads.max(attr("threads") as usize);
                    stats.threads_spawned += attr("threads_spawned") as usize;
                    stats.pool_reuses += attr("reuses") as usize;
                    stats.io.absorb(&IoActivity {
                        chunks: attr("io_chunks") as usize,
                        bytes_read: attr("io_bytes_read"),
                        read_ns: attr("io_read_ns"),
                        stall_ns: attr("io_stall_ns"),
                        backpressure_ns: attr("io_backpressure_ns"),
                        pool_bytes: attr("io_pool_bytes") as usize,
                    });
                }
                _ => {}
            }
        }
        stats
    }

    /// Merge the stats of a second run (e.g. another outer-loop
    /// iteration) into this one.
    pub fn absorb(&mut self, other: &RunStats) {
        let base = self.splits.len();
        self.splits
            .extend(other.splits.iter().enumerate().map(|(i, s)| SplitStat {
                split: base + i,
                ..*s
            }));
        self.phases.combine_ns += other.phases.combine_ns;
        self.phases.finalize_ns += other.phases.finalize_ns;
        self.phases.wall_ns += other.phases.wall_ns;
        self.logical_threads = self.logical_threads.max(other.logical_threads);
        self.threads_spawned += other.threads_spawned;
        self.pool_reuses += other.pool_reuses;
        self.io.absorb(&other.io);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    fn stat(split: usize, nanos: u64) -> SplitStat {
        SplitStat {
            split,
            rows: 1,
            nanos,
            ..Default::default()
        }
    }

    #[test]
    fn makespan_one_thread_is_total() {
        let s = RunStats {
            splits: vec![stat(0, 10), stat(1, 20), stat(2, 30)],
            ..Default::default()
        };
        assert_eq!(s.makespan_ns(1), 60);
        assert_eq!(s.total_reduce_ns(), 60);
    }

    #[test]
    fn makespan_balances_across_threads() {
        let s = RunStats {
            splits: vec![stat(0, 10), stat(1, 10), stat(2, 10), stat(3, 10)],
            ..Default::default()
        };
        assert_eq!(s.makespan_ns(2), 20);
        assert_eq!(s.makespan_ns(4), 10);
        // More threads than splits: bounded below by the largest split.
        assert_eq!(s.makespan_ns(16), 10);
    }

    #[test]
    fn list_scheduling_handles_imbalance() {
        // One long split dominates: makespan = its time.
        let s = RunStats {
            splits: vec![stat(0, 100), stat(1, 10), stat(2, 10), stat(3, 10)],
            ..Default::default()
        };
        assert_eq!(s.makespan_ns(2), 100);
    }

    #[test]
    fn assigned_makespan_follows_recorded_assignment() {
        // Greedy list scheduling would balance to 60/60; the recorded
        // round-robin assignment piles 100+10 onto logical thread 0.
        let mk = |split: usize, nanos: u64, lt: usize| SplitStat {
            split,
            rows: 1,
            nanos,
            logical_thread: lt,
            ..Default::default()
        };
        let s = RunStats {
            splits: vec![mk(0, 100, 0), mk(1, 50, 1), mk(2, 10, 0), mk(3, 10, 1)],
            ..Default::default()
        };
        assert_eq!(s.assigned_makespan_ns(), 110);
        assert_eq!(s.makespan_ns(2), 100);
    }

    #[test]
    fn modeled_time_scales_combine() {
        let s = RunStats {
            splits: vec![stat(0, 100), stat(1, 100)],
            phases: PhaseTimes {
                combine_ns: 40,
                finalize_ns: 5,
                wall_ns: 0,
            },
            logical_threads: 2,
            ..Default::default()
        };
        // 2 threads: makespan 100 + combine 40 + finalize 5.
        assert_eq!(s.modeled_parallel_ns(2), 145);
        // 4 threads: splits can't split further; combine doubles.
        assert_eq!(s.modeled_parallel_ns(4), 100 + 80 + 5);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = RunStats {
            splits: vec![stat(0, 10)],
            phases: PhaseTimes {
                combine_ns: 1,
                finalize_ns: 2,
                wall_ns: 3,
            },
            logical_threads: 2,
            threads_spawned: 2,
            pool_reuses: 1,
            io: IoActivity {
                chunks: 2,
                bytes_read: 64,
                pool_bytes: 256,
                ..Default::default()
            },
        };
        let b = RunStats {
            splits: vec![stat(0, 20)],
            phases: PhaseTimes {
                combine_ns: 10,
                finalize_ns: 20,
                wall_ns: 30,
            },
            logical_threads: 4,
            threads_spawned: 0,
            pool_reuses: 1,
            io: IoActivity {
                chunks: 3,
                bytes_read: 96,
                pool_bytes: 128,
                ..Default::default()
            },
        };
        a.absorb(&b);
        assert_eq!(a.splits.len(), 2);
        assert_eq!(a.splits[1].split, 1);
        assert_eq!(a.phases.wall_ns, 33);
        assert_eq!(a.logical_threads, 4);
        assert_eq!(a.threads_spawned, 2);
        assert_eq!(a.pool_reuses, 2);
        assert_eq!(a.io.chunks, 5);
        assert_eq!(a.io.bytes_read, 160);
        // Recycled buffers don't stack across passes: the pool is a max.
        assert_eq!(a.io.pool_bytes, 256);
    }

    #[test]
    fn from_trace_rebuilds_phase_and_counter_stats() {
        use obs::{AttrValue, Recorder, TraceLevel};
        let rec = Recorder::new(TraceLevel::Splits);
        rec.push_complete(
            TraceLevel::Splits,
            "split",
            "engine",
            1,
            150, // start after a 50 ns read
            900,
            vec![
                ("split", AttrValue::Int(0)),
                ("first_row", AttrValue::Int(0)),
                ("rows", AttrValue::Int(25)),
                ("logical_thread", AttrValue::Int(1)),
                ("read_ns", AttrValue::Int(50)),
            ],
        );
        rec.push_complete(
            TraceLevel::Phases,
            "combine",
            "engine",
            0,
            1100,
            40,
            Vec::new(),
        );
        rec.push_complete(
            TraceLevel::Phases,
            "finalize",
            "engine",
            0,
            1150,
            7,
            Vec::new(),
        );
        rec.push_complete(
            TraceLevel::Phases,
            "pass",
            "engine",
            0,
            0,
            1200,
            vec![
                ("splits", AttrValue::Int(1)),
                ("threads", AttrValue::Int(2)),
                ("threads_spawned", AttrValue::Int(2)),
                ("reuses", AttrValue::Int(3)),
                ("io_chunks", AttrValue::Int(4)),
                ("io_pool_bytes", AttrValue::Int(256)),
            ],
        );
        let stats = RunStats::from_trace(&rec.drain());
        assert_eq!(stats.splits.len(), 1);
        let s = stats.splits[0];
        assert_eq!(s.rows, 25);
        assert_eq!(s.nanos, 950);
        assert_eq!(s.read_ns, 50);
        assert_eq!(s.start_ns, 100);
        assert_eq!(s.os_worker, 1);
        assert_eq!(s.logical_thread, 1);
        assert_eq!(stats.phases.combine_ns, 40);
        assert_eq!(stats.phases.finalize_ns, 7);
        assert_eq!(stats.phases.wall_ns, 1200);
        assert_eq!(stats.logical_threads, 2);
        assert_eq!(stats.threads_spawned, 2);
        assert_eq!(stats.pool_reuses, 3);
        assert_eq!(stats.io.chunks, 4);
        assert_eq!(stats.io.pool_bytes, 256);
    }
}
