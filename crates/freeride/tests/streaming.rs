//! Integration tests for the out-of-core streaming I/O path
//! ([`IoMode::Streaming`]): differential equivalence against the sync
//! shard reader, exactly-once chunk coverage under arbitrary shapes,
//! bounded-memory adherence, and typed-error propagation when the
//! pipeline fails mid-run (truncated payload, dead reader thread).

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use freeride::source::{write_dataset, FileDataset};
use freeride::{CombineOp, GroupSpec};
use freeride::{
    Engine, ExecMode, FreerideError, IoMode, JobConfig, MemoryBudget, PassHooks, PassInput,
    RObjHandle, RObjLayout, Split, StreamConfig, SyncScheme, TraceLevel,
};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "freeride-streaming-{}-{}",
        std::process::id(),
        name
    ));
    p
}

/// Small-integer data: f64 sums are exact, so streaming (arbitrary
/// chunk arrival order) must be bit-identical to the sync path.
fn int_data(rows: usize, unit: usize) -> Vec<f64> {
    (0..rows * unit)
        .map(|i| ((i * 31 + 7) % 97) as f64)
        .collect()
}

fn layout() -> Arc<RObjLayout> {
    RObjLayout::new(vec![
        GroupSpec::new("sum", 1, CombineOp::Sum),
        GroupSpec::new("hist", 8, CombineOp::Sum),
    ])
}

/// Kernel that uses the *absolute* row index, so a streaming split with
/// a wrong `first_row` changes the answer.
fn kernel(split: &Split<'_>, robj: &mut dyn RObjHandle) {
    for (i, row) in split.iter_rows().enumerate() {
        let abs = split.first_row + i;
        robj.accumulate(0, 0, row.iter().sum());
        robj.accumulate(1, abs % 8, row[0]);
    }
}

#[test]
fn streaming_is_bit_identical_to_sync_across_threads() {
    let path = tmp("diff.frds");
    let rows = 10_000;
    let unit = 4;
    write_dataset(&path, unit, &int_data(rows, unit)).unwrap();
    let ds = FileDataset::open(&path).unwrap();

    let baseline = Engine::new(JobConfig::with_threads(1))
        .run_file(&ds, &layout(), &kernel)
        .unwrap();

    for threads in [1usize, 2, 4, 8] {
        // Chunk sizes that do and don't divide the row count, plus a
        // chunk larger than the file.
        for chunk_rows in [64usize, 1000, 1013, 20_000] {
            let out = Engine::new(JobConfig {
                threads,
                io: IoMode::Streaming {
                    chunk_rows,
                    buffers: 4,
                    readers: 2,
                },
                ..Default::default()
            })
            .run_file(&ds, &layout(), &kernel)
            .unwrap();
            assert_eq!(
                out.robj.cells(),
                baseline.robj.cells(),
                "t={threads} chunk_rows={chunk_rows}"
            );
            assert_eq!(out.stats.io.chunks, rows.div_ceil(chunk_rows));
            assert_eq!(out.stats.io.bytes_read, (rows * unit * 8) as u64);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn streaming_matches_sync_for_every_scheme_and_shard() {
    let path = tmp("schemes.frds");
    let rows = 4096;
    let unit = 3;
    write_dataset(&path, unit, &int_data(rows, unit)).unwrap();
    let ds = FileDataset::open(&path).unwrap();

    for scheme in [
        SyncScheme::FullReplication,
        SyncScheme::FullLocking,
        SyncScheme::BucketLocking { stripes: 4 },
        SyncScheme::Atomic,
    ] {
        for (first_row, rows) in [(0usize, rows), (512, 2048), (4000, 96)] {
            let input = PassInput::File {
                file: &ds,
                first_row,
                rows,
            };
            let sync = Engine::new(JobConfig {
                threads: 4,
                scheme,
                ..Default::default()
            })
            .run_pass(input, &layout(), &kernel, PassHooks::default())
            .unwrap();
            let stream = Engine::new(JobConfig {
                threads: 4,
                scheme,
                io: IoMode::Streaming {
                    chunk_rows: 100,
                    buffers: 3,
                    readers: 2,
                },
                ..Default::default()
            })
            .run_pass(input, &layout(), &kernel, PassHooks::default())
            .unwrap();
            assert_eq!(
                stream.robj.cells(),
                sync.robj.cells(),
                "{scheme:?} shard {first_row}+{rows}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn streaming_respects_the_memory_budget_out_of_core() {
    let path = tmp("budget.frds");
    // 4 MiB payload against a 1 MiB budget: the dataset is 4x larger
    // than the chunk pool is ever allowed to grow.
    let unit = 8;
    let rows = (4 << 20) / (unit * 8);
    let budget = MemoryBudget::mib(1);
    write_dataset(&path, unit, &int_data(rows, unit)).unwrap();
    let ds = FileDataset::open(&path).unwrap();

    let expect = Engine::new(JobConfig::with_threads(1))
        .run_file(&ds, &layout(), &kernel)
        .unwrap();
    for threads in [1usize, 2, 4] {
        let out = Engine::new(JobConfig {
            threads,
            io: IoMode::streaming_within(budget, unit, 2),
            ..Default::default()
        })
        .run_file(&ds, &layout(), &kernel)
        .unwrap();

        assert_eq!(out.robj.cells(), expect.robj.cells(), "t={threads}");
        assert!(out.stats.io.pool_bytes > 0, "t={threads}");
        assert!(
            out.stats.io.pool_bytes <= budget.get(),
            "t={threads}: pool {} exceeds budget {}",
            out.stats.io.pool_bytes,
            budget.get()
        );
        assert_eq!(out.stats.io.bytes_read as usize, rows * unit * 8);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn streaming_emits_io_read_spans_and_counters() {
    let path = tmp("trace.frds");
    let rows = 512;
    write_dataset(&path, 2, &int_data(rows, 2)).unwrap();
    let ds = FileDataset::open(&path).unwrap();

    let engine = Engine::new(
        JobConfig {
            threads: 2,
            io: IoMode::Streaming {
                chunk_rows: 100,
                buffers: 3,
                readers: 2,
            },
            ..Default::default()
        }
        .traced(TraceLevel::Splits),
    );
    engine.run_file(&ds, &layout(), &kernel).unwrap();
    let trace = engine.drain_trace();

    assert_eq!(trace.count("io.read"), rows.div_ceil(100));
    assert!(trace.count("split") >= rows.div_ceil(100));
    assert_eq!(
        trace.counters.get("io.chunks").copied(),
        Some(rows.div_ceil(100) as i64)
    );
    assert_eq!(
        trace.counters.get("io.bytes_read").copied(),
        Some((rows * 2 * 8) as i64)
    );
    assert!(trace.counters.contains_key("io.stall_ns"));
    assert!(trace.counters.contains_key("io.backpressure_ns"));
    assert!(trace.gauges.contains_key("io.pool_bytes"));

    // Reader spans live on tracks past the worker tracks.
    let io_tracks: Vec<usize> = trace
        .spans
        .iter()
        .filter(|s| s.name == "io.read")
        .map(|s| s.tid)
        .collect();
    assert!(
        io_tracks.iter().all(|&t| t >= 2),
        "reader tracks overlap workers: {io_tracks:?}"
    );

    // The exported Chrome trace keeps the reader spans next to the
    // engine's.
    let summary = obs::validate_chrome_trace(&trace.chrome_json()).unwrap();
    for name in ["io.read", "split", "pass"] {
        assert!(summary.names.iter().any(|n| n == name), "missing {name}");
    }
    std::fs::remove_file(&path).ok();
}

/// Run `f` on a helper thread and fail the test if it does not finish
/// within `secs` — turning a pipeline hang into a clean test failure.
fn bounded<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        tx.send(f()).ok();
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("streaming run hung instead of erroring")
}

#[test]
fn truncated_payload_surfaces_typed_error_not_a_hang() {
    let path = tmp("truncated.frds");
    let rows = 8192;
    let unit = 4;
    write_dataset(&path, unit, &int_data(rows, unit)).unwrap();
    let ds = FileDataset::open(&path).unwrap();
    // Truncate the payload mid-chunk *after* validation, as if the file
    // were damaged while the job ran.
    let full = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(full / 2 + 13)
        .unwrap();

    let err = bounded(30, move || {
        Engine::new(JobConfig {
            threads: 4,
            io: IoMode::Streaming {
                chunk_rows: 256,
                buffers: 3,
                readers: 2,
            },
            ..Default::default()
        })
        .run_file(&ds, &layout(), &kernel)
        .unwrap_err()
    });
    assert!(
        matches!(err, FreerideError::Io(_)),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A source whose readers die partway through the shard: the run must
/// finish with `FreerideError::Stream`, not deadlock on a chunk that
/// will never arrive.
struct DyingSource {
    rows: usize,
    unit: usize,
}

struct DyingReader {
    unit: usize,
}

impl freeride_io::RowSource for DyingSource {
    fn rows(&self) -> usize {
        self.rows
    }
    fn unit(&self) -> usize {
        self.unit
    }
    fn open_reader(&self) -> Result<Box<dyn freeride_io::RowReader + Send>, freeride_io::IoError> {
        Ok(Box::new(DyingReader { unit: self.unit }))
    }
}

impl freeride_io::RowReader for DyingReader {
    fn read_rows_into(
        &mut self,
        first_row: usize,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), freeride_io::IoError> {
        if first_row >= 1000 {
            panic!("reader thread killed mid-run (test)");
        }
        out.clear();
        out.resize(count * self.unit, 1.0);
        Ok(())
    }
}

#[test]
fn dead_reader_thread_surfaces_stream_error() {
    let err = bounded(30, || {
        let source: Arc<dyn freeride_io::RowSource> = Arc::new(DyingSource {
            rows: 100_000,
            unit: 2,
        });
        Engine::new(JobConfig {
            threads: 4,
            io: IoMode::Streaming {
                chunk_rows: 500,
                buffers: 3,
                readers: 2,
            },
            ..Default::default()
        })
        .run_pass(
            PassInput::Source {
                source: &source,
                first_row: 0,
                rows: 100_000,
            },
            &layout(),
            &kernel,
            PassHooks::default(),
        )
        .unwrap_err()
    });
    assert!(
        matches!(err, FreerideError::Stream { .. }),
        "unexpected error: {err}"
    );
}

#[test]
fn both_exec_modes_stream_correctly() {
    let path = tmp("modes.frds");
    let rows = 777;
    write_dataset(&path, 2, &int_data(rows, 2)).unwrap();
    let ds = FileDataset::open(&path).unwrap();
    let expect = Engine::new(JobConfig::with_threads(1))
        .run_file(&ds, &layout(), &kernel)
        .unwrap();
    for exec in [ExecMode::Sequential, ExecMode::Threads] {
        let out = Engine::new(JobConfig {
            threads: 3,
            exec,
            io: IoMode::Streaming {
                chunk_rows: 50,
                buffers: 3,
                readers: 2,
            },
            ..Default::default()
        })
        .run_file(&ds, &layout(), &kernel)
        .unwrap();
        assert_eq!(out.robj.cells(), expect.robj.cells(), "{exec:?}");
    }
    std::fs::remove_file(&path).ok();
}

mod coverage_props {
    use super::*;
    use proptest::prelude::*;

    /// Exactly-once, in-order coverage for the pull-based
    /// `stream_chunks`, over shapes including non-dividing chunk sizes,
    /// chunks larger than the file, and (via rows=0 below) empty files.
    fn check_stream_chunks(rows: usize, unit: usize, chunk_rows: usize) {
        let path = tmp(&format!("prop-sc-{rows}-{unit}-{chunk_rows}"));
        let data: Vec<f64> = (0..rows * unit).map(|i| i as f64).collect();
        write_dataset(&path, unit, &data).unwrap();
        let ds = FileDataset::open(&path).unwrap();
        let mut seen = Vec::new();
        let mut next_first = 0usize;
        ds.stream_chunks(chunk_rows, |chunk, first| {
            assert_eq!(first, next_first, "chunks out of order");
            next_first += chunk.len() / unit;
            seen.extend_from_slice(chunk);
        })
        .unwrap();
        assert_eq!(seen, data);
        std::fs::remove_file(&path).ok();
    }

    /// Exactly-once coverage (any arrival order) for the threaded
    /// `ChunkReader` pipeline over the same shape space.
    fn check_chunk_reader(rows: usize, unit: usize, chunk_rows: usize, readers: usize) {
        let source: Arc<dyn freeride_io::RowSource> = Arc::new(
            freeride_io::MemSource::new((0..rows * unit).map(|i| i as f64).collect(), unit)
                .unwrap(),
        );
        let mut hits = vec![0u32; rows];
        let stats = freeride_io::for_each_chunk(
            source,
            StreamConfig {
                chunk_rows,
                buffers: 3,
                readers,
            },
            |chunk| {
                assert_eq!(chunk.data.len(), chunk.rows * unit);
                for r in 0..chunk.rows {
                    hits[chunk.first_row + r] += 1;
                    // Payload must be the right rows, not just the
                    // right count.
                    assert_eq!(chunk.data[r * unit], ((chunk.first_row + r) * unit) as f64);
                }
            },
        )
        .unwrap();
        assert!(
            hits.iter().all(|&h| h == 1),
            "coverage holes/dups: {hits:?}"
        );
        assert_eq!(stats.chunks, rows.div_ceil(chunk_rows.max(1)));
    }

    #[test]
    fn zero_row_dataset_streams_nothing() {
        check_stream_chunks(0, 3, 4);
        check_chunk_reader(0, 3, 4, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_stream_chunks_covers_in_order(
            rows in 0usize..300,
            unit in 1usize..6,
            chunk_rows in 1usize..400,
        ) {
            check_stream_chunks(rows, unit, chunk_rows);
        }

        #[test]
        fn prop_chunk_reader_covers_exactly_once(
            rows in 0usize..300,
            unit in 1usize..6,
            chunk_rows in 1usize..400,
            readers in 1usize..5,
        ) {
            check_chunk_reader(rows, unit, chunk_rows, readers);
        }
    }
}
