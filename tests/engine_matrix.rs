//! A tier-1 slice of the engine's differential matrix (the full sweep is
//! `pass_matches_plain_fold_oracle_sweep` in `crates/freeride`): one
//! reduction pass, whatever its input kind, exec mode, sync scheme,
//! thread count or splitter, must equal the kernel folded over the same
//! rows into one `ReductionObject` with no engine involved.

use std::sync::Arc;

use chapel_freeride::freeride::source::{write_dataset, FileDataset};
use chapel_freeride::freeride::{ExecMode, IoMode, PassHooks, PassInput};
use chapel_freeride::{
    CombineOp, DataView, Engine, GroupSpec, JobConfig, RObjHandle, RObjLayout, ReductionObject,
    Split, Splitter, SyncScheme,
};

const UNIT: usize = 4;
const ROWS: usize = 300;

/// Row sums plus a histogram keyed by *absolute* row index, so a split
/// that carries a shard-relative `first_row` lands in the wrong bucket.
/// Values are small integers: every summation order gives the same bits.
fn kernel(split: &Split<'_>, robj: &mut dyn RObjHandle) {
    for (r, row) in split.iter_rows().enumerate() {
        robj.accumulate(0, 0, row.iter().sum());
        robj.accumulate(1, (split.first_row + r) % 8, 1.0);
    }
}

fn layout() -> Arc<RObjLayout> {
    RObjLayout::new(vec![
        GroupSpec::new("sum", 1, CombineOp::Sum),
        GroupSpec::new("hist", 8, CombineOp::Sum),
    ])
}

#[test]
fn every_input_kind_matches_the_plain_fold() {
    let raw: Vec<f64> = (0..ROWS * UNIT).map(|i| (i % 97) as f64).collect();
    let path = std::env::temp_dir().join(format!("cfr-engine-matrix-{}.frds", std::process::id()));
    write_dataset(&path, UNIT, &raw).unwrap();
    let file = FileDataset::open(&path).unwrap();
    let source = file.row_source();
    let view = DataView::new(&raw, UNIT).unwrap();
    let layout = layout();
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
    // Whole dataset, empty at the end, ragged (fewer rows than threads).
    let shards = [(0usize, ROWS), (ROWS, 0), (1, 2)];
    let schemes = [
        SyncScheme::FullReplication,
        SyncScheme::Atomic,
        SyncScheme::Hybrid {
            region_cells: 3,
            replicated: 0b101,
            stripes: 4,
        },
    ];
    for scheme in schemes {
        for exec in [ExecMode::Threads, ExecMode::Sequential] {
            for splitter in [Splitter::Default, Splitter::Chunked { rows_per_chunk: 17 }] {
                for threads in [1usize, 3] {
                    for io in [IoMode::Sync, streaming] {
                        let engine = Engine::new(JobConfig {
                            threads,
                            scheme,
                            exec,
                            splitter: splitter.clone(),
                            io,
                            ..Default::default()
                        });
                        let check = |kind: &str, input, first_row, rows| {
                            let what = format!(
                                "{kind} {first_row}+{rows} {scheme:?} {exec:?} {splitter:?} \
                                 t={threads} {io:?}"
                            );
                            let out = engine
                                .run_pass(input, &layout, &kernel, PassHooks::default())
                                .unwrap_or_else(|e| panic!("{what}: {e}"));
                            assert_eq!(out.robj.cells(), oracle(first_row, rows).cells(), "{what}");
                            let covered: usize = out.stats.splits.iter().map(|s| s.rows).sum();
                            assert_eq!(covered, rows, "{what}");
                        };
                        for (first_row, rows) in shards {
                            let input = PassInput::File {
                                file: &file,
                                first_row,
                                rows,
                            };
                            check("file", input, first_row, rows);
                            let input = PassInput::Source {
                                source: &source,
                                first_row,
                                rows,
                            };
                            check("source", input, first_row, rows);
                        }
                        if io == IoMode::Sync {
                            check("rows", PassInput::Rows(view), 0, ROWS);
                        }
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
