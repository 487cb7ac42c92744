//! A Phoenix-style map-sort-reduce engine — Figure 4 (right) of the
//! paper — used as the structural baseline FREERIDE is contrasted with.
//!
//! ```text
//! {* Reduction Loop *}
//! Foreach(element e) {
//!     (i, val) = Process(e);
//! }
//! Sort (i,val) pairs using i
//! Reduce to compute each RObj(i)
//! ```
//!
//! All data elements are processed in the map step; the intermediate
//! `(key, value)` pairs are materialised, sorted, grouped, and only then
//! reduced. This is exactly the overhead FREERIDE's fused
//! process-and-reduce design avoids: the sort/group cost and the memory
//! for intermediate pairs. The `ablation_mapreduce` bench measures both
//! engines on the same kernel.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use obs::{AttrValue, Recorder, TraceLevel};

use crate::robj::CombineOp;
use crate::split::{DataView, Split, Splitter};
use crate::sync::unpoisoned;

/// Timing and volume statistics of one map-reduce run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapReduceStats {
    /// Wall time of the map phase, ns.
    pub map_ns: u64,
    /// Wall time of the sort phase, ns.
    pub sort_ns: u64,
    /// Wall time of the group+reduce phase, ns.
    pub reduce_ns: u64,
    /// Number of intermediate `(key, value)` pairs materialised — the
    /// memory cost FREERIDE's design avoids.
    pub intermediate_pairs: usize,
}

/// Result of a map-reduce run: reduced `(key, value)` pairs sorted by
/// key, plus stats.
#[derive(Debug, Clone, Default)]
pub struct MapReduceOutcome {
    /// One entry per distinct key, sorted ascending.
    pub reduced: Vec<(usize, f64)>,
    /// Phase statistics.
    pub stats: MapReduceStats,
}

/// The map-sort-reduce engine.
#[derive(Debug, Clone)]
pub struct MapReduceEngine {
    /// Worker thread count for the map phase.
    pub threads: usize,
    recorder: Option<Arc<Recorder>>,
}

impl MapReduceEngine {
    /// Create an engine with `threads` map workers.
    pub fn new(threads: usize) -> MapReduceEngine {
        MapReduceEngine {
            threads: threads.max(1),
            recorder: None,
        }
    }

    /// This engine recording `mr.map` / `mr.sort` / `mr.reduce` spans
    /// into `recorder` (at [`TraceLevel::Phases`] and above).
    pub fn traced(self, recorder: Arc<Recorder>) -> MapReduceEngine {
        MapReduceEngine {
            recorder: Some(recorder),
            ..self
        }
    }

    /// Run: `map` emits `(key, value)` pairs for each row; values of
    /// equal keys are folded with `op` after the sort.
    pub fn run<M>(&self, view: DataView<'_>, map: M, op: &CombineOp) -> MapReduceOutcome
    where
        M: Fn(&[f64], &mut Vec<(usize, f64)>) + Sync,
    {
        // ---- Map phase: materialise all intermediate pairs. ----
        let map_start = Instant::now();
        let ranges = Splitter::Default.ranges(view.rows(), self.threads);
        let collected: Mutex<Vec<Vec<(usize, f64)>>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for &(first, count) in &ranges {
                let map = &map;
                let collected = &collected;
                scope.spawn(move || {
                    let split: Split<'_> = view.split(first, count);
                    let mut out: Vec<(usize, f64)> = Vec::new();
                    for row in split.iter_rows() {
                        map(row, &mut out);
                    }
                    unpoisoned(collected.lock()).push(out);
                });
            }
        });
        let mut pairs: Vec<(usize, f64)> = unpoisoned(collected.into_inner())
            .into_iter()
            .flatten()
            .collect();
        let map_ns = map_start.elapsed().as_nanos() as u64;
        let intermediate_pairs = pairs.len();

        // ---- Sort phase: order pairs by key. ----
        let sort_start = Instant::now();
        pairs.sort_by_key(|&(k, _)| k);
        let sort_ns = sort_start.elapsed().as_nanos() as u64;

        // ---- Reduce phase: fold runs of equal keys. ----
        let reduce_start = Instant::now();
        let mut reduced: Vec<(usize, f64)> = Vec::new();
        for (k, v) in pairs {
            match reduced.last_mut() {
                Some((lk, lv)) if *lk == k => *lv = op.apply(*lv, v),
                _ => reduced.push((k, v)),
            }
        }
        let reduce_ns = reduce_start.elapsed().as_nanos() as u64;

        if let Some(rec) = self.recorder.as_deref() {
            if rec.enabled(TraceLevel::Phases) {
                rec.push_complete(
                    TraceLevel::Phases,
                    "mr.map",
                    "mapreduce",
                    0,
                    rec.offset_ns(map_start),
                    map_ns,
                    vec![(
                        "intermediate_pairs",
                        AttrValue::Int(intermediate_pairs as i64),
                    )],
                );
                rec.push_complete(
                    TraceLevel::Phases,
                    "mr.sort",
                    "mapreduce",
                    0,
                    rec.offset_ns(sort_start),
                    sort_ns,
                    Vec::new(),
                );
                rec.push_complete(
                    TraceLevel::Phases,
                    "mr.reduce",
                    "mapreduce",
                    0,
                    rec.offset_ns(reduce_start),
                    reduce_ns,
                    Vec::new(),
                );
            }
        }

        MapReduceOutcome {
            reduced,
            stats: MapReduceStats {
                map_ns,
                sort_ns,
                reduce_ns,
                intermediate_pairs,
            },
        }
    }
}

#[cfg(test)]
mod mapreduce_tests {
    use super::*;

    #[test]
    fn word_count_style_reduction() {
        // Rows of one slot; key = value mod 4, value = 1 (a histogram).
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let view = DataView::new(&data, 1).unwrap();
        let out = MapReduceEngine::new(3).run(
            view,
            |row, emit| emit.push((row[0] as usize % 4, 1.0)),
            &CombineOp::Sum,
        );
        assert_eq!(
            out.reduced,
            vec![(0, 25.0), (1, 25.0), (2, 25.0), (3, 25.0)]
        );
        assert_eq!(out.stats.intermediate_pairs, 100);
    }

    #[test]
    fn agrees_with_fused_engine() {
        use crate::engine::{Engine, JobConfig};
        use crate::robj::{GroupSpec, RObjLayout};
        use crate::sync::RObjHandle;

        let data: Vec<f64> = (0..400).map(|i| (i as f64).sin()).collect();
        let view = DataView::new(&data, 2).unwrap();
        let buckets = 8usize;

        // Map-reduce path.
        let mr = MapReduceEngine::new(2).run(
            view,
            |row, emit| {
                let key = ((row[0].abs() * buckets as f64) as usize).min(buckets - 1);
                emit.push((key, row[1]));
            },
            &CombineOp::Sum,
        );

        // Fused FREERIDE path with the same logic.
        let layout = RObjLayout::new(vec![GroupSpec::new("h", buckets, CombineOp::Sum)]);
        let engine = Engine::new(JobConfig::with_threads(2));
        let out = engine.run(
            view,
            &layout,
            &|split: &Split<'_>, robj: &mut dyn RObjHandle| {
                for row in split.iter_rows() {
                    let key = ((row[0].abs() * buckets as f64) as usize).min(buckets - 1);
                    robj.accumulate(0, key, row[1]);
                }
            },
        );

        for (k, v) in &mr.reduced {
            assert!(
                (v - out.robj.get(0, *k)).abs() < 1e-9,
                "bucket {k}: {v} vs {}",
                out.robj.get(0, *k)
            );
        }
    }

    #[test]
    fn empty_input() {
        let data: Vec<f64> = Vec::new();
        let view = DataView::new(&data, 1).unwrap();
        let out = MapReduceEngine::new(2).run(view, |_, _| {}, &CombineOp::Sum);
        assert!(out.reduced.is_empty());
        assert_eq!(out.stats.intermediate_pairs, 0);
    }

    #[test]
    fn traced_run_emits_phase_spans_matching_stats() {
        let rec = Arc::new(Recorder::new(TraceLevel::Phases));
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let view = DataView::new(&data, 1).unwrap();
        let out = MapReduceEngine::new(2).traced(rec.clone()).run(
            view,
            |row, emit| emit.push((row[0] as usize % 2, 1.0)),
            &CombineOp::Sum,
        );
        let trace = rec.drain();
        assert_eq!(trace.count("mr.map"), 1);
        assert_eq!(trace.count("mr.sort"), 1);
        assert_eq!(trace.count("mr.reduce"), 1);
        // Span durations are the very same measurements as the stats.
        assert_eq!(trace.total_ns("mr.map"), out.stats.map_ns);
        assert_eq!(trace.total_ns("mr.sort"), out.stats.sort_ns);
        assert_eq!(trace.total_ns("mr.reduce"), out.stats.reduce_ns);
    }

    #[test]
    fn min_reduction() {
        let data: Vec<f64> = vec![5.0, 3.0, 8.0, 1.0, 9.0, 2.0];
        let view = DataView::new(&data, 1).unwrap();
        let out =
            MapReduceEngine::new(2).run(view, |row, emit| emit.push((0, row[0])), &CombineOp::Min);
        assert_eq!(out.reduced, vec![(0, 1.0)]);
    }
}
