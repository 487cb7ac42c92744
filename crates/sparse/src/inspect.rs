//! Choosing the reduction-object synchronization scheme by one size
//! rule, and the optional index-pattern scan.
//!
//! FREERIDE's own measurements favour full replication until the
//! private copies stop fitting in memory, so [`plan`] is one rule:
//!
//! | condition                                           | scheme          |
//! |-----------------------------------------------------|-----------------|
//! | `threads × total_cells × 8 B <= REPLICATION_BUDGET` | FullReplication |
//! | otherwise                                           | Atomic          |
//!
//! Over the budget one shared copy is updated by compare-and-swap;
//! on an over-budget CP-ALS that beat 64-stripe bucket locking by
//! 1.5× (EXPERIMENTS.md "One size rule"). The rule reads only the
//! object's size and the thread count, never the data, so no scan runs
//! before a job. Each choice is recorded as one `sync.choose` span
//! ([`SchemePlan::record`]) carrying the chosen scheme, the
//! alternative, the object's bytes, the thread count and the budget.
//!
//! The executor is the unmodified engine: the chosen scheme goes into
//! `JobConfig.scheme` (or over the wire to cluster nodes) and the
//! generalized-reduction loop runs as always.

use freeride::{MemoryBudget, SyncScheme};
use obs::{AttrValue, Recorder, TraceLevel};

/// Memory the private reduction-object copies of one job may take
/// together before [`plan`] stops replicating.
pub const REPLICATION_BUDGET: MemoryBudget = MemoryBudget::mib(256);

/// Bytes of one reduction-object cell.
const CELL_BYTES: usize = std::mem::size_of::<f64>();

/// Number of log2 buckets in the nnz-per-row histogram.
pub const HIST_BUCKETS: usize = 16;

/// Summary of one scan over a shard's index pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexPattern {
    /// Data rows scanned.
    pub rows: usize,
    /// Stored entries seen.
    pub nnz: u64,
    /// Widest row's entry count.
    pub max_nnz_row: usize,
    /// Log2-bucketed nnz-per-row histogram: bucket 0 counts empty
    /// rows, bucket `b` counts rows with `2^(b-1) <= nnz < 2^b`
    /// (the last bucket absorbs everything wider).
    pub nnz_hist: [u64; HIST_BUCKETS],
    /// Largest output index touched (0 when nothing was touched).
    pub max_index: usize,
    /// Distinct output indices touched.
    pub footprint: usize,
    /// Size of the output index space the pattern was scanned against;
    /// out-of-range indices count toward its last slot.
    pub index_space: usize,
}

fn hist_bucket(nnz: usize) -> usize {
    if nnz == 0 {
        0
    } else {
        (usize::BITS - nnz.leading_zeros()) as usize
    }
    .min(HIST_BUCKETS - 1)
}

/// Scan a COO quad shard (`[i, j, k, v]` rows): the output index of
/// each entry is the coordinate of `mode` (0, 1, or 2) — the mode
/// whose factor the executor accumulates into. Short trailing rows are
/// ignored; negative or fractional coordinates clamp to 0.
pub fn inspect_quads(data: &[f64], mode: usize, index_space: usize) -> IndexPattern {
    let index_space = index_space.max(1);
    let mode = mode.min(2);
    let mut p = IndexPattern {
        rows: 0,
        nnz: 0,
        max_nnz_row: 0,
        nnz_hist: [0; HIST_BUCKETS],
        max_index: 0,
        footprint: 0,
        index_space,
    };
    let mut seen = vec![0u64; index_space.div_ceil(64)];
    for row in data.chunks_exact(crate::linearize::COO_UNIT) {
        p.rows += 1;
        p.nnz += 1;
        p.max_nnz_row = 1;
        p.nnz_hist[hist_bucket(1)] += 1;
        let index = row[mode].max(0.0) as usize;
        p.max_index = p.max_index.max(index);
        let slot = index.min(index_space - 1);
        let (w, b) = (slot / 64, slot % 64);
        if seen[w] >> b & 1 == 0 {
            seen[w] |= 1 << b;
            p.footprint += 1;
        }
    }
    p
}

/// What [`plan`] decides from.
#[derive(Debug, Clone)]
pub struct PlanParams {
    /// Total reduction-object cells.
    pub total_cells: usize,
    /// Worker threads, each of which would hold a private copy.
    pub threads: usize,
}

impl PlanParams {
    /// A reduction object of `total_cells` cells on one thread.
    /// `cells_per_index` (the cells one output index maps onto) is not
    /// read: the size rule looks at the whole object only.
    pub fn new(total_cells: usize, _cells_per_index: usize) -> PlanParams {
        PlanParams {
            total_cells,
            threads: 1,
        }
    }

    /// Set the worker-thread count (at least 1).
    pub fn threads(mut self, t: usize) -> PlanParams {
        self.threads = t.max(1);
        self
    }
}

/// The rule's verdict and the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemePlan {
    /// The synchronization scheme the executor should run with.
    pub scheme: SyncScheme,
    /// Bytes of one copy of the reduction object.
    pub object_bytes: usize,
    /// Worker threads the copies were counted for.
    pub threads: usize,
    /// The replication budget in bytes ([`REPLICATION_BUDGET`]).
    pub budget_bytes: usize,
}

/// Stable display name of a scheme, used in trace attributes and bench
/// tables.
pub fn scheme_name(s: SyncScheme) -> &'static str {
    match s {
        SyncScheme::FullReplication => "full-replication",
        SyncScheme::FullLocking => "full-locking",
        SyncScheme::BucketLocking { .. } => "bucket-locking",
        SyncScheme::Atomic => "atomic",
        SyncScheme::Hybrid { .. } => "hybrid",
    }
}

/// Decide the reduction-object scheme: replicate unless the private
/// copies of every thread together exceed [`REPLICATION_BUDGET`], and
/// share one copy under [`SyncScheme::Atomic`] otherwise.
pub fn plan(p: &PlanParams) -> SchemePlan {
    let object_bytes = p.total_cells.saturating_mul(CELL_BYTES);
    let threads = p.threads.max(1);
    let budget_bytes = REPLICATION_BUDGET.get();
    let scheme = if threads.saturating_mul(object_bytes) <= budget_bytes {
        SyncScheme::FullReplication
    } else {
        SyncScheme::Atomic
    };
    SchemePlan {
        scheme,
        object_bytes,
        threads,
        budget_bytes,
    }
}

impl SchemePlan {
    /// Record the choice as one `sync.choose` span covering
    /// `[start_ns, now]`, with the chosen scheme, the alternative and
    /// the rule's evidence as attributes.
    pub fn record(&self, rec: &Recorder, start_ns: u64) {
        let alternative = match self.scheme {
            SyncScheme::FullReplication => SyncScheme::Atomic,
            _ => SyncScheme::FullReplication,
        };
        let dur = rec.now_ns().saturating_sub(start_ns);
        rec.push_complete(
            TraceLevel::Phases,
            "sync.choose",
            "sync",
            0,
            start_ns,
            dur,
            vec![
                ("chosen", AttrValue::Str(scheme_name(self.scheme).into())),
                (
                    "alternatives",
                    AttrValue::Str(scheme_name(alternative).into()),
                ),
                ("object_bytes", AttrValue::Int(self.object_bytes as i64)),
                ("threads", AttrValue::Int(self.threads as i64)),
                ("budget_bytes", AttrValue::Int(self.budget_bytes as i64)),
            ],
        );
    }
}

/// Scan a COO quad shard (mode-`mode` output) and plan its scheme in
/// one call, recording the choice on `rec` and the scan as the
/// `sparse.inspect.passes` and `sparse.nnz` hub counters.
pub fn plan_quads(
    data: &[f64],
    mode: usize,
    index_space: usize,
    params: &PlanParams,
    rec: &Recorder,
) -> (IndexPattern, SchemePlan) {
    let start = rec.now_ns();
    let pattern = inspect_quads(data, mode, index_space);
    let plan = plan(params);
    plan.record(rec, start);
    rec.hub().add("sparse.inspect.passes", 1);
    rec.hub().add("sparse.nnz", pattern.nnz as i64);
    (pattern, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(usize::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quad_inspection_summarizes_pattern() {
        // Three quads whose mode-1 coordinates are 5, 0, 5; a short
        // trailing row is ignored.
        let data = vec![
            1.0, 5.0, 0.0, 2.0, //
            3.0, 0.0, 1.0, 1.0, //
            0.0, 5.0, 2.0, 4.0, //
            9.0, 9.0,
        ];
        let p = inspect_quads(&data, 1, 8);
        assert_eq!(p.rows, 3);
        assert_eq!(p.nnz, 3);
        assert_eq!(p.max_nnz_row, 1);
        assert_eq!(p.max_index, 5);
        assert_eq!(p.footprint, 2);
        assert_eq!(p.nnz_hist[1], 3);
    }

    #[test]
    fn small_object_replicates_outright() {
        let plan = plan(&PlanParams::new(64, 1));
        assert_eq!(plan.scheme, SyncScheme::FullReplication);
        assert_eq!(plan.object_bytes, 64 * 8);
        assert_eq!(plan.threads, 1);
    }

    #[test]
    fn size_rule_replicates_to_the_budget_and_goes_atomic_past_it() {
        let budget_cells = REPLICATION_BUDGET.get() / CELL_BYTES;
        for threads in [1usize, 2, 16] {
            let at = budget_cells / threads;
            let under = plan(&PlanParams::new(at, 4).threads(threads));
            assert_eq!(under.scheme, SyncScheme::FullReplication, "{threads}t");
            let over = plan(&PlanParams::new(at + 1, 4).threads(threads));
            assert_eq!(over.scheme, SyncScheme::Atomic, "{threads}t");
            assert_eq!(over.budget_bytes, REPLICATION_BUDGET.get());
        }
        // Zero threads count as one; no size overflows the rule.
        assert_eq!(
            plan(&PlanParams::new(budget_cells, 1).threads(0)).scheme,
            SyncScheme::FullReplication
        );
        assert_eq!(
            plan(&PlanParams::new(usize::MAX, 1).threads(usize::MAX)).scheme,
            SyncScheme::Atomic
        );
    }

    #[test]
    fn empty_pattern_plans_by_size_alone() {
        // No entries to scan: the rule still decides from the object's
        // size, exactly as for the same object with data.
        let rec = Recorder::new(TraceLevel::Phases);
        let budget_cells = REPLICATION_BUDGET.get() / CELL_BYTES;
        for cells in [8, budget_cells, budget_cells + 1] {
            let params = PlanParams::new(cells, 1);
            let (pattern, empty) = plan_quads(&[], 0, 8, &params, &rec);
            assert_eq!(pattern.nnz, 0);
            assert_eq!(pattern.footprint, 0);
            let data = [1.0, 0.0, 0.0, 2.0];
            let (_, full) = plan_quads(&data, 0, 8, &params, &rec);
            assert_eq!(empty, full, "{cells} cells");
            assert_eq!(empty, plan(&params), "{cells} cells");
        }
    }

    #[test]
    fn skewed_pattern_plans_one_scheme_for_the_whole_object() {
        // Nine of ten entries land on index 0: the scan sees the skew,
        // but the plan is one scheme for every cell, never Hybrid.
        let mut data = Vec::new();
        for t in 0..100u32 {
            let i = if t % 10 == 0 { f64::from(t) } else { 0.0 };
            data.extend_from_slice(&[i, 1.0, 2.0, 1.0]);
        }
        let rec = Recorder::new(TraceLevel::Phases);
        let budget_cells = REPLICATION_BUDGET.get() / CELL_BYTES;
        let small = PlanParams::new(128 * 4, 4).threads(4);
        let big = PlanParams::new(budget_cells, 4).threads(4);
        let (pattern, under) = plan_quads(&data, 0, 128, &small, &rec);
        assert_eq!(pattern.nnz, 100);
        assert_eq!(pattern.footprint, 10);
        assert_eq!(pattern.max_index, 90);
        assert_eq!(under.scheme, SyncScheme::FullReplication);
        let (_, over) = plan_quads(&data, 0, 128, &big, &rec);
        assert_eq!(over.scheme, SyncScheme::Atomic);
        for p in [under, over] {
            assert!(!matches!(p.scheme, SyncScheme::Hybrid { .. }));
        }
    }

    #[test]
    fn recording_emits_span_and_counters() {
        let rec = Recorder::new(TraceLevel::Phases);
        let budget_cells = REPLICATION_BUDGET.get() / CELL_BYTES;
        let over = PlanParams::new(budget_cells / 2 + 1, 4).threads(2);
        let (pattern, chosen) = plan_quads(&[0.0, 1.0, 2.0, 3.0], 0, 8, &over, &rec);
        assert_eq!(pattern.nnz, 1);
        assert_eq!(chosen.scheme, SyncScheme::Atomic);
        let trace = rec.drain();
        let choose: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "sync.choose")
            .collect();
        assert_eq!(choose.len(), 1);
        let s = choose[0];
        let attr = |key: &str| s.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        assert_eq!(attr("chosen"), Some(&AttrValue::Str("atomic".into())));
        assert_eq!(
            attr("alternatives"),
            Some(&AttrValue::Str("full-replication".into()))
        );
        assert_eq!(
            s.attr_i64("object_bytes"),
            Some(((budget_cells / 2 + 1) * CELL_BYTES) as i64)
        );
        assert_eq!(s.attr_i64("threads"), Some(2));
        assert_eq!(
            s.attr_i64("budget_bytes"),
            Some(REPLICATION_BUDGET.get() as i64)
        );
        // The exported Chrome trace carries the decision too.
        let summary = obs::validate_chrome_trace(&trace.chrome_json()).unwrap();
        for key in [
            "chosen",
            "alternatives",
            "object_bytes",
            "threads",
            "budget_bytes",
        ] {
            let attr = ("sync.choose".to_string(), key.to_string());
            assert!(summary.attrs.contains(&attr), "missing sync.choose:{key}");
        }
        // The scan behind the choice is counted on the hub.
        assert_eq!(rec.hub().counter("sparse.inspect.passes"), 1);
        assert_eq!(rec.hub().counter("sparse.nnz"), 1);
    }
}
