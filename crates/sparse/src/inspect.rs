//! Inspector/executor planning: scan a shard's index pattern once,
//! then pick the reduction-object synchronization scheme per region.
//!
//! This is the classic irregular-application inspector/executor split
//! adapted to FREERIDE's reduction-object model. The *inspector*
//! ([`inspect_padded`] / [`inspect_quads`]) makes one pass over the
//! linearized shard and summarizes where its irregular updates land:
//! nnz-per-row histogram, touched-index footprint, largest index, and
//! a per-index touch count. The *planner* ([`plan`]) maps that pattern
//! onto the reduction object's flat cell space and decides, region by
//! region, between:
//!
//! * **full replication** — every worker gets a private copy; right
//!   when the object is small or every region is hot;
//! * **bucket locking** — shared striped cells; right when updates
//!   scatter uniformly over a large object;
//! * **hybrid** — per-region: hot regions replicate, cold regions
//!   share ([`freeride::SyncScheme::Hybrid`]).
//!
//! The decision table (also in DESIGN.md §15):
//!
//! | condition                                   | scheme           |
//! |---------------------------------------------|------------------|
//! | `total_cells <= small_cells`                | FullReplication  |
//! | no stored entries                           | BucketLocking    |
//! | every region hot (touches ≥ 1.5× mean)      | FullReplication  |
//! | no region hot                               | BucketLocking    |
//! | otherwise                                   | Hybrid           |
//!
//! The executor is the unmodified engine: the chosen scheme goes into
//! `JobConfig.scheme` (or over the wire to cluster nodes) and the
//! generalized-reduction loop runs as always.

use freeride::SyncScheme;
use obs::{AttrValue, Recorder, TraceLevel};

use linearize::sparse::{padded_row_entries, padded_row_len};

/// Number of log2 buckets in the nnz-per-row histogram.
pub const HIST_BUCKETS: usize = 16;

/// Summary of one inspector pass over a shard's index pattern.
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
    /// Touch count per output index over `[0, index_space)`;
    /// out-of-range indices count toward the last slot.
    pub touches: Vec<u64>,
    /// Size of the output index space the pattern was scanned against.
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

struct PatternBuilder {
    p: IndexPattern,
    seen: Vec<u64>,
}

impl PatternBuilder {
    fn new(index_space: usize) -> PatternBuilder {
        let index_space = index_space.max(1);
        PatternBuilder {
            p: IndexPattern {
                rows: 0,
                nnz: 0,
                max_nnz_row: 0,
                nnz_hist: [0; HIST_BUCKETS],
                max_index: 0,
                footprint: 0,
                touches: vec![0; index_space],
                index_space,
            },
            seen: vec![0; index_space.div_ceil(64)],
        }
    }

    fn row(&mut self, nnz: usize) {
        self.p.rows += 1;
        self.p.nnz += nnz as u64;
        self.p.max_nnz_row = self.p.max_nnz_row.max(nnz);
        self.p.nnz_hist[hist_bucket(nnz)] += 1;
    }

    fn touch(&mut self, index: usize) {
        self.p.max_index = self.p.max_index.max(index);
        let slot = index.min(self.p.index_space - 1);
        self.p.touches[slot] += 1;
        let (w, b) = (slot / 64, slot % 64);
        if self.seen[w] >> b & 1 == 0 {
            self.seen[w] |= 1 << b;
            self.p.footprint += 1;
        }
    }

    fn finish(self) -> IndexPattern {
        self.p
    }
}

/// Inspect a padded CSR shard (`linearize::sparse` encoding): the
/// output index of each stored entry is its column. Total over
/// malformed rows, like the padded-row decoder itself.
pub fn inspect_padded(data: &[f64], unit: usize, index_space: usize) -> IndexPattern {
    let mut b = PatternBuilder::new(index_space);
    if unit == 0 {
        return b.finish();
    }
    for row in data.chunks_exact(unit) {
        b.row(padded_row_len(row));
        for (col, _) in padded_row_entries(row) {
            b.touch(col);
        }
    }
    b.finish()
}

/// Inspect a COO quad shard (`[i, j, k, v]` rows): the output index of
/// each entry is the coordinate of `mode` (0, 1, or 2) — the mode
/// whose factor the executor accumulates into. Short trailing rows are
/// ignored; negative or fractional coordinates clamp to 0.
pub fn inspect_quads(data: &[f64], mode: usize, index_space: usize) -> IndexPattern {
    let mut b = PatternBuilder::new(index_space);
    let mode = mode.min(2);
    for row in data.chunks_exact(crate::linearize::COO_UNIT) {
        b.row(1);
        b.touch(row[mode].max(0.0) as usize);
    }
    b.finish()
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// Tuning knobs for [`plan`].
#[derive(Debug, Clone)]
pub struct PlanParams {
    /// Total reduction-object cells.
    pub total_cells: usize,
    /// Cells one output index maps onto (a contiguous block starting
    /// at `index * cells_per_index`). For MTTKRP this is the factor
    /// rank; for a histogram it is 1.
    pub cells_per_index: usize,
    /// Stripe count for the locked side (bucket locking / hybrid).
    pub stripes: usize,
    /// Objects at most this many cells replicate outright, whatever
    /// the scatter looks like.
    pub small_cells: usize,
    /// Hot threshold numerator/denominator: a region replicates when
    /// `touches * regions * hot_den >= hot_num * nnz`, i.e. its touch
    /// density is at least `hot_num / hot_den` times the mean.
    pub hot_num: u64,
    /// See [`PlanParams::hot_num`].
    pub hot_den: u64,
}

impl PlanParams {
    /// Defaults for a reduction object of `total_cells` cells whose
    /// indices map to blocks of `cells_per_index`: 64 stripes, 4096-cell
    /// small-object cutoff, 1.5× mean hot threshold.
    pub fn new(total_cells: usize, cells_per_index: usize) -> PlanParams {
        PlanParams {
            total_cells,
            cells_per_index: cells_per_index.max(1),
            stripes: 64,
            small_cells: 4096,
            hot_num: 3,
            hot_den: 2,
        }
    }
}

/// One region's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDecision {
    /// Region ordinal (bit position in the hybrid mask).
    pub region: usize,
    /// First reduction-object cell of the region.
    pub first_cell: usize,
    /// Cells in the region.
    pub cells: usize,
    /// Stored-entry touches landing in the region.
    pub touches: u64,
    /// Whether the planner chose to replicate this region.
    pub replicated: bool,
}

/// The planner's output: a scheme for the executor plus the per-region
/// evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemePlan {
    /// The synchronization scheme the executor should run with.
    pub scheme: SyncScheme,
    /// Cells per region the decision was made over (0 when the plan
    /// never regionalized, i.e. the small-object shortcut fired).
    pub region_cells: usize,
    /// Per-region decisions, in region order.
    pub decisions: Vec<RegionDecision>,
    /// Human-readable shortcut tag for traces.
    pub reason: &'static str,
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

/// Decide the reduction-object scheme for a scanned pattern. See the
/// module docs for the decision table.
pub fn plan(pattern: &IndexPattern, p: &PlanParams) -> SchemePlan {
    let total = p.total_cells.max(1);
    if total <= p.small_cells {
        return SchemePlan {
            scheme: SyncScheme::FullReplication,
            region_cells: 0,
            decisions: vec![RegionDecision {
                region: 0,
                first_cell: 0,
                cells: total,
                touches: pattern.nnz,
                replicated: true,
            }],
            reason: "small-object",
        };
    }

    // Region the cell space: at most 64 regions (the hybrid mask is a
    // u64), each a whole number of index blocks so one index's block
    // never straddles a region boundary.
    let block = p.cells_per_index.max(1);
    let blocks = total.div_ceil(block);
    let blocks_per_region = blocks.div_ceil(64);
    let region_cells = blocks_per_region * block;
    let regions = total.div_ceil(region_cells).min(64);

    let mut touches = vec![0u64; regions];
    for (i, &t) in pattern.touches.iter().enumerate() {
        if t == 0 {
            continue;
        }
        let region = (i * block / region_cells).min(regions - 1);
        touches[region] += t;
    }

    let mut mask = 0u64;
    let mut decisions = Vec::with_capacity(regions);
    for (r, &t) in touches.iter().enumerate() {
        let first_cell = r * region_cells;
        let cells = region_cells.min(total - first_cell);
        // Hot iff touch density ≥ (hot_num / hot_den) × the mean
        // density; integer cross-multiplication, no float drift.
        let hot = pattern.nnz > 0
            && t.saturating_mul(regions as u64).saturating_mul(p.hot_den)
                >= p.hot_num.saturating_mul(pattern.nnz);
        if hot {
            mask |= 1 << r;
        }
        decisions.push(RegionDecision {
            region: r,
            first_cell,
            cells,
            touches: t,
            replicated: hot,
        });
    }

    let all = if regions >= 64 {
        u64::MAX
    } else {
        (1u64 << regions) - 1
    };
    let (scheme, reason) = if pattern.nnz == 0 {
        (
            SyncScheme::BucketLocking { stripes: p.stripes },
            "no-entries",
        )
    } else if mask == all {
        (SyncScheme::FullReplication, "all-regions-hot")
    } else if mask == 0 {
        (
            SyncScheme::BucketLocking { stripes: p.stripes },
            "uniform-scatter",
        )
    } else {
        (
            SyncScheme::Hybrid {
                region_cells,
                replicated: mask,
                stripes: p.stripes,
            },
            "mixed",
        )
    };
    SchemePlan {
        scheme,
        region_cells,
        decisions,
        reason,
    }
}

impl SchemePlan {
    /// How many regions the plan replicates.
    pub fn replicated_regions(&self) -> usize {
        self.decisions.iter().filter(|d| d.replicated).count()
    }

    /// Record the inspector pass and its verdict: a `sparse.inspect`
    /// span covering `[start_ns, now]` with the pattern summary and
    /// chosen scheme as attributes, one `sparse.region` instant per
    /// region decision, and `sparse.*` hub counters.
    pub fn record(&self, rec: &Recorder, pattern: &IndexPattern, start_ns: u64) {
        let dur = rec.now_ns().saturating_sub(start_ns);
        rec.push_complete(
            TraceLevel::Phases,
            "sparse.inspect",
            "sparse",
            0,
            start_ns,
            dur,
            vec![
                ("rows", AttrValue::Int(pattern.rows as i64)),
                ("nnz", AttrValue::Int(pattern.nnz as i64)),
                ("max_nnz_row", AttrValue::Int(pattern.max_nnz_row as i64)),
                ("footprint", AttrValue::Int(pattern.footprint as i64)),
                ("max_index", AttrValue::Int(pattern.max_index as i64)),
                ("regions", AttrValue::Int(self.decisions.len() as i64)),
                (
                    "replicated_regions",
                    AttrValue::Int(self.replicated_regions() as i64),
                ),
                ("scheme", AttrValue::Str(scheme_name(self.scheme).into())),
                ("reason", AttrValue::Str(self.reason.into())),
            ],
        );
        for d in &self.decisions {
            rec.instant(
                TraceLevel::Phases,
                "sparse.region",
                "sparse",
                0,
                vec![
                    ("region", AttrValue::Int(d.region as i64)),
                    ("first_cell", AttrValue::Int(d.first_cell as i64)),
                    ("cells", AttrValue::Int(d.cells as i64)),
                    ("touches", AttrValue::Int(d.touches as i64)),
                    ("replicated", AttrValue::Int(d.replicated as i64)),
                ],
            );
        }
        let hub = rec.hub();
        hub.add("sparse.inspect.passes", 1);
        hub.add("sparse.nnz", pattern.nnz as i64);
        hub.add(
            "sparse.regions.replicated",
            self.replicated_regions() as i64,
        );
        hub.add(
            "sparse.regions.locked",
            (self.decisions.len() - self.replicated_regions()) as i64,
        );
    }
}

/// Inspect a padded CSR shard and plan its scheme in one call,
/// recording the pass on `rec`.
pub fn plan_padded_csr(
    data: &[f64],
    unit: usize,
    index_space: usize,
    params: &PlanParams,
    rec: &Recorder,
) -> (IndexPattern, SchemePlan) {
    let start = rec.now_ns();
    let pattern = inspect_padded(data, unit, index_space);
    let plan = plan(&pattern, params);
    plan.record(rec, &pattern, start);
    (pattern, plan)
}

/// Inspect a COO quad shard (mode-`mode` output) and plan its scheme
/// in one call, recording the pass on `rec`.
pub fn plan_quads(
    data: &[f64],
    mode: usize,
    index_space: usize,
    params: &PlanParams,
    rec: &Recorder,
) -> (IndexPattern, SchemePlan) {
    let start = rec.now_ns();
    let pattern = inspect_quads(data, mode, index_space);
    let plan = plan(&pattern, params);
    plan.record(rec, &pattern, start);
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
    fn padded_inspection_summarizes_pattern() {
        // Two rows: [2 entries at cols 0, 5], [1 entry at col 0].
        let unit = 5;
        let data = vec![2.0, 0.0, 1.0, 5.0, 2.0, 1.0, 0.0, 3.0, 0.0, 0.0];
        let p = inspect_padded(&data, unit, 8);
        assert_eq!(p.rows, 2);
        assert_eq!(p.nnz, 3);
        assert_eq!(p.max_nnz_row, 2);
        assert_eq!(p.max_index, 5);
        assert_eq!(p.footprint, 2);
        assert_eq!(p.touches[0], 2);
        assert_eq!(p.touches[5], 1);
        assert_eq!(p.nnz_hist[1], 1); // the 1-entry row
        assert_eq!(p.nnz_hist[2], 1); // the 2-entry row
    }

    #[test]
    fn small_object_replicates_outright() {
        let p = inspect_padded(&[1.0, 3.0, 2.0], 3, 8);
        let plan = plan(&p, &PlanParams::new(64, 1));
        assert_eq!(plan.scheme, SyncScheme::FullReplication);
        assert_eq!(plan.reason, "small-object");
        assert_eq!(plan.decisions.len(), 1);
    }

    #[test]
    fn skewed_pattern_plans_hybrid_with_mixed_regions() {
        // 8192-cell object, 1 cell per index, 64 regions of 128 cells.
        // Hammer indices 0..10 (region 0) and sprinkle the rest.
        let mut pattern = IndexPattern {
            rows: 0,
            nnz: 0,
            max_nnz_row: 1,
            nnz_hist: [0; HIST_BUCKETS],
            max_index: 8191,
            footprint: 0,
            touches: vec![0; 8192],
            index_space: 8192,
        };
        for i in 0..10 {
            pattern.touches[i] = 100;
        }
        for i in (128..8192).step_by(64) {
            pattern.touches[i] = 1;
        }
        pattern.nnz = pattern.touches.iter().sum();
        let plan = plan(&pattern, &PlanParams::new(8192, 1));
        match plan.scheme {
            SyncScheme::Hybrid {
                region_cells,
                replicated,
                ..
            } => {
                assert_eq!(region_cells, 128);
                assert_eq!(replicated & 1, 1, "hot head region replicates");
                assert_ne!(replicated, u64::MAX);
            }
            other => panic!("wanted hybrid, got {other:?}"),
        }
        assert_eq!(plan.reason, "mixed");
        assert!(plan.decisions[0].replicated);
        assert!(!plan.decisions[1].replicated);
        assert!(plan.replicated_regions() < plan.decisions.len());
    }

    #[test]
    fn uniform_scatter_plans_bucket_locking() {
        let mut pattern = IndexPattern {
            rows: 8192,
            nnz: 8192,
            max_nnz_row: 1,
            nnz_hist: [0; HIST_BUCKETS],
            max_index: 8191,
            footprint: 8192,
            touches: vec![1; 8192],
            index_space: 8192,
        };
        pattern.nnz_hist[1] = 8192;
        let plan = plan(&pattern, &PlanParams::new(8192, 1));
        assert!(matches!(plan.scheme, SyncScheme::BucketLocking { .. }));
        assert_eq!(plan.reason, "uniform-scatter");
        assert_eq!(plan.replicated_regions(), 0);
    }

    #[test]
    fn empty_pattern_plans_bucket_locking() {
        let p = inspect_padded(&[], 3, 8192);
        let plan = plan(&p, &PlanParams::new(8192, 1));
        assert!(matches!(plan.scheme, SyncScheme::BucketLocking { .. }));
        assert_eq!(plan.reason, "no-entries");
    }

    #[test]
    fn recording_emits_span_and_counters() {
        let rec = Recorder::new(TraceLevel::Phases);
        let data = vec![1.0, 2.0, 7.0];
        let (_, plan) = plan_padded_csr(&data, 3, 8, &PlanParams::new(8, 1), &rec);
        assert_eq!(plan.reason, "small-object");
        let trace = rec.drain();
        assert!(trace.spans.iter().any(|s| s.name == "sparse.inspect"));
        let inspect = trace
            .spans
            .iter()
            .find(|s| s.name == "sparse.inspect")
            .unwrap();
        assert_eq!(inspect.attr_i64("nnz"), Some(1));
        assert!(trace.spans.iter().any(|s| s.name == "sparse.region"));
        assert_eq!(rec.hub().counter("sparse.inspect.passes"), 1);
        // The exported Chrome trace carries the decision and its evidence.
        let summary = obs::validate_chrome_trace(&trace.chrome_json()).unwrap();
        assert!(summary.names.iter().any(|n| n == "sparse.region"));
        for key in ["scheme", "reason"] {
            let attr = ("sparse.inspect".to_string(), key.to_string());
            assert!(
                summary.attrs.contains(&attr),
                "missing sparse.inspect:{key}"
            );
        }
    }
}
