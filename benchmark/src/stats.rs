//! Statistics helpers: order statistics over timing samples, and
//! self-time attribution over nested spans.

use std::collections::BTreeMap;

/// Order statistics of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// The `p`-quantile (0..=1) of `sorted`, linearly interpolated between
/// the two nearest ranks. `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles, minimum and count of `samples` (non-empty).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// One recorded span: `parent` is the index of the enclosing span in
/// the same slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    pub name: &'static str,
    /// Track: one per thread that records spans.
    pub tid: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the durations of its
/// direct children, floored at zero.
pub fn self_times(spans: &[SpanRow]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns);
        }
    }
    own
}

/// The layer a span belongs to: the part of its name before the first
/// `.` (`"freeride.run"` → `"freeride"`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-layer self times of one traced run and whether they account for
/// its wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// Self time per layer, ns. Root spans (no parent) are the traced
    /// wall itself and belong to no layer.
    pub layers: BTreeMap<String, u64>,
    /// Sum of the root spans' durations, ns.
    pub wall_ns: u64,
    /// Root self time: wall no layer span covers, ns.
    pub unattributed_ns: u64,
}

impl LayerTable {
    /// Layers sum to the traced wall within `tolerance` (a share).
    pub fn resolved(&self, tolerance: f64) -> bool {
        self.unattributed_ns as f64 <= tolerance * self.wall_ns as f64
    }
}

pub fn layer_table(spans: &[SpanRow]) -> LayerTable {
    let own = self_times(spans);
    let mut table = LayerTable {
        layers: BTreeMap::new(),
        wall_ns: 0,
        unattributed_ns: 0,
    };
    for (s, own_ns) in spans.iter().zip(own) {
        if s.parent.is_none() {
            table.wall_ns += s.dur_ns;
            table.unattributed_ns += own_ns;
        } else {
            *table
                .layers
                .entry(layer_of(s.name).to_string())
                .or_insert(0) += own_ns;
        }
    }
    table
}

/// `|a - b| <= tol * max(|a|, |b|, 1)` — the comparison the
/// repository's own differential tests use for float sums.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (5, 1.0, 2.0, 3.0, 4.0));
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(median(&[7.0]), 7.0);
    }

    fn span(name: &'static str, start_ns: u64, dur_ns: u64, parent: Option<usize>) -> SpanRow {
        SpanRow {
            name,
            tid: 0,
            start_ns,
            dur_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("job", 0, 100, None),
            span("core.run", 5, 80, Some(0)),
            span("linearize.zip", 10, 30, Some(1)),
            span("freeride.run", 40, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 30, 40]);
    }

    #[test]
    fn layer_sum_check_flags_uncovered_wall() {
        let spans = [
            span("job", 0, 100, None),
            span("freeride.run", 0, 60, Some(0)),
            span("freeride.run", 60, 37, Some(0)),
        ];
        let t = layer_table(&spans);
        assert_eq!(t.layers["freeride"], 97);
        assert_eq!((t.wall_ns, t.unattributed_ns), (100, 3));
        assert!(t.resolved(0.05));
        assert!(!t.resolved(0.02));
    }

    #[test]
    fn close_is_relative_above_one_and_absolute_below() {
        assert!(close(1e12, 1e12 + 100.0, 1e-9));
        assert!(!close(1e12, 1e12 + 1e4, 1e-9));
        assert!(close(0.0, 5e-10, 1e-9));
    }
}
