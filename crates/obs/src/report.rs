//! Human-readable phase reports derived from a drained [`Trace`] —
//! the `--report` table that reproduces the paper's per-version phase
//! breakdown (split reduction / combination / finalize / pipeline
//! stages).

use std::collections::BTreeMap;

use crate::Trace;

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Span name (e.g. `split`, `combine`, `sema.analyze`).
    pub name: String,
    /// Number of spans with this name.
    pub count: usize,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

/// Per-phase aggregation of one trace, ordered by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// One row per distinct span name.
    pub rows: Vec<PhaseRow>,
}

impl TraceReport {
    /// Aggregate every span in `trace` by name.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut by_name: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
        for span in &trace.spans {
            let slot = by_name.entry(span.name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += span.dur_ns;
        }
        TraceReport {
            rows: by_name
                .into_iter()
                .map(|(name, (count, total_ns))| PhaseRow {
                    name: name.to_string(),
                    count,
                    total_ns,
                })
                .collect(),
        }
    }

    /// Summed duration of all spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| r.total_ns)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| r.count)
    }

    /// Render a simple two-column table (`phase`, `count`, `total ms`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>7} {:>12}\n",
            "phase", "count", "total ms"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>7} {:>12.3}\n",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6
            ));
        }
        out
    }
}

/// Render a side-by-side phase comparison across versions: one row per
/// phase name, one column per `(label, report)` pair. Columns after the
/// first show a signed percentage delta against the first column.
/// Phases that are zero in every column are dropped.
pub fn render_comparison(phases: &[&str], columns: &[(String, TraceReport)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "phase"));
    for (label, _) in columns {
        out.push_str(&format!(" {label:>22}"));
    }
    out.push('\n');
    for &phase in phases {
        if columns.iter().all(|(_, rep)| rep.total_ns(phase) == 0) {
            continue;
        }
        out.push_str(&format!("{phase:<18}"));
        let base_ns = columns.first().map_or(0, |(_, rep)| rep.total_ns(phase));
        for (i, (_, rep)) in columns.iter().enumerate() {
            let ns = rep.total_ns(phase);
            let ms = ns as f64 / 1e6;
            if i == 0 || base_ns == 0 {
                out.push_str(&format!(" {:>22}", format!("{ms:.3} ms")));
            } else {
                let delta = (ns as f64 - base_ns as f64) / base_ns as f64 * 100.0;
                out.push_str(&format!(" {:>22}", format!("{ms:.3} ms ({delta:+.1}%)")));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, TraceLevel};

    fn trace_with(spans: &[(&'static str, u64)]) -> Trace {
        let rec = Recorder::new(TraceLevel::Splits);
        for (i, &(name, dur)) in spans.iter().enumerate() {
            rec.push_complete(
                TraceLevel::Phases,
                name,
                "t",
                0,
                i as u64 * 10,
                dur,
                Vec::new(),
            );
        }
        rec.drain()
    }

    #[test]
    fn aggregates_by_name() {
        let rep =
            TraceReport::from_trace(&trace_with(&[("split", 5), ("split", 7), ("combine", 3)]));
        assert_eq!(rep.count("split"), 2);
        assert_eq!(rep.total_ns("split"), 12);
        assert_eq!(rep.total_ns("combine"), 3);
        assert_eq!(rep.total_ns("missing"), 0);
        assert_eq!(rep.count("missing"), 0);
    }

    #[test]
    fn render_lists_every_row() {
        let rep =
            TraceReport::from_trace(&trace_with(&[("split", 2_000_000), ("combine", 1_000_000)]));
        let table = rep.render();
        assert!(table.contains("split"));
        assert!(table.contains("combine"));
        assert!(table.contains("2.000"));
    }

    #[test]
    fn comparison_shows_deltas_and_drops_empty_rows() {
        let a = TraceReport::from_trace(&trace_with(&[("split", 10_000_000)]));
        let b = TraceReport::from_trace(&trace_with(&[("split", 5_000_000)]));
        let cols = vec![("generated".to_string(), a), ("opt-2".to_string(), b)];
        let table = render_comparison(&["split", "combine"], &cols);
        assert!(table.contains("split"));
        assert!(
            !table.contains("combine"),
            "all-zero phase must be dropped:\n{table}"
        );
        assert!(table.contains("(-50.0%)"), "missing delta:\n{table}");
    }
}
