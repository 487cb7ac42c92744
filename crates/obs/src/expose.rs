//! Prometheus-style plaintext exposition for a [`MetricsSnapshot`] —
//! the body served by `cfr-serve`'s `/metrics` endpoint.
//!
//! Zero-dependency rendering of the text format scrapers understand:
//! one `# TYPE` line per family, counters and gauges as plain samples,
//! histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
//! `_count`. Metric names are sanitized to `[a-zA-Z0-9_]` (dots become
//! underscores) and prefixed `cfr_` so families from this stack never
//! collide with a co-located exporter.

use crate::metrics::MetricsSnapshot;

/// Sanitize a hub metric name into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("cfr_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render the snapshot in the Prometheus plaintext exposition format.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    for (name, value) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for (_, upper, count) in h.nonzero_buckets() {
            cumulative += count;
            if upper == u64::MAX {
                continue; // folded into +Inf below
            }
            out.push_str(&format!("{n}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("{n}_sum {}\n", h.sum()));
        out.push_str(&format!("{n}_count {}\n", h.count()));
    }
    out
}

/// Parse counter samples back out of a Prometheus plaintext body:
/// `(family, value)` for every non-comment, label-free line. Histogram
/// `_count`/`_sum`/`_bucket` series appear under their full sample
/// names. Used by `trace-check --expect-counter` against a scraped
/// `/metrics` body.
pub fn parse_prometheus_counters(body: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        // Strip any label set: cfr_x_bucket{le="8"} → cfr_x_bucket.
        let name = name.split('{').next().unwrap_or(name);
        if let Ok(v) = value.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

#[cfg(test)]
mod expose_tests {
    use super::*;
    use crate::metrics::MetricsHub;

    #[test]
    fn renders_all_three_families() {
        let hub = MetricsHub::new(true);
        hub.add("fleet.rounds", 12);
        hub.gauge("queue.depth", 3.0);
        hub.observe("round_ns", 900);
        hub.observe("round_ns", 15_000);
        let body = render_prometheus(&hub.snapshot());
        assert!(body.contains("# TYPE cfr_fleet_rounds counter"), "{body}");
        assert!(body.contains("cfr_fleet_rounds 12"), "{body}");
        assert!(body.contains("# TYPE cfr_queue_depth gauge"), "{body}");
        assert!(body.contains("# TYPE cfr_round_ns histogram"), "{body}");
        assert!(
            body.contains("cfr_round_ns_bucket{le=\"+Inf\"} 2"),
            "{body}"
        );
        assert!(body.contains("cfr_round_ns_sum 15900"), "{body}");
        assert!(body.contains("cfr_round_ns_count 2"), "{body}");
    }

    #[test]
    fn bucket_series_are_cumulative() {
        let hub = MetricsHub::new(true);
        hub.observe("h", 1);
        hub.observe("h", 1);
        hub.observe("h", 1_000_000);
        let body = render_prometheus(&hub.snapshot());
        // First bucket (le="2") holds 2 samples; +Inf holds all 3.
        assert!(body.contains("cfr_h_bucket{le=\"2\"} 2"), "{body}");
        assert!(body.contains("cfr_h_bucket{le=\"+Inf\"} 3"), "{body}");
    }

    #[test]
    fn parse_reads_back_rendered_counters() {
        let hub = MetricsHub::new(true);
        hub.add("serve.jobs_done", 4);
        hub.observe("round_ns", 100);
        let body = render_prometheus(&hub.snapshot());
        let parsed = parse_prometheus_counters(&body);
        assert!(parsed
            .iter()
            .any(|(n, v)| n == "cfr_serve_jobs_done" && *v == 4.0));
        assert!(parsed
            .iter()
            .any(|(n, v)| n == "cfr_round_ns_count" && *v == 1.0));
    }
}
