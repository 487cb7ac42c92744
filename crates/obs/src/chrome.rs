//! Chrome `trace_event` / metrics JSON exporters and the schema
//! validator used by the `trace-check` binary and CI.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::json::{parse_json, JsonValue};
use crate::{AttrValue, MetricsSnapshot, Trace};

/// Escape a string for inclusion in a JSON document (quotes included).
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_attrs(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(out, k);
        out.push(':');
        match v {
            AttrValue::Int(x) => {
                let _ = write!(out, "{x}");
            }
            AttrValue::Float(x) => json_f64(out, *x),
            AttrValue::Str(s) => json_str(out, s),
        }
    }
    out.push('}');
}

/// Render `trace` in Chrome `trace_event` object form. Timestamps and
/// durations are microseconds (the format's unit), kept fractional so
/// nanosecond spans survive.
pub(crate) fn chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_str(&mut out, s.name);
        out.push_str(",\"cat\":");
        json_str(&mut out, s.cat);
        out.push_str(",\"ph\":\"X\",\"ts\":");
        json_f64(&mut out, s.start_ns as f64 / 1000.0);
        out.push_str(",\"dur\":");
        json_f64(&mut out, s.dur_ns as f64 / 1000.0);
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", s.pid, s.tid);
        if !s.attrs.is_empty() {
            out.push_str(",\"args\":");
            write_attrs(&mut out, &s.attrs);
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Render the snapshot's counters and gauges and the trace's
/// per-span-name aggregates as one flat metrics JSON object.
pub(crate) fn metrics_json(trace: &Trace, metrics: &MetricsSnapshot) -> String {
    let report = crate::TraceReport::from_trace(trace);
    let mut out = String::from("{\"counters\":{");
    for (i, (k, v)) in metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in metrics.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, k);
        out.push(':');
        json_f64(&mut out, *v);
    }
    out.push_str("},\"spans\":{");
    for (i, row) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, &row.name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"total_ns\":{}}}",
            row.count, row.total_ns
        );
    }
    out.push_str("}}");
    out
}

/// Summary of a validated Chrome trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Number of trace events.
    pub events: usize,
    /// Distinct `tid` values (worker tracks).
    pub tids: usize,
    /// Distinct `pid` values (process tracks).
    pub pids: usize,
    /// Distinct event names, sorted.
    pub names: Vec<String>,
    /// Distinct `(event name, args key)` pairs, sorted — which
    /// attributes each span family carries (`trace-check
    /// --expect-attr name:key` checks membership).
    pub attrs: Vec<(String, String)>,
}

/// Validate the Chrome `trace_event` JSON shape this crate exports:
/// a top-level object with a `traceEvents` array in which every event
/// carries `name` (string), `ph` (`"X"`), numeric `ts`, `dur`, `pid`,
/// and `tid`. Returns a summary on success, a description of the first
/// violation otherwise.
pub fn validate_chrome_trace(src: &str) -> Result<ChromeTraceSummary, String> {
    let doc = parse_json(src)?;
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| "missing top-level `traceEvents` key".to_string())?
        .as_arr()
        .ok_or_else(|| "`traceEvents` is not an array".to_string())?;

    let mut tids: BTreeSet<u64> = BTreeSet::new();
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut attrs: BTreeSet<(String, String)> = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, JsonValue::Obj(_)) {
            return Err(format!("event {i} is not an object"));
        }
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ph`"))?;
        if ph != "X" {
            return Err(format!(
                "event {i}: `ph` is `{ph}`, expected complete event `X`"
            ));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            let v = ev
                .get(key)
                .and_then(JsonValue::as_num)
                .ok_or_else(|| format!("event {i}: missing numeric `{key}`"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "event {i}: `{key}` = {v} is not a non-negative number"
                ));
            }
        }
        if let Some(args) = ev.get("args") {
            let JsonValue::Obj(pairs) = args else {
                return Err(format!("event {i}: `args` is not an object"));
            };
            for (k, _) in pairs {
                attrs.insert((name.to_string(), k.clone()));
            }
        }
        tids.insert(ev.get("tid").and_then(JsonValue::as_num).unwrap_or(0.0) as u64);
        pids.insert(ev.get("pid").and_then(JsonValue::as_num).unwrap_or(0.0) as u64);
        names.insert(name.to_string());
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        tids: tids.len(),
        pids: pids.len(),
        names: names.into_iter().collect(),
        attrs: attrs.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, TraceLevel};

    fn sample_trace() -> Trace {
        let rec = Recorder::new(TraceLevel::Splits);
        rec.push_complete(
            TraceLevel::Splits,
            "split",
            "engine",
            1,
            100,
            5_000,
            vec![
                ("rows", AttrValue::Int(250)),
                ("label", AttrValue::Str("a\"b".into())),
                ("frac", AttrValue::Float(0.5)),
            ],
        );
        rec.push_complete(
            TraceLevel::Phases,
            "combine",
            "engine",
            0,
            6_000,
            2_000,
            Vec::new(),
        );
        rec.drain()
    }

    #[test]
    fn chrome_export_round_trips_through_validator() {
        let trace = sample_trace();
        let json = trace.chrome_json();
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.events, 2);
        assert_eq!(summary.tids, 2);
        assert_eq!(
            summary.names,
            vec!["combine".to_string(), "split".to_string()]
        );
    }

    #[test]
    fn chrome_export_has_required_keys_and_units() {
        let trace = sample_trace();
        let doc = parse_json(&trace.chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let split = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("split"))
            .unwrap();
        // 100 ns → 0.1 µs, 5000 ns → 5 µs.
        assert_eq!(split.get("ts").unwrap().as_num(), Some(0.1));
        assert_eq!(split.get("dur").unwrap().as_num(), Some(5.0));
        assert_eq!(split.get("tid").unwrap().as_num(), Some(1.0));
        assert_eq!(
            split.get("args").unwrap().get("rows").unwrap().as_num(),
            Some(250.0)
        );
        assert_eq!(
            split.get("args").unwrap().get("label").unwrap().as_str(),
            Some("a\"b")
        );
    }

    #[test]
    fn validator_rejects_drift() {
        assert!(validate_chrome_trace("[]").is_err(), "array root");
        assert!(validate_chrome_trace("{}").is_err(), "no traceEvents");
        assert!(
            validate_chrome_trace(
                r#"{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":1,"pid":0}]}"#
            )
            .is_err(),
            "missing tid"
        );
        assert!(
            validate_chrome_trace(
                r#"{"traceEvents":[{"name":"x","ph":"B","ts":1,"dur":1,"pid":0,"tid":0}]}"#
            )
            .is_err(),
            "wrong ph"
        );
        assert!(
            validate_chrome_trace(
                r#"{"traceEvents":[{"name":"x","ph":"X","ts":-4,"dur":1,"pid":0,"tid":0}]}"#
            )
            .is_err(),
            "negative ts"
        );
    }

    #[test]
    fn metrics_json_is_valid_json_with_aggregates() {
        let trace = sample_trace();
        let hub = crate::MetricsHub::new(true);
        hub.add("pool.dispatches", 2);
        hub.gauge("threads", 2.0);
        let doc = parse_json(&trace.metrics_json(&hub.snapshot())).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("pool.dispatches")
                .unwrap()
                .as_num(),
            Some(2.0)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("threads").unwrap().as_num(),
            Some(2.0)
        );
        let split = doc.get("spans").unwrap().get("split").unwrap();
        assert_eq!(split.get("count").unwrap().as_num(), Some(1.0));
        assert_eq!(split.get("total_ns").unwrap().as_num(), Some(5000.0));
    }
}
