//! obs — the observability substrate of the chapel-freeride stack.
//!
//! A zero-dependency structured tracing + metrics recorder, cheap enough
//! to stay compiled into release builds and enabled in production runs.
//! The design follows the paper's evaluation methodology: every figure
//! attributes time to *phases* (split reduction, combination, finalize,
//! linearization, compile stages), so the recorder's unit of record is a
//! **span** — a named interval on a worker track — whose attributes
//! carry the facts of that interval. Counts that outlive one span (job
//! totals) live in the [`MetricsHub`] riding on every recorder.
//!
//! * [`Recorder`] — sharded, mutex-per-shard span sink with a monotonic
//!   epoch. Recording is guarded by a [`TraceLevel`]; at
//!   [`TraceLevel::Off`] nothing is allocated or locked.
//! * [`Span`] — an RAII guard that records a complete span on drop, or
//!   [`Recorder::push_complete`] for spans whose timing was measured by
//!   the caller (the engine's per-split stats buffer, flushed at run
//!   end, uses this so the hot path never touches the recorder).
//! * [`Trace`] — the drained result. Exports as Chrome `trace_event`
//!   JSON ([`Trace::chrome_json`], loadable in `chrome://tracing` and
//!   Perfetto), or with a hub snapshot as a flat metrics JSON
//!   ([`Trace::metrics_json`]).
//! * [`TraceReport`] — per-phase aggregation and the human tables the
//!   bench harness prints (`--report`).
//! * [`validate_chrome_trace`] — the schema validator behind the
//!   `trace-check` binary; CI fails on schema drift.
//!
//! ```
//! use obs::{Recorder, TraceLevel};
//!
//! let rec = Recorder::new(TraceLevel::Phases);
//! {
//!     let mut span = rec.span(TraceLevel::Phases, "combine", "engine", 0);
//!     span.attr_int("copies", 4);
//! } // recorded on drop
//! let trace = rec.drain();
//! assert_eq!(trace.spans.len(), 1);
//! assert!(obs::validate_chrome_trace(&trace.chrome_json()).is_ok());
//! ```

#![warn(missing_docs)]

mod chrome;
pub mod codec;
mod expose;
mod flight;
mod json;
mod metrics;
mod report;
mod wire;

pub use chrome::{validate_chrome_trace, ChromeTraceSummary};
pub use expose::{parse_prometheus_counters, render_prometheus};
pub use flight::FlightRecorder;
pub use json::{parse_json, JsonValue};
pub use metrics::{metric_name, Histogram, MetricsHub, MetricsSnapshot, HIST_BUCKETS};
pub use report::{render_comparison, PhaseRow, TraceReport};
pub use wire::{intern, TraceDecodeError};

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much the recorder captures. Levels are ordered: each level
/// includes everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing; every recorder call is a cheap no-op.
    #[default]
    Off,
    /// Per-pass phase spans (reduce pass, combine, finalize, pipeline
    /// stages). Budgeted at < 2% overhead.
    Phases,
    /// Additionally one span per executed split (worker id, row range,
    /// read-vs-reduce breakdown on the disk path).
    Splits,
}

impl TraceLevel {
    /// Parse a level from its lowercase name.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "phases" => Some(TraceLevel::Phases),
            "splits" => Some(TraceLevel::Splits),
            _ => None,
        }
    }

    /// The lowercase name of the level.
    pub fn name(&self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Phases => "phases",
            TraceLevel::Splits => "splits",
        }
    }
}

/// One span attribute value (the Chrome exporter writes them as `args`).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer attribute (counts, ids, row ranges).
    Int(i64),
    /// Floating-point attribute.
    Float(f64),
    /// String attribute.
    Str(String),
}

/// A recorded complete span: a named interval on track `tid` of process
/// `pid`, with offsets relative to the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. `"split"`, `"combine"`, `"frontend.parse"`).
    pub name: &'static str,
    /// Category (e.g. `"engine"`, `"pipeline"`, `"pool"`, `"io"`).
    pub cat: &'static str,
    /// Process track — 0 from the recorder; exporters may reassign it to
    /// separate versions/runs in one merged trace.
    pub pid: usize,
    /// Thread track (OS worker index; 0 for the driver thread).
    pub tid: usize,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Attributes, exported as Chrome `args`.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Look up an integer attribute by name (`Float` values truncate,
    /// strings are `None`).
    pub fn attr_i64(&self, key: &str) -> Option<i64> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| match v {
                AttrValue::Int(x) => Some(*x),
                AttrValue::Float(x) => Some(*x as i64),
                AttrValue::Str(_) => None,
            })
    }
}

/// Number of buffer shards; pushes lock only `shards[tid % SHARDS]`, so
/// concurrent workers on distinct tracks almost never contend.
const SHARDS: usize = 64;

/// The span sink. Create one per traced job (or share one across an
/// engine and the compiler pipeline feeding it) and [`drain`]
/// (`Recorder::drain`) at run end.
pub struct Recorder {
    level: TraceLevel,
    epoch: Instant,
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    /// The one store of counts (job totals), riding alongside the span
    /// buffers; enabled by default whenever the recorder itself records.
    hub: Arc<MetricsHub>,
    /// Optional bounded ring teeing every accepted span (set at
    /// construction via [`Recorder::with_flight`]).
    flight: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("level", &self.level)
            .field("events", &self.event_count())
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new(TraceLevel::Off)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Recorder {
    /// Create a recorder capturing at `level`. The epoch (timestamp
    /// zero of every span) is the creation instant.
    pub fn new(level: TraceLevel) -> Recorder {
        Recorder {
            level,
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            hub: Arc::new(MetricsHub::new(level != TraceLevel::Off)),
            flight: None,
        }
    }

    /// Like [`Recorder::new`], additionally teeing every accepted span
    /// into `flight` (a bounded ring the server dumps on job failure).
    pub fn with_flight(level: TraceLevel, flight: Arc<FlightRecorder>) -> Recorder {
        let mut rec = Recorder::new(level);
        rec.flight = Some(flight);
        rec
    }

    /// The configured capture level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The live metrics hub riding alongside this recorder. Enabled by
    /// default iff the recorder records; flip independently with
    /// [`MetricsHub::set_enabled`].
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Whether events at `at` are recorded (`false` whenever the
    /// recorder is [`TraceLevel::Off`]).
    pub fn enabled(&self, at: TraceLevel) -> bool {
        at != TraceLevel::Off && self.level >= at
    }

    /// Nanoseconds from the epoch to `at` (0 if `at` precedes it).
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds from the epoch to now.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span at level `at` on track `tid`; it records itself when
    /// dropped (or via [`Span::finish`]). Disabled spans cost one branch
    /// and allocate nothing.
    pub fn span(
        &self,
        at: TraceLevel,
        name: &'static str,
        cat: &'static str,
        tid: usize,
    ) -> Span<'_> {
        if !self.enabled(at) {
            return Span { inner: None };
        }
        Span {
            inner: Some(SpanInner {
                rec: self,
                name,
                cat,
                tid,
                start: Instant::now(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Record a complete span whose interval was measured by the caller
    /// (e.g. flushed from a worker's local stats buffer at run end).
    // Mirrors the flat SpanRecord fields on purpose: call sites stamp
    // every field from locals, and a builder would cost an allocation
    // on a path the engine takes per pass.
    #[allow(clippy::too_many_arguments)]
    pub fn push_complete(
        &self,
        at: TraceLevel,
        name: &'static str,
        cat: &'static str,
        tid: usize,
        start_ns: u64,
        dur_ns: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        if !self.enabled(at) {
            return;
        }
        self.push(SpanRecord {
            name,
            cat,
            pid: 0,
            tid,
            start_ns,
            dur_ns,
            attrs,
        });
    }

    /// Record an instant event (exported as a zero-duration span with an
    /// `instant` marker attribute).
    pub fn instant(
        &self,
        at: TraceLevel,
        name: &'static str,
        cat: &'static str,
        tid: usize,
        mut attrs: Vec<(&'static str, AttrValue)>,
    ) {
        if !self.enabled(at) {
            return;
        }
        attrs.push(("instant", AttrValue::Int(1)));
        let now = self.now_ns();
        self.push(SpanRecord {
            name,
            cat,
            pid: 0,
            tid,
            start_ns: now,
            dur_ns: 0,
            attrs,
        });
    }

    fn push(&self, record: SpanRecord) {
        if let Some(flight) = &self.flight {
            flight.record(&record);
        }
        lock(&self.shards[record.tid % SHARDS]).push(record);
    }

    /// Spans currently buffered.
    pub fn event_count(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Take everything recorded so far, leaving the recorder empty (the
    /// epoch is preserved, so later spans stay on the same timeline).
    pub fn drain(&self) -> Trace {
        let mut spans: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            spans.append(&mut lock(shard));
        }
        spans.sort_by_key(|s| (s.start_ns, s.tid, s.name));
        Trace { spans }
    }
}

struct SpanInner<'a> {
    rec: &'a Recorder,
    name: &'static str,
    cat: &'static str,
    tid: usize,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// RAII span guard returned by [`Recorder::span`]; records a complete
/// span when dropped. A guard from a disabled recorder does nothing.
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

impl Span<'_> {
    /// Attach an integer attribute.
    pub fn attr_int(&mut self, key: &'static str, value: i64) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::Int(value)));
        }
    }

    /// Attach a floating-point attribute.
    pub fn attr_f64(&mut self, key: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::Float(value)));
        }
    }

    /// Attach a string attribute.
    pub fn attr_str(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::Str(value.into())));
        }
    }

    /// Whether this guard will record anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let start_ns = inner.rec.offset_ns(inner.start);
            let dur_ns = inner.start.elapsed().as_nanos() as u64;
            inner.rec.push(SpanRecord {
                name: inner.name,
                cat: inner.cat,
                pid: 0,
                tid: inner.tid,
                start_ns,
                dur_ns,
                attrs: inner.attrs,
            });
        }
    }
}

/// Everything one recorder captured: its spans. Obtained from
/// [`Recorder::drain`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Complete spans, sorted by start offset.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Merge `other` into `self`, reassigning every incoming span to
    /// process track `pid` (used to lay several versions/runs side by
    /// side in one Chrome trace).
    pub fn merge_as(&mut self, pid: usize, other: Trace) {
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.pid = pid;
            s
        }));
    }

    /// Total duration of all spans named `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Export as Chrome `trace_event` JSON (the object form,
    /// `{"traceEvents": [...]}`), loadable in `chrome://tracing` and
    /// Perfetto. Every event is a complete (`"ph": "X"`) event carrying
    /// `name`/`cat`/`ts`/`dur`/`pid`/`tid` and its attributes as `args`.
    pub fn chrome_json(&self) -> String {
        chrome::chrome_json(self)
    }

    /// Export `metrics`' counters and gauges (the hub the job ran
    /// with) and this trace's per-span-name aggregates as one flat
    /// metrics JSON object.
    pub fn metrics_json(&self, metrics: &MetricsSnapshot) -> String {
        chrome::metrics_json(self, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_allocates_no_events() {
        let rec = Recorder::new(TraceLevel::Off);
        {
            let mut span = rec.span(TraceLevel::Phases, "x", "t", 0);
            assert!(!span.is_recording());
            span.attr_int("k", 1);
        }
        rec.instant(TraceLevel::Phases, "e", "t", 0, Vec::new());
        rec.push_complete(TraceLevel::Phases, "p", "t", 0, 0, 10, Vec::new());
        assert_eq!(rec.event_count(), 0);
        let trace = rec.drain();
        assert!(trace.spans.is_empty());
        assert!(rec.hub().snapshot().is_empty());
    }

    #[test]
    fn levels_are_ordered() {
        let rec = Recorder::new(TraceLevel::Phases);
        assert!(rec.enabled(TraceLevel::Phases));
        assert!(!rec.enabled(TraceLevel::Splits));
        assert!(!rec.enabled(TraceLevel::Off));
        let rec = Recorder::new(TraceLevel::Splits);
        assert!(rec.enabled(TraceLevel::Phases));
        assert!(rec.enabled(TraceLevel::Splits));
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [TraceLevel::Off, TraceLevel::Phases, TraceLevel::Splits] {
            assert_eq!(TraceLevel::parse(l.name()), Some(l));
        }
        assert_eq!(TraceLevel::parse("bogus"), None);
    }

    #[test]
    fn spans_drain() {
        let rec = Recorder::new(TraceLevel::Splits);
        {
            let mut span = rec.span(TraceLevel::Phases, "combine", "engine", 0);
            span.attr_int("copies", 4);
        }
        rec.push_complete(
            TraceLevel::Splits,
            "split",
            "engine",
            3,
            100,
            50,
            vec![("rows", AttrValue::Int(10))],
        );
        let trace = rec.drain();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.count("split"), 1);
        assert_eq!(trace.total_ns("split"), 50);
        // Drained: a second drain is empty.
        assert!(rec.drain().spans.is_empty());
    }

    #[test]
    fn instant_events_are_zero_duration_marked() {
        let rec = Recorder::new(TraceLevel::Phases);
        rec.instant(
            TraceLevel::Phases,
            "pool.grow",
            "pool",
            0,
            vec![("threads", AttrValue::Int(3))],
        );
        let trace = rec.drain();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].dur_ns, 0);
        assert!(trace.spans[0]
            .attrs
            .contains(&("instant", AttrValue::Int(1))));
    }

    #[test]
    fn merge_as_separates_pids() {
        let rec = Recorder::new(TraceLevel::Phases);
        rec.span(TraceLevel::Phases, "a", "t", 0).finish();
        let t1 = rec.drain();
        rec.span(TraceLevel::Phases, "b", "t", 0).finish();
        let t2 = rec.drain();
        let mut merged = Trace::default();
        merged.merge_as(0, t1);
        merged.merge_as(1, t2);
        assert_eq!(merged.spans.len(), 2);
        assert_eq!(merged.spans.iter().filter(|s| s.pid == 1).count(), 1);
    }

    #[test]
    fn concurrent_pushes_from_many_threads() {
        let rec = std::sync::Arc::new(Recorder::new(TraceLevel::Splits));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..100 {
                        rec.push_complete(
                            TraceLevel::Splits,
                            "split",
                            "engine",
                            t,
                            i,
                            1,
                            Vec::new(),
                        );
                    }
                });
            }
        });
        assert_eq!(rec.event_count(), 800);
    }
}
