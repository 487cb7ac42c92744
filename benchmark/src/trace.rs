//! The benchmark's own span recorder: spans are taken around calls
//! into the layers' public functions, never inside them, so the traced
//! run needs no tracing support from the program.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use obs::{AttrValue, Recorder, TraceLevel};

use crate::stats::SpanRow;

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRow>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn record<T>(
        &self,
        name: &'static str,
        tid: usize,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("no span closure panics");
            spans.push(SpanRow {
                name,
                tid,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                dur_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        let start = Instant::now();
        let out = f(id);
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.lock().expect("no span closure panics")[id].dur_ns = dur_ns;
        out
    }

    /// A root span (one traced job) on track `tid`; `f` gets the span's
    /// id to hang children on.
    pub fn root<T>(&self, name: &'static str, tid: usize, f: impl FnOnce(usize) -> T) -> T {
        self.record(name, tid, None, f)
    }

    /// A span around one call into a layer, named `<layer>.<call>`.
    pub fn span<T>(&self, parent: usize, name: &'static str, f: impl FnOnce(usize) -> T) -> T {
        let tid = self.spans.lock().expect("no span closure panics")[parent].tid;
        self.record(name, tid, Some(parent), f)
    }

    pub fn spans(&self) -> Vec<SpanRow> {
        self.spans.lock().expect("no span closure panics").clone()
    }

    /// Write the spans as a Chrome trace (`obs` is the exporter), each
    /// with its id, parent id and workload name as arguments.
    pub fn write(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let rec = Recorder::new(TraceLevel::Phases);
        for (id, s) in self.spans().iter().enumerate() {
            rec.push_complete(
                TraceLevel::Phases,
                s.name,
                "benchmark",
                s.tid,
                s.start_ns,
                s.dur_ns,
                vec![
                    ("id", AttrValue::Int(id as i64)),
                    ("parent", AttrValue::Int(s.parent.map_or(-1, |p| p as i64))),
                    ("workload", AttrValue::Str(workload.to_string())),
                ],
            );
        }
        std::fs::write(path, rec.drain().chrome_json())
    }
}

/// Where a span would hang: the tracer and the parent span, or nowhere
/// when the run is not traced.
pub type At<'a> = Option<(&'a Tracer, usize)>;

/// Run `f` under a span at `at`, or bare when the run is not traced —
/// so a job written in the benchmark is one piece of code, timed and
/// traced alike. `f` gets the place its own children hang.
pub fn maybe<T>(at: At<'_>, name: &'static str, f: impl FnOnce(At<'_>) -> T) -> T {
    match at {
        Some((tracer, parent)) => tracer.span(parent, name, |id| f(Some((tracer, id)))),
        None => f(None),
    }
}
