//! Binary wire codec for [`Trace`] — lets a cluster node ship its
//! drained trace to the coordinator, which merges it as a separate
//! Chrome `pid` track ([`Trace::merge_as`]).
//!
//! Format: magic `b"FRTR"`, version `u16`, then a length-prefixed span
//! section, all little-endian. Version 2 dropped the counter and gauge
//! sections of version 1: counts travel in the `FRMT` metrics frame
//! only. Decoding untrusted
//! bytes never panics: malformed, truncated, or version-mismatched
//! frames return [`TraceDecodeError`]. Span `name`/`cat` are
//! `&'static str` in [`SpanRecord`], so the decoder interns incoming
//! strings ([`intern`]) — the deduplicated set leaks by design (span
//! names are a small closed vocabulary per build).

use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::codec::{
    expect_version, put_f64, put_i64, put_str, put_u32, put_u64, Cursor, DecodeError,
};
use crate::{AttrValue, SpanRecord, Trace};

const MAGIC: &[u8; 4] = b"FRTR";
const VERSION: u16 = 2;
/// Bounds on untrusted length fields so a corrupt frame cannot trigger
/// a huge allocation before the truncation check fires.
const MAX_STR_LEN: u32 = 1 << 16;
const MAX_ITEMS: u32 = 1 << 24;

/// Error decoding a serialized trace frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDecodeError {
    /// Description of the problem.
    pub reason: String,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad trace frame: {}", self.reason)
    }
}

impl std::error::Error for TraceDecodeError {}

impl From<DecodeError> for TraceDecodeError {
    fn from(e: DecodeError) -> TraceDecodeError {
        TraceDecodeError {
            reason: e.to_string(),
        }
    }
}

/// Intern a string, returning a `&'static str` that is pointer-stable
/// for the process lifetime. Repeated calls with the same content
/// return the same leaked allocation.
pub fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

impl Trace {
    /// Serialize the trace's spans as a versioned binary frame for
    /// shipping across a process boundary.
    pub fn encode_bin(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.spans.len() * 48);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_u32(&mut out, self.spans.len() as u32);
        for s in &self.spans {
            put_str(&mut out, s.name);
            put_str(&mut out, s.cat);
            put_u32(&mut out, s.pid as u32);
            put_u32(&mut out, s.tid as u32);
            put_u64(&mut out, s.start_ns);
            put_u64(&mut out, s.dur_ns);
            put_u32(&mut out, s.attrs.len() as u32);
            for (k, v) in &s.attrs {
                put_str(&mut out, k);
                match v {
                    AttrValue::Int(x) => {
                        out.push(0);
                        put_i64(&mut out, *x);
                    }
                    AttrValue::Float(x) => {
                        out.push(1);
                        put_f64(&mut out, *x);
                    }
                    AttrValue::Str(x) => {
                        out.push(2);
                        put_str(&mut out, x);
                    }
                }
            }
        }
        out
    }

    /// Decode a frame produced by [`Trace::encode_bin`]. Never panics
    /// on malformed input; span names/cats/attr keys are interned.
    pub fn decode_bin(bytes: &[u8]) -> Result<Trace, TraceDecodeError> {
        let mut r = Cursor::new(bytes);
        r.magic(MAGIC)?;
        expect_version("trace codec", r.u16("version")?.into(), VERSION.into())?;
        // A span is at least two empty strings, pid, tid, start, dur
        // and an attr count.
        let span_count = r.count(MAX_ITEMS, 36, "span count")?;
        let mut trace = Trace::default();
        trace.spans.reserve(span_count);
        for _ in 0..span_count {
            let name = intern(r.str(MAX_STR_LEN, "span name")?);
            let cat = intern(r.str(MAX_STR_LEN, "span cat")?);
            let pid = r.u32("span pid")? as usize;
            let tid = r.u32("span tid")? as usize;
            let start_ns = r.u64("span start")?;
            let dur_ns = r.u64("span dur")?;
            // An attr is at least an empty key, a tag and a 4-byte value.
            let attr_count = r.count(MAX_ITEMS, 9, "attr count")?;
            let mut attrs = Vec::with_capacity(attr_count);
            for _ in 0..attr_count {
                let key = intern(r.str(MAX_STR_LEN, "attr key")?);
                let value = match r.u8("attr tag")? {
                    0 => AttrValue::Int(r.i64("attr int")?),
                    1 => AttrValue::Float(r.f64("attr float")?),
                    2 => AttrValue::Str(r.str(MAX_STR_LEN, "attr str")?.into()),
                    t => {
                        return Err(TraceDecodeError {
                            reason: format!("unknown attr tag {t}"),
                        })
                    }
                };
                attrs.push((key, value));
            }
            trace.spans.push(SpanRecord {
                name,
                cat,
                pid,
                tid,
                start_ns,
                dur_ns,
                attrs,
            });
        }
        r.finish()?;
        Ok(trace)
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use crate::{Recorder, TraceLevel};

    fn sample() -> Trace {
        let rec = Recorder::new(TraceLevel::Splits);
        {
            let mut span = rec.span(TraceLevel::Phases, "pass", "engine", 0);
            span.attr_int("splits", 4);
            span.attr_f64("ratio", 0.5);
            span.attr_str("mode", "threads");
        }
        rec.push_complete(
            TraceLevel::Splits,
            "split",
            "engine",
            3,
            100,
            50,
            Vec::new(),
        );
        rec.drain()
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let back = Trace::decode_bin(&t.encode_bin()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn intern_dedups() {
        let a = intern("node.pass");
        let b = intern(&String::from("node.pass"));
        assert!(std::ptr::eq(a, b));
        assert_ne!(intern("x") as *const str, intern("y") as *const str);
    }

    #[test]
    fn truncation_is_error_at_every_length() {
        let full = sample().encode_bin();
        for n in 0..full.len() {
            assert!(
                Trace::decode_bin(&full[..n]).is_err(),
                "prefix of {n} bytes decoded"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_rejected() {
        let mut b = sample().encode_bin();
        b[0] = b'X';
        assert!(Trace::decode_bin(&b).is_err());
        let mut b = sample().encode_bin();
        b[4] = 9;
        let e = Trace::decode_bin(&b).unwrap_err();
        assert!(e.to_string().contains("version"), "got: {e}");
        let mut b = sample().encode_bin();
        b.push(0);
        assert!(Trace::decode_bin(&b).is_err());
    }

    #[test]
    fn implausible_counts_rejected_before_allocating() {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Trace::decode_bin(&b).is_err());
    }

    #[test]
    fn merged_decoded_trace_keeps_pid_reassignment() {
        let mut merged = Trace::default();
        merged.merge_as(0, sample());
        let shipped = Trace::decode_bin(&sample().encode_bin()).unwrap();
        merged.merge_as(1, shipped);
        assert_eq!(merged.spans.iter().filter(|s| s.pid == 1).count(), 2);
    }
}
