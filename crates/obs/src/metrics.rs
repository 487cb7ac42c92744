//! Live metrics: a lock-sharded [`MetricsHub`] of counters, gauges, and
//! log-linear-bucket [`Histogram`]s, plus the versioned `FRMT` wire
//! frame ([`MetricsSnapshot::encode_bin`]) that `cfr-node` agents use to
//! push per-shard snapshots to the coordinator.
//!
//! Where [`crate::Recorder`] is post-hoc (spans accumulate, drain at run
//! end), the hub is *live*: layers update it in place and any thread can
//! [`MetricsHub::snapshot`] the current values at any moment — this is
//! what the `/metrics` exposition endpoint and `cfr-top` read. The hub
//! is gated by a single relaxed atomic: disabled, every operation is
//! one branch and touches no lock, so it can stay compiled into the hot
//! path.
//!
//! Histograms use log-linear buckets (8 linear sub-buckets per power of
//! two, ≤12.5% relative error) so a fixed, mergeable bucket layout
//! covers the full `u64` nanosecond range — the same layout on every
//! node means fleet aggregation is plain per-bucket addition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::codec::{expect_version, fnv1a64, put_f64, put_i64, put_str, put_u32, put_u64, Cursor};
use crate::wire::{intern, TraceDecodeError};

const MAGIC: &[u8; 4] = b"FRMT";
const VERSION: u16 = 1;
/// Bounds on untrusted length fields (same discipline as `FRTR`).
const MAX_STR_LEN: u32 = 1 << 16;
const MAX_ITEMS: u32 = 1 << 24;
/// Frames larger than this are rejected before any parsing.
const MAX_FRAME_LEN: usize = 64 << 20;

/// Linear sub-buckets per power of two. 8 keeps the relative error of a
/// bucket bound at ≤ 1/8.
const SUBS: usize = 8;
/// Total bucket count: values 0..8 get one bucket each, then 8
/// sub-buckets for every octave `[2^k, 2^(k+1))` with `k` in `3..=63`.
pub const HIST_BUCKETS: usize = SUBS + 61 * SUBS;

/// Bucket index for a value (log-linear layout; monotone in `v`).
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // 3..=63
    let off = ((v >> (msb - 3)) & 7) as usize;
    SUBS + (msb - 3) * SUBS + off
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < SUBS {
        return i as u64;
    }
    let g = (i - SUBS) / SUBS;
    let off = (i - SUBS) % SUBS;
    ((SUBS + off) as u64) << g
}

/// Exclusive upper bound of bucket `i` (`u64::MAX` for the last).
fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1)
    }
}

/// A fixed-layout log-linear histogram of `u64` samples (typically
/// nanoseconds or bytes). Identical layout everywhere, so fleet-wide
/// aggregation is [`Histogram::merge`] — per-bucket addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0..=1.0`); 0 when empty. Error is bounded by the bucket
    /// width, ≤12.5% of the value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// Add every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Non-empty buckets as `(inclusive_lower, exclusive_upper, count)`,
    /// in ascending order — the sparse form the wire frame and the
    /// Prometheus renderer consume.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower(i), bucket_upper(i), c))
            .collect()
    }

    fn sparse(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    fn from_sparse(sum: u64, pairs: &[(u32, u64)]) -> Result<Histogram, TraceDecodeError> {
        let mut h = Histogram::new();
        for &(i, c) in pairs {
            if i as usize >= HIST_BUCKETS {
                return Err(TraceDecodeError {
                    reason: format!("histogram bucket index {i} out of range"),
                });
            }
            h.buckets[i as usize] = h.buckets[i as usize].saturating_add(c);
            h.count = h.count.saturating_add(c);
        }
        h.sum = sum;
        Ok(h)
    }
}

/// Number of shards in the hub; updates lock only the shard owning the
/// metric name, so unrelated metrics never contend.
const HUB_SHARDS: usize = 16;

#[derive(Default)]
struct HubShard {
    counters: BTreeMap<&'static str, i64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// FNV-1a over the metric name, used to pick the hub shard.
fn shard_of(name: &str) -> usize {
    (fnv1a64(name.as_bytes()) as usize) % HUB_SHARDS
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The live metrics sink: counters, gauges, and histograms updated in
/// place by the engine, io, ft, dist, and serve layers, snapshotted at
/// any time for exposition or wire push.
///
/// Disabled (the default when its [`crate::Recorder`] is
/// [`crate::TraceLevel::Off`]), every update is one relaxed atomic load
/// — cheap enough to leave in release hot paths. [`MetricsHub::set_enabled`]
/// flips it independently of the trace level so live telemetry can run
/// with span recording off.
pub struct MetricsHub {
    enabled: AtomicBool,
    shards: Vec<Mutex<HubShard>>,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl MetricsHub {
    /// Create a hub; `enabled` gates every update.
    pub fn new(enabled: bool) -> MetricsHub {
        MetricsHub {
            enabled: AtomicBool::new(enabled),
            shards: (0..HUB_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Whether updates are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable the hub (independent of the trace level).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Add `delta` to the named monotonic counter (created at 0).
    pub fn add(&self, name: &'static str, delta: i64) {
        if !self.is_enabled() {
            return;
        }
        *lock(&self.shards[shard_of(name)])
            .counters
            .entry(name)
            .or_insert(0) += delta;
    }

    /// Set the named gauge.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.shards[shard_of(name)])
            .gauges
            .insert(name, value);
    }

    /// Record one sample into the named histogram (created empty).
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.shards[shard_of(name)])
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> i64 {
        lock(&self.shards[shard_of(name)])
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Copy the current state of every metric. Values are consistent
    /// per shard, not across shards — fine for exposition.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            let s = lock(shard);
            for (k, v) in &s.counters {
                snap.counters.insert(k.to_string(), *v);
            }
            for (k, v) in &s.gauges {
                snap.gauges.insert(k.to_string(), *v);
            }
            for (k, v) in &s.histograms {
                snap.histograms.insert(k.to_string(), v.clone());
            }
        }
        snap
    }
}

/// A point-in-time copy of a [`MetricsHub`] — the unit that crosses the
/// wire as an `FRMT` frame and that fleet aggregation merges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counter values.
    pub counters: BTreeMap<String, i64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Merge `other` into `self`: counters sum, gauges last-writer-wins,
    /// histograms merge per bucket. This is fleet aggregation.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Counter value (0 if absent).
    pub fn counter(&self, name: &str) -> i64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serialize as a versioned `FRMT` binary frame (little-endian,
    /// length-prefixed, sparse histogram buckets).
    pub fn encode_bin(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_u32(&mut out, self.counters.len() as u32);
        for (k, v) in &self.counters {
            put_str(&mut out, k);
            put_i64(&mut out, *v);
        }
        put_u32(&mut out, self.gauges.len() as u32);
        for (k, v) in &self.gauges {
            put_str(&mut out, k);
            put_f64(&mut out, *v);
        }
        put_u32(&mut out, self.histograms.len() as u32);
        for (k, h) in &self.histograms {
            put_str(&mut out, k);
            put_u64(&mut out, h.sum);
            let sparse = h.sparse();
            put_u32(&mut out, sparse.len() as u32);
            for (i, c) in sparse {
                put_u32(&mut out, i);
                put_u64(&mut out, c);
            }
        }
        out
    }

    /// Decode a frame produced by [`MetricsSnapshot::encode_bin`].
    /// Never panics on malformed input: truncation, bad magic, version
    /// skew, implausible counts, out-of-range bucket indices, and
    /// oversized frames all return a typed [`TraceDecodeError`].
    pub fn decode_bin(bytes: &[u8]) -> Result<MetricsSnapshot, TraceDecodeError> {
        if bytes.len() > MAX_FRAME_LEN {
            return Err(TraceDecodeError {
                reason: format!(
                    "metrics frame of {} bytes exceeds the {MAX_FRAME_LEN} byte cap",
                    bytes.len()
                ),
            });
        }
        let mut r = Cursor::new(bytes);
        r.magic(MAGIC)?;
        expect_version("metrics codec", r.u16("version")?.into(), VERSION.into())?;
        let mut snap = MetricsSnapshot::default();
        let counters = r.count(MAX_ITEMS, 12, "counter count")?;
        for _ in 0..counters {
            let k = r.str(MAX_STR_LEN, "counter name")?.into();
            snap.counters.insert(k, r.i64("counter value")?);
        }
        let gauges = r.count(MAX_ITEMS, 12, "gauge count")?;
        for _ in 0..gauges {
            let k = r.str(MAX_STR_LEN, "gauge name")?.into();
            snap.gauges.insert(k, r.f64("gauge value")?);
        }
        let hists = r.count(MAX_ITEMS, 16, "histogram count")?;
        for _ in 0..hists {
            let k = r.str(MAX_STR_LEN, "histogram name")?.into();
            let sum = r.u64("histogram sum")?;
            let pairs = r.count(HIST_BUCKETS as u32, 12, "bucket count")?;
            let mut sparse = Vec::with_capacity(pairs);
            for _ in 0..pairs {
                sparse.push((r.u32("bucket index")?, r.u64("bucket value")?));
            }
            snap.histograms
                .insert(k, Histogram::from_sparse(sum, &sparse)?);
        }
        r.finish()?;
        Ok(snap)
    }

    /// Per-node round-latency rows reconstructed from the fleet naming
    /// convention (`node<i>.round_ns` histograms, `node<i>.rounds` /
    /// `node<i>.bytes` counters): `(node, rounds, p50, p95, p99,
    /// bytes)`, sorted by node id. This is what `cfr-top` renders.
    pub fn node_rows(&self) -> Vec<(u32, u64, u64, u64, u64, u64)> {
        let mut rows = Vec::new();
        for (name, h) in &self.histograms {
            let Some(rest) = name.strip_prefix("node") else {
                continue;
            };
            let Some(idx) = rest.strip_suffix(".round_ns") else {
                continue;
            };
            let Ok(node) = idx.parse::<u32>() else {
                continue;
            };
            let rounds = self.counter(&format!("node{node}.rounds")) as u64;
            let bytes = self.counter(&format!("node{node}.bytes")) as u64;
            rows.push((
                node,
                rounds.max(h.count()),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                bytes,
            ));
        }
        rows.sort_by_key(|r| r.0);
        rows
    }
}

/// Intern a runtime-formatted metric name (e.g. `node3.round_ns`) so it
/// can feed the `&'static str`-keyed hub APIs.
pub fn metric_name(s: &str) -> &'static str {
    intern(s)
}

#[cfg(test)]
mod metrics_tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_tight() {
        let mut prev = 0usize;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev || v < 8, "index not monotone at {v}");
            assert!(bucket_lower(i) <= v, "lower({i}) > {v}");
            assert!(
                v <= bucket_upper(i) - u64::from(bucket_upper(i) != u64::MAX),
                "upper({i}) < {v}"
            );
            prev = i;
        }
        // Buckets tile the line: upper(i) == lower(i+1).
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_upper(i), bucket_lower(i + 1), "gap at bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        for (q, exact) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let est = h.quantile(q);
            assert!(est >= exact, "quantile {q}: {est} < {exact}");
            assert!(
                (est as f64) <= exact as f64 * 1.25,
                "quantile {q}: {est} too far above {exact}"
            );
        }
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        let mut x = 0x243f6a8885a308d3u64; // deterministic xorshift
        for i in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn hub_disabled_records_nothing() {
        let hub = MetricsHub::new(false);
        hub.add("c", 5);
        hub.gauge("g", 1.0);
        hub.observe("h", 42);
        assert!(hub.snapshot().is_empty());
        hub.set_enabled(true);
        hub.add("c", 5);
        assert_eq!(hub.counter("c"), 5);
    }

    #[test]
    fn hub_concurrent_updates_sum() {
        let hub = std::sync::Arc::new(MetricsHub::new(true));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let hub = &hub;
                scope.spawn(move || {
                    for i in 0..100 {
                        hub.add("fleet.rounds", 1);
                        hub.observe("round_ns", i);
                    }
                });
            }
        });
        let snap = hub.snapshot();
        assert_eq!(snap.counter("fleet.rounds"), 800);
        assert_eq!(snap.histograms["round_ns"].count(), 800);
    }

    #[test]
    fn snapshot_merge_is_fleet_aggregation() {
        let a_hub = MetricsHub::new(true);
        a_hub.add("io.bytes_read", 100);
        a_hub.observe("round_ns", 10);
        a_hub.gauge("threads", 2.0);
        let b_hub = MetricsHub::new(true);
        b_hub.add("io.bytes_read", 50);
        b_hub.observe("round_ns", 1000);
        b_hub.gauge("threads", 4.0);
        let mut fleet = a_hub.snapshot();
        fleet.merge(&b_hub.snapshot());
        assert_eq!(fleet.counter("io.bytes_read"), 150);
        assert_eq!(fleet.histograms["round_ns"].count(), 2);
        assert_eq!(fleet.gauges["threads"], 4.0);
    }

    /// Property test over pseudo-random snapshots (including empty and
    /// single-bucket histograms): encode → decode is the identity.
    #[test]
    fn frmt_round_trip_property() {
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..50 {
            let mut snap = MetricsSnapshot::default();
            for c in 0..(case % 5) {
                snap.counters.insert(format!("c{c}"), rand() as i64);
            }
            for g in 0..(case % 3) {
                snap.gauges
                    .insert(format!("g{g}"), (rand() % 1000) as f64 / 7.0);
            }
            for hname in 0..(case % 4) {
                let mut h = Histogram::new();
                for _ in 0..(case % 7) {
                    h.record(rand() % (1 << (case % 60)).max(1));
                }
                snap.histograms.insert(format!("h{hname}"), h);
            }
            let back = MetricsSnapshot::decode_bin(&snap.encode_bin()).unwrap();
            assert_eq!(back, snap, "case {case}");
        }
        // Explicit edge cases: empty snapshot, single-bucket histogram.
        let empty = MetricsSnapshot::default();
        assert_eq!(
            MetricsSnapshot::decode_bin(&empty.encode_bin()).unwrap(),
            empty
        );
        let mut single = MetricsSnapshot::default();
        let mut h = Histogram::new();
        h.record(42);
        h.record(42);
        single.histograms.insert("one".into(), h);
        assert_eq!(
            MetricsSnapshot::decode_bin(&single.encode_bin()).unwrap(),
            single
        );
    }

    #[test]
    fn frmt_truncation_is_error_at_every_length() {
        let hub = MetricsHub::new(true);
        hub.add("fleet.rounds", 7);
        hub.gauge("queue.depth", 3.0);
        hub.observe("round_ns", 1234);
        hub.observe("round_ns", 56789);
        let full = hub.snapshot().encode_bin();
        for n in 0..full.len() {
            assert!(
                MetricsSnapshot::decode_bin(&full[..n]).is_err(),
                "prefix of {n} bytes decoded"
            );
        }
    }

    #[test]
    fn frmt_version_skew_magic_and_trailing_rejected() {
        let hub = MetricsHub::new(true);
        hub.add("c", 1);
        let good = hub.snapshot().encode_bin();
        let mut b = good.clone();
        b[0] = b'X';
        assert!(MetricsSnapshot::decode_bin(&b).is_err());
        let mut b = good.clone();
        b[4] = 99;
        let e = MetricsSnapshot::decode_bin(&b).unwrap_err();
        assert!(e.to_string().contains("version"), "got: {e}");
        let mut b = good.clone();
        b.push(0);
        assert!(MetricsSnapshot::decode_bin(&b).is_err());
    }

    #[test]
    fn frmt_implausible_counts_and_bad_buckets_rejected() {
        // Implausible counter count, before any allocation.
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(MetricsSnapshot::decode_bin(&b).is_err());
        // Out-of-range bucket index.
        let mut snap = MetricsSnapshot::default();
        let mut h = Histogram::new();
        h.record(1);
        snap.histograms.insert("h".into(), h);
        let mut enc = snap.encode_bin();
        let idx_at = enc.len() - 12; // (u32 index, u64 count) tail
        enc[idx_at..idx_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = MetricsSnapshot::decode_bin(&enc).unwrap_err();
        assert!(e.to_string().contains("out of range"), "got: {e}");
    }

    #[test]
    fn frmt_oversized_frame_rejected() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let e = MetricsSnapshot::decode_bin(&huge).unwrap_err();
        assert!(e.to_string().contains("cap"), "got: {e}");
    }

    #[test]
    fn node_rows_follow_naming_convention() {
        let hub = MetricsHub::new(true);
        hub.observe(metric_name("node1.round_ns"), 1000);
        hub.observe(metric_name("node1.round_ns"), 2000);
        hub.add(metric_name("node1.rounds"), 2);
        hub.add(metric_name("node1.bytes"), 640);
        hub.observe(metric_name("node0.round_ns"), 500);
        hub.add(metric_name("node0.rounds"), 1);
        let rows = hub.snapshot().node_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 0);
        assert_eq!(rows[1].0, 1);
        assert_eq!(rows[1].1, 2);
        assert_eq!(rows[1].5, 640);
    }
}
