//! `haystack-telemetry` — pipeline-wide metrics, spans, and conservation
//! accounting (DESIGN.md §11).
//!
//! The paper's deployment (§6) digests two weeks of NetFlow from 15 M
//! subscriber lines; at that scale, knowing *where* records vanish —
//! sampling, template churn, backpressure, rule misses — is the
//! difference between "device not present" and "pipeline dropped it".
//! This module is the shared measurement substrate every stage reports
//! into:
//!
//! * [`Counter`] / [`Gauge`] — relaxed `AtomicU64` cells.
//! * [`Histogram`] — fixed power-of-two buckets (no allocation after
//!   creation), for latencies and sizes.
//! * [`SpanTimer`] — a drop-guard recording elapsed microseconds into a
//!   histogram.
//! * [`Registry`] — the process-global, mutex-protected name → metric
//!   table, organized into dot-separated [`Scope`]s
//!   (`pool.shard0.queue_depth`).
//! * [`Snapshot`] — a point-in-time copy that renders as Prometheus text
//!   ([`Snapshot::to_prometheus`]) or JSON ([`Snapshot::to_json`]), and
//!   supports deltas for test isolation.
//! * [`InstrumentedStream`] — a [`RecordStream`] adapter counting
//!   records/chunks emitted and the degradation accounting that rode
//!   along, the stream-stage instrumentation point.
//! * [`observe_collector`] — the bridge scraping a flow
//!   [`Collector`](haystack_flow::Collector)'s health counters into a
//!   scope (the flow crate sits *below* this one, so the collector is
//!   pulled, not pushed).
//!
//! ## Zero overhead when disabled
//!
//! Instrumentation is double-gated. Without the `telemetry` cargo
//! feature, [`enabled`] is a compile-time `false`: every handle
//! constructor returns a no-op and call sites reduce to a branch on
//! `None`. With the feature compiled in (the workspace default via the
//! CLI and bench crates), a process-global flag — off until
//! [`set_enabled`]`(true)` — decides at *handle creation* whether the
//! handle is live. Hot loops therefore never consult the flag, and the
//! PR-3 allocation-free observe path is preserved bit-for-bit.
//! `haystack serve` turns the flag on (`soak` and `detect` leave it
//! off), so every `serve_*` number and every layer row of `benchmark/`
//! is measured with recording on; nothing in the tree measures the
//! on/off difference.
//!
//! ## Conservation invariants
//!
//! Stages account for every record they touch, so snapshots can be
//! audited (`crates/core/tests/telemetry_conservation.rs`):
//!
//! * collector: `records_in == records_decoded + missed_records`
//! * stream:    `records_in == records_emitted + records_lost
//!   - records_duplicated`
//! * pool:      `records_in == gate_rejected + Σ shard records_observed +
//!   records_discarded` (after `finish`): the feeder's fingerprint gate
//!   retires proven misses, shards observe only survivors
//! * serve:     `serve.records_decoded == serve.parse_rejected +
//!   pool.records_in` over one daemon process lifetime (a `--resume`d
//!   daemon's `records_decoded` starts at its checkpoint's count): the
//!   decoder's fingerprint gate drops proven misses before the pool

use crate::hitlist::HitList;
use haystack_wild::{RecordChunk, RecordStream};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets: powers of two `1, 2, 4, …, 2^20`, plus
/// a final catch-all (`+Inf`). Covers chunk sizes and microsecond spans
/// up to ~1 s without allocation.
pub const HISTOGRAM_BUCKETS: usize = 22;

// ---------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry handle creation is live. Compile-time `false`
/// without the `telemetry` feature; otherwise the process-global flag.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "telemetry") && ENABLED.load(Relaxed)
}

/// Turn telemetry on or off process-wide. Handles bind at *creation*:
/// enable before constructing instrumented components. A no-op without
/// the `telemetry` feature.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------

/// A monotonically increasing counter. Cloning shares the cell; a
/// default-constructed (or disabled-registry) counter is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached no-op counter.
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// A settable (and incrementable/decrementable) instantaneous value —
/// queue depths, cache sizes. Same no-op semantics as [`Counter`].
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A detached no-op gauge.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.store(v, Relaxed);
        }
    }

    /// Increment by one (e.g. a batch entering a queue).
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.fetch_add(1, Relaxed);
        }
    }

    /// Decrement by one, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        if let Some(c) = &self.0 {
            // fetch_update never underflows a balanced inc/dec pair but
            // stays safe if a caller double-decs.
            let _ = c.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// Shared histogram storage: per-bucket counts plus sum and count.
#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        let idx = (bucket_index(v)).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }
}

/// Bucket index for value `v`: 0 holds `v ≤ 1`, bucket `i` holds
/// `2^(i-1) < v ≤ 2^i`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros()) as usize
    }
}

/// Upper bound (`le`) of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

/// A fixed-bucket distribution (sizes, latencies). No-op semantics as
/// [`Counter`].
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A detached no-op histogram.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Start a span whose elapsed microseconds are recorded on drop.
    /// A no-op histogram never even reads the clock.
    #[inline]
    pub fn start_span(&self) -> SpanTimer {
        SpanTimer(self.0.as_ref().map(|h| (Instant::now(), Arc::clone(h))))
    }

    /// Observations recorded so far (0 for a no-op handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Relaxed))
    }
}

/// Drop-guard span: records the elapsed time in microseconds into its
/// histogram when dropped. Obtained from [`Histogram::start_span`].
#[derive(Debug)]
pub struct SpanTimer(Option<(Instant, Arc<HistogramCore>)>);

impl SpanTimer {
    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((t0, h)) = self.0.take() {
            h.record(t0.elapsed().as_micros() as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Registry and scopes
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

/// The name → metric table. One global instance ([`global`]); metric
/// names are dot-separated scope paths (`pool.shard0.queue_depth`).
/// Registration takes the mutex; recording never does.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A handle rooted at `prefix` on the global registry.
    pub fn scope(&'static self, prefix: &str) -> Scope {
        Scope {
            registry: self,
            prefix: prefix.to_string(),
        }
    }

    fn counter(&self, name: &str) -> Counter {
        if !enabled() {
            return Counter::noop();
        }
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        Counter(Some(Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )))
    }

    fn gauge(&self, name: &str) -> Gauge {
        if !enabled() {
            return Gauge::noop();
        }
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        Gauge(Some(Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )))
    }

    fn histogram(&self, name: &str) -> Histogram {
        if !enabled() {
            return Histogram::noop();
        }
        let mut inner = self.inner.lock().expect("telemetry registry poisoned");
        Histogram(Some(Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramCore::new())),
        )))
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("telemetry registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count: h.count.load(Relaxed),
                            sum: h.sum.load(Relaxed),
                            buckets: h.buckets.iter().map(|b| b.load(Relaxed)).collect(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Zero every registered metric (existing handles stay bound).
    pub fn reset(&self) {
        let inner = self.inner.lock().expect("telemetry registry poisoned");
        for v in inner.counters.values() {
            v.store(0, Relaxed);
        }
        for v in inner.gauges.values() {
            v.store(0, Relaxed);
        }
        for h in inner.histograms.values() {
            for b in &h.buckets {
                b.store(0, Relaxed);
            }
            h.count.store(0, Relaxed);
            h.sum.store(0, Relaxed);
        }
    }
}

/// A named namespace in a registry. Cheap to clone; sub-scopes nest via
/// [`Scope::sub`].
#[derive(Debug, Clone)]
pub struct Scope {
    registry: &'static Registry,
    prefix: String,
}

impl Scope {
    /// A scope named `prefix` on the global registry.
    pub fn named(prefix: &str) -> Scope {
        global().scope(prefix)
    }

    /// This scope's dot-separated prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// A child scope (`pool` → `pool.shard0`).
    pub fn sub(&self, name: &str) -> Scope {
        Scope {
            registry: self.registry,
            prefix: format!("{}.{}", self.prefix, name),
        }
    }

    fn path(&self, name: &str) -> String {
        format!("{}.{}", self.prefix, name)
    }

    /// Register (or re-acquire) the counter `prefix.name`. Returns a
    /// no-op handle while telemetry is disabled.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&self.path(name))
    }

    /// Register (or re-acquire) the gauge `prefix.name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&self.path(name))
    }

    /// Register (or re-acquire) the histogram `prefix.name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(&self.path(name))
    }
}

// ---------------------------------------------------------------------
// Snapshots and export formats
// ---------------------------------------------------------------------

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket (non-cumulative) counts, [`HISTOGRAM_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

/// Point-in-time copy of a registry, sorted by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, u64)>,
    /// Histogram name → distribution.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// `pool.shard0.queue_depth` → `haystack_pool_shard0_queue_depth`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("haystack_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

impl Snapshot {
    /// The value of counter `name` (exact dot-path), if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The value of gauge `name` (exact dot-path), if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Restrict to metrics under `scope.` (a dot-path prefix).
    pub fn filtered(&self, scope: &str) -> Snapshot {
        let keep = |k: &str| k == scope || k.starts_with(&format!("{scope}."));
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .cloned()
                .collect(),
        }
    }

    /// Counter deltas against an `earlier` snapshot (gauges keep their
    /// later value; histograms diff count/sum/buckets). The test-isolation
    /// primitive: two snapshots bracket a workload, the delta is its cost.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let base_c: BTreeMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let base_h: BTreeMap<&str, &HistogramSnapshot> = earlier
            .histograms
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(base_c.get(k.as_str()).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let base = base_h.get(k.as_str());
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count: h.count.saturating_sub(base.map_or(0, |b| b.count)),
                            sum: h.sum.saturating_sub(base.map_or(0, |b| b.sum)),
                            buckets: h
                                .buckets
                                .iter()
                                .enumerate()
                                .map(|(i, v)| {
                                    v.saturating_sub(
                                        base.and_then(|b| b.buckets.get(i)).copied().unwrap_or(0),
                                    )
                                })
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Prometheus text exposition format (`haystack metrics`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} counter\n{p} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} gauge\n{p} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} histogram\n"));
            let mut cum = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                cum += b;
                if i + 1 == h.buckets.len() {
                    out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {cum}\n"));
                } else if *b > 0 || cum > 0 {
                    out.push_str(&format!("{p}_bucket{{le=\"{}\"}} {cum}\n", bucket_bound(i)));
                }
            }
            out.push_str(&format!("{p}_sum {}\n{p}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// Structured JSON (the section appended to the degradation and
    /// crosscheck reports and compared by the golden end-to-end test).
    /// Histograms serialize as `{count, sum, buckets: {le: n, ...}}`
    /// with empty buckets omitted.
    pub fn to_json(&self) -> serde_json::Value {
        let counters: serde_json::Map = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
            .collect();
        let gauges: serde_json::Map = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
            .collect();
        let histograms: serde_json::Map = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: serde_json::Map = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v > 0)
                    .map(|(i, v)| {
                        let le = if i + 1 == h.buckets.len() {
                            "+Inf".to_string()
                        } else {
                            bucket_bound(i).to_string()
                        };
                        (le, serde_json::json!(*v))
                    })
                    .collect();
                (
                    k.clone(),
                    serde_json::json!({
                        "count": h.count,
                        "sum": h.sum,
                        "buckets": serde_json::Value::Object(buckets),
                    }),
                )
            })
            .collect();
        serde_json::json!({
            "counters": serde_json::Value::Object(counters),
            "gauges": serde_json::Value::Object(gauges),
            "histograms": serde_json::Value::Object(histograms),
        })
    }

    /// Counters only, as JSON — the deterministic subset the golden
    /// end-to-end fixture pins (gauges and span histograms depend on
    /// scheduling and wall-clock, counters do not).
    pub fn counters_to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// Stage bridges
// ---------------------------------------------------------------------

/// Scrape a flow collector's health counters into `scope` as gauges
/// (monotonic on the collector's side; scraped, not pushed, because
/// `haystack-flow` sits below this crate). Call after a feed pass or on
/// a scrape interval.
pub fn observe_collector(scope: &Scope, c: &haystack_flow::Collector) {
    scope
        .gauge("datagrams_received")
        .set(c.datagrams_received());
    scope.gauge("records_decoded").set(c.records_decoded());
    scope.gauge("template_hits").set(c.template_hits());
    scope
        .gauge("template_announcements")
        .set(c.template_announcements());
    scope
        .gauge("template_misses")
        .set(c.dropped_unknown_template());
    scope.gauge("templates_evicted").set(c.templates_evicted());
    scope
        .gauge("templates_cached")
        .set(c.template_count() as u64);
    scope.gauge("missed_datagrams").set(c.missed_datagrams());
    scope.gauge("missed_records").set(c.missed_records());
    scope.gauge("restarts_detected").set(c.restarts_detected());
    scope
        .gauge("malformed_messages")
        .set(c.malformed_messages());
    scope.gauge("malformed_sets").set(c.malformed_sets());
    scope
        .gauge("quarantined_sources")
        .set(c.quarantined_sources().len() as u64);
    scope.gauge("requarantined").set(c.requarantines_total());
}

/// Handles for one instrumented record stream.
#[derive(Debug, Clone)]
struct StreamTelemetry {
    chunks: Counter,
    records_emitted: Counter,
    sampled_packets: Counter,
    batches: Counter,
    batches_dropped: Counter,
    records_lost: Counter,
    records_duplicated: Counter,
    restarts: Counter,
    chunk_records: Histogram,
    chunk_span_us: Histogram,
}

impl StreamTelemetry {
    fn new(scope: &Scope) -> StreamTelemetry {
        StreamTelemetry {
            chunks: scope.counter("chunks"),
            records_emitted: scope.counter("records_emitted"),
            sampled_packets: scope.counter("sampled_packets"),
            batches: scope.counter("batches"),
            batches_dropped: scope.counter("batches_dropped"),
            records_lost: scope.counter("records_lost"),
            records_duplicated: scope.counter("records_duplicated"),
            restarts: scope.counter("restarts"),
            chunk_records: scope.histogram("chunk_records"),
            chunk_span_us: scope.histogram("chunk_span_us"),
        }
    }
}

/// A [`RecordStream`] adapter that counts what flows through: chunks and
/// records emitted, sampled packets, and the per-reason degradation
/// accounting riding on each chunk. The stream-stage instrumentation
/// point — wrap any vantage-point or degrade stream in one.
#[derive(Debug)]
pub struct InstrumentedStream<S> {
    inner: S,
    tel: StreamTelemetry,
}

impl<S: RecordStream> InstrumentedStream<S> {
    /// Wrap `inner`, reporting under `scope`.
    pub fn new(inner: S, scope: &Scope) -> InstrumentedStream<S> {
        InstrumentedStream {
            inner,
            tel: StreamTelemetry::new(scope),
        }
    }
}

impl<S: RecordStream> RecordStream for InstrumentedStream<S> {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        let span = self.tel.chunk_span_us.start_span();
        let more = self.inner.next_chunk(out);
        span.finish();
        if more {
            self.tel.chunks.inc();
            self.tel.records_emitted.add(out.records.len() as u64);
            self.tel.sampled_packets.add(out.sampled_packets);
            self.tel.chunk_records.record(out.records.len() as u64);
            let d = out.degradation;
            self.tel.batches.add(d.batches);
            self.tel.batches_dropped.add(d.batches_dropped);
            self.tel.records_lost.add(d.records_lost);
            self.tel.records_duplicated.add(d.records_duplicated);
            self.tel.restarts.add(d.restarts);
        }
        more
    }
}

/// Plain per-detector hot-path tallies ([`Detector`](crate::detector::Detector)
/// and [`UsageTracker`](crate::usage::UsageTracker) keep one
/// each). These are unconditional non-atomic adds — cheap enough for
/// the allocation-free observe loop — and are flushed into atomic
/// [`Counter`]s at chunk granularity by whoever owns the component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Records offered to the component.
    pub records: u64,
    /// Records that passed the hitlist's fingerprint front gate (and so
    /// went on to a full table probe). Detector only; usage leaves the
    /// prefilter tallies at zero.
    pub prefilter_hits: u64,
    /// Records the fingerprint gate retired on one cache line — the
    /// real-world miss rate is `prefilter_misses / (prefilter_hits +
    /// prefilter_misses)`.
    pub prefilter_misses: u64,
    /// Hitlist probes executed (records surviving pre-filters).
    pub probes: u64,
    /// Hitlist entries matched (evidence candidates).
    pub matches: u64,
    /// Rule thresholds newly met (detector) or indicator hits (usage).
    pub detections: u64,
}

impl HotStats {
    /// Tallies accrued since `earlier` (component stats only grow).
    pub fn since(&self, earlier: &HotStats) -> HotStats {
        HotStats {
            records: self.records - earlier.records,
            prefilter_hits: self.prefilter_hits - earlier.prefilter_hits,
            prefilter_misses: self.prefilter_misses - earlier.prefilter_misses,
            probes: self.probes - earlier.probes,
            matches: self.matches - earlier.matches,
            detections: self.detections - earlier.detections,
        }
    }
}

/// Counter handles a detector-owning stage flushes [`HotStats`] into.
#[derive(Debug, Clone)]
pub struct HotStatsCounters {
    records: Counter,
    prefilter_hits: Counter,
    prefilter_misses: Counter,
    probes: Counter,
    matches: Counter,
    detections: Counter,
}

impl HotStatsCounters {
    /// Register `records_observed` / `prefilter_hits` /
    /// `prefilter_misses` / `hitlist_probes` / `hitlist_matches` /
    /// `detections` under `scope`.
    pub fn new(scope: &Scope) -> HotStatsCounters {
        HotStatsCounters {
            records: scope.counter("records_observed"),
            prefilter_hits: scope.counter("prefilter_hits"),
            prefilter_misses: scope.counter("prefilter_misses"),
            probes: scope.counter("hitlist_probes"),
            matches: scope.counter("hitlist_matches"),
            detections: scope.counter("detections"),
        }
    }

    /// Add a (delta) tally.
    #[inline]
    pub fn flush(&self, delta: HotStats) {
        self.records.add(delta.records);
        self.prefilter_hits.add(delta.prefilter_hits);
        self.prefilter_misses.add(delta.prefilter_misses);
        self.probes.add(delta.probes);
        self.matches.add(delta.matches);
        self.detections.add(delta.detections);
    }
}

/// Publish a hitlist's size under `scope` (rebuilt daily; the gauges
/// track the current day's entry count and the fingerprint front gate's
/// footprint).
pub fn observe_hitlist(scope: &Scope, hitlist: &HitList) {
    scope.gauge("hitlist_entries").set(hitlist.len() as u64);
    scope
        .gauge("hitlist_prefilter_bytes")
        .set(hitlist.prefilter_len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "telemetry")]
    use haystack_wild::VecStream;

    /// Every test uses its own scope prefix: the registry is global and
    /// the test binary is multi-threaded.
    fn unique_scope(name: &str) -> Scope {
        Scope::named(name)
    }

    /// The enable flag is process-global; tests that flip it hold this.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_handles_are_noops() {
        let _g = flag_lock();
        set_enabled(false);
        let s = unique_scope("t_disabled");
        let c = s.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = s.histogram("h");
        h.record(9);
        assert_eq!(h.count(), 0);
        // Nothing registered while disabled.
        assert_eq!(global().snapshot().counter("t_disabled.x"), None);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn counters_gauges_histograms_register_and_snapshot() {
        let _g = flag_lock();
        set_enabled(true);
        let s = unique_scope("t_basic");
        let before = global().snapshot();
        let c = s.counter("records");
        c.add(3);
        c.inc();
        let g = s.sub("shard0").gauge("queue_depth");
        g.set(7);
        g.inc();
        g.dec();
        g.dec();
        let h = s.histogram("sizes");
        for v in [0, 1, 2, 3, 1024, 1u64 << 40] {
            h.record(v);
        }
        let snap = global().snapshot().delta_since(&before);
        assert_eq!(snap.counter("t_basic.records"), Some(4));
        assert_eq!(
            global().snapshot().gauge("t_basic.shard0.queue_depth"),
            Some(6)
        );
        let (_, hs) = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "t_basic.sizes")
            .expect("histogram registered");
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1 + 2 + 3 + 1024 + (1u64 << 40));
        // 0 and 1 share bucket 0; 2 in bucket 1; 3 in bucket 2; 1024 in
        // bucket 10; 2^40 lands in the +Inf catch-all.
        assert_eq!(hs.buckets[0], 2);
        assert_eq!(hs.buckets[1], 1);
        assert_eq!(hs.buckets[2], 1);
        assert_eq!(hs.buckets[10], 1);
        assert_eq!(hs.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for i in 0..20usize {
            let le = bucket_bound(i);
            assert_eq!(bucket_index(le), i, "le {le} must land in bucket {i}");
            assert_eq!(
                bucket_index(le + 1),
                i + 1,
                "le+1 spills to the next bucket"
            );
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn export_formats_cover_every_metric() {
        let _g = flag_lock();
        set_enabled(true);
        let s = unique_scope("t_export");
        s.counter("hits").add(2);
        s.gauge("depth").set(5);
        s.histogram("lat_us").record(100);
        let snap = global().snapshot().filtered("t_export");
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE haystack_t_export_hits counter"));
        assert!(prom.contains("haystack_t_export_hits 2"));
        assert!(prom.contains("haystack_t_export_depth 5"));
        assert!(prom.contains("haystack_t_export_lat_us_count 1"));
        assert!(prom.contains("le=\"+Inf\"} 1"));
        let json = snap.to_json();
        assert_eq!(json["counters"]["t_export.hits"].as_u64(), Some(2));
        assert_eq!(json["gauges"]["t_export.depth"].as_u64(), Some(5));
        assert_eq!(
            json["histograms"]["t_export.lat_us"]["count"].as_u64(),
            Some(1)
        );
        // JSON round-trips through the shim parser.
        let text = serde_json::to_string_pretty(&json).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, json);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn instrumented_stream_counts_chunks_and_degradation() {
        use haystack_net::ports::Proto;
        use haystack_net::{AnonId, HourBin, Prefix4};
        use std::net::Ipv4Addr;
        let _g = flag_lock();
        set_enabled(true);
        let s = unique_scope("t_stream");
        let src = Ipv4Addr::new(100, 64, 0, 1);
        let records: Vec<haystack_wild::WildRecord> = (0..25)
            .map(|i| haystack_wild::WildRecord {
                line: AnonId(i),
                line_slash24: Prefix4::slash24_of(src),
                src_ip: src,
                dst: Ipv4Addr::new(198, 18, 0, 1),
                dport: 443,
                proto: Proto::Tcp,
                packets: 2,
                bytes: 100,
                established: true,
                hour: HourBin(0),
            })
            .collect();
        let mut inner = VecStream::new(records, 10);
        inner.set_sampled_packets(50);
        let mut stream = InstrumentedStream::new(inner, &s);
        let mut chunk = RecordChunk::default();
        let mut total = 0usize;
        while stream.next_chunk(&mut chunk) {
            total += chunk.records.len();
        }
        assert_eq!(total, 25);
        let snap = global().snapshot().filtered("t_stream");
        assert_eq!(snap.counter("t_stream.chunks"), Some(3));
        assert_eq!(snap.counter("t_stream.records_emitted"), Some(25));
        assert_eq!(snap.counter("t_stream.sampled_packets"), Some(50));
        assert_eq!(snap.counter("t_stream.records_lost"), Some(0));
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn span_timer_records_on_drop() {
        let _g = flag_lock();
        set_enabled(true);
        let s = unique_scope("t_span");
        let h = s.histogram("span_us");
        {
            let _span = h.start_span();
        }
        h.start_span().finish();
        assert_eq!(h.count(), 2);
    }
}
