//! The traced run: the same datagrams a live run sent, replayed
//! in-process through each layer's public functions, one datagram at a
//! time with reused buffers, each call wrapped in an in-memory span.
//!
//! Spans live in a pre-sized `Vec` and are aggregated to self time
//! (a span minus what its children cover) when the replay ends. The
//! replay alternates traced and untraced blocks of a few milliseconds,
//! so both kinds meet the same host conditions; the difference in their
//! time per record is the tracing overhead. End-to-end numbers never
//! come from here.

use crate::calib::Clock;
use crate::daemon::{self, Result};
use crate::gen::{self, Encoded, StreamSpec};
use crate::load;
use crate::oracle;
use crate::spec::Workload;
use crate::workloads::{Ctx, LiveRun};
use bytes::Bytes;
use haystack_core::checkpoint::CheckpointDir;
use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::HitList;
use haystack_core::parallel::{DetectorPool, DEFAULT_REPLAY_LIMIT};
use haystack_core::staleness::StalenessMonitor;
use haystack_core::telemetry;
use haystack_core::usage::{UsageConfig, UsageTracker};
use haystack_flow::listener::{spawn_tcp_listener, AdmissionQueue};
use haystack_flow::Collector;
use haystack_net::Prefix4;
use haystack_wild::{
    RecordChunk, RecordStream, SoakConfig, SoakStream, WildRecord, DEFAULT_CHUNK_RECORDS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records of a block the replay covers.
const TRACE_RECORDS: u64 = 4_000_000;
/// Chunk size the standalone detector is fed (the pool's shard workers
/// see chunks of this order).
const DETECTOR_CHUNK: usize = 8_192;
/// Records per traced or untraced block of a replay: about a
/// millisecond of work, far shorter than the host's slow phases and far
/// longer than a span. Not a power of two: the pool hands its workers a
/// chunk, and the standalone detector gets one, every 8192 records, and
/// blocks in step with that would give all of those bursts to one kind.
const BLOCK_RECORDS: u64 = 5_000;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The harness binary's global allocator: the system allocator plus a
/// per-thread count of allocations, so a layer's allocations can be
/// read around a call made on this thread without hearing the pool's
/// worker threads.
pub struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local
// `Cell` touched through `try_with`, which neither allocates (it is
// const-initialised) nor panics (a destroyed slot is skipped).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's own arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Root span of one datagram or chunk: the replay loop itself.
    Replay,
    /// `Collector::feed`.
    Collector,
    /// Anonymise + /24 + the `FlowRecord → WildRecord` copy.
    Convert,
    /// `UsageTracker::observe`.
    Usage,
    /// `StalenessMonitor::observe`.
    Staleness,
    /// `DetectorPool::observe_records` / `finish`.
    Parallel,
    /// `Detector::observe_chunk` on a standalone detector.
    Detector,
    /// `take_snapshot_delta` + encode + `CheckpointDir::write_delta`.
    CheckpointDelta,
    /// `export_state` + encode + `CheckpointDir::write`.
    CheckpointFull,
    /// `SoakStream::next_chunk`.
    SoakGen,
}

impl Layer {
    /// The layer's name in the ledger.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Replay => "replay",
            Layer::Collector => "flow.collector",
            Layer::Convert => "net.convert",
            Layer::Usage => "core.usage",
            Layer::Staleness => "core.staleness",
            Layer::Parallel => "core.parallel",
            Layer::Detector => "core.detector",
            Layer::CheckpointDelta => "core.checkpoint.delta",
            Layer::CheckpointFull => "core.checkpoint.full",
            Layer::SoakGen => "wild.soak",
        }
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which layer ran.
    pub layer: Layer,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Records (or state entries) the call handled.
    pub records: u32,
}

/// Span recorder. Switched off it records nothing and reads no clock,
/// which is how the untraced blocks of a replay run the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer, switched on, with room for `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Switch recording on or off; returns the previous setting.
    pub fn set_on(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.on, on)
    }

    /// Switch recording over; returns the previous setting.
    pub fn toggle(&mut self) -> bool {
        self.set_on(!self.on)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that begins now; returns its id and when it began.
    /// Close it with [`Tracer::close`].
    pub fn open(&mut self, layer: Layer, parent: u32) -> (u32, u64) {
        if !self.on {
            return (NO_PARENT, 0);
        }
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            records: 0,
        });
        ((self.spans.len() - 1) as u32, start_ns)
    }

    /// Record a finished child of `parent` that began at `since_ns`,
    /// ends now and handled `records`; returns now. Calls made back to
    /// back share a clock reading this way: one's end is the next's
    /// beginning.
    pub fn lap(&mut self, layer: Layer, parent: u32, since_ns: u64, records: usize) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns: since_ns,
            end_ns,
            parent,
            records: records as u32,
        });
        end_ns
    }

    /// Close a span opened by [`Tracer::open`] at `end_ns`.
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if self.on {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        parent: u32,
        records: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let began = if self.on { self.now() } else { 0 };
        let out = f();
        self.lap(layer, parent, began, records);
        out
    }

    /// Aggregate to per-layer self time.
    pub fn aggregate(&self) -> BTreeMap<Layer, LayerTotals> {
        aggregate(&self.spans)
    }
}

/// Per-layer totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans of the layer.
    pub calls: u64,
    /// Records those spans handled.
    pub records: u64,
    /// Their duration minus the duration of their direct children.
    pub self_ns: u64,
}

/// Self time per layer: each span's duration, minus what its direct
/// children cover.
pub fn aggregate(spans: &[Span]) -> BTreeMap<Layer, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.records += u64::from(s.records);
        t.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

/// The traced and untraced blocks of one replay: which kind is running,
/// and the time and records each kind has taken so far.
#[derive(Debug)]
struct Blocks {
    /// When the replay began and when its last block was booked.
    during: (Instant, Instant),
    block_began: Instant,
    records_at_block: u64,
    /// `[untraced, traced]`.
    secs: [f64; 2],
    records: [u64; 2],
}

impl Blocks {
    fn begin() -> Blocks {
        let now = Instant::now();
        Blocks {
            during: (now, now),
            block_began: now,
            records_at_block: 0,
            secs: [0.0; 2],
            records: [0; 2],
        }
    }

    /// Call between items with the records replayed so far: once a block
    /// is full, book it and switch the tracer over.
    fn step(&mut self, records: u64, tr: &mut Tracer) {
        if records - self.records_at_block >= BLOCK_RECORDS {
            let was_on = tr.toggle();
            self.book(records, was_on);
        }
    }

    fn book(&mut self, records: u64, traced: bool) {
        let now = Instant::now();
        self.secs[usize::from(traced)] += now.duration_since(self.block_began).as_secs_f64();
        self.records[usize::from(traced)] += records - self.records_at_block;
        self.block_began = now;
        self.during.1 = now;
        self.records_at_block = records;
    }

    /// Keep `spent` (a checkpoint: always traced, and far longer than a
    /// block) out of the running block's time.
    fn exclude(&mut self, spent: Duration) {
        self.block_began += spent;
    }

    /// Seconds per record of the traced blocks over that of the untraced
    /// ones, minus one.
    fn overhead_share(&self) -> f64 {
        let per_record = |kind: usize| self.secs[kind] / self.records[kind].max(1) as f64;
        if self.records[0] == 0 || self.records[1] == 0 {
            0.0
        } else {
            per_record(1) / per_record(0) - 1.0
        }
    }
}

/// Counts one replay collected beside its spans.
#[derive(Debug, Default)]
struct Counts {
    records: u64,
    /// Datagrams (serve) or chunks (soak) replayed.
    items: u64,
    detector_calls: u64,
    collector_allocs: u64,
    detector_allocs: u64,
    template_hits: u64,
    gate_pass: u64,
    detector_probes: u64,
    detector_matches: u64,
    usage_probes: u64,
    usage_matches: u64,
    state_entries: u64,
    checkpoints: u64,
    dirty_entries: u64,
    delta_bytes: u64,
    full_bytes: u64,
    full_entries: u64,
}

/// The standalone detector plus its checkpoint directory: the
/// `core.detector` and `core.checkpoint` layers.
struct Kernel<'r> {
    detector: Detector<'r>,
    dir: CheckpointDir,
    chunk: Vec<WildRecord>,
}

impl<'r> Kernel<'r> {
    fn new(ctx: &'r Ctx, hitlist: &HitList, threshold: f64, dir: CheckpointDir) -> Kernel<'r> {
        let config = DetectorConfig {
            threshold,
            require_established: false,
        };
        let mut detector = Detector::new(&ctx.rules, hitlist.clone(), config);
        // A fresh detector's first snapshot is full by definition; take
        // it now (it is empty) so every boundary below writes a delta.
        detector.checkpoint_full();
        Kernel {
            detector,
            dir,
            chunk: Vec::with_capacity(DETECTOR_CHUNK),
        }
    }

    fn push(&mut self, records: &[WildRecord], tr: &mut Tracer, counts: &mut Counts) {
        for r in records {
            self.chunk.push(*r);
            if self.chunk.len() == DETECTOR_CHUNK {
                self.flush(tr, counts);
            }
        }
    }

    fn flush(&mut self, tr: &mut Tracer, counts: &mut Counts) {
        if self.chunk.is_empty() {
            return;
        }
        let a0 = allocations();
        let (detector, chunk) = (&mut self.detector, &self.chunk);
        tr.span(Layer::Detector, NO_PARENT, chunk.len(), || {
            detector.observe_chunk(chunk)
        });
        counts.detector_allocs += allocations() - a0;
        counts.detector_calls += 1;
        self.chunk.clear();
    }

    /// An hour boundary: one delta and one full checkpoint, both traced
    /// whichever kind of block is running, and kept out of its time.
    fn checkpoint(
        &mut self,
        tr: &mut Tracer,
        blocks: &mut Blocks,
        counts: &mut Counts,
    ) -> Result<()> {
        self.flush(tr, counts);
        let t0 = Instant::now();
        let was_on = tr.set_on(true);
        let dirty = self.detector.dirty_entries().unwrap_or(0);
        let (detector, dir) = (&mut self.detector, &self.dir);
        let delta_bytes = tr.span(Layer::CheckpointDelta, NO_PARENT, dirty, || {
            let frame = detector.take_snapshot_delta().encode();
            dir.write_delta("trace", &frame, dirty as u64)
                .map(|_| frame.len())
        });
        let entries = self.detector.state_size();
        let (detector, dir) = (&self.detector, &self.dir);
        let full_bytes = tr.span(Layer::CheckpointFull, NO_PARENT, entries, || {
            let frame = detector.export_state().encode();
            dir.write("trace", &frame).map(|_| frame.len())
        });
        tr.set_on(was_on);
        blocks.exclude(t0.elapsed());
        counts.checkpoints += 1;
        counts.dirty_entries += dirty as u64;
        counts.full_entries += entries as u64;
        counts.delta_bytes +=
            delta_bytes.map_err(|e| format!("trace delta checkpoint: {e}"))? as u64;
        counts.full_bytes += full_bytes.map_err(|e| format!("trace full checkpoint: {e}"))? as u64;
        Ok(())
    }

    fn finish(&mut self, tr: &mut Tracer, counts: &mut Counts) {
        self.flush(tr, counts);
        let hot = self.detector.hot_stats();
        counts.gate_pass = hot.prefilter_hits;
        counts.detector_probes = hot.probes;
        counts.detector_matches = hot.matches;
        counts.state_entries = self.detector.state_size() as u64;
    }
}

fn pool_for(ctx: &Ctx, hitlist: &HitList, threshold: f64) -> Result<DetectorPool> {
    let config = DetectorConfig {
        threshold,
        require_established: false,
    };
    let mut pool = DetectorPool::new(&ctx.rules, hitlist, config, 2);
    // As the daemon and the soak job run it: supervised, with telemetry.
    pool.enable_supervision(DEFAULT_REPLAY_LIMIT)
        .map_err(|e| e.to_string())?;
    pool.attach_telemetry(&telemetry::Scope::named("pool"))
        .map_err(|e| e.to_string())?;
    Ok(pool)
}

/// Replay the first `datagrams` datagrams the way the daemon's engine
/// thread handles them.
fn replay_serve(
    ctx: &Ctx,
    encoded: &Encoded,
    datagrams: usize,
    records_per_hour: u64,
    dir: CheckpointDir,
    tr: &mut Tracer,
) -> Result<(Counts, Blocks)> {
    let rules = Arc::new(ctx.rules.clone());
    let hitlist = HitList::whole_window(&ctx.rules);
    let mut collector = Collector::new();
    let mut usage = UsageTracker::new(Arc::clone(&rules), hitlist.clone(), UsageConfig::default());
    let mut staleness = StalenessMonitor::new(hitlist.clone());
    let mut pool = pool_for(ctx, &hitlist, oracle::SERVE_THRESHOLD)?;
    let mut kernel = Kernel::new(ctx, &hitlist, oracle::SERVE_THRESHOLD, dir);
    let anon = oracle::daemon_anonymizer();
    let mut wild: Vec<WildRecord> = Vec::with_capacity(64);
    let mut counts = Counts::default();

    let mut blocks = Blocks::begin();
    for i in 0..datagrams {
        let datagram = Bytes::from(encoded.datagram(i));
        let (root, mut at) = tr.open(Layer::Replay, NO_PARENT);
        let a0 = allocations();
        let flows = collector
            .feed(datagram)
            .map_err(|e| format!("replay: datagram {i} does not decode: {e}"))?;
        let n = flows.len();
        at = tr.lap(Layer::Collector, root, at, n);
        counts.collector_allocs += allocations() - a0;
        wild.clear();
        wild.extend(flows.iter().map(|r| WildRecord {
            line: anon.anonymize(r.key.src),
            line_slash24: Prefix4::slash24_of(r.key.src),
            src_ip: r.key.src,
            dst: r.key.dst,
            dport: r.key.dport,
            proto: r.key.proto,
            packets: r.packets,
            bytes: r.bytes,
            established: r.tcp_flags.is_established_evidence(),
            hour: r.first.hour(),
        }));
        at = tr.lap(Layer::Convert, root, at, n);
        wild.iter().for_each(|w| usage.observe(w));
        at = tr.lap(Layer::Usage, root, at, n);
        wild.iter().for_each(|w| staleness.observe(w));
        at = tr.lap(Layer::Staleness, root, at, n);
        pool.observe_records(&wild)
            .map_err(|e| format!("replay: pool: {e}"))?;
        at = tr.lap(Layer::Parallel, root, at, n);
        tr.close(root, at);
        counts.records += n as u64;
        kernel.push(&wild, tr, &mut counts);
        if encoded.records_in(i + 1).is_multiple_of(records_per_hour) {
            kernel.checkpoint(tr, &mut blocks, &mut counts)?;
        }
        blocks.step(counts.records, tr);
    }
    blocks.book(counts.records, tr.set_on(true));
    tr.span(Layer::Parallel, NO_PARENT, 0, || pool.finish())
        .map_err(|e| format!("replay: pool: {e}"))?;
    kernel.finish(tr, &mut counts);
    counts.items = datagrams as u64;
    counts.template_hits = collector.template_hits();
    let hot = usage.hot_stats();
    counts.usage_probes = hot.probes;
    counts.usage_matches = hot.matches;
    Ok((counts, blocks))
}

/// Replay the first `hours` hours of a soak stream the way `haystack
/// soak` runs them: generate a chunk, hand it to the pool.
fn replay_soak(
    ctx: &Ctx,
    seed: u64,
    spec: StreamSpec,
    hours: u32,
    dir: CheckpointDir,
    tr: &mut Tracer,
) -> Result<(Counts, Blocks)> {
    let hitlist = HitList::whole_window(&ctx.rules);
    let mut pool = pool_for(ctx, &hitlist, ctx.pack_threshold)?;
    let mut kernel = Kernel::new(ctx, &hitlist, ctx.pack_threshold, dir);
    let config = SoakConfig {
        lines: gen::LINES,
        seed,
        hit_rate_ppm: spec.hit_ppm,
        records_per_hour: spec.records_per_hour,
    };
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    let mut counts = Counts::default();
    let mut blocks = Blocks::begin();
    for hour in 0..hours {
        let mut stream = SoakStream::hour(&ctx.targets, config, 0, hour, DEFAULT_CHUNK_RECORDS);
        loop {
            let (root, mut at) = tr.open(Layer::Replay, NO_PARENT);
            let more = stream.next_chunk(&mut chunk);
            let n = if more { chunk.records.len() } else { 0 };
            at = tr.lap(Layer::SoakGen, root, at, n);
            if !more {
                tr.close(root, at);
                break;
            }
            pool.observe_records(&chunk.records)
                .map_err(|e| format!("replay: pool: {e}"))?;
            at = tr.lap(Layer::Parallel, root, at, n);
            tr.close(root, at);
            counts.records += n as u64;
            counts.items += 1;
            kernel.push(&chunk.records, tr, &mut counts);
            blocks.step(counts.records, tr);
        }
        kernel.checkpoint(tr, &mut blocks, &mut counts)?;
    }
    blocks.book(counts.records, tr.set_on(true));
    tr.span(Layer::Parallel, NO_PARENT, 0, || pool.finish())
        .map_err(|e| format!("replay: pool: {e}"))?;
    kernel.finish(tr, &mut counts);
    Ok((counts, blocks))
}

/// Bare forwarding through the socket front-end: loopback TCP →
/// `spawn_tcp_listener` → `AdmissionQueue` → a consumer that drops the
/// datagram. Returns reference nanoseconds per datagram.
fn time_listener(clock: Clock<'_>, encoded: &Encoded, datagrams: usize) -> Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("listener bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (queue, rx, stats) = AdmissionQueue::bounded(1_024);
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = spawn_tcp_listener(listener, queue, Arc::clone(&shutdown));
    let consumer = std::thread::spawn(move || {
        let mut seen = 0usize;
        while seen < datagrams && rx.recv().is_ok() {
            seen += 1;
        }
        (seen, Instant::now())
    });
    let mut started = None;
    let sent = load::send_tcp_closed(addr, encoded, datagrams, || started = Some(Instant::now()));
    let joined = consumer.join();
    shutdown.store(true, Ordering::SeqCst);
    let _ = handle.join();
    sent.map_err(|e| format!("listener replay: {e}"))?;
    let (seen, ended) = joined.map_err(|_| "listener consumer panicked".to_string())?;
    if seen != datagrams || stats.shed() != 0 {
        return Err(format!(
            "listener forwarded {seen} of {datagrams} datagrams, shed {}",
            stats.shed()
        ));
    }
    let started = started.expect("the sender marks its first write");
    Ok(clock.reference_secs(started, ended) * 1e9 / datagrams as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Produce the whole per-layer ledger of `workload` from its live run
/// and the in-process replay, and write the span aggregate to
/// `benchmark/out/trace_<workload>.json`.
pub fn ledger(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
    live: &LiveRun,
) -> Result<BTreeMap<&'static str, f64>> {
    telemetry::set_enabled(true);
    let spec = workload.stream(seconds);
    let dir = ctx.fresh_dir("trace-ckpt")?;
    let dir = CheckpointDir::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // On the program's CPUs, like the program: the pool's workers are
    // spawned from this thread and stay where it was then, and the
    // workload's clock measures those CPUs.
    let clock = ctx.meter.watch(workload.cpus());
    let mut listener_ns = 0.0;
    let replayed = ctx
        .placement
        .beside_program(workload.cpus(), || -> Result<_> {
            if workload.is_soak() {
                let hours =
                    (TRACE_RECORDS / spec.records_per_hour).clamp(1, u64::from(spec.hours)) as u32;
                let mut tr = Tracer::new(4 * (TRACE_RECORDS as usize / DEFAULT_CHUNK_RECORDS) + 64);
                let (counts, blocks) = replay_soak(ctx, seed, spec, hours, dir, &mut tr)?;
                Ok((counts, blocks, tr.aggregate()))
            } else {
                let encoded = live.encoded.as_ref().ok_or("the live run kept no stream")?;
                let mut datagrams = encoded.datagrams();
                while datagrams > 1 && encoded.records_in(datagrams) > TRACE_RECORDS {
                    datagrams -= 1;
                }
                let mut tr =
                    Tracer::new(6 * datagrams + 8 * (TRACE_RECORDS as usize / DETECTOR_CHUNK) + 64);
                let (counts, blocks) =
                    replay_serve(ctx, encoded, datagrams, spec.records_per_hour, dir, &mut tr)?;
                listener_ns = time_listener(clock, encoded, datagrams)?;
                Ok((counts, blocks, tr.aggregate()))
            }
        });
    let (counts, blocks, layers) = replayed?;
    // Spans are read against the same reference clock as the live run.
    let replay_factor = clock.factor(blocks.during.0, blocks.during.1);

    let records = counts.records.max(1) as f64;
    let of = |layer: Layer| layers.get(&layer).copied().unwrap_or_default();
    // Only the traced blocks left spans, so a layer's time is divided by
    // the records its own spans handled.
    let reference_ns = |layer: Layer| of(layer).self_ns as f64 / replay_factor;
    let per_record = |layer: Layer| reference_ns(layer) / of(layer).records.max(1) as f64;
    let mut out: BTreeMap<&'static str, f64> = crate::spec::PER_LAYER
        .iter()
        .map(|m| (m.name, 0.0))
        .collect();
    let mut set = |name: &'static str, value: f64| {
        let slot = out
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = if value.is_finite() { value } else { 0.0 };
    };

    let wall = live.wall_ns_per_record;
    let collector = per_record(Layer::Collector);
    let convert = per_record(Layer::Convert);
    let usage = per_record(Layer::Usage);
    let staleness = per_record(Layer::Staleness);
    let parallel = per_record(Layer::Parallel);
    let detector = per_record(Layer::Detector);
    let soak_gen = per_record(Layer::SoakGen);
    let sum = collector + convert + usage + staleness + parallel + soak_gen;
    let gap = wall - sum;
    let per_ckpt = |layer: Layer| reference_ns(layer) / 1e6 / of(layer).calls.max(1) as f64;

    set("flow.listener.ns_per_datagram", listener_ns);
    set("flow.collector.ns_per_record", collector);
    set("net.convert.ns_per_record", convert);
    set("core.usage.ns_per_record", usage);
    set("core.staleness.ns_per_record", staleness);
    set("core.parallel.ns_per_record", parallel);
    set("core.detector.ns_per_record", detector);
    set("core.parallel.dispatch_ns_per_record", parallel - detector);
    set("core.checkpoint.delta_ms", per_ckpt(Layer::CheckpointDelta));
    set("core.checkpoint.full_ms", per_ckpt(Layer::CheckpointFull));
    set("wild.soak.ns_per_record", soak_gen);
    set("inproc.sum_ns_per_record", sum);
    set("e2e.wall_ns_per_record", wall);
    set(
        if workload.is_soak() {
            "cli.soak.gap_ns_per_record"
        } else {
            "cli.serve.gap_ns_per_record"
        },
        gap,
    );
    set("flow.collector.share", collector / wall);
    set("net.convert.share", convert / wall);
    set("core.usage.share", usage / wall);
    set("core.staleness.share", staleness / wall);
    set("core.parallel.share", parallel / wall);
    set("wild.soak.share", soak_gen / wall);
    set("cli.gap.share", gap / wall);
    set(
        "flow.listener.share",
        listener_ns * counts.items as f64 / records / wall,
    );
    set("core.detector.share", detector / wall);

    // Work done by the whole replay, traced or not.
    let (items, all) = (counts.items as f64, counts.records as f64);
    if !workload.is_soak() {
        // One call per datagram in each layer of the engine thread.
        for (calls, records_in) in [
            ("flow.listener.calls", "flow.listener.records_in"),
            ("flow.collector.calls", "flow.collector.records_in"),
            ("net.convert.calls", "net.convert.records_in"),
            ("core.usage.calls", "core.usage.records_in"),
            ("core.staleness.calls", "core.staleness.records_in"),
        ] {
            set(calls, items);
            set(records_in, all);
        }
    }
    // One `observe_records` per item, and the final `finish`.
    set("core.parallel.calls", items + 1.0);
    set("core.parallel.records_in", all);
    set("core.detector.calls", counts.detector_calls as f64);
    set("core.detector.records_in", all);
    set("core.checkpoint.calls", 2.0 * counts.checkpoints as f64);
    set(
        "core.checkpoint.records_in",
        (counts.dirty_entries + counts.full_entries) as f64,
    );

    set(
        "flow.collector.allocs_per_record",
        counts.collector_allocs as f64 / records,
    );
    set(
        "core.detector.allocs_per_record",
        counts.detector_allocs as f64 / records,
    );
    if !workload.is_soak() {
        set(
            "flow.collector.template_hit_share",
            ratio(counts.template_hits, counts.items),
        );
    }
    set(
        "core.detector.gate_pass_share",
        ratio(counts.gate_pass, counts.records),
    );
    set(
        "core.detector.match_share",
        ratio(counts.detector_matches, counts.detector_probes),
    );
    set(
        "core.usage.match_share",
        ratio(counts.usage_matches, counts.usage_probes),
    );
    set("core.detector.state_entries", counts.state_entries as f64);
    set(
        "core.checkpoint.dirty_entries",
        ratio(counts.dirty_entries, counts.checkpoints),
    );
    set(
        "core.checkpoint.delta_bytes",
        ratio(counts.delta_bytes, counts.checkpoints),
    );
    set(
        "core.checkpoint.full_bytes",
        ratio(counts.full_bytes, counts.checkpoints),
    );
    set("trace.overhead_share", blocks.overhead_share());
    for (name, value) in &live.live {
        set(name, *value);
    }

    let spans: Vec<serde_json::Value> = layers
        .iter()
        .map(|(layer, t)| {
            serde_json::json!({
                "layer": layer.name(), "calls": t.calls, "records": t.records, "self_ns": t.self_ns,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "workload": workload.name(),
        "seed": seed,
        "seconds": seconds,
        "replayed_records": counts.records,
        "traced_records": blocks.records[1],
        "traced_secs": blocks.secs[1],
        "untraced_records": blocks.records[0],
        "untraced_secs": blocks.secs[0],
        "replay_host_speed_factor": replay_factor,
        "spans": spans,
        "environment": crate::report::environment(&ctx.placement),
    });
    let path = daemon::repo_root()
        .join("benchmark/out")
        .join(format!("trace_{}.json", workload.name()));
    std::fs::write(&path, format!("{doc:#}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let span = |layer, start_ns, end_ns, parent, records| Span {
            layer,
            start_ns,
            end_ns,
            parent,
            records,
        };
        let spans = [
            span(Layer::Replay, 0, 100, NO_PARENT, 0),
            span(Layer::Collector, 10, 50, 0, 30),
            span(Layer::Convert, 50, 70, 0, 30),
            span(Layer::Replay, 100, 160, NO_PARENT, 0),
            span(Layer::Collector, 105, 155, 3, 30),
            span(Layer::Parallel, 200, 230, NO_PARENT, 0),
        ];
        let agg = aggregate(&spans);
        assert_eq!(
            agg[&Layer::Replay],
            LayerTotals {
                calls: 2,
                records: 0,
                self_ns: 40 + 10
            }
        );
        assert_eq!(
            agg[&Layer::Collector],
            LayerTotals {
                calls: 2,
                records: 60,
                self_ns: 90
            }
        );
        assert_eq!(
            agg[&Layer::Convert],
            LayerTotals {
                calls: 1,
                records: 30,
                self_ns: 20
            }
        );
        assert_eq!(agg[&Layer::Parallel].self_ns, 30);
        // Everything adds back up to the roots' durations.
        let total: u64 = agg.values().map(|t| t.self_ns).sum();
        assert_eq!(total, 100 + 60 + 30);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut tr = Tracer::new(8);
        assert!(tr.set_on(false));
        let (root, at) = tr.open(Layer::Replay, NO_PARENT);
        assert_eq!(tr.span(Layer::Collector, root, 3, || 7), 7);
        let at = tr.lap(Layer::Convert, root, at, 3);
        tr.close(root, at);
        assert!(tr.aggregate().is_empty());
        assert!(!tr.set_on(true));
        let (root, at) = tr.open(Layer::Replay, NO_PARENT);
        let at = tr.lap(Layer::Collector, root, at, 3);
        let at = tr.lap(Layer::Convert, root, at, 3);
        tr.close(root, at);
        let agg = tr.aggregate();
        assert_eq!(agg[&Layer::Collector].records, 3);
        assert_eq!(agg[&Layer::Replay].calls, 1);
        // Laps tile their parent: it has no time of its own left.
        assert_eq!(agg[&Layer::Replay].self_ns, 0);
    }

    #[test]
    fn blocks_alternate_and_book_each_kind() {
        let mut tr = Tracer::new(8);
        let mut blocks = Blocks::begin();
        // Not a full block yet: nothing switches.
        blocks.step(BLOCK_RECORDS - 1, &mut tr);
        assert!(tr.set_on(true));
        assert_eq!(blocks.records, [0, 0]);
        // A full traced block, then a full untraced one.
        blocks.step(BLOCK_RECORDS, &mut tr);
        assert!(!tr.set_on(false));
        assert_eq!(blocks.records, [0, BLOCK_RECORDS]);
        blocks.step(2 * BLOCK_RECORDS + 5, &mut tr);
        assert!(tr.set_on(true));
        assert_eq!(blocks.records, [BLOCK_RECORDS + 5, BLOCK_RECORDS]);
        // Equal time per record on both sides is no overhead.
        blocks.secs = [2.0 * (BLOCK_RECORDS + 5) as f64, 2.0 * BLOCK_RECORDS as f64];
        assert!(blocks.overhead_share().abs() < 1e-12);
        blocks.secs[1] *= 1.1;
        assert!((blocks.overhead_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn the_allocator_counts_this_threads_allocations() {
        let before = allocations();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        assert!(allocations() > before);
        let quiet = allocations();
        let x = std::hint::black_box(3u64) + 4;
        assert_eq!(x, 7);
        assert_eq!(allocations(), quiet);
    }
}
