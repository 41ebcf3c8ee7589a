//! Sharded, multi-core detection on a persistent, *supervised* worker
//! pool: one supervisor over two kinds of shard link.
//!
//! Per-line evidence is embarrassingly parallel: no record of line A ever
//! touches line B's state. [`DetectorPool`] exploits that — each worker
//! owns an independent [`Detector`] for the lines hashing to its shard,
//! and lives for the pool's whole lifetime. Records flow to workers in
//! recycled chunk-sized buffers over bounded queues, so a steady-state
//! hour costs **zero** allocations on the feed path and peak resident
//! memory is set by queue capacity, never by hour size. This is the
//! "minutes for millions of devices" configuration (§1); `benchmark/`
//! measures it as `core.parallel.*` on every workload and end to end as
//! `soak_thread` / `soak_process`.
//!
//! Semantics are *identical* to a single [`Detector`] fed the same
//! records — the equivalence and determinism tests at the bottom of this
//! module pin it. Each line's records traverse exactly one FIFO queue in
//! feed order, and the detector's evidence fold is commutative across
//! lines, so any worker count produces the same detections.
//!
//! **Gate once, in the feeder** (DESIGN.md §9, §10). The feeder runs the
//! fingerprint gate (`gate::gate_block`) over every caller chunk
//! against the pool's own hitlist — the one every shard detects with —
//! and only *survivors* are routed, staged, retained for replay and
//! shipped. A proven miss (~98 % of the paper's sampled regime) is never
//! copied and never crosses a thread or pipe link. The gate has no false
//! negatives and ignores `require_established` (which stays in the
//! shard), so it admits a superset of what the shard's own gate admits
//! and can never drop evidence. Every book the pool keeps — replay
//! retention and its auto-checkpoint bound, the degraded queue and its
//! sheds, `records_discarded`, per-shard `records_observed` — therefore
//! counts survivors.
//!
//! **One supervisor, two links** (DESIGN.md §12, §15). The pool owns all
//! policy and all books — staging, batch retention for replay, the
//! deferred delta fold, backoff and the crash-loop breaker, the degraded
//! queue and its shed counts, auto-checkpoints, heal-and-retry, status
//! rows. It talks to each shard through the private `Link` seam, which
//! captures only what differs between a worker *thread* and a worker
//! *process*: how a `(seq, Request)` reaches the worker, how a
//! `(seq, Reply)` comes back, and how the worker is spawned,
//! noticed dead, and killed. `ThreadLink` (here) moves requests over
//! an in-process channel; [`crate::procpool`] holds the child-process
//! link, which moves the same requests as HAYPROC frames over a pipe.
//! Both workers run the same `serve_shard` loop.
//!
//! **Crash safety.** A thread worker runs under `catch_unwind`: a shard
//! that panics surfaces as a typed [`PoolError`] carrying the shard id
//! and the captured panic payload — never a process abort. With
//! [`DetectorPool::enable_supervision`] (always on for process shards)
//! the pool keeps, per shard, a last-checkpoint [`DetectorState`] plus a
//! bounded retention of the batches shipped since, and a dead shard is
//! respawned, restored, and replayed transparently. Replay is exact, not
//! merely idempotent — the checkpoint covers everything before the
//! watermark and the retention everything after — so a recovered run's
//! detections are byte-identical to an uninterrupted one
//! (`supervised_recovery_*` tests, `cli/tests/procpool.rs`).

use crate::checkpoint::{DetectorDelta, DetectorSnapshot, DetectorState};
use crate::detector::{DetectionQuery, Detector, DetectorConfig};
use crate::gate::{self, SOA_BLOCK};
use crate::hitlist::HitList;
use crate::procpool::ProcLink;
use crate::rules::RuleSet;
use crate::telemetry::{self, Counter, Gauge, Histogram, HotStats, HotStatsCounters, Scope};
use haystack_net::AnonId;
use haystack_wild::{RecordChunk, RecordStream, WildRecord};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records per worker-bound buffer (the pool's internal chunk size).
pub const POOL_BATCH_RECORDS: usize = 1_024;

/// Bounded request-queue depth per worker, in batches. This is the
/// backpressure knob: a feeder outrunning the workers blocks after
/// `workers × POOL_CHANNEL_BATCHES` in-flight buffers.
pub const POOL_CHANNEL_BATCHES: usize = 4;

/// Default per-shard replay-buffer bound, in gate survivors (the only
/// records a shard is sent): once a shard's buffer reaches this, the
/// pool checkpoints the shard and drains it.
pub const DEFAULT_REPLAY_LIMIT: usize = 262_144;

/// A detector shard died. Carries the shard id and the worker's last
/// words — the panic payload captured by a thread worker's
/// `catch_unwind`, or the supervisor's reason — when there are any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Which shard died.
    pub shard: usize,
    /// The panic payload (if the worker panicked with a string and the
    /// note survived), e.g. the message passed to
    /// [`DetectorPool::inject_panic`].
    pub panic: Option<String>,
}

impl PoolError {
    pub(crate) fn new(shard: usize, why: impl Into<String>) -> PoolError {
        PoolError { shard, panic: Some(why.into()) }
    }
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.panic {
            Some(msg) => write!(f, "detector shard {} died: {msg}", self.shard),
            None => write!(f, "detector shard {} died", self.shard),
        }
    }
}

impl std::error::Error for PoolError {}

/// One shard's answer to a liveness probe ([`DetectorPool::shard_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard answered a barrier within the probe timeout.
    Responsive,
    /// The shard's worker is alive (link connected) but did not answer
    /// in time — wedged or hopelessly behind. Escalate with
    /// [`DetectorPool::force_respawn`].
    Stalled,
    /// The shard's worker has exited; its link is disconnected. The
    /// next pool operation heals it via the normal respawn path.
    Dead,
}

impl ShardHealth {
    /// Stable lowercase label for telemetry and status endpoints.
    pub fn label(&self) -> &'static str {
        match self {
            ShardHealth::Responsive => "responsive",
            ShardHealth::Stalled => "stalled",
            ShardHealth::Dead => "dead",
        }
    }
}

/// Default bound on gate survivors queued for a degraded shard
/// (crash-loop breaker open) before further survivors are shed with
/// exact accounting.
pub const DEFAULT_DEGRADED_QUEUE_LIMIT: usize = 65_536;

/// Exponential-backoff and circuit-breaker policy for shard respawns.
///
/// A shard that dies deterministically (a poison record, a corrupt
/// state) would otherwise respawn in a tight loop, burning a core and
/// flooding the log. Instead, deaths closer together than
/// `fast_window` build a *streak*: each respawn in a streak waits
/// `base · 2^(streak−1)` (capped at `cap`), and the `trip_after`-th
/// fast death opens the breaker — the shard is marked degraded and no
/// longer respawned until an operator resets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespawnPolicy {
    /// Backoff before the first respawn in a streak.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Deaths farther apart than this reset the streak: a shard that
    /// ran usefully between deaths is not crash-looping.
    pub fast_window: Duration,
    /// Consecutive fast deaths that open the breaker.
    pub trip_after: u32,
}

impl Default for RespawnPolicy {
    fn default() -> Self {
        RespawnPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            fast_window: Duration::from_secs(1),
            trip_after: 5,
        }
    }
}

impl RespawnPolicy {
    /// The backoff delay before the `streak`-th consecutive fast
    /// respawn (1-based): `base · 2^(streak−1)`, capped at `cap`.
    pub fn delay(&self, streak: u32) -> Duration {
        let shift = streak.saturating_sub(1).min(16);
        self.base.saturating_mul(1u32 << shift).min(self.cap)
    }
}

/// What a supervisor should do about a shard death, per
/// [`BackoffState::on_death`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespawnDecision {
    /// Respawn after sleeping this backoff delay.
    Backoff(Duration),
    /// The breaker tripped: stop respawning, mark the shard degraded.
    Trip,
}

/// Per-shard crash-loop tracking (see [`RespawnPolicy`]).
#[derive(Debug, Clone, Default)]
pub struct BackoffState {
    streak: u32,
    last_death: Option<Instant>,
    tripped: bool,
    /// The worker answered a request since `last_death`: the respawn is
    /// over as far as status reporting goes. The streak is unaffected —
    /// a crash loop answers barriers between its deaths too.
    answered: bool,
}

impl BackoffState {
    /// Record a death at `now` and decide: back off, or trip.
    pub fn on_death(&mut self, policy: &RespawnPolicy, now: Instant) -> RespawnDecision {
        if let Some(last) = self.last_death {
            if now.duration_since(last) > policy.fast_window {
                self.streak = 0;
            }
        }
        self.last_death = Some(now);
        self.answered = false;
        self.streak += 1;
        if self.streak >= policy.trip_after {
            self.tripped = true;
            return RespawnDecision::Trip;
        }
        RespawnDecision::Backoff(policy.delay(self.streak))
    }

    /// Record that the (respawned) worker answered a request.
    pub fn on_reply(&mut self) {
        self.answered = true;
    }

    /// Whether the breaker is open (the shard is degraded).
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Current consecutive-fast-death streak.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Close the breaker and forget the streak (operator reset).
    pub fn reset(&mut self) {
        *self = BackoffState::default();
    }

    /// Supervision status at `now`: degraded while tripped; respawning
    /// from a death until the replacement first answers a request (or,
    /// if nothing is asked of it, until the fast window has passed); ok
    /// otherwise.
    pub fn status_at(&self, policy: &RespawnPolicy, now: Instant) -> ShardStatus {
        if self.tripped {
            return ShardStatus::Degraded;
        }
        match self.last_death {
            Some(t) if !self.answered && now.duration_since(t) <= policy.fast_window => {
                ShardStatus::Respawning
            }
            _ => ShardStatus::Ok,
        }
    }
}

/// A shard's supervision status, surfaced by `/readyz`, `/stats`, and
/// [`DetectorPool::shard_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Healthy: no unanswered recent death.
    Ok,
    /// Died recently; its replacement has not answered a request yet.
    Respawning,
    /// The crash-loop circuit breaker is open: the shard is no longer
    /// respawned; its records queue up to a bound, then shed.
    Degraded,
}

impl ShardStatus {
    /// Stable lowercase label for the query plane and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            ShardStatus::Ok => "ok",
            ShardStatus::Respawning => "respawning",
            ShardStatus::Degraded => "degraded",
        }
    }
}

/// One shard's status row: supervision status plus the degraded-queue
/// accounting (`queued`/`shed` are nonzero only after its breaker
/// tripped, and count gate survivors — a proven miss is retired in the
/// feeder and never queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatusReport {
    /// Supervision status.
    pub status: ShardStatus,
    /// Survivors queued for a degraded shard, awaiting an operator reset.
    pub queued: u64,
    /// Survivors shed after the degraded queue filled.
    pub shed: u64,
}

/// Route an anonymized line id to a shard.
///
/// Sequential or low-entropy ids stripe pathologically under a raw
/// `id % n` for some worker counts, so the id is first run through the
/// splitmix64 finalizer — every input bit diffuses into the shard
/// choice. The `shards_stay_balanced` test pins the distribution.
pub(crate) fn shard_of(line: AnonId, n: usize) -> usize {
    let mut z = line.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % n as u64) as usize
}

// ---------------------------------------------------------------------------
// The protocol: what a supervisor asks of a shard, and what comes back
// ---------------------------------------------------------------------------

/// Per-shard telemetry handles, shipped to the worker when the pool is
/// instrumented.
#[derive(Debug, Clone)]
pub(crate) struct ShardTelemetry {
    /// Batches sent but not yet taken off the shard's queue (shared with
    /// the feeder, which increments on send). A thread worker decrements
    /// after processing a batch; a process link after writing it to the
    /// child's pipe.
    pub(crate) queue_depth: Gauge,
    /// The shard detector's hot-path tallies, flushed per batch
    /// (in-process workers only — the registry does not cross a pipe).
    hot: HotStatsCounters,
    /// Per-batch observe time, microseconds (in-process workers only).
    batch_span_us: Histogram,
}

/// A request to a shard worker. Requests travel one FIFO queue per
/// shard, so a query observes every batch sent before it.
#[derive(Debug)]
pub(crate) enum Request {
    /// First request on every link: build the detector. Acked.
    Init {
        /// The rule set the shard detects against.
        rules: Arc<RuleSet>,
        /// Its hitlist. A hitlist has no wire codec: a process worker
        /// always gets the whole-window hitlist of `rules`.
        hitlist: HitList,
        /// Detector configuration.
        config: DetectorConfig,
    },
    /// Observe a buffer of records. Batches travel as `Arc`s so the
    /// supervisor can retain one for replay with a refcount bump instead
    /// of copying records; when a thread worker holds the last reference
    /// (unsupervised, or post-checkpoint), the buffer is recovered,
    /// cleared, and recycled back to the feeder.
    Batch(Arc<Vec<WildRecord>>),
    /// Install telemetry handles on this shard. Never crosses a pipe.
    Telemetry(ShardTelemetry),
    /// Swap the daily hitlist, keeping accumulated evidence. `None`
    /// (what a process worker decodes) re-derives the whole-window
    /// hitlist from the worker's rules.
    SetHitlist(Option<HitList>),
    /// Swap the rule set itself (live reload): rebuild the shard's
    /// detector against the new rules and hitlist, restoring the
    /// already-migrated evidence state shipped with the request.
    SetRules {
        /// The new rule set.
        rules: Arc<RuleSet>,
        /// Its hitlist (whole-window for a process worker).
        hitlist: HitList,
        /// Evidence migrated to `rules` by class/domain name.
        state: DetectorState,
    },
    /// Clear accumulated evidence.
    Reset,
    /// Ack when every prior request is processed.
    Barrier,
    /// Export this shard's evidence state (processed in FIFO order, so
    /// the snapshot covers every batch sent before it).
    Snapshot,
    /// Export a dirty-only snapshot of the evidence mutated since the
    /// shard's last delta/full checkpoint (full when no clean base
    /// exists). Unlike `Snapshot`, this clears the shard's dirty set.
    SnapshotDelta,
    /// Replace this shard's evidence state with a checkpoint.
    Restore(DetectorState),
    /// Deterministic crash injection: panic when this request is
    /// processed (i.e. after every batch sent before it). A thread
    /// worker's unwind is caught; a child process exits 101.
    Panic(String),
    /// Deterministic stall injection: sleep when this request is
    /// processed. Unlike a panic the worker stays alive, so the link
    /// never disconnects — exactly the failure a liveness probe (not a
    /// join or a wait status) has to catch.
    Stall(Duration),
    /// All detected lines for a class on this shard.
    DetectedLines(String),
    /// `(is_detected, confidence)` for every rule at once, for a line
    /// owned by this shard: one round trip for a whole `/line` answer.
    LineVerdicts(AnonId),
    /// Leave the loop cleanly (a closed link means the same).
    Shutdown,
}

/// A shard worker's answer, echoed with the request's sequence number.
#[derive(Debug)]
pub(crate) enum Reply {
    /// `Init` / `Barrier` done.
    Ack,
    /// `Snapshot`.
    State(DetectorState),
    /// `SnapshotDelta`.
    Snap(DetectorSnapshot),
    /// `DetectedLines`.
    Lines(Vec<AnonId>),
    /// `LineVerdicts`: `(detected, confidence)` per rule, in rule order.
    Verdicts(Vec<(bool, f64)>),
}

/// The worker's end of a shard link: where its requests come from and
/// where its replies go.
pub(crate) trait WorkerPort {
    /// The next request. `Ok(None)` means the supervisor hung up — a
    /// clean shutdown.
    fn next(&mut self) -> Result<Option<(u64, Request)>, String>;
    /// Send the reply to request `seq`.
    fn reply(&mut self, seq: u64, reply: Reply) -> Result<(), String>;
    /// Hand a drained batch buffer back for reuse (in-process links).
    fn recycle(&mut self, _buf: Vec<WildRecord>) {}
}

/// Why one rule-set generation of [`serve_shard`] ended.
enum Generation {
    /// Link closed or `Shutdown`: the worker is done.
    Done,
    /// A [`Request::SetRules`] arrived: rebuild the detector against the
    /// new rule set and serve on.
    Swap(Arc<RuleSet>, HitList, DetectorState),
}

/// The shard worker, whatever it runs in: take `Init` (acked), then
/// serve requests until the link closes. `Err` is a protocol or state
/// error — a thread worker records it as its last words, a child
/// process exits 2. The loop is generationed around rule swaps:
/// [`Detector`] borrows its rule set, so each rule-set generation gets
/// its own inner run, and a `SetRules` unwinds to this frame where the
/// `Arc` can be rebound before the next generation starts.
pub(crate) fn serve_shard(port: &mut dyn WorkerPort) -> Result<(), String> {
    let Some((seq, first)) = port.next()? else {
        return Ok(()); // spawned and immediately abandoned
    };
    let Request::Init { rules, hitlist, config } = first else {
        return Err("first request is not Init".into());
    };
    port.reply(seq, Reply::Ack)?;
    let mut tel: Option<ShardTelemetry> = None;
    let mut cur = (rules, hitlist, None);
    loop {
        let (rules, hitlist, restore) = cur;
        match serve_generation(&rules, hitlist, config, restore, port, &mut tel)? {
            Generation::Done => return Ok(()),
            Generation::Swap(r, h, s) => cur = (r, h, Some(s)),
        }
    }
}

/// One rule-set generation of a shard worker: build the detector,
/// restore migrated state if a swap shipped one, then serve requests
/// until shutdown or the next swap.
fn serve_generation(
    rules: &RuleSet,
    hitlist: HitList,
    config: DetectorConfig,
    restore: Option<DetectorState>,
    port: &mut dyn WorkerPort,
    tel: &mut Option<ShardTelemetry>,
) -> Result<Generation, String> {
    let mut det = Detector::new(rules, hitlist, config);
    if let Some(state) = restore {
        det.restore_state(&state).map_err(|e| format!("restore migrated state: {e}"))?;
    }
    // A fresh detector's tallies start at zero; the previous
    // generation's were flushed before the swap returned.
    let mut flushed = HotStats::default();
    // Fold the detector's tallies accrued since the last flush into the
    // shard's atomic counters — one set of adds per request, not per
    // record.
    let flush_stats =
        |det: &Detector<'_>, tel: &Option<ShardTelemetry>, flushed: &mut HotStats| {
            if let Some(t) = tel {
                let now = det.hot_stats();
                t.hot.flush(now.since(flushed));
                *flushed = now;
            }
        };
    while let Some((seq, req)) = port.next()? {
        let reply = match req {
            Request::Init { .. } => return Err("duplicate Init after handshake".into()),
            Request::Shutdown => break,
            Request::SetRules { rules, hitlist, state } => {
                flush_stats(&det, tel, &mut flushed);
                return Ok(Generation::Swap(rules, hitlist, state));
            }
            Request::Telemetry(t) => {
                *tel = Some(t);
                None
            }
            Request::Batch(buf) => {
                let span = tel.as_ref().map(|t| t.batch_span_us.start_span());
                det.observe_chunk(&buf);
                drop(span);
                if let Some(t) = tel {
                    t.queue_depth.dec();
                }
                // Recycle only when this was the last reference — a
                // replay-retained batch stays with the supervisor.
                if let Ok(mut v) = Arc::try_unwrap(buf) {
                    v.clear();
                    port.recycle(v);
                }
                None
            }
            other => serve_request(&mut det, other)?,
        };
        // Counters are exact before any reply leaves: `finish()` syncs
        // them for snapshots.
        flush_stats(&det, tel, &mut flushed);
        if let Some(reply) = reply {
            port.reply(seq, reply)?;
        }
    }
    Ok(Generation::Done)
}

/// The per-request detector dispatch — the one place a [`Request`]
/// meets a [`Detector`], for thread and process workers alike. Requests
/// that manage the worker rather than its detector (`Init`, `SetRules`,
/// `Telemetry`, `Shutdown`) and the batch lane belong to
/// [`serve_generation`].
fn serve_request(det: &mut Detector<'_>, req: Request) -> Result<Option<Reply>, String> {
    Ok(Some(match req {
        Request::SetHitlist(hitlist) => {
            let hitlist = hitlist.unwrap_or_else(|| HitList::whole_window(det.rules()));
            det.set_hitlist(hitlist);
            return Ok(None);
        }
        Request::Reset => {
            det.reset();
            return Ok(None);
        }
        Request::Restore(state) => {
            det.restore_state(&state).map_err(|e| format!("restore: {e}"))?;
            return Ok(None);
        }
        Request::Panic(msg) => panic!("{msg}"),
        Request::Stall(dur) => {
            std::thread::sleep(dur);
            return Ok(None);
        }
        Request::Barrier => Reply::Ack,
        Request::Snapshot => Reply::State(det.export_state()),
        Request::SnapshotDelta => Reply::Snap(det.take_snapshot_delta()),
        Request::DetectedLines(class) => Reply::Lines(det.detected_lines(&class)),
        Request::LineVerdicts(line) => {
            // By class name, as `Detector::is_detected` / `confidence`
            // resolve it, so the answers are theirs bit for bit.
            let rules = det.rules();
            let classes = rules.rules.iter().map(|r| rules.class_name(r.class));
            Reply::Verdicts(
                classes.map(|c| (det.is_detected(line, c), det.confidence(line, c))).collect(),
            )
        }
        Request::Init { .. }
        | Request::SetRules { .. }
        | Request::Telemetry(_)
        | Request::Batch(_)
        | Request::Shutdown => return Err("worker-level request reached the detector".into()),
    }))
}

// ---------------------------------------------------------------------------
// The link seam
// ---------------------------------------------------------------------------

/// How a link failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The worker is gone: its end of the link is closed (thread exited,
    /// child's stdout at EOF or torn mid-frame).
    Dead,
    /// The worker is still there but did not take the request, or did
    /// not answer, within the deadline.
    Stalled,
}

/// The supervisor's end of one shard link — everything that differs
/// between a worker thread and a worker process (DESIGN.md §15 has the
/// table). `deadline: None` means the link's own patience: a thread
/// link blocks (backpressure; a dead thread disconnects the channel), a
/// process link applies its write deadline and heartbeat timeout (a
/// hung child disconnects nothing).
pub(crate) trait Link: Send + fmt::Debug {
    /// Queue `(seq, req)` for the worker, waiting while its queue is
    /// full. `Ok(true)` means it had to wait — the backpressure signal.
    fn send(&self, seq: u64, req: Request, deadline: Option<Instant>) -> Result<bool, Fault>;
    /// The worker's next reply.
    fn recv(&self, deadline: Option<Instant>) -> Result<(u64, Reply), Fault>;
    /// Tear the worker down after `fault` and return its last words, if
    /// it left any. Idempotent.
    fn kill(&mut self, fault: Fault) -> Option<String>;
    /// A cleared batch buffer to refill, if the link has one: a batch
    /// its worker finished with, or one handed to [`Link::reclaim`].
    fn recycled(&mut self) -> Option<Vec<WildRecord>> {
        None
    }
    /// Take back the buffer of a batch that has left the replay
    /// retention. A link whose batches travel as the buffers themselves
    /// keeps it for [`Link::recycled`]; one that serializes them has no
    /// use worth the memory and lets it go.
    fn reclaim(&mut self, _buf: Vec<WildRecord>) {}
}

/// Offer `item` to a bounded queue until `deadline`. `Ok(true)` means
/// the queue was full at first.
pub(crate) fn offer<T>(tx: &SyncSender<T>, mut item: T, deadline: Instant) -> Result<bool, Fault> {
    let mut waited = false;
    loop {
        match tx.try_send(item) {
            Ok(()) => return Ok(waited),
            Err(TrySendError::Full(back)) => {
                if Instant::now() >= deadline {
                    return Err(Fault::Stalled);
                }
                item = back;
                waited = true;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(TrySendError::Disconnected(_)) => return Err(Fault::Dead),
        }
    }
}

/// Take the next item off `rx`, blocking until `deadline` (forever when
/// `None`).
pub(crate) fn take<T>(rx: &Receiver<T>, deadline: Option<Instant>) -> Result<T, Fault> {
    let Some(deadline) = deadline else {
        return rx.recv().map_err(|_| Fault::Dead);
    };
    rx.recv_timeout(deadline.saturating_duration_since(Instant::now())).map_err(|e| match e {
        RecvTimeoutError::Timeout => Fault::Stalled,
        RecvTimeoutError::Disconnected => Fault::Dead,
    })
}

/// The in-process link: requests and replies move over channels to a
/// worker thread running [`serve_shard`] under `catch_unwind`.
struct ThreadLink {
    /// `None` once killed.
    tx: Option<SyncSender<(u64, Request)>>,
    replies: Receiver<(u64, Reply)>,
    /// Cleared buffers coming back from the worker.
    recycle: Receiver<Vec<WildRecord>>,
    /// Cleared buffers reclaimed from drained replay retention, reused
    /// last-in first-out: the most recently retained batch is the one
    /// most likely still in cache.
    spare: Vec<Vec<WildRecord>>,
    /// Why the worker's loop ended, when it did not end cleanly: the
    /// panic payload or the protocol error. Written by the worker thread
    /// before its channels close; read after joining it.
    last_words: Arc<Mutex<Option<String>>>,
    handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for ThreadLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadLink").finish_non_exhaustive()
    }
}

/// The thread worker's end of a [`ThreadLink`].
struct ChannelPort {
    rx: Receiver<(u64, Request)>,
    replies: Sender<(u64, Reply)>,
    recycle: Sender<Vec<WildRecord>>,
}

impl WorkerPort for ChannelPort {
    fn next(&mut self) -> Result<Option<(u64, Request)>, String> {
        Ok(self.rx.recv().ok())
    }
    fn reply(&mut self, seq: u64, reply: Reply) -> Result<(), String> {
        // The supervisor may be gone during teardown.
        let _ = self.replies.send((seq, reply));
        Ok(())
    }
    fn recycle(&mut self, buf: Vec<WildRecord>) {
        let _ = self.recycle.send(buf);
    }
}

/// Render a panic payload as a message, when it was a string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl ThreadLink {
    /// Spawn one shard worker thread.
    fn spawn(shard: usize, channel_batches: usize) -> ThreadLink {
        let (tx, rx) = sync_channel(channel_batches.max(1));
        let (reply_tx, replies) = channel();
        let (recycle_tx, recycle) = channel();
        let last_words = Arc::new(Mutex::new(None));
        let note = Arc::clone(&last_words);
        let handle = std::thread::Builder::new()
            .name(format!("detector-shard-{shard}"))
            .spawn(move || {
                let mut port = ChannelPort { rx, replies: reply_tx, recycle: recycle_tx };
                let words = match catch_unwind(AssertUnwindSafe(|| serve_shard(&mut port))) {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(e),
                    Err(payload) => Some(panic_message(payload)),
                };
                if let (Some(words), Ok(mut n)) = (words, note.lock()) {
                    *n = Some(words);
                }
                // `port` drops here: the supervisor sees the channels
                // close only after the note is written.
            })
            .expect("spawn detector shard");
        ThreadLink {
            tx: Some(tx),
            replies,
            recycle,
            spare: Vec::new(),
            last_words,
            handle: Some(handle),
        }
    }
}

impl Link for ThreadLink {
    fn send(&self, seq: u64, req: Request, deadline: Option<Instant>) -> Result<bool, Fault> {
        let tx = self.tx.as_ref().ok_or(Fault::Dead)?;
        if let Some(deadline) = deadline {
            return offer(tx, (seq, req), deadline);
        }
        // Distinguish a clean send from one that had to block: the
        // stall counter is the backpressure signal operators watch.
        match tx.try_send((seq, req)) {
            Ok(()) => Ok(false),
            Err(TrySendError::Full(item)) => tx.send(item).map(|()| true).map_err(|_| Fault::Dead),
            Err(TrySendError::Disconnected(_)) => Err(Fault::Dead),
        }
    }

    fn recv(&self, deadline: Option<Instant>) -> Result<(u64, Reply), Fault> {
        take(&self.replies, deadline)
    }

    fn kill(&mut self, fault: Fault) -> Option<String> {
        // Closing the request channel ends a live worker's loop once it
        // has drained what was queued.
        self.tx = None;
        let handle = self.handle.take()?;
        match fault {
            // Its channels closed, so the thread is past its loop: the
            // join returns at once and the note is final.
            Fault::Dead => {
                let _ = handle.join();
                self.last_words.lock().ok().and_then(|mut n| n.take())
            }
            // Alive but wedged — joining would hang the supervisor with
            // it. Detach: the thread exits at its own pace, and its
            // reply and recycle lanes are orphaned with this link, so
            // nothing it touches flows back into the pool.
            Fault::Stalled => None,
        }
    }

    fn recycled(&mut self) -> Option<Vec<WildRecord>> {
        self.recycle.try_recv().ok().or_else(|| self.spare.pop())
    }

    fn reclaim(&mut self, buf: Vec<WildRecord>) {
        self.spare.push(buf);
    }
}

impl Drop for ThreadLink {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------------

/// Supervision state: per-shard checkpoints, replay buffers, and the
/// recovery telemetry published under the global `checkpoint` scope.
struct Supervisor {
    /// Last *folded* evidence state, per shard: the base that
    /// `pending` deltas have not yet been applied to.
    shard_state: Vec<DetectorState>,
    /// Delta frames accepted by [`DetectorPool::checkpoint_all_delta`]
    /// but not yet folded into `shard_state`. Applying a delta is
    /// thousands of map upserts; deferring it keeps the hour-boundary
    /// consistency point at clone cost. Folding happens only when the
    /// base is actually read (dead-shard recovery, full-anchor export),
    /// and every full snapshot — explicit or replay-bound automatic —
    /// subsumes and clears the queue, so it stays bounded.
    pending: Vec<Vec<DetectorDelta>>,
    /// Batches *shipped* to each shard since its last checkpoint,
    /// retained as `Arc` refcount clones at ship time — no record is
    /// ever copied for replay coverage. Staged-but-unshipped records
    /// are still in the feeder's own buffers and need none.
    replay: Vec<Vec<Arc<Vec<WildRecord>>>>,
    /// Records covered by `replay`, per shard (cached sum of batch
    /// lengths, so the bound check is O(1) per feed call).
    replay_records: Vec<usize>,
    /// Per-shard replay bound; reaching it triggers an auto-checkpoint.
    replay_limit: usize,
    /// Shards respawned after a crash.
    restarts: Counter,
    /// Records replayed into respawned shards (this is how far the
    /// per-shard `records_observed` counters can run ahead of
    /// `records_in` after recoveries).
    replayed_records: Counter,
    /// Per-shard checkpoints taken (explicit and automatic).
    shard_checkpoints: Counter,
    /// Replies that did not arrive within a link's heartbeat timeout.
    heartbeat_misses: Counter,
    /// Backoff sleeps taken before respawns (the respawn-storm brake).
    respawn_backoff: Counter,
    /// Crash-loop circuit-breaker trips (shards marked degraded).
    breaker_trips: Counter,
    /// Records queued for degraded shards.
    degraded_queued: Counter,
    /// Records shed after a degraded shard's queue filled.
    degraded_shed: Counter,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("replay_limit", &self.replay_limit)
            .field("buffered", &self.replay_records.iter().sum::<usize>())
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    fn new(shards: usize, nrules: usize, replay_limit: usize) -> Supervisor {
        let scope = Scope::named("checkpoint");
        Supervisor {
            shard_state: (0..shards).map(|_| empty_state(nrules)).collect(),
            pending: (0..shards).map(|_| Vec::new()).collect(),
            replay: (0..shards).map(|_| Vec::new()).collect(),
            replay_records: vec![0; shards],
            replay_limit: replay_limit.max(1),
            restarts: scope.counter("shard_restarts"),
            replayed_records: scope.counter("replayed_records"),
            shard_checkpoints: scope.counter("shard_checkpoints"),
            heartbeat_misses: scope.counter("heartbeat_misses"),
            respawn_backoff: scope.counter("respawn_backoff"),
            breaker_trips: scope.counter("breaker_trips"),
            degraded_queued: scope.counter("degraded_queued_records"),
            degraded_shed: scope.counter("degraded_shed_records"),
        }
    }

    /// Apply the shard's queued delta frames to its base state, in
    /// arrival order (later absolute values win).
    fn fold_pending(&mut self, shard: usize) {
        for delta in self.pending[shard].drain(..) {
            delta
                .apply(&mut self.shard_state[shard])
                .expect("pending delta matches its base rule count");
        }
    }

    /// Drain `shard`'s replay retention, handing each buffer back to
    /// its link. By the time a replay buffer drains (a checkpoint
    /// snapshot replied, so the worker has long since processed every
    /// retained batch), the supervisor holds the last reference —
    /// a thread link recovers the allocation for reuse instead of
    /// dropping it (a worker can't recycle a batch the supervisor still
    /// holds). Its spare list needs no cap: it only ever holds buffers
    /// the replay retention held a moment earlier, so the pool's peak
    /// resident memory is unchanged.
    fn drain_replay(&mut self, shard: usize, link: &mut dyn Link) {
        for batch in self.replay[shard].drain(..) {
            if let Ok(mut v) = Arc::try_unwrap(batch) {
                v.clear();
                link.reclaim(v);
            }
        }
        self.replay_records[shard] = 0;
    }

    /// Forget everything held for `shard` except its base state: the
    /// queued deltas (subsumed by a full state, or stale) and the replay
    /// retention.
    fn clear_shard(&mut self, shard: usize, link: &mut dyn Link) {
        self.pending[shard].clear();
        self.drain_replay(shard, link);
    }
}

fn empty_state(nrules: usize) -> DetectorState {
    DetectorState { rules: vec![Vec::new(); nrules] }
}

/// A persistent pool of shard-owning detector workers.
///
/// Feed it records with [`DetectorPool::observe_records`] (or whole
/// streams with [`DetectorPool::observe_stream`]); call
/// [`DetectorPool::finish`] to barrier, then query. Queries flush the
/// staging buffers themselves, so forgetting an explicit flush can never
/// lose records.
///
/// Every method that talks to a worker returns `Err(`[`PoolError`]`)`
/// when the shard died (instead of aborting the process). With
/// [`DetectorPool::enable_supervision`], a dead shard is restored from
/// its last checkpoint and its replay buffer transparently, and the
/// operation is retried once before an error is surfaced.
#[derive(Debug)]
pub struct DetectorPool {
    /// Construction parameters, retained so a dead shard can be
    /// respawned identically.
    rules: Arc<RuleSet>,
    /// The hitlist every shard detects with, and the one the feeder
    /// gates against — so the two must never disagree. On a process
    /// pool it is always `HitList::whole_window(&rules)`, because that
    /// is all a child can derive.
    hitlist: HitList,
    config: DetectorConfig,
    channel_batches: usize,
    /// The `haystack shard-worker` argv for process shards; `None` for
    /// thread shards.
    command: Option<Vec<String>>,
    links: Vec<Box<dyn Link>>,
    /// Last request sequence number issued, per shard. Replies echo it,
    /// so a stale reply (its request timed out in an earlier probe) is
    /// discarded instead of being mistaken for the current one.
    seq: Vec<u64>,
    /// Per-shard partial buffers, reused across calls (the allocation
    /// churn fix: nothing here is rebuilt per batch).
    staging: Vec<Vec<WildRecord>>,
    batch_records: usize,
    /// The feeder gate's survivor columns ([`gate::gate_block`]'s
    /// `surv`/`shash`), [`SOA_BLOCK`] long and allocated once, so a chunk
    /// of misses costs no allocation at all.
    surv: Vec<u32>,
    shash: Vec<u64>,
    /// Chunk buffers ever allocated — on thread shards the pool's peak
    /// resident buffer count, since buffers recycle instead of dropping.
    buffers_created: usize,
    /// Feeder-side telemetry, present only after
    /// [`DetectorPool::attach_telemetry`] on an enabled registry.
    telemetry: Option<FeederTelemetry>,
    /// The telemetry scope, kept so a respawned shard's handles can be
    /// rebuilt against the same registry entries.
    scope: Option<Scope>,
    supervisor: Option<Supervisor>,
    /// Respawn backoff / circuit-breaker policy (supervised pools).
    policy: RespawnPolicy,
    /// Per-shard crash-loop tracking.
    backoff: Vec<BackoffState>,
    /// Survivors accepted for a degraded shard (breaker open), held
    /// until an operator [`DetectorPool::reset_breaker`] replays them.
    degraded_queue: Vec<Vec<WildRecord>>,
    /// Survivors shed per shard after its degraded queue filled.
    shed_records: Vec<u64>,
    /// Bound on each shard's degraded queue, in survivors.
    queue_limit: usize,
}

/// Feeder-side telemetry handles for an instrumented pool.
#[derive(Debug)]
struct FeederTelemetry {
    /// Records accepted by `observe_records`.
    records_in: Counter,
    /// Records the feeder's fingerprint gate retired: proven misses,
    /// never staged or shipped.
    gate_rejected: Counter,
    /// Full or partial buffers shipped to workers.
    batches_shipped: Counter,
    /// Ships that found the shard's queue full and had to wait — the
    /// backpressure signal.
    backpressure_stalls: Counter,
    /// Fresh buffer allocations (nothing came back on the recycle lane).
    buffers_created: Counter,
    /// Ships served by a recycled buffer.
    buffers_recycled: Counter,
    /// Staged and degraded-queued survivors discarded by `reset` (they
    /// belong to the window being cleared). Keeps the conservation
    /// invariant exact (after `finish`, no shard degraded or respawned):
    /// `records_in == gate_rejected + Σ shard records_observed +
    /// records_discarded`.
    records_discarded: Counter,
    /// Per-shard in-flight batch gauges (shared with the workers).
    queue_depth: Vec<Gauge>,
}

impl DetectorPool {
    /// Spawn `workers` shard threads sharing one rule set and hitlist.
    pub fn new(rules: &RuleSet, hitlist: &HitList, config: DetectorConfig, workers: usize) -> Self {
        Self::build(rules, hitlist, config, workers, POOL_BATCH_RECORDS, POOL_CHANNEL_BATCHES, None)
            .expect("thread shards spawn and init infallibly")
    }

    /// Spawn `workers` shard *processes* (DESIGN.md §15): one
    /// `haystack shard-worker` child per shard, spoken to in HAYPROC
    /// frames over its stdin/stdout. `command` is the worker argv; empty
    /// means the current executable with a single `shard-worker`
    /// argument — the normal CLI arrangement (tests point it at
    /// `CARGO_BIN_EXE_haystack`).
    ///
    /// A hitlist has no wire codec, so process shards always detect
    /// against the whole-window hitlist of their rules, and the pool's
    /// feeder gates against that same hitlist. They are always
    /// supervised: the only link to a child is its pipe and the only
    /// recovery is respawn. Fails if a child cannot be spawned or does
    /// not complete the `Init` handshake within the heartbeat.
    pub fn with_process_shards(
        rules: &RuleSet,
        config: DetectorConfig,
        workers: usize,
        command: &[String],
    ) -> Result<Self, PoolError> {
        let command = if command.is_empty() {
            let exe = std::env::current_exe()
                .map_err(|e| PoolError::new(0, format!("resolve worker binary: {e}")))?;
            vec![exe.to_string_lossy().into_owned(), "shard-worker".to_string()]
        } else {
            command.to_vec()
        };
        let hitlist = HitList::whole_window(rules);
        let mut pool = Self::build(
            rules,
            &hitlist,
            config,
            workers,
            POOL_BATCH_RECORDS,
            POOL_CHANNEL_BATCHES,
            Some(command),
        )?;
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT)?;
        Ok(pool)
    }

    fn build(
        rules: &RuleSet,
        hitlist: &HitList,
        config: DetectorConfig,
        workers: usize,
        batch_records: usize,
        channel_batches: usize,
        command: Option<Vec<String>>,
    ) -> Result<Self, PoolError> {
        assert!(workers >= 1, "need at least one shard");
        let batch_records = batch_records.max(1);
        let mut pool = DetectorPool {
            rules: Arc::new(rules.clone()),
            hitlist: hitlist.clone(),
            config,
            channel_batches,
            command,
            links: Vec::with_capacity(workers),
            seq: vec![0; workers],
            staging: (0..workers).map(|_| Vec::with_capacity(batch_records)).collect(),
            batch_records,
            surv: vec![0; SOA_BLOCK],
            shash: vec![0; SOA_BLOCK],
            buffers_created: workers,
            telemetry: None,
            scope: None,
            supervisor: None,
            policy: RespawnPolicy::default(),
            backoff: vec![BackoffState::default(); workers],
            degraded_queue: (0..workers).map(|_| Vec::new()).collect(),
            shed_records: vec![0; workers],
            queue_limit: DEFAULT_DEGRADED_QUEUE_LIMIT,
        };
        for shard in 0..workers {
            let link = pool.spawn_link(shard)?;
            pool.links.push(link);
        }
        Ok(pool)
    }

    /// Bring up a worker for `shard` and complete its `Init` handshake.
    fn spawn_link(&mut self, shard: usize) -> Result<Box<dyn Link>, PoolError> {
        let link: Box<dyn Link> = match &self.command {
            None => Box::new(ThreadLink::spawn(shard, self.channel_batches)),
            Some(command) => Box::new(ProcLink::spawn(shard, command, self.channel_batches)?),
        };
        let seq = self.next_seq(shard);
        let init = Request::Init {
            rules: Arc::clone(&self.rules),
            hitlist: self.hitlist.clone(),
            config: self.config,
        };
        let acked = link.send(seq, init, None).and_then(|_| await_reply(&*link, seq, None));
        match acked {
            Ok(Reply::Ack) => Ok(link),
            _ => Err(PoolError::new(shard, "init shard worker: no init ack")),
        }
    }

    fn next_seq(&mut self, shard: usize) -> u64 {
        self.seq[shard] += 1;
        self.seq[shard]
    }

    /// Replace the respawn backoff / circuit-breaker policy (tests and
    /// tuning; the default is [`RespawnPolicy::default`]).
    pub fn set_respawn_policy(&mut self, policy: RespawnPolicy) {
        self.policy = policy;
    }

    /// Per-shard supervision status plus degraded-queue accounting.
    pub fn shard_status(&self) -> Vec<ShardStatusReport> {
        let now = Instant::now();
        (0..self.links.len())
            .map(|s| ShardStatusReport {
                status: self.backoff[s].status_at(&self.policy, now),
                queued: self.degraded_queue[s].len() as u64,
                shed: self.shed_records[s],
            })
            .collect()
    }

    /// Turn on supervised recovery: checkpoint every shard now, then
    /// keep a bounded replay buffer (at most `replay_limit` gate
    /// survivors per shard — reaching the bound auto-checkpoints the
    /// shard). From this point a shard death is healed transparently:
    /// the shard is respawned, restored from its last checkpoint, and
    /// replayed, and the interrupted operation retried. On an
    /// already-supervised pool (every process pool) this adjusts the
    /// bound and takes a fresh checkpoint.
    pub fn enable_supervision(&mut self, replay_limit: usize) -> Result<(), PoolError> {
        match &mut self.supervisor {
            Some(sup) => sup.replay_limit = replay_limit.max(1),
            None => {
                let sup = Supervisor::new(self.links.len(), self.rules.rules.len(), replay_limit);
                self.supervisor = Some(sup);
            }
        }
        // Capture whatever evidence the shards already hold, so a crash
        // right after enabling loses nothing.
        self.checkpoint_all()
    }

    /// Survivors currently held in replay buffers across all shards.
    pub fn replay_buffered(&self) -> usize {
        self.supervisor.as_ref().map_or(0, |s| s.replay_records.iter().sum())
    }

    /// Instrument the pool under `scope`: feeder counters (`records_in`,
    /// `gate_rejected`, `batches_shipped`, `backpressure_stalls`, buffer
    /// churn) plus per-shard sub-scopes (`shard0.queue_depth`,
    /// `shard0.records_observed`, `shard0.batch_span_us`, …; only
    /// `queue_depth` moves for a process shard). A no-op while telemetry
    /// is disabled, leaving the feed path byte-for-byte as before.
    pub fn attach_telemetry(&mut self, scope: &Scope) -> Result<(), PoolError> {
        if !telemetry::enabled() {
            return Ok(());
        }
        let feeder = FeederTelemetry {
            records_in: scope.counter("records_in"),
            gate_rejected: scope.counter("gate_rejected"),
            batches_shipped: scope.counter("batches_shipped"),
            backpressure_stalls: scope.counter("backpressure_stalls"),
            buffers_created: scope.counter("buffers_created"),
            buffers_recycled: scope.counter("buffers_recycled"),
            records_discarded: scope.counter("records_discarded"),
            queue_depth: (0..self.links.len())
                .map(|i| scope.sub(&format!("shard{i}")).gauge("queue_depth"))
                .collect(),
        };
        // The per-worker startup buffers predate instrumentation.
        feeder.buffers_created.add(self.buffers_created as u64);
        scope.gauge("workers").set(self.links.len() as u64);
        self.telemetry = Some(feeder);
        self.scope = Some(scope.clone());
        for shard in 0..self.links.len() {
            let t = self.shard_telemetry(shard);
            self.tell(shard, &|| Request::Telemetry(t.clone()))?;
        }
        Ok(())
    }

    /// Build shard `i`'s telemetry handles against the pool's scope.
    /// Handles re-acquire existing registry entries, so a respawned
    /// shard continues the same counters.
    fn shard_telemetry(&self, shard: usize) -> ShardTelemetry {
        let scope = self.scope.as_ref().expect("scope set when telemetry attached");
        let feeder = self.telemetry.as_ref().expect("telemetry attached");
        let sub = scope.sub(&format!("shard{shard}"));
        ShardTelemetry {
            queue_depth: feeder.queue_depth[shard].clone(),
            hot: HotStatsCounters::new(&sub),
            batch_span_us: sub.histogram("batch_span_us"),
        }
    }

    /// Number of shard workers.
    pub fn workers(&self) -> usize {
        self.links.len()
    }

    /// Chunk buffers ever allocated by the pool — on thread shards its
    /// peak resident buffer count (buffers recycle through the workers,
    /// never drop).
    pub fn buffers_created(&self) -> usize {
        self.buffers_created
    }

    fn breaker_err(&self, shard: usize) -> PoolError {
        PoolError::new(
            shard,
            format!("crash-loop circuit breaker open after {} fast deaths", self.policy.trip_after),
        )
    }

    /// The heal path every failure signal converges on. Tear down
    /// whatever is left of the worker; unsupervised, that surfaces the
    /// typed error. Supervised: consult the breaker, back off, spawn a
    /// replacement, restore it from the shard's last checkpoint, and
    /// replay the retained batches — after which the caller retries the
    /// interrupted operation.
    fn heal(&mut self, shard: usize, fault: Fault) -> Result<(), PoolError> {
        let last_words = self.links[shard].kill(fault);
        let Some(sup) = &self.supervisor else {
            return Err(PoolError { shard, panic: last_words });
        };
        // Respawn-storm brake: a deterministically-dying shard backs
        // off exponentially and eventually trips the circuit breaker
        // instead of respawning in a tight loop.
        if self.backoff[shard].tripped() {
            return Err(self.breaker_err(shard));
        }
        match self.backoff[shard].on_death(&self.policy, Instant::now()) {
            RespawnDecision::Trip => {
                sup.breaker_trips.inc();
                return Err(self.breaker_err(shard));
            }
            RespawnDecision::Backoff(delay) => {
                sup.respawn_backoff.inc();
                std::thread::sleep(delay);
            }
        }
        self.links[shard] = self.spawn_link(shard)?;
        // Batches lost with the dead worker were inc'd but never dec'd;
        // the respawned shard starts with an empty queue.
        if self.telemetry.is_some() {
            let t = self.shard_telemetry(shard);
            t.queue_depth.set(0);
            let seq = self.next_seq(shard);
            let _ = self.links[shard].send(seq, Request::Telemetry(t), None);
        }
        let sup = self.supervisor.as_mut().expect("supervised");
        sup.restarts.inc();
        sup.fold_pending(shard);
        // Staging is left alone: those records were never shipped, are
        // not in the replay buffer, and will ship to the respawned
        // worker in their normal turn. The replay buffer stays too:
        // these records are still since-checkpoint, and a second crash
        // needs them again.
        let restore = Request::Restore(sup.shard_state[shard].clone());
        let replay = sup.replay[shard].clone();
        let replayed = sup.replay_records[shard] as u64;
        let seq = self.next_seq(shard);
        if self.links[shard].send(seq, restore, None).is_err() {
            return Err(PoolError::new(shard, "shard died during restore"));
        }
        // Re-ship the retained batches as-is: each is already shard-
        // partitioned and batch-sized, so no re-chunking (and no copy —
        // a batch request carries a refcount clone).
        for batch in replay {
            if let Some(t) = &self.telemetry {
                t.queue_depth[shard].inc();
            }
            let seq = self.next_seq(shard);
            if self.links[shard].send(seq, Request::Batch(batch), None).is_err() {
                return Err(PoolError::new(shard, "shard died during replay"));
            }
        }
        self.supervisor.as_ref().expect("supervised").replayed_records.add(replayed);
        Ok(())
    }

    /// Await the reply to `seq` on `shard` with the link's own patience,
    /// keeping the books: an answer ends the shard's `respawning`
    /// status, a timeout is a heartbeat miss.
    fn reply_for(&mut self, shard: usize, seq: u64) -> Result<Reply, Fault> {
        let got = await_reply(&*self.links[shard], seq, None);
        match (&got, &self.supervisor) {
            (Ok(_), _) => self.backoff[shard].on_reply(),
            (Err(Fault::Stalled), Some(sup)) => sup.heartbeat_misses.inc(),
            _ => {}
        }
        got
    }

    /// Send `build()` to `shard` — and await its reply when `ask` —
    /// healing (under supervision) and retrying once if the shard fails
    /// mid-operation. A second failure in a row, or an open breaker,
    /// errors.
    fn exchange(
        &mut self,
        shard: usize,
        build: &dyn Fn() -> Request,
        ask: bool,
    ) -> Result<Option<Reply>, PoolError> {
        for _ in 0..2 {
            if self.backoff[shard].tripped() {
                return Err(self.breaker_err(shard));
            }
            let seq = self.next_seq(shard);
            let fault = match self.links[shard].send(seq, build(), None) {
                Ok(_) if !ask => return Ok(None),
                Ok(_) => match self.reply_for(shard, seq) {
                    Ok(reply) => return Ok(Some(reply)),
                    Err(fault) => fault,
                },
                Err(fault) => fault,
            };
            self.heal(shard, fault)?;
        }
        Err(PoolError::new(shard, "shard died again during recovery"))
    }

    /// Fire-and-forget request (FIFO-ordered with everything else).
    fn tell(&mut self, shard: usize, build: &dyn Fn() -> Request) -> Result<(), PoolError> {
        self.exchange(shard, build, false).map(|_| ())
    }

    /// Round trip: send `req`, then `pick` the expected reply shape.
    fn ask<T>(
        &mut self,
        shard: usize,
        build: &dyn Fn() -> Request,
        pick: impl FnOnce(Reply) -> Option<T>,
    ) -> Result<T, PoolError> {
        let reply = self.exchange(shard, build, true)?.expect("asked for a reply");
        pick(reply).ok_or_else(|| PoolError::new(shard, "protocol: unexpected reply shape"))
    }

    /// Flush, send `build()` to every shard, *then* await the replies —
    /// so the shards work concurrently and the caller pays one shard's
    /// latency, not the sum. A shard that failed either leg reports its
    /// fault for the caller to heal on the slow path.
    fn broadcast(
        &mut self,
        build: &dyn Fn() -> Request,
    ) -> Result<Vec<Result<Reply, Fault>>, PoolError> {
        self.flush()?;
        let mut sent = Vec::with_capacity(self.links.len());
        for shard in 0..self.links.len() {
            if self.backoff[shard].tripped() {
                return Err(self.breaker_err(shard));
            }
            let seq = self.next_seq(shard);
            sent.push(self.links[shard].send(seq, build(), None).map(|_| seq));
        }
        Ok(sent
            .into_iter()
            .enumerate()
            .map(|(shard, seq)| seq.and_then(|seq| self.reply_for(shard, seq)))
            .collect())
    }

    /// Move `shard`'s staged records to its degraded queue (bounded;
    /// overflow is shed with exact accounting). Only reached once the
    /// shard's crash-loop breaker is open.
    fn queue_degraded(&mut self, shard: usize) {
        let staged = &mut self.staging[shard];
        let room = self.queue_limit.saturating_sub(self.degraded_queue[shard].len());
        let keep = staged.len().min(room);
        let shed = (staged.len() - keep) as u64;
        self.degraded_queue[shard].extend_from_slice(&staged[..keep]);
        staged.clear();
        self.shed_records[shard] += shed;
        if let Some(sup) = &self.supervisor {
            sup.degraded_queued.add(keep as u64);
            sup.degraded_shed.add(shed);
        }
    }

    /// Ship `shard`'s staging buffer to its worker (waiting if its queue
    /// is full — this is the backpressure point). Once the shard's
    /// crash-loop breaker is open, staged records divert to the bounded
    /// degraded queue instead — the rest of the pool keeps running.
    fn ship(&mut self, shard: usize) -> Result<(), PoolError> {
        if self.staging[shard].is_empty() {
            return Ok(());
        }
        if self.backoff[shard].tripped() {
            self.queue_degraded(shard);
            return Ok(());
        }
        let empty = match self.links[shard].recycled() {
            Some(buf) => {
                if let Some(t) = &self.telemetry {
                    t.buffers_recycled.inc();
                }
                buf
            }
            None => {
                self.buffers_created += 1;
                if let Some(t) = &self.telemetry {
                    t.buffers_created.inc();
                }
                Vec::with_capacity(self.batch_records)
            }
        };
        let full = Arc::new(std::mem::replace(&mut self.staging[shard], empty));
        // Retain the batch for replay *before* any send attempt: a
        // batch lost with a dead worker (or dropped by a failed send) is
        // then always recoverable. This is a refcount bump, not a copy —
        // the records themselves are never duplicated.
        if let Some(sup) = &mut self.supervisor {
            sup.replay_records[shard] += full.len();
            sup.replay[shard].push(Arc::clone(&full));
        }
        // Inc the queue gauge *before* the send: the worker decs after
        // taking the batch, and `Gauge::dec` saturates at zero — a dec
        // racing ahead of a post-send inc would strand the gauge at +1.
        // A failed send leaves a stale inc, but the shard is dead then
        // and recovery resets the gauge on respawn.
        if let Some(t) = &self.telemetry {
            t.queue_depth[shard].inc();
        }
        let seq = self.next_seq(shard);
        match self.links[shard].send(seq, Request::Batch(full), None) {
            Ok(waited) => {
                if let Some(t) = &self.telemetry {
                    t.batches_shipped.inc();
                    if waited {
                        t.backpressure_stalls.inc();
                    }
                }
                Ok(())
            }
            // The send dropped the batch, but under supervision it lives
            // in the replay buffer, which the heal re-fed (or, if the
            // heal tripped the breaker, which `reset_breaker` will). The
            // feed keeps flowing for the healthy shards either way.
            Err(fault) => match self.heal(shard, fault) {
                Err(e) if !self.backoff[shard].tripped() => Err(e),
                _ => Ok(()),
            },
        }
    }

    /// Observe records: gated against the pool's hitlist one
    /// `SOA_BLOCK` at a time, survivors partitioned to shards and
    /// shipped as buffers fill. A proven miss is counted
    /// (`gate_rejected`) and dropped right here.
    pub fn observe_records(&mut self, records: &[WildRecord]) -> Result<(), PoolError> {
        if let Some(t) = &self.telemetry {
            t.records_in.add(records.len() as u64);
        }
        let n = self.links.len();
        for block in records.chunks(SOA_BLOCK) {
            // An empty hitlist has an empty fingerprint: every record is
            // a miss.
            let fp = self.hitlist.prefilter();
            let survivors = if fp.is_empty() {
                0
            } else {
                gate::gate_block(block, fp, &mut self.surv, &mut self.shash)
            };
            if let Some(t) = &self.telemetry {
                t.gate_rejected.add((block.len() - survivors) as u64);
            }
            for k in 0..survivors {
                let r = &block[self.surv[k] as usize];
                let shard = shard_of(r.line, n);
                self.staging[shard].push(*r);
                // A degraded shard's survivors divert to its bounded
                // queue eagerly (not at the batch threshold), so
                // `/readyz` and `/stats` see the queue grow as they
                // arrive.
                if self.staging[shard].len() >= self.batch_records
                    || self.backoff[shard].tripped()
                {
                    self.ship(shard)?;
                }
            }
        }
        // Bound the replay buffers: a shard at the limit is checkpointed
        // (which drains its buffer) before the next call. Degraded
        // shards are skipped — their retention stopped growing.
        if let Some(sup) = &self.supervisor {
            let limit = sup.replay_limit;
            let over: Vec<usize> = (0..n)
                .filter(|&s| sup.replay_records[s] >= limit && !self.backoff[s].tripped())
                .collect();
            for shard in over {
                self.checkpoint_shard(shard)?;
            }
        }
        Ok(())
    }

    /// Drain a whole [`RecordStream`] through the pool, reusing one
    /// chunk buffer. Returns `(records, sampled_packets, degradation)`
    /// funnel totals folded over every chunk.
    pub fn observe_stream(
        &mut self,
        stream: &mut dyn RecordStream,
        chunk: &mut RecordChunk,
    ) -> Result<(u64, u64, haystack_wild::FeedDegradation), PoolError> {
        let mut records = 0u64;
        let mut packets = 0u64;
        let mut degradation = haystack_wild::FeedDegradation::default();
        while stream.next_chunk(chunk) {
            records += chunk.records.len() as u64;
            packets += chunk.sampled_packets;
            degradation.absorb(chunk.degradation);
            self.observe_records(&chunk.records)?;
        }
        Ok((records, packets, degradation))
    }

    /// Push every partial staging buffer to its worker.
    pub fn flush(&mut self) -> Result<(), PoolError> {
        for shard in 0..self.links.len() {
            self.ship(shard)?;
        }
        Ok(())
    }

    /// Flush, then block until every worker has processed everything
    /// sent so far. Per-shard barriers, so a dead shard is identified
    /// (and healed, under supervision) individually.
    pub fn finish(&mut self) -> Result<(), PoolError> {
        self.flush()?;
        for shard in 0..self.links.len() {
            self.ask(shard, &|| Request::Barrier, |r| matches!(r, Reply::Ack).then_some(()))?;
        }
        Ok(())
    }

    /// Ask one shard for its full evidence state (FIFO — the snapshot
    /// covers everything shipped so far).
    fn snapshot_shard(&mut self, shard: usize) -> Result<DetectorState, PoolError> {
        self.ask(shard, &|| Request::Snapshot, |r| match r {
            Reply::State(state) => Some(state),
            _ => None,
        })
    }

    /// A full state arrived for `shard`: it becomes the base, subsumes
    /// the queued deltas, and drains the replay buffer.
    fn absorb_full(&mut self, shard: usize, state: DetectorState) {
        let sup = self.supervisor.as_mut().expect("supervised");
        sup.clear_shard(shard, &mut *self.links[shard]);
        sup.shard_state[shard] = state;
        sup.shard_checkpoints.inc();
    }

    /// Checkpoint one shard: flush its staging, snapshot its evidence
    /// state, and drain its replay buffer. Requires supervision.
    fn checkpoint_shard(&mut self, shard: usize) -> Result<(), PoolError> {
        assert!(self.supervisor.is_some(), "enable_supervision first");
        self.ship(shard)?;
        let state = self.snapshot_shard(shard)?;
        self.absorb_full(shard, state);
        Ok(())
    }

    /// Checkpoint every shard (e.g. on an hour boundary). Requires
    /// supervision. Snapshot requests are broadcast before any reply is
    /// awaited, so the shards export their states concurrently — the
    /// boundary costs one shard's export, not the sum of all of them.
    fn checkpoint_all(&mut self) -> Result<(), PoolError> {
        assert!(self.supervisor.is_some(), "enable_supervision first");
        let replies = self.broadcast(&|| Request::Snapshot)?;
        for (shard, reply) in replies.into_iter().enumerate() {
            match reply {
                Ok(Reply::State(state)) => self.absorb_full(shard, state),
                // Failed shard: heal it, then take its snapshot on the
                // (recovered) slow path.
                other => {
                    self.heal(shard, other.err().unwrap_or(Fault::Dead))?;
                    self.checkpoint_shard(shard)?;
                }
            }
        }
        Ok(())
    }

    /// Checkpoint every shard incrementally: each shard exports a
    /// dirty-only [`DetectorSnapshot`] (full when it has no clean base —
    /// fresh worker, post-restore, post-reset), the supervisor merges it
    /// into its per-shard base state, and the per-shard frames are
    /// returned for persistence. Requires supervision. A shard found
    /// dead is healed first and contributes a full frame — its recovered
    /// state has no delta base on disk.
    pub fn checkpoint_all_delta(&mut self) -> Result<Vec<DetectorSnapshot>, PoolError> {
        assert!(self.supervisor.is_some(), "enable_supervision first");
        let replies = self.broadcast(&|| Request::SnapshotDelta)?;
        let mut frames = Vec::with_capacity(replies.len());
        for (shard, reply) in replies.into_iter().enumerate() {
            match reply {
                Ok(Reply::Snap(DetectorSnapshot::Full(state))) => {
                    self.absorb_full(shard, state.clone());
                    frames.push(DetectorSnapshot::Full(state));
                }
                // Deferred: the frame is persisted by the caller at this
                // same moment, so queuing it (a memcpy) instead of
                // applying it (thousands of upserts) loses nothing — the
                // fold happens off the boundary path, when the base is
                // next read.
                Ok(Reply::Snap(DetectorSnapshot::Delta(delta))) => {
                    let sup = self.supervisor.as_mut().expect("supervised");
                    sup.drain_replay(shard, &mut *self.links[shard]);
                    sup.pending[shard].push(delta.clone());
                    sup.shard_checkpoints.inc();
                    frames.push(DetectorSnapshot::Delta(delta));
                }
                // Failed shard: heal it, take a full snapshot on the
                // recovered slow path, and persist that full frame —
                // the worker's dirty set died with it.
                other => {
                    self.heal(shard, other.err().unwrap_or(Fault::Dead))?;
                    self.checkpoint_shard(shard)?;
                    let sup = self.supervisor.as_ref().expect("supervised");
                    frames.push(DetectorSnapshot::Full(sup.shard_state[shard].clone()));
                }
            }
        }
        Ok(frames)
    }

    /// The supervisor's merged per-shard base states — what the delta
    /// frames of [`DetectorPool::checkpoint_all_delta`] have been folded
    /// into. Requires supervision.
    pub fn supervised_shard_states(&mut self) -> Vec<DetectorState> {
        let sup = self.supervisor.as_mut().expect("enable_supervision first");
        for shard in 0..sup.shard_state.len() {
            sup.fold_pending(shard);
        }
        sup.shard_state.clone()
    }

    /// Export every shard's evidence state, flushing first so the
    /// states cover everything fed. Under supervision this doubles as a
    /// checkpoint (replay buffers drain). The returned vector is
    /// indexed by shard and must be restored into a pool with the same
    /// worker count ([`DetectorPool::restore_shard_states`]).
    pub fn shard_states(&mut self) -> Result<Vec<DetectorState>, PoolError> {
        if self.supervisor.is_some() {
            self.checkpoint_all()?;
            return Ok(self.supervisor.as_ref().expect("supervised").shard_state.clone());
        }
        self.flush()?;
        (0..self.links.len()).map(|shard| self.snapshot_shard(shard)).collect()
    }

    /// Restore per-shard evidence states exported by
    /// [`DetectorPool::shard_states`] from a pool with the same worker
    /// count and rule set. Staged records are discarded — the restored
    /// states define the new watermark. Under supervision the states
    /// become the shards' checkpoints and the replay buffers drain.
    pub fn restore_shard_states(&mut self, states: &[DetectorState]) -> Result<(), PoolError> {
        assert_eq!(
            states.len(),
            self.links.len(),
            "shard states must match the worker count"
        );
        for s in &mut self.staging {
            s.clear();
        }
        if let Some(sup) = &mut self.supervisor {
            for shard in 0..states.len() {
                // Stale deltas would corrupt the restored base.
                sup.clear_shard(shard, &mut *self.links[shard]);
            }
            sup.shard_state = states.to_vec();
        }
        for (shard, state) in states.iter().enumerate() {
            self.tell(shard, &|| Request::Restore(state.clone()))?;
        }
        Ok(())
    }

    /// Deterministic crash injection: make `shard` panic with `msg` once
    /// every batch sent before this call is processed (a child process
    /// exits 101). The next operation touching the shard observes the
    /// death (and heals it, under supervision).
    pub fn inject_panic(&mut self, shard: usize, msg: &str) -> Result<(), PoolError> {
        self.tell(shard, &|| Request::Panic(msg.to_string()))
    }

    /// Deterministic stall injection: make `shard` sleep for `dur` once
    /// every batch sent before this call is processed. The worker stays
    /// alive — this is the wedged-not-dead failure
    /// [`DetectorPool::shard_health`] exists to catch.
    pub fn inject_stall(&mut self, shard: usize, dur: Duration) -> Result<(), PoolError> {
        self.tell(shard, &|| Request::Stall(dur))
    }

    /// Chaos: sever `shard`'s worker ungracefully *right now* — SIGKILL
    /// for a process shard, an abandoned thread for a thread shard
    /// (whatever it had queued is lost with it). The next operation
    /// touching the shard heals it.
    pub fn kill_shard(&mut self, shard: usize) -> Result<(), PoolError> {
        self.links[shard].kill(Fault::Stalled);
        Ok(())
    }

    /// Probe every shard's liveness: each gets a barrier and `timeout`
    /// to answer it (enqueue time counts — a shard too wedged to drain
    /// its queue is as stalled as one that never replies). A shard
    /// whose breaker is open reads as dead. Observational: no healing,
    /// no flushing, no blocking beyond the timeout per shard.
    pub fn shard_health(&mut self, timeout: Duration) -> Vec<ShardHealth> {
        (0..self.links.len())
            .map(|shard| {
                if self.backoff[shard].tripped() {
                    return ShardHealth::Dead;
                }
                let deadline = Some(Instant::now() + timeout);
                let seq = self.next_seq(shard);
                let link = &*self.links[shard];
                let answered = link
                    .send(seq, Request::Barrier, deadline)
                    .and_then(|_| await_reply(link, seq, deadline));
                match answered {
                    Ok(_) => {
                        self.backoff[shard].on_reply();
                        ShardHealth::Responsive
                    }
                    Err(Fault::Stalled) => ShardHealth::Stalled,
                    Err(Fault::Dead) => ShardHealth::Dead,
                }
            })
            .collect()
    }

    /// Watchdog escalation for a shard that is alive but unresponsive:
    /// abandon its worker (detach the thread — joining a wedged thread
    /// would hang the supervisor with it — or SIGKILL the child) and
    /// bring up a replacement restored from the last checkpoint plus
    /// replay. Recovery is exact for the same reason crash recovery is:
    /// the checkpoint covers everything before the watermark, the replay
    /// buffer everything after, and the abandoned worker's
    /// un-checkpointed state is discarded with it. Counts as a death for
    /// the breaker — repeated escalation trips it rather than thrashing.
    /// Requires supervision.
    pub fn force_respawn(&mut self, shard: usize) -> Result<(), PoolError> {
        assert!(self.supervisor.is_some(), "enable_supervision first");
        self.heal(shard, Fault::Stalled)
    }

    /// Operator reset for a degraded shard: close its crash-loop
    /// breaker, respawn it from its last checkpoint plus replay, then
    /// re-feed the records queued while the breaker was open (sheds are
    /// gone — the accounting in [`DetectorPool::shard_status`] is the
    /// record of that loss). Requires supervision.
    pub fn reset_breaker(&mut self, shard: usize) -> Result<(), PoolError> {
        assert!(self.supervisor.is_some(), "enable_supervision first");
        self.backoff[shard].reset();
        self.heal(shard, Fault::Stalled)?;
        // The respawn above counted as a death; an operator reset
        // declares the shard healthy, so clear that bookkeeping too.
        self.backoff[shard].reset();
        let queued = std::mem::take(&mut self.degraded_queue[shard]);
        for r in queued {
            self.staging[shard].push(r);
            if self.staging[shard].len() >= self.batch_records {
                self.ship(shard)?;
            }
        }
        Ok(())
    }

    /// Swap the daily hitlist on every shard and in the feeder's gate.
    /// Staged survivors are flushed first, so they are observed under
    /// the hitlist that gated them. Under supervision every shard is
    /// checkpointed first, so a replay never crosses a hitlist swap.
    ///
    /// A no-op on a process pool: a hitlist has no wire codec, so its
    /// children can only detect with the whole-window hitlist of their
    /// rules, and the feeder must gate with the same one.
    pub fn set_hitlist(&mut self, hitlist: &HitList) -> Result<(), PoolError> {
        if self.command.is_some() {
            return Ok(());
        }
        if self.supervisor.is_some() {
            self.checkpoint_all()?;
        } else {
            self.flush()?;
        }
        self.hitlist = hitlist.clone();
        for shard in 0..self.links.len() {
            self.tell(shard, &|| Request::SetHitlist(Some(hitlist.clone())))?;
        }
        Ok(())
    }

    /// Swap the rule set itself on every shard without restarting the
    /// pool — the live-reload primitive behind `POST /admin/reload-rules`
    /// (DESIGN.md §14).
    ///
    /// Checkpoint-first, like [`DetectorPool::set_hitlist`]: every
    /// shard's evidence is exported (covering every record fed so far),
    /// migrated to the new rule set by class/domain name
    /// ([`crate::pack::migrate_detector_state`]), and shipped back with
    /// the new rules in one `Request::SetRules` — so unchanged rules
    /// lose no evidence, removed rules vanish, added rules start empty,
    /// and a supervised replay never crosses the swap. The feeder gates
    /// with the new hitlist from here on — on a process pool that is
    /// always the whole-window hitlist of `rules`, and `hitlist` is
    /// ignored (see [`DetectorPool::set_hitlist`]).
    pub fn set_rules(&mut self, rules: &RuleSet, hitlist: &HitList) -> Result<(), PoolError> {
        let new_rules = Arc::new(rules.clone());
        // Under supervision this is a checkpoint_all: replay buffers
        // drain, so a post-swap respawn restores migrated state only.
        let old_states = self.shard_states()?;
        let migrated: Vec<DetectorState> = old_states
            .iter()
            .map(|s| {
                crate::pack::migrate_detector_state(
                    &self.rules,
                    &new_rules,
                    self.config.threshold,
                    s,
                )
            })
            .collect();
        if let Some(sup) = &mut self.supervisor {
            sup.shard_state = migrated.clone();
            for q in &mut sup.pending {
                q.clear(); // pre-swap deltas reference the old rule set
            }
        }
        self.hitlist = match self.command {
            Some(_) => HitList::whole_window(&new_rules),
            None => hitlist.clone(),
        };
        self.rules = Arc::clone(&new_rules);
        let hitlist = self.hitlist.clone();
        for (shard, state) in migrated.iter().enumerate() {
            // Should the send fail, the respawn inits with the new rules
            // and restores the migrated base — the retried swap is then
            // a no-op.
            self.tell(shard, &|| Request::SetRules {
                rules: Arc::clone(&new_rules),
                hitlist: hitlist.clone(),
                state: state.clone(),
            })?;
        }
        Ok(())
    }

    /// Clear accumulated evidence (new aggregation window). Survivors
    /// still staged or queued for a degraded shard are discarded (and
    /// counted in `records_discarded`) — they belong to the window being
    /// cleared.
    pub fn reset(&mut self) -> Result<(), PoolError> {
        let held = self.staging.iter().chain(&self.degraded_queue).map(Vec::len).sum::<usize>();
        if let Some(t) = &self.telemetry {
            t.records_discarded.add(held as u64);
        }
        for s in self.staging.iter_mut().chain(&mut self.degraded_queue) {
            s.clear();
        }
        let nrules = self.rules.rules.len();
        if let Some(sup) = &mut self.supervisor {
            for shard in 0..sup.shard_state.len() {
                sup.clear_shard(shard, &mut *self.links[shard]);
                sup.shard_state[shard] = empty_state(nrules);
            }
        }
        for shard in 0..self.links.len() {
            // A degraded shard is already at the empty base; it comes
            // back with `reset_breaker`.
            if !self.backoff[shard].tripped() {
                self.tell(shard, &|| Request::Reset)?;
            }
        }
        Ok(())
    }

    /// All lines for which `class` is detected, merged across shards.
    pub fn detected_lines(&mut self, class: &str) -> Result<Vec<AnonId>, PoolError> {
        self.flush()?;
        let mut out = Vec::new();
        for shard in 0..self.links.len() {
            let lines =
                self.ask(shard, &|| Request::DetectedLines(class.to_string()), |r| match r {
                    Reply::Lines(lines) => Some(lines),
                    _ => None,
                })?;
            out.extend(lines);
        }
        out.sort_unstable();
        Ok(out)
    }

    /// `(is_detected, confidence)` of `line` for every rule, in rule
    /// order, as [`Detector::is_detected`] and [`Detector::confidence`]
    /// answer them: the pool's one per-line query, one round trip to the
    /// owning shard (after flushing that shard's staged records).
    pub fn line_verdicts(&mut self, line: AnonId) -> Result<Vec<(bool, f64)>, PoolError> {
        let shard = shard_of(line, self.links.len());
        self.ship(shard)?;
        self.ask(shard, &|| Request::LineVerdicts(line), |r| match r {
            Reply::Verdicts(v) => Some(v),
            _ => None,
        })
    }
}

/// Await the reply matching `seq` on a link, discarding stale replies
/// (their requests timed out in an earlier probe). A reply from the
/// future is a protocol violation — grounds for healing, like a
/// disconnect or a corrupt frame.
fn await_reply(link: &dyn Link, seq: u64, deadline: Option<Instant>) -> Result<Reply, Fault> {
    loop {
        match link.recv(deadline)? {
            (rseq, reply) if rseq == seq => return Ok(reply),
            (rseq, _) if rseq < seq => continue,
            _ => return Err(Fault::Dead),
        }
    }
}

impl DetectionQuery for DetectorPool {
    fn query_detected_lines(&mut self, class: &str) -> Vec<AnonId> {
        self.detected_lines(class).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Drop for DetectorPool {
    fn drop(&mut self) {
        // Tell every worker to leave before any link is torn down, so
        // they wind down side by side rather than one join (or one
        // `waitpid`) after another. Best effort: a link with no room
        // for the request closes right after, which means the same.
        let now = Instant::now();
        for link in &self.links {
            let _ = link.send(0, Request::Shutdown, Some(now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{RuleDomain, RuleSetBuilder};
    use haystack_dns::DomainName;
    use haystack_net::ports::Proto;
    use haystack_net::{HourBin, Prefix4};
    use haystack_testbed::catalog::DetectionLevel;
    use haystack_wild::VecStream;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::net::Ipv4Addr;

    impl DetectorPool {
        /// [`DetectorPool::new`] with explicit buffer size and queue
        /// depth.
        fn with_tuning(
            rules: &RuleSet,
            hitlist: &HitList,
            config: DetectorConfig,
            workers: usize,
            batch_records: usize,
            channel_batches: usize,
        ) -> Self {
            Self::build(rules, hitlist, config, workers, batch_records, channel_batches, None)
                .expect("thread shards spawn and init infallibly")
        }

        /// Σ [`DetectorState::entry_count`] over
        /// [`DetectorPool::shard_states`]: the pool's
        /// [`Detector::state_size`].
        fn entries(&mut self) -> usize {
            self.shard_states().unwrap().iter().map(DetectorState::entry_count).sum()
        }

        /// Whether `class` is detected for `line`, read from the owning
        /// shard's [`DetectorPool::line_verdicts`].
        fn detects(&mut self, line: AnonId, class: &str) -> bool {
            let ri = self.rules.rule_index(class).expect("class in the pool's rules");
            self.line_verdicts(line).unwrap()[ri].0
        }
    }

    fn ruleset(n: usize) -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.rule(
            "X",
            DetectionLevel::Manufacturer,
            None,
            (0..n)
                .map(|i| RuleDomain {
                    name: DomainName::parse(&format!("d{i}.x.com")).unwrap(),
                    ports: [443u16].into_iter().collect(),
                    ips: [Ipv4Addr::new(198, 18, 8, i as u8 + 1)].into_iter().collect(),
                    usage_indicator: false,
                })
                .collect(),
        );
        b.build()
    }

    fn random_records(count: usize, seed: u64) -> Vec<WildRecord> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let src = Ipv4Addr::new(100, 64, rng.gen(), rng.gen());
                WildRecord {
                    line: AnonId(rng.gen_range(0..5_000)),
                    line_slash24: Prefix4::slash24_of(src),
                    src_ip: src,
                    dst: Ipv4Addr::new(198, 18, 8, rng.gen_range(1..10)),
                    dport: 443,
                    proto: Proto::Tcp,
                    packets: 1,
                    bytes: 100,
                    established: true,
                    hour: HourBin(rng.gen_range(0..24)),
                }
            })
            .collect()
    }

    /// [`random_records`] with every destination folded onto the first
    /// `domains` IPs of [`ruleset`]: each record is a rule hit, so each
    /// passes the feeder's gate and lands in the books a test counts.
    fn hit_records(count: usize, seed: u64, domains: u8) -> Vec<WildRecord> {
        let mut records = random_records(count, seed);
        for r in &mut records {
            r.dst = Ipv4Addr::new(198, 18, 8, (r.dst.octets()[3] - 1) % domains + 1);
        }
        records
    }

    #[test]
    fn sharded_equals_sequential() {
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(20_000, 3);

        let mut seq = Detector::new(&rules, hl.clone(), config);
        for r in &records {
            seq.observe_wild(r);
        }
        for workers in [1usize, 2, 4, 7] {
            let mut par = DetectorPool::new(&rules, &hl, config, workers);
            par.observe_records(&records).unwrap();
            par.finish().unwrap();
            assert_eq!(
                par.detected_lines("X").unwrap(),
                seq.detected_lines("X"),
                "{workers} workers diverge from sequential"
            );
            assert_eq!(par.entries(), seq.state_size());
        }
    }

    /// A domain for the swap-target rule "Y", on an IP range rule "X"
    /// never touches.
    fn y_domain() -> RuleDomain {
        RuleDomain {
            name: DomainName::parse("y.y.com").unwrap(),
            ports: [443u16].into_iter().collect(),
            ips: [Ipv4Addr::new(198, 18, 9, 1)].into_iter().collect(),
            usage_indicator: false,
        }
    }

    fn x_domains(n: usize) -> Vec<RuleDomain> {
        (0..n)
            .map(|i| RuleDomain {
                name: DomainName::parse(&format!("d{i}.x.com")).unwrap(),
                ports: [443u16].into_iter().collect(),
                ips: [Ipv4Addr::new(198, 18, 8, i as u8 + 1)].into_iter().collect(),
                usage_indicator: false,
            })
            .collect()
    }

    #[test]
    fn set_rules_swaps_live_without_evidence_loss() {
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(20_000, 5);
        let mut pool = DetectorPool::new(&rules, &hl, config, 4);
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        pool.observe_records(&records).unwrap();
        pool.finish().unwrap();
        let before = pool.detected_lines("X").unwrap();
        assert!(!before.is_empty());

        // Swap to a set where "X" is unchanged and "Y" appears.
        let mut b = RuleSetBuilder::new();
        b.rule("X", DetectionLevel::Manufacturer, None, x_domains(6));
        b.rule("Y", DetectionLevel::Manufacturer, None, vec![y_domain()]);
        let with_y = b.build();
        pool.set_rules(&with_y, &HitList::whole_window(&with_y)).unwrap();
        assert_eq!(
            pool.detected_lines("X").unwrap(),
            before,
            "unchanged rule keeps its evidence across the swap"
        );
        assert!(pool.detected_lines("Y").unwrap().is_empty(), "added rule starts empty");

        // The added rule is live immediately under the new hitlist.
        let src = Ipv4Addr::new(100, 64, 9, 9);
        let rec = WildRecord {
            line: AnonId(42),
            line_slash24: Prefix4::slash24_of(src),
            src_ip: src,
            dst: Ipv4Addr::new(198, 18, 9, 1),
            dport: 443,
            proto: Proto::Tcp,
            packets: 1,
            bytes: 100,
            established: true,
            hour: HourBin(0),
        };
        pool.observe_records(&[rec]).unwrap();
        pool.finish().unwrap();
        assert!(pool.detects(AnonId(42), "Y"));

        // A crash after the swap recovers under the *new* rules: the
        // migrated checkpoint plus the replayed post-swap record.
        pool.inject_panic(1, "post-swap crash").unwrap();
        assert_eq!(pool.detected_lines("X").unwrap(), before);
        assert!(pool.detects(AnonId(42), "Y"));

        // Swap again, removing "X": its detections disappear, "Y"
        // survives by name.
        let mut b = RuleSetBuilder::new();
        b.rule("Y", DetectionLevel::Manufacturer, None, vec![y_domain()]);
        let only_y = b.build();
        pool.set_rules(&only_y, &HitList::whole_window(&only_y)).unwrap();
        assert!(pool.detected_lines("X").unwrap().is_empty(), "removed rule disappears");
        assert!(pool.detects(AnonId(42), "Y"), "surviving rule keeps evidence");
    }

    #[test]
    fn delta_checkpoints_merge_into_the_full_shard_states() {
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(24_000, 17);
        let (first, rest) = records.split_at(8_000);

        let mut pool = DetectorPool::new(&rules, &hl, config, 4);
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        pool.observe_records(first).unwrap();
        // Fresh workers have no clean base: round one is all-full.
        let frames = pool.checkpoint_all_delta().unwrap();
        assert!(frames.iter().all(DetectorSnapshot::is_full), "first round must be full");

        pool.observe_records(rest).unwrap();
        let frames = pool.checkpoint_all_delta().unwrap();
        assert!(
            frames.iter().all(|f| !f.is_full()),
            "second round must be dirty-only deltas"
        );

        // The merged bases equal an uninterrupted pool's full states.
        let merged = pool.supervised_shard_states();
        let mut oracle = DetectorPool::new(&rules, &hl, config, 4);
        oracle.observe_records(&records).unwrap();
        assert_eq!(merged, oracle.shard_states().unwrap());

        // A crashed shard heals and contributes a full frame again.
        pool.inject_panic(2, "mid-soak crash").unwrap();
        pool.observe_records(first).unwrap();
        let frames = pool.checkpoint_all_delta().unwrap();
        assert!(frames[2].is_full(), "healed shard restarts its chain with a full frame");
        assert_eq!(
            pool.detected_lines("X").unwrap(),
            {
                oracle.observe_records(first).unwrap();
                oracle.detected_lines("X").unwrap()
            },
            "crash + delta checkpoints lose no evidence"
        );
    }

    #[test]
    fn same_feed_same_detections_for_1_2_8_workers() {
        // Determinism pin: the same record stream produces identical
        // detection sets (and state counts) for any worker count.
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(30_000, 11);
        let mut results = Vec::new();
        for workers in [1usize, 2, 8] {
            let mut pool = DetectorPool::new(&rules, &hl, config, workers);
            let mut chunk = RecordChunk::default();
            let mut stream = VecStream::new(records.clone(), 333);
            pool.observe_stream(&mut stream, &mut chunk).unwrap();
            pool.finish().unwrap();
            results.push((pool.detected_lines("X").unwrap(), pool.entries()));
        }
        assert_eq!(results[0], results[1], "2 workers diverge from 1");
        assert_eq!(results[0], results[2], "8 workers diverge from 1");
        assert!(!results[0].0.is_empty(), "test must detect something");
    }

    #[test]
    fn streamed_chunks_equal_one_batch() {
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(10_000, 5);

        let mut batched = DetectorPool::new(&rules, &hl, config, 3);
        batched.observe_records(&records).unwrap();
        batched.finish().unwrap();

        let mut streamed = DetectorPool::new(&rules, &hl, config, 3);
        for piece in records.chunks(17) {
            streamed.observe_records(piece).unwrap();
        }
        streamed.finish().unwrap();
        assert_eq!(
            streamed.detected_lines("X").unwrap(),
            batched.detected_lines("X").unwrap()
        );
    }

    #[test]
    fn queries_flush_staged_records() {
        // A query with records still staged must observe them: the
        // per-line query ships the owning shard's staging, a whole-pool
        // query every shard's.
        let rules = ruleset(1);
        let hl = HitList::whole_window(&rules);
        let mut pool = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 2);
        let records = random_records(10, 8);
        pool.observe_records(&records).unwrap(); // far below POOL_BATCH_RECORDS
        let mut seq = Detector::new(&rules, hl.clone(), DetectorConfig::default());
        seq.observe_chunk(&records);
        assert!(!seq.detected_lines("X").is_empty(), "test must detect something");
        for r in &records {
            assert_eq!(pool.detects(r.line, "X"), seq.is_detected(r.line, "X"), "{:?}", r.line);
        }
        let more = hit_records(10, 9, 1);
        let before = seq.state_size();
        pool.observe_records(&more).unwrap();
        seq.observe_chunk(&more);
        assert!(seq.state_size() > before, "the second feed must add state");
        assert_eq!(pool.entries(), seq.state_size(), "staged records visible to queries");
    }

    #[test]
    fn buffer_count_is_bounded_by_channel_capacity_not_feed_size() {
        let rules = ruleset(1);
        let hl = HitList::whole_window(&rules);
        // Tiny buffers force constant shipping: 100k records → ~1000
        // buffer sends per shard, but the resident set stays bounded.
        let workers = 4;
        let channel_batches = 4;
        let mut pool = DetectorPool::with_tuning(
            &rules,
            &hl,
            DetectorConfig::default(),
            workers,
            100,
            channel_batches,
        );
        pool.observe_records(&hit_records(100_000, 2, 1)).unwrap();
        pool.finish().unwrap();
        // Per shard: 1 staging + channel_batches in flight + 1 being
        // processed + 1 in the recycle queue.
        let bound = workers * (channel_batches + 3);
        assert!(
            pool.buffers_created() <= bound,
            "{} buffers for a 100k feed (bound {bound})",
            pool.buffers_created()
        );
    }

    #[test]
    fn shards_stay_balanced_for_sequential_ids() {
        // Raw `id % n` would put every id on shard id%n deterministically
        // fine — but sequential ids with stride equal to the worker count
        // stripe onto one shard. The mixed hash must spread any arithmetic
        // progression evenly.
        for workers in [2usize, 3, 4, 7, 8] {
            for stride in [1u64, 2, 4, 7, 8, 16] {
                let mut counts = vec![0usize; workers];
                let total = 8_000usize;
                for i in 0..total {
                    counts[shard_of(AnonId(i as u64 * stride), workers)] += 1;
                }
                let expect = total / workers;
                for (s, &c) in counts.iter().enumerate() {
                    assert!(
                        c > expect / 2 && c < expect * 2,
                        "workers {workers} stride {stride}: shard {s} holds {c}/{total}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_line_dispatch_is_consistent() {
        let rules = ruleset(2);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig::default();
        let mut par = DetectorPool::new(&rules, &hl, config, 4);
        let records = random_records(5_000, 9);
        par.observe_records(&records).unwrap();
        par.finish().unwrap();
        for line in par.detected_lines("X").unwrap() {
            assert!(par.detects(line, "X"));
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn pool_telemetry_counts_are_conserved() {
        telemetry::set_enabled(true);
        let rules = ruleset(4);
        let hl = HitList::whole_window(&rules);
        let scope = Scope::named("t_pool_unit");
        let mut pool = DetectorPool::with_tuning(
            &rules,
            &hl,
            DetectorConfig::default(),
            3,
            64,
            2,
        );
        pool.attach_telemetry(&scope).unwrap();
        let records = hit_records(10_000, 21, 4);
        pool.observe_records(&records).unwrap();
        pool.finish().unwrap();
        let snap = telemetry::global().snapshot().filtered("t_pool_unit");
        assert_eq!(snap.counter("t_pool_unit.records_in"), Some(10_000));
        assert_eq!(snap.counter("t_pool_unit.gate_rejected"), Some(0), "every record is a hit");
        let observed: u64 = (0..3)
            .map(|i| snap.counter(&format!("t_pool_unit.shard{i}.records_observed")).unwrap())
            .sum();
        assert_eq!(observed, 10_000, "every fed record observed by some shard");
        assert!(snap.counter("t_pool_unit.batches_shipped").unwrap() > 0);
        let created = snap.counter("t_pool_unit.buffers_created").unwrap();
        let recycled = snap.counter("t_pool_unit.buffers_recycled").unwrap();
        assert!(created >= 3, "startup buffers counted");
        assert!(recycled > 0, "tiny buffers at 10k records must recycle");
        for i in 0..3 {
            assert_eq!(
                telemetry::global().snapshot().gauge(&format!("t_pool_unit.shard{i}.queue_depth")),
                Some(0),
                "queues drained after finish"
            );
        }
        // Stats flow through reset's discard counter too.
        pool.observe_records(&records[..10]).unwrap();
        pool.reset().unwrap();
        let snap = telemetry::global().snapshot();
        assert_eq!(snap.counter("t_pool_unit.records_discarded"), Some(10));
    }

    #[test]
    fn reset_clears_all_shards() {
        let rules = ruleset(2);
        let hl = HitList::whole_window(&rules);
        let mut par = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 3);
        par.observe_records(&random_records(2_000, 1)).unwrap();
        par.finish().unwrap();
        assert!(par.entries() > 0);
        par.reset().unwrap();
        assert_eq!(par.entries(), 0);
        assert!(par.detected_lines("X").unwrap().is_empty());
    }

    // ------------------------------------------------------------------
    // Crash safety
    // ------------------------------------------------------------------

    #[test]
    fn unsupervised_shard_death_is_a_typed_error_not_an_abort() {
        let rules = ruleset(2);
        let hl = HitList::whole_window(&rules);
        let mut pool = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 3);
        pool.observe_records(&random_records(1_000, 4)).unwrap();
        pool.inject_panic(1, "injected crash").unwrap();
        let err = pool.finish().expect_err("dead shard must surface as Err");
        assert_eq!(err.shard, 1);
        assert_eq!(err.panic.as_deref(), Some("injected crash"));
        assert!(err.to_string().contains("shard 1"));
        assert!(err.to_string().contains("injected crash"));
        // The error is sticky for that shard, not fatal to the process.
        assert!(pool.finish().is_err());
    }

    #[test]
    fn supervised_recovery_is_byte_identical() {
        // Kill a shard mid-feed; the supervised pool must produce
        // exactly the detections of an uninterrupted run.
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(30_000, 17);

        let mut clean = DetectorPool::new(&rules, &hl, config, 4);
        clean.observe_records(&records).unwrap();
        clean.finish().unwrap();
        let want = (clean.detected_lines("X").unwrap(), clean.entries());

        for kill_at in [0usize, 10_000, 29_999] {
            let mut pool = DetectorPool::new(&rules, &hl, config, 4);
            pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
            pool.observe_records(&records[..kill_at]).unwrap();
            pool.inject_panic(2, "chaos kill").unwrap();
            pool.observe_records(&records[kill_at..]).unwrap();
            pool.finish().unwrap();
            let got = (pool.detected_lines("X").unwrap(), pool.entries());
            assert_eq!(got, want, "kill at {kill_at} diverges");
        }
    }

    #[test]
    fn supervised_recovery_with_mid_feed_checkpoints() {
        // Checkpoints between the kill points: replay starts from the
        // last checkpoint, not from zero, and stays byte-identical.
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(24_000, 23);

        let mut clean = DetectorPool::new(&rules, &hl, config, 3);
        clean.observe_records(&records).unwrap();
        clean.finish().unwrap();
        let want = clean.detected_lines("X").unwrap();

        let mut pool = DetectorPool::new(&rules, &hl, config, 3);
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        for (i, piece) in records.chunks(4_000).enumerate() {
            pool.observe_records(piece).unwrap();
            if i % 2 == 0 {
                pool.checkpoint_all().unwrap();
            }
            if i == 3 {
                pool.inject_panic(0, "mid-feed kill").unwrap();
            }
        }
        pool.finish().unwrap();
        assert_eq!(pool.detected_lines("X").unwrap(), want);
    }

    #[test]
    fn replay_buffer_is_bounded_by_auto_checkpoints() {
        let rules = ruleset(4);
        let hl = HitList::whole_window(&rules);
        let mut pool = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 2);
        let limit = 500usize;
        pool.enable_supervision(limit).unwrap();
        let records = hit_records(20_000, 31, 4);
        for piece in records.chunks(100) {
            pool.observe_records(piece).unwrap();
            // A shard's buffer can overshoot by at most one feed call
            // before the auto-checkpoint drains it.
            assert!(
                pool.replay_buffered() <= 2 * (limit + 100),
                "replay grew unbounded: {}",
                pool.replay_buffered()
            );
        }
        // Auto-checkpoints + kill still recover byte-identically.
        pool.inject_panic(1, "late kill").unwrap();
        pool.finish().unwrap();
        let mut clean = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 2);
        clean.observe_records(&records).unwrap();
        clean.finish().unwrap();
        assert_eq!(
            pool.detected_lines("X").unwrap(),
            clean.detected_lines("X").unwrap()
        );
    }

    #[test]
    fn shard_states_round_trip_into_a_fresh_pool() {
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(12_000, 41);
        let split = 7_000;

        let mut whole = DetectorPool::new(&rules, &hl, config, 3);
        whole.observe_records(&records).unwrap();
        whole.finish().unwrap();
        let want = (whole.detected_lines("X").unwrap(), whole.entries());

        // First pool processes half, exports; a fresh pool restores and
        // finishes the rest — the CLI resume path in miniature.
        let mut first = DetectorPool::new(&rules, &hl, config, 3);
        first.observe_records(&records[..split]).unwrap();
        let states = first.shard_states().unwrap();
        drop(first);

        let mut second = DetectorPool::new(&rules, &hl, config, 3);
        second.restore_shard_states(&states).unwrap();
        second.observe_records(&records[split..]).unwrap();
        second.finish().unwrap();
        let got = (second.detected_lines("X").unwrap(), second.entries());
        assert_eq!(got, want);
    }

    #[test]
    fn supervised_set_hitlist_never_replays_across_a_swap() {
        // Kill a shard right after a hitlist swap: the replayed records
        // must be observed under the hitlist they were fed under.
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(10_000, 53);
        let split = 5_000;

        let run = |supervise: bool, kill: bool| {
            let mut pool = DetectorPool::new(&rules, &hl, config, 3);
            if supervise {
                pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
            }
            pool.observe_records(&records[..split]).unwrap();
            pool.set_hitlist(&hl).unwrap();
            if kill {
                pool.inject_panic(0, "post-swap kill").unwrap();
            }
            pool.observe_records(&records[split..]).unwrap();
            pool.finish().unwrap();
            pool.detected_lines("X").unwrap()
        };
        let want = run(false, false);
        assert_eq!(run(true, true), want);
    }

    #[test]
    fn set_hitlist_widens_the_feeder_gate_too() {
        // Start on a day hitlist that indexes only two of six domains,
        // then swap to the whole window: records for the other four must
        // reach the shards from the swap on. A feeder still gating with
        // the narrow hitlist would drop them.
        let rules = ruleset(6);
        let narrow = HitList::whole_window(&ruleset(2));
        let wide = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(12_000, 59);
        let (before, after) = records.split_at(4_000);

        let mut seq = Detector::new(&rules, narrow.clone(), config);
        seq.observe_chunk(before);
        seq.set_hitlist(wide.clone());
        seq.observe_chunk(after);

        let mut pool = DetectorPool::new(&rules, &narrow, config, 3);
        pool.observe_records(before).unwrap();
        pool.set_hitlist(&wide).unwrap();
        pool.observe_records(after).unwrap();
        pool.finish().unwrap();
        assert_eq!(pool.detected_lines("X").unwrap(), seq.detected_lines("X"));
        assert_eq!(pool.entries(), seq.state_size());
        let mut narrow_only = Detector::new(&rules, narrow, config);
        narrow_only.observe_chunk(&records);
        assert!(seq.state_size() > narrow_only.state_size(), "the swap must matter");
    }

    #[test]
    fn only_gate_survivors_reach_the_replay_books() {
        let rules = ruleset(4);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig::default();
        // Two in three records go to 151.64/16, outside every rule.
        let mut records = random_records(6_000, 13);
        for (i, r) in records.iter_mut().enumerate() {
            if i % 3 != 0 {
                r.dst = Ipv4Addr::new(151, 64, (i >> 8) as u8, i as u8);
            }
        }
        let passes = |r: &&WildRecord| {
            hl.prefilter_pass(crate::fasthash::mix64(HitList::pack_key(r.dst, r.dport)))
        };
        let survivors = records.iter().filter(passes).count();
        assert!(survivors < records.len() / 2, "{survivors} survivors");

        // What a shard is sent is retained for replay: the survivors,
        // exactly — a proven miss is never copied.
        let mut pool = DetectorPool::new(&rules, &hl, config, 3);
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        pool.observe_records(&records).unwrap();
        pool.flush().unwrap();
        assert_eq!(pool.replay_buffered(), survivors);
        let mut seq = Detector::new(&rules, hl.clone(), config);
        seq.observe_chunk(&records);
        assert_eq!(pool.detected_lines("X").unwrap(), seq.detected_lines("X"));

        // An empty hitlist has an empty fingerprint: the feeder retires
        // every record.
        let mut empty = DetectorPool::new(&rules, &HitList::default(), config, 3);
        empty.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        empty.observe_records(&records).unwrap();
        empty.flush().unwrap();
        assert_eq!(empty.replay_buffered(), 0);
        assert_eq!(empty.entries(), 0);
    }

    #[test]
    fn shard_health_distinguishes_responsive_stalled_dead() {
        let rules = ruleset(2);
        let hl = HitList::whole_window(&rules);
        let mut pool = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 3);
        pool.observe_records(&random_records(500, 71)).unwrap();
        assert_eq!(
            pool.shard_health(Duration::from_secs(5)),
            vec![ShardHealth::Responsive; 3],
            "healthy pool must probe responsive"
        );
        // Wedge shard 1: alive, channel connected, not answering. Kept
        // short — this shard is never respawned, so the pool's Drop
        // joins it and would wait out the whole stall.
        pool.inject_stall(1, Duration::from_secs(3)).unwrap();
        let health = pool.shard_health(Duration::from_millis(100));
        assert_eq!(health[0], ShardHealth::Responsive);
        assert_eq!(health[1], ShardHealth::Stalled);
        assert_eq!(health[2], ShardHealth::Responsive);
        assert_eq!(ShardHealth::Stalled.label(), "stalled");
        // Kill shard 2 and wait for the thread to actually exit.
        pool.inject_panic(2, "probe kill").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let h = pool.shard_health(Duration::from_millis(50));
            if h[2] == ShardHealth::Dead {
                break;
            }
            assert!(Instant::now() < deadline, "shard 2 never probed dead: {h:?}");
        }
    }

    #[test]
    fn force_respawn_recovers_a_stalled_shard_byte_identically() {
        let rules = ruleset(6);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(20_000, 83);
        let split = 9_000;

        let mut clean = DetectorPool::new(&rules, &hl, config, 3);
        clean.observe_records(&records).unwrap();
        clean.finish().unwrap();
        let want = (clean.detected_lines("X").unwrap(), clean.entries());

        let mut pool = DetectorPool::new(&rules, &hl, config, 3);
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        pool.observe_records(&records[..split]).unwrap();
        // Wedge a shard long enough that only a detaching respawn can
        // recover within the test's lifetime, then escalate exactly as
        // the daemon's watchdog would.
        pool.inject_stall(1, Duration::from_secs(600)).unwrap();
        assert_eq!(pool.shard_health(Duration::from_millis(100))[1], ShardHealth::Stalled);
        pool.force_respawn(1).unwrap();
        assert_eq!(
            pool.shard_health(Duration::from_secs(10))[1],
            ShardHealth::Responsive,
            "replacement shard must be live"
        );
        pool.observe_records(&records[split..]).unwrap();
        pool.finish().unwrap();
        let got = (pool.detected_lines("X").unwrap(), pool.entries());
        assert_eq!(got, want, "stalled-shard recovery diverges from clean run");
    }

    #[test]
    fn force_respawn_after_checkpoint_replays_only_the_tail() {
        let rules = ruleset(4);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(12_000, 97);

        let mut clean = DetectorPool::new(&rules, &hl, config, 2);
        clean.observe_records(&records).unwrap();
        clean.finish().unwrap();
        let want = clean.detected_lines("X").unwrap();

        let mut pool = DetectorPool::new(&rules, &hl, config, 2);
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        pool.observe_records(&records[..6_000]).unwrap();
        pool.checkpoint_all().unwrap();
        pool.observe_records(&records[6_000..10_000]).unwrap();
        pool.inject_stall(0, Duration::from_secs(600)).unwrap();
        pool.force_respawn(0).unwrap();
        pool.observe_records(&records[10_000..]).unwrap();
        pool.finish().unwrap();
        assert_eq!(pool.detected_lines("X").unwrap(), want);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn recovery_telemetry_counts_restarts_and_replays() {
        telemetry::set_enabled(true);
        let rules = ruleset(4);
        let hl = HitList::whole_window(&rules);
        let before = telemetry::global().snapshot();
        let mut pool = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 2);
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        pool.observe_records(&random_records(2_000, 61)).unwrap();
        pool.inject_panic(0, "counted kill").unwrap();
        pool.finish().unwrap();
        let delta = telemetry::global().snapshot().delta_since(&before);
        assert!(delta.counter("checkpoint.shard_restarts").unwrap_or(0) >= 1);
        assert!(delta.counter("checkpoint.shard_checkpoints").unwrap_or(0) >= 2);
    }

    /// A fast policy for breaker tests: trips on the 3rd fast death,
    /// with negligible sleeps, and a window wide enough that test
    /// scheduling jitter can't reset the streak.
    fn fast_trip_policy() -> RespawnPolicy {
        RespawnPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            fast_window: Duration::from_secs(600),
            trip_after: 3,
        }
    }

    #[test]
    fn crash_loop_trips_the_breaker_instead_of_respawning_unboundedly() {
        let rules = ruleset(4);
        let hl = HitList::whole_window(&rules);
        let mut pool = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 2);
        pool.set_respawn_policy(fast_trip_policy());
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        let records = random_records(4_000, 11);
        pool.observe_records(&records).unwrap();

        // Deterministic crash loop: every heal is followed by another
        // death. The 3rd fast death must open the breaker.
        let mut tripped = false;
        for _ in 0..10 {
            if pool.inject_panic(0, "poison record").is_err() {
                tripped = true;
                break;
            }
            if pool.finish().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "breaker never opened under a deterministic crash loop");
        let status = pool.shard_status();
        assert_eq!(status[0].status, ShardStatus::Degraded);
        assert_eq!(status[0].status.label(), "degraded");
        // Queries touching the degraded shard surface the breaker as a
        // typed error, not a hang or an abort.
        let err = pool.detected_lines("X").unwrap_err();
        assert!(
            err.panic.as_deref().unwrap_or("").contains("circuit breaker"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn degraded_shard_queues_then_sheds_with_exact_accounting() {
        let rules = ruleset(4);
        let hl = HitList::whole_window(&rules);
        let mut pool =
            DetectorPool::with_tuning(&rules, &hl, DetectorConfig::default(), 2, 64, 4);
        pool.set_respawn_policy(fast_trip_policy());
        pool.queue_limit = 200;
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();

        // Trip shard 0's breaker.
        for _ in 0..10 {
            if pool.inject_panic(0, "poison").is_err() || pool.finish().is_err() {
                break;
            }
        }
        assert_eq!(pool.shard_status()[0].status, ShardStatus::Degraded);

        // Feed records: shard 0's land in the bounded queue, then shed;
        // the other shard keeps absorbing normally.
        let records = hit_records(20_000, 23, 4);
        pool.observe_records(&records).unwrap();
        pool.flush().unwrap();
        let shard0: u64 =
            records.iter().filter(|r| shard_of(r.line, 2) == 0).count() as u64;
        let status = pool.shard_status();
        assert_eq!(status[0].queued, 200, "queue fills to its bound");
        assert_eq!(
            status[0].queued + status[0].shed,
            shard0,
            "every shard-0 record is either queued or shed — exact accounting"
        );
        assert_eq!(status[1].queued, 0);
        assert_eq!(status[1].shed, 0);
    }

    #[test]
    fn reset_breaker_recovers_the_shard_and_replays_its_queue() {
        let rules = ruleset(4);
        let hl = HitList::whole_window(&rules);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let records = random_records(8_000, 41);

        let mut clean = DetectorPool::new(&rules, &hl, config, 2);
        clean.observe_records(&records).unwrap();
        clean.finish().unwrap();
        let want = (clean.detected_lines("X").unwrap(), clean.entries());

        let mut pool = DetectorPool::new(&rules, &hl, config, 2);
        pool.set_respawn_policy(fast_trip_policy());
        // Queue bound above the whole feed: nothing sheds, so recovery
        // can be byte-identical.
        pool.queue_limit = records.len();
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
        pool.observe_records(&records[..3_000]).unwrap();
        for _ in 0..10 {
            if pool.inject_panic(0, "poison").is_err() || pool.finish().is_err() {
                break;
            }
        }
        assert_eq!(pool.shard_status()[0].status, ShardStatus::Degraded);
        // Records fed while degraded queue for shard 0.
        pool.observe_records(&records[3_000..]).unwrap();
        // Operator reset: breaker closes, checkpoint + replay + queued
        // records land, detections equal the uninterrupted run.
        pool.reset_breaker(0).unwrap();
        pool.finish().unwrap();
        assert_eq!(pool.shard_status()[0].status, ShardStatus::Ok);
        assert_eq!(pool.shard_status()[0].queued, 0);
        let got = (pool.detected_lines("X").unwrap(), pool.entries());
        assert_eq!(got, want, "reset_breaker recovery diverges from clean run");
    }

    #[test]
    fn backoff_policy_delays_double_and_cap() {
        let p = RespawnPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            fast_window: Duration::from_secs(1),
            trip_after: 100,
        };
        assert_eq!(p.delay(1), Duration::from_millis(10));
        assert_eq!(p.delay(2), Duration::from_millis(20));
        assert_eq!(p.delay(3), Duration::from_millis(40));
        assert_eq!(p.delay(7), Duration::from_millis(500), "capped");
        assert_eq!(p.delay(60), Duration::from_millis(500), "shift saturates");
    }

    #[test]
    fn respawning_label_ends_at_the_first_reply_not_at_the_window() {
        let p = RespawnPolicy { fast_window: Duration::from_secs(1), ..RespawnPolicy::default() };
        let ms = Duration::from_millis;
        let mut b = BackoffState::default();
        let t0 = Instant::now();
        assert_eq!(b.status_at(&p, t0), ShardStatus::Ok, "never died");
        // Death, then the heal (backoff sleep, spawn, restore, replay):
        // nothing has answered yet.
        assert!(matches!(b.on_death(&p, t0), RespawnDecision::Backoff(_)));
        assert_eq!(b.status_at(&p, t0), ShardStatus::Respawning);
        assert_eq!(b.status_at(&p, t0 + ms(400)), ShardStatus::Respawning);
        // First reply from the replacement: recovered, window or not.
        b.on_reply();
        assert_eq!(b.status_at(&p, t0 + ms(401)), ShardStatus::Ok);
        assert_eq!(b.status_at(&p, t0 + ms(5_000)), ShardStatus::Ok, "window elapsed");
        // The reply did not forgive the streak: a second fast death is
        // death #2, and it reports respawning afresh.
        assert!(matches!(b.on_death(&p, t0 + ms(600)), RespawnDecision::Backoff(_)));
        assert_eq!(b.streak(), 2);
        assert_eq!(b.status_at(&p, t0 + ms(601)), ShardStatus::Respawning);
        // A replacement nobody asks anything of ages out with the window.
        assert_eq!(b.status_at(&p, t0 + ms(1_700)), ShardStatus::Ok);
    }

    #[test]
    fn slow_deaths_never_trip_the_breaker() {
        let p = RespawnPolicy {
            fast_window: Duration::from_millis(0),
            trip_after: 2,
            ..RespawnPolicy::default()
        };
        let mut b = BackoffState::default();
        let t0 = Instant::now();
        assert!(matches!(b.on_death(&p, t0), RespawnDecision::Backoff(_)));
        // Any later death is outside a zero-width fast window: streak
        // resets, so even trip_after=2 never opens the breaker.
        let t1 = t0 + Duration::from_millis(5);
        assert!(matches!(b.on_death(&p, t1), RespawnDecision::Backoff(_)));
        let t2 = t1 + Duration::from_millis(5);
        assert!(matches!(b.on_death(&p, t2), RespawnDecision::Backoff(_)));
        assert!(!b.tripped());
        assert_eq!(b.status_at(&p, t2 + Duration::from_millis(5)), ShardStatus::Ok);
    }
}
