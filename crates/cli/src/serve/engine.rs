//! The daemon's engine: one thread that owns every piece of mutable
//! pipeline state (collector, detector pool, usage tracker, staleness
//! monitor) and serializes the two things that touch it — ingested
//! datagrams and control-plane queries — through channels.
//!
//! Single ownership is the robustness story: there are no locks to
//! poison, no partially-updated state for a query to observe, and the
//! drain path is just "consume the queue to disconnection, finish the
//! pool, write the final checkpoint".
//!
//! The thread never sleeps on a tick. With both inboxes empty it parks
//! until its next watchdog or checkpoint deadline, and whoever fills an
//! inbox unparks it: the admission queue after each datagram it admits
//! and after a producer handle is dropped, the HTTP plane after each
//! control request (see [`Engine::run`]).
//!
//! The engine never exits on ingest trouble. Malformed datagrams are
//! counted and dropped (the collector quarantines the source); a shard
//! panic is healed by the pool's supervision; a shard *stall* (a worker
//! alive but stuck) is caught by the watchdog probe, which respawns the
//! shard from its last checkpoint after two consecutive failed probes.

use super::state::ServeCheckpoint;
use bytes::Bytes;
use haystack_cli::note;
use haystack_core::checkpoint::CheckpointDir;
use haystack_core::detector::DetectorConfig;
use haystack_core::events::{events_from_states, ndjson_line};
use haystack_core::hitlist::HitList;
use haystack_core::pack::{self, SignaturePack};
use haystack_core::parallel::{DetectorPool, ShardHealth, ShardStatus, DEFAULT_REPLAY_LIMIT};
use haystack_core::rules::RuleSet;
use haystack_core::staleness::StalenessMonitor;
use haystack_core::telemetry;
use haystack_core::usage::{UsageConfig, UsageTracker};
use haystack_flow::listener::AdmissionStats;
use haystack_flow::{Collector, FlowError, FlowRecord};
use haystack_net::Anonymizer;
use haystack_wild::WildRecord;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Consecutive failed watchdog probes before a shard is force-respawned
/// (one failure can be a barrier queued behind a deep backlog; two in a
/// row across a probe interval is a stuck worker).
const WATCHDOG_STRIKES: u8 = 2;

/// Datagrams the engine takes per turn of its loop before it reads the
/// clock for the watchdog and the periodic checkpoint: one `Instant::now`
/// per burst instead of two per datagram, and at ~30 records a datagram
/// still a clock read every few hundred microseconds under full load.
const INGEST_BURST: usize = 64;

/// Turns the engine looks at two empty inboxes before it parks, backing
/// off as a blocking channel `recv` does before it sleeps: a few
/// microseconds in all, then the park — which ends only when someone
/// unparks it or a deadline is due.
const IDLE_BACKOFF_TURNS: u32 = 10;

/// One turn of that backoff: 2^turn spin hints for the first seven turns,
/// then the rest of the time slice to whoever is runnable (on one CPU,
/// the listener that is about to fill the queue).
fn idle_backoff(turn: u32) {
    if turn <= 6 {
        for _ in 0..1u32 << turn {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}

/// A control-plane query, answered by the engine between ingest chunks.
#[derive(Debug)]
pub enum Query {
    /// Readiness: 200 while every shard is serving, 503 (naming the
    /// degraded shards) once any crash-loop breaker is open.
    Ready,
    /// Ingest / shed / collector counters.
    Stats,
    /// Detected lines, optionally for one class.
    Detections {
        /// Restrict to this class (404 if unknown).
        class: Option<String>,
    },
    /// Per-class verdicts for one line.
    Line {
        /// The anonymized line id.
        id: u64,
    },
    /// Active-use lines, optionally for one class.
    Usage {
        /// Restrict to this class (404 if unknown).
        class: Option<String>,
    },
    /// The staleness monitor's day counts and baselines.
    Staleness,
    /// Per-source health and shed attribution.
    Sources,
    /// The NDJSON detection-event stream, derived from shard states.
    Events,
    /// Load a signature pack from a daemon-side path and swap it in
    /// live (checkpoint-first, evidence migrated by class name).
    ReloadRules {
        /// Filesystem path of the pack, as seen by the daemon.
        path: String,
    },
    /// Write a checkpoint generation now.
    CheckpointNow,
    /// Operator reset of one degraded shard: close its crash-loop
    /// breaker, respawn it and replay what queued meanwhile.
    ResetBreaker {
        /// Shard index.
        shard: usize,
    },
    /// Chaos: panic one shard (healed by supervision).
    Panic {
        /// Shard index.
        shard: usize,
    },
    /// Chaos: stall one shard (healed by the watchdog).
    Stall {
        /// Shard index.
        shard: usize,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Chaos: slow the engine's ingest loop (a controlled overload —
    /// the admission queue fills and the UDP path sheds).
    Slow {
        /// Added latency per datagram, in microseconds (0 clears it).
        us: u64,
    },
}

/// One control-plane request: a query plus its reply channel.
#[derive(Debug)]
pub struct CtlRequest {
    /// What is being asked.
    pub query: Query,
    /// Where the JSON answer goes.
    pub reply: Sender<CtlReply>,
}

/// The engine's answer: an HTTP status, a content type, and a body.
#[derive(Debug)]
pub struct CtlReply {
    /// HTTP status code.
    pub status: u16,
    /// `application/json` everywhere except `/events` (NDJSON).
    pub content_type: &'static str,
    /// Response body (a JSON object, or NDJSON lines for `/events`).
    pub body: String,
}

fn ok(body: String) -> CtlReply {
    CtlReply { status: 200, content_type: "application/json", body }
}

fn err(status: u16, msg: &str) -> CtlReply {
    CtlReply {
        status,
        content_type: "application/json",
        body: format!("{{\"error\":{msg:?}}}"),
    }
}

/// Fixed configuration the engine runs under.
pub struct EngineConfig {
    /// Detector worker (shard) count.
    pub workers: usize,
    /// Detection threshold.
    pub threshold: f64,
    /// Anonymization seed.
    pub seed: u64,
    /// Where checkpoints go, if anywhere.
    pub ckpt: Option<CheckpointDir>,
    /// Seconds between automatic checkpoints (0 = only on demand/drain).
    pub checkpoint_secs: u64,
    /// Whether chaos endpoints are armed.
    pub chaos: bool,
    /// Watchdog probe interval.
    pub watchdog_every: Duration,
    /// Watchdog probe timeout (per probe round).
    pub watchdog_timeout: Duration,
    /// Shard backend: in-process threads or supervised child processes.
    pub isolate: haystack_cli::resume::Isolate,
}

/// The engine state — see the module docs.
pub struct Engine {
    rules: Arc<RuleSet>,
    /// Canonical encoded pack of `rules`, checkpointed so `--resume`
    /// comes back with the rules that were *live* (possibly reloaded),
    /// not the ones the daemon was started with.
    pack_bytes: Vec<u8>,
    config: EngineConfig,
    collector: Collector,
    /// The whole-window hitlist of `rules`, the one `pool`, `usage` and
    /// `staleness` were built with: its fingerprint is the collector's
    /// admission predicate, so a proven miss is dropped at decode.
    hitlist: HitList,
    pool: DetectorPool,
    usage: UsageTracker,
    staleness: StalenessMonitor,
    anon: Anonymizer,
    stats: Arc<AdmissionStats>,
    datagrams: u64,
    records: u64,
    /// Records decoded but turned away by the admission predicate. Not
    /// checkpointed (like `pool_errors`): over one process lifetime,
    /// records decoded == `parse_rejected` + the pool's `records_in`.
    parse_rejected: u64,
    decode_errors: u64,
    pool_errors: u64,
    watchdog_probes: u64,
    watchdog_respawns: u64,
    strikes: Vec<u8>,
    flow_buf: Vec<FlowRecord>,
    wild_buf: Vec<WildRecord>,
    ingest_delay: Duration,
}

impl Engine {
    /// Build a fresh engine (no checkpoint), with supervision enabled.
    /// `pack_bytes` is the canonical encoded signature pack of `rules`.
    pub fn new(
        rules: Arc<RuleSet>,
        pack_bytes: Vec<u8>,
        config: EngineConfig,
        stats: Arc<AdmissionStats>,
    ) -> Result<Engine, String> {
        let hitlist = HitList::whole_window(&rules);
        let mut pool = haystack_cli::resume::build_pool(
            &rules,
            DetectorConfig { threshold: config.threshold, require_established: false },
            config.workers,
            config.isolate,
        );
        pool.enable_supervision(DEFAULT_REPLAY_LIMIT).map_err(|e| e.to_string())?;
        pool.attach_telemetry(&telemetry::Scope::named("pool")).map_err(|e| e.to_string())?;
        let usage = UsageTracker::new(Arc::clone(&rules), hitlist.clone(), UsageConfig::default());
        let staleness = StalenessMonitor::new(hitlist.clone());
        let anon = Anonymizer::new(config.seed, config.seed ^ 0x9E37_79B9_7F4A_7C15);
        let workers = config.workers;
        Ok(Engine {
            rules,
            pack_bytes,
            config,
            collector: Collector::new(),
            hitlist,
            pool,
            usage,
            staleness,
            anon,
            stats,
            datagrams: 0,
            records: 0,
            parse_rejected: 0,
            decode_errors: 0,
            pool_errors: 0,
            watchdog_probes: 0,
            watchdog_respawns: 0,
            strikes: vec![0; workers],
            flow_buf: Vec::new(),
            wild_buf: Vec::new(),
            ingest_delay: Duration::ZERO,
        })
    }

    /// Restore a restarted engine from a serve checkpoint. The caller
    /// has already validated that `config.workers` matches and decoded
    /// `rules` from the checkpointed pack.
    pub fn restore(
        rules: Arc<RuleSet>,
        pack_bytes: Vec<u8>,
        config: EngineConfig,
        stats: Arc<AdmissionStats>,
        ck: &ServeCheckpoint,
    ) -> Result<Engine, String> {
        let mut engine = Engine::new(rules, pack_bytes, config, stats)?;
        engine.collector = Collector::restore(&ck.collector)
            .map_err(|e| format!("collector snapshot: {e}"))?;
        engine.pool.restore_shard_states(&ck.shards).map_err(|e| e.to_string())?;
        engine.usage.restore_state(&ck.usage).map_err(|e| e.to_string())?;
        engine.staleness.restore_state(&ck.staleness);
        engine.datagrams = ck.datagrams;
        engine.records = ck.records;
        engine.decode_errors = ck.decode_errors;
        Ok(engine)
    }

    /// Run until the data channel disconnects (every listener gone and
    /// the queue fully drained), then finish the pool and write the
    /// final checkpoint. This is the whole lifecycle: SIGTERM stops the
    /// listeners, the engine consumes what was already admitted, and
    /// exits with durable state.
    ///
    /// One wait for both inboxes. Each turn takes a bounded burst — the
    /// control channel is emptied before every datagram, so a request is
    /// answered between datagrams however deep the backlog and however
    /// slow `/admin/slow` makes each one — then reads the clock once for
    /// the watchdog and the periodic checkpoint. Only a turn that found
    /// both inboxes empty waits — a few microseconds of backoff, then a
    /// park until the next of those two deadlines: there is no tick.
    /// Whoever fills an inbox ends the park — `http::ask` after its
    /// `send`, the admission queue after every admitted datagram and
    /// after a producer handle is dropped
    /// ([`AdmissionQueue::wake_on_admit`]) — and because an `unpark`
    /// that lands before the `park` makes it return at once, a message
    /// that arrives between the last `try_recv` and the park is not slept
    /// through. Must run on the thread registered with both, which
    /// [`Engine::spawn`] arranges.
    ///
    /// [`AdmissionQueue::wake_on_admit`]: haystack_flow::listener::AdmissionQueue::wake_on_admit
    fn run(mut self, data_rx: Receiver<Bytes>, ctl_rx: Receiver<CtlRequest>) {
        let mut next_probe = Instant::now() + self.config.watchdog_every;
        // The periodic checkpoint's interval and next due time, if any.
        let mut periodic = (self.config.checkpoint_secs > 0 && self.config.ckpt.is_some())
            .then(|| Duration::from_secs(self.config.checkpoint_secs))
            .map(|every| (every, Instant::now() + every));
        let mut empty_turns = 0u32;
        'serve: loop {
            let mut idle = true;
            for _ in 0..INGEST_BURST {
                while let Ok(req) = ctl_rx.try_recv() {
                    self.handle_ctl(req);
                    idle = false;
                }
                match data_rx.try_recv() {
                    Ok(d) => self.ingest(d),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break 'serve,
                }
                idle = false;
            }
            let mut now = Instant::now();
            if now >= next_probe {
                self.watchdog_probe();
                self.publish_telemetry();
                now = Instant::now();
                next_probe = now + self.config.watchdog_every;
            }
            if let Some((every, due)) = &mut periodic {
                if now >= *due {
                    if let Err(e) = self.write_checkpoint() {
                        note!("serve: periodic checkpoint failed: {e}");
                    }
                    now = Instant::now();
                    *due = now + *every;
                }
            }
            if !idle {
                empty_turns = 0;
            } else if empty_turns < IDLE_BACKOFF_TURNS {
                // A loaded engine runs its queue dry many times a second;
                // the next datagram is microseconds away, and a park and
                // the listener's wake would cost more than waiting for it.
                idle_backoff(empty_turns);
                empty_turns += 1;
            } else {
                let wake_at = periodic.map_or(next_probe, |(_, due)| due.min(next_probe));
                std::thread::park_timeout(wake_at.saturating_duration_since(now));
            }
        }
        // Drain epilogue: all admitted datagrams are ingested; make the
        // evidence durable before exiting.
        if let Err(e) = self.pool.finish() {
            note!("serve: pool finish during drain: {e}");
        }
        if self.config.ckpt.is_some() {
            match self.write_checkpoint() {
                Ok(generation) => note!("serve: final checkpoint generation {generation}"),
                Err(e) => note!("serve: final checkpoint failed: {e}"),
            }
        }
        // Answer any control requests that raced the shutdown, so the
        // HTTP plane never hangs on a dropped reply channel.
        while let Ok(req) = ctl_rx.try_recv() {
            self.handle_ctl(req);
        }
    }

    /// Spawn the engine loop on its own thread; `on_exit` is unparked
    /// when that thread leaves the loop, however it leaves it.
    pub fn spawn(
        self,
        data_rx: Receiver<Bytes>,
        ctl_rx: Receiver<CtlRequest>,
        on_exit: Thread,
    ) -> std::thread::JoinHandle<()> {
        struct UnparkOnDrop(Thread);
        impl Drop for UnparkOnDrop {
            fn drop(&mut self) {
                self.0.unpark();
            }
        }
        std::thread::Builder::new()
            .name("hay-engine".into())
            .spawn(move || {
                let _exit = UnparkOnDrop(on_exit);
                self.run(data_rx, ctl_rx)
            })
            .expect("spawn engine")
    }

    fn ingest(&mut self, datagram: Bytes) {
        if !self.ingest_delay.is_zero() {
            std::thread::sleep(self.ingest_delay);
        }
        self.datagrams += 1;
        // Both buffers keep their capacity from datagram to datagram, so
        // a data-only datagram costs this thread no allocation.
        self.flow_buf.clear();
        let hitlist = &self.hitlist;
        let fed = self
            .collector
            .feed_into(&datagram, &mut self.flow_buf, |dst, port| hitlist.admits(dst, port));
        self.observe_decoded(fed);
    }

    /// Book one datagram's decode and take its survivors (`flow_buf`)
    /// through conversion, usage, staleness and the pool. A record the
    /// fingerprint rejected has no `lookup` entries, so none of those
    /// could have used it: only the counts tell it was there.
    fn observe_decoded(&mut self, fed: Result<usize, FlowError>) {
        match fed {
            Ok(decoded) => {
                self.records += decoded as u64;
                self.parse_rejected += (decoded - self.flow_buf.len()) as u64;
                self.wild_buf.clear();
                for r in &self.flow_buf {
                    let w = WildRecord::from_flow(r, &self.anon);
                    self.usage.observe(&w);
                    self.staleness.observe(&w);
                    self.wild_buf.push(w);
                }
                if let Err(e) = self.pool.observe_records(&self.wild_buf) {
                    // Supervision already tried to heal; dropping the
                    // batch and staying up beats dying mid-stream.
                    self.pool_errors += 1;
                    note!("serve: pool rejected a batch: {e}");
                }
            }
            Err(_) => {
                // The collector has counted the malformed message and
                // advanced the source's quarantine state machine.
                self.decode_errors += 1;
            }
        }
    }

    fn watchdog_probe(&mut self) {
        self.watchdog_probes += 1;
        let health = self.pool.shard_health(self.config.watchdog_timeout);
        let status = self.pool.shard_status();
        for (shard, h) in health.iter().enumerate() {
            // A degraded shard (crash-loop breaker open) is the
            // supervisor's verdict, not a stall — respawning it again
            // is exactly the loop the breaker exists to stop. It waits
            // for `POST /admin/reset-breaker`; `/readyz` advertises it
            // meanwhile.
            if matches!(status[shard].status, ShardStatus::Degraded) {
                continue;
            }
            match h {
                ShardHealth::Responsive => self.strikes[shard] = 0,
                ShardHealth::Stalled | ShardHealth::Dead => {
                    self.strikes[shard] += 1;
                    if self.strikes[shard] >= WATCHDOG_STRIKES
                        || matches!(h, ShardHealth::Dead)
                    {
                        note!("serve: watchdog respawning shard {shard} ({})", h.label());
                        match self.pool.force_respawn(shard) {
                            Ok(()) => self.watchdog_respawns += 1,
                            Err(e) => note!("serve: respawn of shard {shard} failed: {e}"),
                        }
                        self.strikes[shard] = 0;
                    }
                }
            }
        }
    }

    /// Mirror the engine's counters into the telemetry registry so
    /// `/metrics` (served off-thread from a snapshot) stays current.
    fn publish_telemetry(&self) {
        let scope = telemetry::Scope::named("serve");
        scope.gauge("received").set(self.stats.received());
        scope.gauge("admitted").set(self.stats.admitted());
        scope.gauge("shed").set(self.stats.shed());
        // (The HTTP plane counts its own, `serve.http_accept_retries`.)
        scope.gauge("tcp_accept_retries").set(self.stats.accept_retries());
        scope.gauge("datagrams_processed").set(self.datagrams);
        scope.gauge("records_decoded").set(self.records);
        scope.gauge("parse_rejected").set(self.parse_rejected);
        scope.gauge("decode_errors").set(self.decode_errors);
        scope.gauge("watchdog_probes").set(self.watchdog_probes);
        scope.gauge("watchdog_respawns").set(self.watchdog_respawns);
        telemetry::observe_collector(&telemetry::Scope::named("collector"), &self.collector);
    }

    fn write_checkpoint(&mut self) -> Result<u64, String> {
        // Workers export only their dirty-since-last-checkpoint entries;
        // the supervisor folds them into its per-shard bases, which then
        // provide the full states the serve frame persists. The on-disk
        // format stays a single full frame — only the worker pause
        // shrinks to the dirty set.
        self.pool.checkpoint_all_delta().map_err(|e| e.to_string())?;
        let shards = self.pool.supervised_shard_states();
        let ck = ServeCheckpoint {
            workers: self.config.workers as u32,
            threshold: self.config.threshold,
            seed: self.config.seed,
            datagrams: self.datagrams,
            records: self.records,
            decode_errors: self.decode_errors,
            collector: self.collector.snapshot(),
            shards,
            usage: self.usage.export_state(),
            staleness: self.staleness.export_state(),
            pack: self.pack_bytes.clone(),
        };
        let dir = self.config.ckpt.as_ref().ok_or("no --checkpoint-dir")?;
        dir.write(ServeCheckpoint::PREFIX, &ck.encode()).map_err(|e| e.to_string())
    }

    fn handle_ctl(&mut self, req: CtlRequest) {
        let reply = match req.query {
            Query::Ready => self.ready_body(),
            Query::Stats => self.stats_body(),
            Query::Detections { class } => self.detections_body(class.as_deref()),
            Query::Line { id } => self.line_body(id),
            Query::Usage { class } => self.usage_body(class.as_deref()),
            Query::Staleness => self.staleness_body(),
            Query::Sources => self.sources_body(),
            Query::Events => self.events_body(),
            Query::ReloadRules { path } => self.reload_rules(&path),
            Query::CheckpointNow => match self.write_checkpoint() {
                Ok(generation) => ok(format!("{{\"generation\":{generation}}}")),
                Err(e) => err(409, &e),
            },
            Query::ResetBreaker { shard } => self.reset_breaker(shard),
            Query::Panic { shard } => self.chaos_panic(shard),
            Query::Stall { shard, ms } => self.chaos_stall(shard, ms),
            Query::Slow { us } => self.chaos_slow(us),
        };
        // A dropped reply channel just means the client went away.
        let _ = req.reply.send(reply);
    }

    /// Classes the query applies to, or `None` for an unknown class.
    fn class_filter(&self, class: Option<&str>) -> Option<Vec<String>> {
        match class {
            None => Some(
                self.rules
                    .rules
                    .iter()
                    .map(|r| self.rules.class_name(r.class).to_string())
                    .collect(),
            ),
            Some(c) => self.rules.rule_index(c).map(|_| vec![c.to_string()]),
        }
    }

    /// Datagrams admitted by the listeners but not yet ingested — the
    /// engine's backlog, visible on `/readyz` and `/stats`.
    fn queue_depth(&self) -> u64 {
        self.stats.admitted().saturating_sub(self.datagrams)
    }

    /// Per-shard status rows, byte-determinate: fixed field order,
    /// shards in index order.
    fn shards_json(&self) -> String {
        let rows: Vec<String> = self
            .pool
            .shard_status()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"shard\":{i},\"status\":\"{}\",\"queued\":{},\"shed\":{}}}",
                    s.status.label(),
                    s.queued,
                    s.shed
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }

    /// `/readyz` through the engine: 200 while every shard serves, 503
    /// naming the degraded shards once any crash-loop breaker is open.
    /// Evidence for a degraded shard queues (bounded, then sheds with
    /// exact accounting) until `POST /admin/reset-breaker` closes the
    /// breaker.
    fn ready_body(&mut self) -> CtlReply {
        let degraded: Vec<String> = self
            .pool
            .shard_status()
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.status, ShardStatus::Degraded))
            .map(|(i, _)| i.to_string())
            .collect();
        let body = format!(
            "{{\"ready\":{},\"isolate\":\"{}\",\"queue_depth\":{},\"degraded\":[{}],\"shards\":{}}}",
            degraded.is_empty(),
            self.config.isolate.label(),
            self.queue_depth(),
            degraded.join(","),
            self.shards_json()
        );
        CtlReply {
            status: if degraded.is_empty() { 200 } else { 503 },
            content_type: "application/json",
            body,
        }
    }

    fn stats_body(&mut self) -> CtlReply {
        let shed_by_source: Vec<String> = self
            .stats
            .shed_by_source()
            .iter()
            .map(|(id, n)| format!("[{id},{n}]"))
            .collect();
        ok(format!(
            "{{\"received\":{},\"admitted\":{},\"shed\":{},\"shed_by_source\":[{}],\
             \"datagrams\":{},\"records\":{},\"parse_rejected\":{},\"decode_errors\":{},\
             \"pool_errors\":{},\
             \"isolate\":\"{}\",\"queue_depth\":{},\"shards\":{},\
             \"watchdog\":{{\"probes\":{},\"respawns\":{}}},\
             \"collector\":{{\"missed_datagrams\":{},\"restarts_detected\":{},\
             \"malformed_messages\":{},\"malformed_sets\":{},\"quarantined\":{},\
             \"requarantined\":{}}}}}",
            self.stats.received(),
            self.stats.admitted(),
            self.stats.shed(),
            shed_by_source.join(","),
            self.datagrams,
            self.records,
            self.parse_rejected,
            self.decode_errors,
            self.pool_errors,
            self.config.isolate.label(),
            self.queue_depth(),
            self.shards_json(),
            self.watchdog_probes,
            self.watchdog_respawns,
            self.collector.missed_datagrams(),
            self.collector.restarts_detected(),
            self.collector.malformed_messages(),
            self.collector.malformed_sets(),
            self.collector.quarantined_sources().len(),
            self.collector.requarantines_total(),
        ))
    }

    fn detections_body(&mut self, class: Option<&str>) -> CtlReply {
        let Some(classes) = self.class_filter(class) else {
            return err(404, "unknown class");
        };
        if let Err(e) = self.pool.flush() {
            return err(500, &e.to_string());
        }
        let mut parts = Vec::with_capacity(classes.len());
        for c in classes {
            let mut lines = match self.pool.detected_lines(&c) {
                Ok(l) => l,
                Err(e) => return err(500, &e.to_string()),
            };
            lines.sort_unstable();
            let ids: Vec<String> = lines.iter().map(|l| l.0.to_string()).collect();
            parts.push(format!(
                "{{\"class\":{c:?},\"count\":{},\"lines\":[{}]}}",
                lines.len(),
                ids.join(",")
            ));
        }
        ok(format!("{{\"classes\":[{}]}}", parts.join(",")))
    }

    fn line_body(&mut self, id: u64) -> CtlReply {
        // One round trip to the shard that owns the line (the pool ships
        // that shard's pending batch first), not two per class.
        let verdicts = match self.pool.line_verdicts(haystack_net::AnonId(id)) {
            Ok(v) => v,
            Err(e) => return err(500, &e.to_string()),
        };
        let parts: Vec<String> = self
            .rules
            .rules
            .iter()
            .zip(verdicts)
            .map(|(r, (detected, confidence))| {
                let name = self.rules.class_name(r.class);
                format!("{{\"class\":{name:?},\"detected\":{detected},\"confidence\":{confidence}}}")
            })
            .collect();
        ok(format!("{{\"line\":{id},\"classes\":[{}]}}", parts.join(",")))
    }

    fn usage_body(&mut self, class: Option<&str>) -> CtlReply {
        let Some(classes) = self.class_filter(class) else {
            return err(404, "unknown class");
        };
        let mut parts = Vec::with_capacity(classes.len());
        for c in classes {
            let active = self.usage.active_lines(&c);
            let ids: Vec<String> = active.iter().map(|l| l.0.to_string()).collect();
            parts.push(format!(
                "{{\"class\":{c:?},\"count\":{},\"active\":[{}]}}",
                active.len(),
                ids.join(",")
            ));
        }
        ok(format!("{{\"classes\":[{}]}}", parts.join(",")))
    }

    fn staleness_body(&mut self) -> CtlReply {
        // `export_state` is order-normalized, and baselines are reported
        // as raw IEEE-754 bits — the restart-determinism proof diffs
        // this body byte-for-byte.
        let state = self.staleness.export_state();
        let today: Vec<String> = state
            .today
            .iter()
            .map(|((ri, di), pkts)| format!("[{ri},{di},{pkts}]"))
            .collect();
        let baseline: Vec<String> = state
            .baseline
            .iter()
            .map(|((ri, di), b)| format!("[{ri},{di},\"{:#018x}\"]", b.to_bits()))
            .collect();
        ok(format!(
            "{{\"days_seen\":{},\"today\":[{}],\"baseline_bits\":[{}]}}",
            state.days_seen,
            today.join(","),
            baseline.join(",")
        ))
    }

    fn sources_body(&mut self) -> CtlReply {
        let healths = self.collector.source_healths();
        let shed = self.stats.shed_by_source();
        let shed_of = |id: u32| shed.iter().find(|(s, _)| *s == id).map_or(0, |(_, n)| *n);
        let mut seen: Vec<u32> = healths.iter().map(|(id, _)| *id).collect();
        let mut parts: Vec<String> = healths
            .iter()
            .map(|(id, h)| {
                format!(
                    "{{\"id\":{id},\"health\":{:?},\"shed\":{}}}",
                    h.label(),
                    shed_of(*id)
                )
            })
            .collect();
        // Sources that only ever shed (never decoded) still show up.
        for (id, n) in &shed {
            if !seen.contains(id) {
                seen.push(*id);
                parts.push(format!("{{\"id\":{id},\"health\":\"unseen\",\"shed\":{n}}}"));
            }
        }
        ok(format!("{{\"sources\":[{}]}}", parts.join(",")))
    }

    /// The NDJSON detection-event stream: one line per (line, rule)
    /// transition into *detected*, derived from exported shard states
    /// (the hot path pays nothing). Byte-determinate: events sort by
    /// (hour, rule, line) regardless of shard count or order.
    fn events_body(&mut self) -> CtlReply {
        let states = match self.pool.shard_states() {
            Ok(s) => s,
            Err(e) => return err(500, &e.to_string()),
        };
        let events = events_from_states(&self.rules, &states);
        let mut body = String::with_capacity(events.len() * 96);
        for e in &events {
            body.push_str(&ndjson_line(&self.rules, e, None));
            body.push('\n');
        }
        CtlReply { status: 200, content_type: "application/x-ndjson", body }
    }

    /// Swap in a signature pack mid-stream. Checkpoint-first: the pool
    /// exports every shard's evidence under supervision, migrates it to
    /// the new rule set by class name (identical rules keep their
    /// evidence verbatim), and ships the new rules + migrated state to
    /// each worker; usage windows and staleness baselines are rekeyed
    /// the same way. A defective or unreadable pack changes nothing.
    fn reload_rules(&mut self, path: &str) -> CtlReply {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => return err(400, &format!("cannot read {path}: {e}")),
        };
        let loaded = match SignaturePack::load(&bytes) {
            Ok(p) => p,
            Err(e) => return err(400, &e.to_string()),
        };
        let new_rules = Arc::new(loaded.rules.clone());
        let hitlist = HitList::whole_window(&new_rules);
        if let Err(e) = self.pool.set_rules(&loaded.rules, &hitlist) {
            return err(500, &e.to_string());
        }
        // The next datagram is gated by the pack the pool now judges by.
        self.hitlist = hitlist.clone();
        let usage_state =
            pack::migrate_usage_state(&self.rules, &new_rules, &self.usage.export_state());
        self.usage.set_rules(Arc::clone(&new_rules), hitlist.clone());
        if let Err(e) = self.usage.restore_state(&usage_state) {
            return err(500, &format!("usage migration: {e}"));
        }
        let staleness_state =
            pack::migrate_staleness_state(&self.rules, &new_rules, &self.staleness.export_state());
        self.staleness = StalenessMonitor::new(hitlist);
        self.staleness.restore_state(&staleness_state);
        self.rules = new_rules;
        self.pack_bytes = loaded.encode();
        note!(
            "serve: reloaded signature pack from {path} ({} classes, {} rules)",
            self.rules.classes.len(),
            self.rules.rules.len()
        );
        ok(format!(
            "{{\"reloaded\":true,\"classes\":{},\"rules\":{},\"undetectable\":{},\"pack_bytes\":{}}}",
            self.rules.classes.len(),
            self.rules.rules.len(),
            self.rules.undetectable.len(),
            self.pack_bytes.len()
        ))
    }

    /// The operator exit from a degraded shard (`/readyz` 503). Only a
    /// degraded shard is reset: on a healthy one `reset_breaker` would
    /// do nothing but force a respawn.
    fn reset_breaker(&mut self, shard: usize) -> CtlReply {
        match self.pool.shard_status().get(shard).map(|s| s.status) {
            None => return err(400, "shard out of range"),
            Some(ShardStatus::Degraded) => {}
            Some(_) => return err(409, "shard is not degraded"),
        }
        match self.pool.reset_breaker(shard) {
            Ok(()) => {
                note!("serve: operator reset the breaker of shard {shard}");
                self.strikes[shard] = 0;
                ok(format!("{{\"shard\":{shard},\"reset\":true}}"))
            }
            Err(e) => err(409, &e.to_string()),
        }
    }

    fn chaos_panic(&mut self, shard: usize) -> CtlReply {
        if !self.config.chaos {
            return err(403, "chaos endpoints need --chaos");
        }
        if shard >= self.pool.workers() {
            return err(400, "shard out of range");
        }
        match self.pool.inject_panic(shard, "chaos: forced shard panic") {
            Ok(()) => ok(format!("{{\"shard\":{shard},\"injected\":\"panic\"}}")),
            Err(e) => err(500, &e.to_string()),
        }
    }

    fn chaos_stall(&mut self, shard: usize, ms: u64) -> CtlReply {
        if !self.config.chaos {
            return err(403, "chaos endpoints need --chaos");
        }
        if shard >= self.pool.workers() {
            return err(400, "shard out of range");
        }
        match self.pool.inject_stall(shard, Duration::from_millis(ms)) {
            Ok(()) => ok(format!("{{\"shard\":{shard},\"injected\":\"stall\",\"ms\":{ms}}}")),
            Err(e) => err(500, &e.to_string()),
        }
    }

    fn chaos_slow(&mut self, us: u64) -> CtlReply {
        if !self.config.chaos {
            return err(403, "chaos endpoints need --chaos");
        }
        self.ingest_delay = Duration::from_micros(us);
        ok(format!("{{\"injected\":\"slow\",\"us\":{us}}}"))
    }
}

/// Shared shutdown flag helper: the listeners poll one `AtomicBool`
/// between socket reads, and the HTTP plane reads it when the
/// orchestrator's connection ends its blocking `accept`.
pub fn new_shutdown_flag() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

/// Set the shared flag (listener/HTTP side of the drain).
pub fn trip(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_cli::resume::Isolate;
    use haystack_core::hitlist::MapHitList;
    use haystack_core::reference::ReferenceDetector;
    use haystack_core::rules::{RuleDomain, RuleSetBuilder};
    use haystack_dns::DomainName;
    use haystack_flow::export::{ExportProtocol, Exporter};
    use haystack_flow::{FlowKey, TcpFlags};
    use haystack_net::ports::Proto;
    use haystack_net::{AnonId, SimTime};
    use haystack_testbed::catalog::DetectionLevel;
    use std::net::Ipv4Addr;

    /// Two rules over a handful of service IPs, the second gated on the
    /// first, one usage-indicator domain: a hitlist small enough that
    /// fingerprint colliders are dense.
    fn rules() -> RuleSet {
        let dom = |name: &str, octets: &[u8], indicator: bool| RuleDomain {
            name: DomainName::parse(name).unwrap(),
            ports: [443u16, 8883].into_iter().collect(),
            ips: octets.iter().map(|&o| Ipv4Addr::new(198, 18, 40, o)).collect(),
            usage_indicator: indicator,
        };
        let mut b = RuleSetBuilder::new();
        b.rule(
            "Cam",
            DetectionLevel::Manufacturer,
            None,
            vec![dom("api.cam.test", &[1, 2, 3], false), dom("fw.cam.test", &[4, 5], true)],
        );
        b.rule(
            "Cam Pro",
            DetectionLevel::Product,
            Some("Cam"),
            vec![dom("pro.cam.test", &[2, 6], false), dom("log.cam.test", &[7], false)],
        );
        b.build()
    }

    /// Keys `10.99.x.y:443` absent from the hitlist that pass its
    /// fingerprint all the same: the admission predicate's false
    /// positives, brute-forced through the public gate.
    fn colliders(hitlist: &HitList) -> Vec<Ipv4Addr> {
        let found: Vec<Ipv4Addr> = (0..=u16::MAX)
            .map(|i| Ipv4Addr::new(10, 99, (i >> 8) as u8, i as u8))
            .filter(|&ip| hitlist.admits(ip, 443))
            .inspect(|&ip| assert!(hitlist.lookup(ip, 443).is_empty(), "collider must be absent"))
            .take(16)
            .collect();
        assert!(!found.is_empty(), "no fingerprint collision found in a /16 scan");
        found
    }

    /// A 99 %-miss stream over three hours: one record in a hundred is a
    /// rule hit, one a fingerprint collider, the rest random misses.
    fn stream(rules: &RuleSet, colliders: &[Ipv4Addr]) -> Vec<FlowRecord> {
        let targets: Vec<(Ipv4Addr, u16)> = rules
            .rules
            .iter()
            .flat_map(|r| &r.domains)
            .flat_map(|d| d.ips.iter().flat_map(move |&ip| d.ports.iter().map(move |&p| (ip, p))))
            .collect();
        (0..30_000u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
                let (dst, dport) = match i % 100 {
                    0 => targets[(x as usize) % targets.len()],
                    1 => (colliders[(x as usize) % colliders.len()], 443),
                    _ => (Ipv4Addr::from(0xCB00_0000 | (x as u32 & 0x00FF_FFFF)), x as u16),
                };
                let first = (i / 10_000) * 3_600 + i % 3_000;
                FlowRecord {
                    key: FlowKey {
                        src: Ipv4Addr::new(100, 64, 0, (x % 40) as u8),
                        dst,
                        sport: 40_000,
                        dport,
                        proto: Proto::Tcp,
                    },
                    packets: 1 + x % 9,
                    bytes: 60,
                    tcp_flags: TcpFlags::ACK,
                    first: SimTime(first),
                    last: SimTime(first + 30),
                }
            })
            .collect()
    }

    fn engine(rules: &RuleSet) -> Engine {
        let config = EngineConfig {
            workers: 2,
            threshold: 0.4,
            seed: 11,
            ckpt: None,
            checkpoint_secs: 0,
            chaos: false,
            watchdog_every: Duration::from_secs(60),
            watchdog_timeout: Duration::from_secs(1),
            isolate: Isolate::Thread,
        };
        Engine::new(Arc::new(rules.clone()), Vec::new(), config, Arc::default()).unwrap()
    }

    /// The fingerprint has no false negatives, so dropping what it
    /// rejects at decode changes no answer: the gated engine and one fed
    /// through `|_, _| true` end byte-identical in every book but
    /// `parse_rejected`, and both detect what the reference detector
    /// detects and answer every line's `/line` query as it does.
    #[test]
    fn gated_ingest_equals_ungated_ingest_on_fingerprint_colliders() {
        let rules = rules();
        let colliders = colliders(&HitList::whole_window(&rules));
        let flows = stream(&rules, &colliders);
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7);
        let datagrams: Vec<Bytes> =
            flows.chunks(512).flat_map(|c| exporter.export(c, 0).unwrap()).collect();

        let mut gated = engine(&rules);
        let mut ungated = engine(&rules);
        for d in &datagrams {
            gated.ingest(d.clone());
            ungated.datagrams += 1;
            ungated.flow_buf.clear();
            let fed = ungated.collector.feed_into(d, &mut ungated.flow_buf, |_, _| true);
            ungated.observe_decoded(fed);
        }

        let hitlist = HitList::whole_window(&rules);
        let survivors = flows.iter().filter(|r| hitlist.admits(r.key.dst, r.key.dport)).count();
        assert!(survivors >= flows.len() / 50, "hits and colliders must both survive");
        assert_eq!(gated.records, flows.len() as u64);
        assert_eq!(gated.parse_rejected, (flows.len() - survivors) as u64);
        assert_eq!(ungated.parse_rejected, 0);
        assert_eq!((gated.datagrams, gated.records), (ungated.datagrams, ungated.records));
        assert_eq!(gated.collector.snapshot(), ungated.collector.snapshot());
        assert_eq!(gated.usage.export_state(), ungated.usage.export_state());
        assert_eq!(gated.staleness.export_state(), ungated.staleness.export_state());
        assert_eq!(gated.pool.shard_states().unwrap(), ungated.pool.shard_states().unwrap());

        let anon = Anonymizer::new(11, 11 ^ 0x9E37_79B9_7F4A_7C15);
        let config = DetectorConfig { threshold: 0.4, require_established: false };
        let mut reference =
            ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);
        for r in &flows {
            reference.observe_wild(&WildRecord::from_flow(r, &anon));
        }
        let mut detected = 0;
        for rule in &rules.rules {
            let class = rules.class_name(rule.class);
            let want = reference.detected_lines(class);
            detected += want.len();
            for engine in [&mut gated, &mut ungated] {
                let mut got = engine.pool.detected_lines(class).unwrap();
                got.sort_unstable();
                assert_eq!(got, want, "{class}");
            }
        }
        assert!(detected > 0, "the stream must detect something");
        // `/line`'s query: every line of the stream, every class in rule
        // order, as the reference answers it.
        let lines: std::collections::BTreeSet<AnonId> =
            flows.iter().map(|r| WildRecord::from_flow(r, &anon).line).collect();
        for line in lines {
            let want: Vec<(bool, f64)> = rules
                .rules
                .iter()
                .map(|r| rules.class_name(r.class))
                .map(|c| (reference.is_detected(line, c), reference.confidence(line, c)))
                .collect();
            for engine in [&mut gated, &mut ungated] {
                assert_eq!(engine.pool.line_verdicts(line).unwrap(), want, "{line:?}");
            }
        }
        assert!(!gated.usage.active_lines("Cam").is_empty(), "usage must light up");
        gated.pool.finish().unwrap();
        ungated.pool.finish().unwrap();
    }
}
