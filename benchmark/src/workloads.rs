//! The six workloads, driven against the real programs from outside.
//! Nothing here is traced: these runs produce the end-to-end metrics
//! and the outside counters of the per-layer ledger.

use crate::calib::{Clock, Meter};
use crate::daemon::{self, Result, Serve};
use crate::gen::{self, Encoded, StreamSpec};
use crate::load::{self, Schedule, SendReport};
use crate::oracle::{self, Books, Detections, LineIds, Match, Ops};
use crate::pin::{Cpus, Placement};
use crate::proc;
use crate::spec::{
    Workload, FLOOD_MIN_OFFERED_SHARE, FLOOD_OFFERED_RPS, FLOOD_OVERLOAD_SHARE,
    FLOOD_SUSTAINED_RPS, FLOOD_SUSTAINED_SHARE, QUERY_MIX_RPS,
};
use crate::stats;
use haystack_core::pack::SignaturePack;
use haystack_core::rules::RuleSet;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `/line` requests of the idle epilogue.
const EPILOGUE_QUERIES: usize = 20;
/// Checkpoints taken first and not counted: the first ones after a load
/// phase grow the daemon's buffers and fold the whole dirty state, and
/// were measured to take half as long again as the ones that follow.
const WARMUP_CHECKPOINTS: usize = 2;
/// An operation the harness repeats on the idle daemon (a checkpoint, a
/// restart cycle) is sampled at least `MIN_REPEATS` times, then until
/// `REPEAT_BUDGET` is spent or `MAX_REPEATS` samples are in, so a cheap
/// operation — whose 25–100 ms of daemon poll jitter weighs most — gets
/// the most samples and an expensive one cannot overrun the run. A smoke
/// run stops at the minimum.
const MIN_REPEATS: usize = 5;
const MAX_REPEATS: usize = 15;
const REPEAT_BUDGET: Duration = Duration::from_millis(2_000);
/// How often the second harness thread looks at the daemon under load.
const POLL_EVERY: Duration = Duration::from_millis(100);
/// Shortest span CPU time per record is read over: `/proc` counts CPU
/// in 10 ms ticks, so anything shorter is mostly rounding.
const CPU_SPAN: Duration = Duration::from_millis(500);
/// Fewest spans a median is taken over; a shorter window (a smoke run)
/// reports its total instead.
const MIN_SPANS: usize = 5;
/// Slot length of the query mix's request schedule. The daemon's HTTP
/// thread polls for connections every 25 ms, so one sequential client
/// cannot be answered faster than about 30 times a second; ten requests
/// a second leaves room to catch up after a checkpoint stalls them. Not
/// a multiple of those 25 ms: with 100 ms slots every request of a run
/// met the daemon's poll timer at the same point of its cycle, and the
/// run's median was that point (11–18 ms from run to run) rather than
/// the cycle's middle.
const QUERY_SLOT: Duration = Duration::from_millis(97);
/// Checkpoints the query mix asks for in one run (≥10 samples).
const QUERY_MIX_CHECKPOINTS: u64 = 11;

/// Everything a run needs that does not depend on the workload.
#[derive(Debug)]
pub struct Ctx {
    /// The built `haystack` binary.
    pub haystack: PathBuf,
    /// Scratch directory of this invocation (under `benchmark/out/`).
    pub work: PathBuf,
    /// The exported signature pack.
    pub pack: PathBuf,
    /// Its rules, as the programs load them.
    pub rules: RuleSet,
    /// Its detection threshold (what `haystack soak` runs with).
    pub pack_threshold: f64,
    /// Hit targets of every stream.
    pub targets: Vec<(Ipv4Addr, u16)>,
    /// A smoke run: one set-up sample and the fewest repeats.
    pub smoke: bool,
    /// Which CPUs the programs under test and the harness run on.
    pub placement: Placement,
    /// The reference clocks every interval is read against.
    pub meter: Meter,
    /// How long exporting `pack` took, in reference seconds: the first
    /// set-up sample's share.
    first_export: f64,
}

/// When something began and when it was done.
type Interval = (Instant, Instant);

/// Export the pack to `pack`; returns how long that took in reference
/// seconds (the export runs flat out).
fn timed_export(
    haystack: &Path,
    pack: &Path,
    placement: &Placement,
    clock: Clock<'_>,
) -> Result<f64> {
    let t0 = Instant::now();
    daemon::rules_export(haystack, pack, placement)?;
    Ok(clock.reference_secs(t0, Instant::now()))
}

impl Ctx {
    /// Build the binary on every CPU, then split the CPUs, make the
    /// scratch directory and export the pack.
    pub fn prepare(smoke: bool) -> Result<Ctx> {
        let haystack = daemon::build_haystack()?;
        let placement = Placement::take()?;
        let meter = Meter::start(placement);
        let work = daemon::repo_root()
            .join("benchmark/out")
            .join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let pack = work.join("pack.hsp");
        let first_export = timed_export(&haystack, &pack, &placement, meter.watch(Cpus::One))?;
        let bytes = std::fs::read(&pack).map_err(|e| format!("{}: {e}", pack.display()))?;
        let loaded = SignaturePack::load(&bytes).map_err(|e| format!("exported pack: {e}"))?;
        let targets = gen::hit_targets(&loaded.rules);
        if targets.is_empty() {
            return Err("the exported pack has no service IPs".into());
        }
        Ok(Ctx {
            haystack,
            work,
            pack,
            rules: loaded.rules,
            pack_threshold: loaded.threshold,
            targets,
            smoke,
            placement,
            first_export,
            meter,
        })
    }

    /// Pack-export time of set-up sample `i`: the export that made
    /// `pack` for the first, a fresh export for every later one.
    fn export_sample(&self, i: usize, clock: Clock<'_>) -> Result<f64> {
        if i == 0 {
            Ok(self.first_export)
        } else {
            let scratch = self.work.join("setup-pack.hsp");
            timed_export(&self.haystack, &scratch, &self.placement, clock)
        }
    }

    /// A fresh, empty directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Set-ups timed per run; `setup_s` is their median.
    fn setup_samples(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Time repeated operations may take beyond their minimum count.
    fn repeat_budget(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            REPEAT_BUDGET
        }
    }

    fn spawn_serve(&self, ckpt_dir: &Path, resume: bool, cpus: Cpus) -> Result<Serve> {
        Serve::spawn(
            &self.haystack,
            &self.pack,
            &self.work,
            ckpt_dir,
            resume,
            (&self.placement, cpus),
        )
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// What one untraced run of one workload measured.
#[derive(Debug, Default)]
pub struct LiveRun {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Outside counters for the per-layer ledger, by name.
    pub live: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Reference nanoseconds per record of the whole timed window.
    pub wall_ns_per_record: f64,
    /// The encoded stream, kept for the in-process replay.
    pub encoded: Option<Encoded>,
}

/// Run `workload` once, sized for `seconds`, with inputs from `seed`.
/// With `for_ledger` the run also keeps (or measures) what only the
/// per-layer ledger needs.
pub fn run(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
    for_ledger: bool,
) -> Result<LiveRun> {
    let spec = workload.stream(seconds);
    match workload {
        Workload::SoakThread | Workload::SoakProcess => {
            run_soak(ctx, workload, seed, spec, for_ledger)
        }
        _ => run_serve(ctx, workload, seed, seconds, spec, for_ledger),
    }
}

/// Repeat `op` as the `*_REPEATS` constants say, within `budget`;
/// returns every sample.
fn repeat<T>(budget: Duration, mut op: impl FnMut() -> Result<T>) -> Result<Vec<T>> {
    let t0 = Instant::now();
    let mut samples = Vec::with_capacity(MAX_REPEATS);
    while samples.len() < MIN_REPEATS || (samples.len() < MAX_REPEATS && t0.elapsed() < budget) {
        samples.push(op()?);
    }
    Ok(samples)
}

fn ticks_secs(ticks: u64) -> f64 {
    proc::ticks_to_duration(ticks).as_secs_f64()
}

/// Time `ctx.setup_samples` set-ups (pack export, spawn, first
/// `/readyz` 200) and keep the last daemon. Returns it with the samples.
fn setup_serve(ctx: &Ctx, ckpt_dir: &Path, cpus: Cpus) -> Result<(Serve, Vec<f64>)> {
    let clock = ctx.meter.watch(cpus);
    let mut samples = Vec::with_capacity(ctx.setup_samples());
    let mut kept: Option<Serve> = None;
    for i in 0..ctx.setup_samples() {
        // Stop the previous sample's daemon before timing the next.
        drop(kept.take());
        // The export runs flat out; the daemon mostly waits its way to
        // ready, and only what it ran is read against the reference clock.
        let export = ctx.export_sample(i, clock)?;
        let t0 = Instant::now();
        let serve = ctx.spawn_serve(ckpt_dir, false, cpus)?;
        let ready = clock.reference_secs_busy(t0, Instant::now(), ticks_secs(serve.cpu_ticks()?));
        samples.push(export + ready);
        kept = Some(serve);
    }
    Ok((kept.expect("at least one set-up ran"), samples))
}

/// Line ids the query workloads ask about: lines of the stream, drawn
/// by the seed, as the daemon names them.
fn query_lines(seed: u64, n: usize) -> Vec<u64> {
    let anon = oracle::daemon_anonymizer();
    let mut x = seed ^ 0x51ED_270B_7F4A_7C15;
    (0..n)
        .map(|_| {
            // splitmix64 step.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let line = (z ^ (z >> 31)) % u64::from(gen::LINES);
            anon.anonymize(Ipv4Addr::new(100, 64, (line >> 8) as u8, line as u8))
                .0
        })
        .collect()
}

/// One look at the running daemon from outside: `/stats` and `/proc`.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    /// Records decoded so far.
    records: u64,
    /// CPU ticks used so far (process plus reaped children).
    cpu_ticks: u64,
}

/// A stretch of the load phase between two looks at the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    during: Interval,
    records: u64,
    cpu_ticks: u64,
}

/// Consecutive spans of `samples`, each the shortest run of polls at
/// least `min_len` long, all inside `[from, to]`.
fn spans(samples: &[Sample], (from, to): Interval, min_len: Duration) -> Vec<Span> {
    let mut inside = samples.iter().filter(|s| s.at >= from && s.at <= to);
    let Some(mut open) = inside.next() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for s in inside {
        let len = s.at.duration_since(open.at);
        if len >= min_len && len > Duration::ZERO {
            out.push(Span {
                during: (open.at, s.at),
                records: s.records - open.records,
                cpu_ticks: s.cpu_ticks - open.cpu_ticks,
            });
            open = s;
        }
    }
    out
}

/// What the requests of one run took, and how many failed.
#[derive(Debug, Default)]
struct Requests {
    /// Round trips, each from when the request was due.
    line: Vec<Interval>,
    detections: Vec<Interval>,
    ckpt: Vec<Interval>,
    /// CPU seconds the daemon used during each of `ckpt`.
    ckpt_busy: Vec<f64>,
    queue_depth: Vec<f64>,
    samples: Vec<Sample>,
    issued: u64,
    failed: u64,
}

impl Requests {
    /// Issue one request; `due` is when it was scheduled (its latency
    /// counts from there). Returns the body of a 200 answer.
    fn issue(
        &mut self,
        http: SocketAddr,
        method: &str,
        target: &str,
        due: Instant,
    ) -> Option<String> {
        self.issued += 1;
        let answer = daemon::http(http, method, target);
        let took = (due, Instant::now());
        let body = match answer {
            Ok((200, body)) => Some(body),
            _ => {
                self.failed += 1;
                None
            }
        };
        if target.starts_with("/line") {
            self.line.push(took);
        } else if target.starts_with("/detections") {
            self.detections.push(took);
        } else if target == "/admin/checkpoint" {
            self.ckpt.push(took);
        }
        body
    }

    /// `POST /admin/checkpoint` to daemon `pid`, keeping the CPU time it
    /// used meanwhile beside the round trip: a daemon spends part of a
    /// round trip waiting for its poll intervals to come round, and only
    /// what it ran is read against the reference clock.
    fn checkpoint(&mut self, http: SocketAddr, pid: u32, due: Instant) {
        let ticks = || proc::cpu_ticks(pid).map_or(0, |t| t.total());
        let before = ticks();
        self.issue(http, "POST", "/admin/checkpoint", due);
        self.ckpt_busy
            .push(ticks_secs(ticks().saturating_sub(before)));
    }

    /// One [`Sample`] of daemon `pid`, plus its queue depth.
    fn sample(&mut self, http: SocketAddr, pid: u32, due: Instant) {
        let Some(body) = self.issue(http, "GET", "/stats", due) else {
            return;
        };
        let Ok(doc) = serde_json::from_str(&body) else {
            return;
        };
        if let Some(depth) = doc["queue_depth"].as_u64() {
            self.queue_depth.push(depth as f64);
        }
        if let (Some(records), Some(cpu)) = (doc["records"].as_u64(), proc::cpu_ticks(pid)) {
            self.samples.push(Sample {
                at: Instant::now(),
                records,
                cpu_ticks: cpu.total(),
            });
        }
    }
}

/// The second harness thread of the throughput and flood workloads:
/// sample the daemon every [`POLL_EVERY`] until told to stop.
fn poll_daemon(http: SocketAddr, pid: u32, stop: &AtomicBool) -> Requests {
    let mut req = Requests::default();
    while !stop.load(Ordering::Relaxed) {
        req.sample(http, pid, Instant::now());
        std::thread::sleep(POLL_EVERY);
    }
    req
}

/// The second harness thread of the query mix: one request per slot for
/// `slots` slots — `/line?id=` by default, every 20th slot
/// `/detections?class=`, every 10th `/stats`, and a checkpoint every
/// `ckpt_every` slots. Requests are never skipped: one that is late
/// because the daemon stalled is issued late and timed from its slot.
fn issue_query_mix(
    (http, pid): (SocketAddr, u32),
    lines: &[u64],
    class: &str,
    slots: u64,
    ckpt_every: u64,
    start: Instant,
) -> Requests {
    let mut req = Requests::default();
    let class_target = format!("/detections?class={}", class.replace(' ', "%20"));
    for k in 0..slots {
        let due = start + QUERY_SLOT * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if k % ckpt_every == ckpt_every - 1 {
            req.checkpoint(http, pid, due);
        } else if k % 20 == 19 {
            req.issue(http, "GET", &class_target, due);
        } else if k % 10 == 5 {
            req.sample(http, pid, due);
        } else {
            let id = lines[k as usize % lines.len()];
            req.issue(http, "GET", &format!("/line?id={id}"), due);
        }
    }
    req
}

fn records_of(stats: &serde_json::Value) -> u64 {
    stats["records"].as_u64().unwrap_or(0)
}

fn run_serve(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
    spec: StreamSpec,
    for_ledger: bool,
) -> Result<LiveRun> {
    let mut out = LiveRun::default();
    let ckpt_dir = ctx.fresh_dir("serve-ckpt")?;
    let cpus = workload.cpus();
    let meter: Clock<'_> = ctx.meter.watch(cpus);
    let (serve, setup_samples) = setup_serve(ctx, &ckpt_dir, cpus)?;

    // Inputs and expected outputs, before any clock starts.
    let t_prepare = Instant::now();
    let encoded = gen::encode(&ctx.targets, seed, spec);
    out.live
        .insert("gen.prepare_s", t_prepare.elapsed().as_secs_f64());
    let lines = query_lines(seed, 1_000);
    let lossless = workload != Workload::ServeUdpFlood;
    let replay = |records: u64| {
        oracle::replay(
            &ctx.rules,
            &ctx.targets,
            seed,
            spec,
            records,
            LineIds::Daemon,
            oracle::SERVE_THRESHOLD,
        )
    };
    // A lossless path delivers the whole stream, so its expected answer
    // is known up front; the flood's depends on how much gets sent.
    let expected_whole: Option<Detections> = lossless.then(|| replay(spec.records()));

    // The load phase: sender on this thread, requests on the second.
    let cpu0 = serve.cpu_ticks()?;
    let mut started = None;
    let mut overload: Option<SendReport> = None;
    let stop = AtomicBool::new(false);
    let share_of_run = |share: f64| Duration::from_secs_f64(seconds * share);
    let (sent, stats, ended, cpu_ticks, mut requests) = std::thread::scope(|scope| {
        let daemon = (serve.http, serve.pid);
        let second = match workload {
            Workload::ServeQueryMix => {
                let class = expected_whole
                    .as_ref()
                    .and_then(Detections::largest_class)
                    .unwrap_or_default()
                    .to_string();
                let slots = (seconds / QUERY_SLOT.as_secs_f64()) as u64;
                // At least every other slot stays a query, however short the run.
                let ckpt_every = (slots / QUERY_MIX_CHECKPOINTS).max(2);
                let lines = &lines;
                let start = Instant::now();
                scope
                    .spawn(move || issue_query_mix(daemon, lines, &class, slots, ckpt_every, start))
            }
            _ => {
                let stop = &stop;
                scope.spawn(move || poll_daemon(daemon.0, daemon.1, stop))
            }
        };
        let mark = || started = Some(Instant::now());
        // What was sent in the measured phase, the first 20 ms-interval
        // poll that shows the daemon has taken all of it in, and the CPU
        // time the daemon had used by then.
        let measured = (|| -> Result<_> {
            let fail = |e: std::io::Error| format!("sender: {e}");
            match workload {
                Workload::ServeUdpFlood => {
                    // Measured: a rate the daemon sustains. Then the flood.
                    let sent = load::send_udp_open(
                        serve.udp,
                        &encoded,
                        0,
                        FLOOD_SUSTAINED_RPS,
                        share_of_run(FLOOD_SUSTAINED_SHARE),
                        mark,
                    )
                    .map_err(fail)?;
                    let (stats, ended) = serve.wait_udp_settled()?;
                    let cpu_ticks = serve.cpu_ticks()? - cpu0;
                    let flood = load::send_udp_open(
                        serve.udp,
                        &encoded,
                        sent.datagrams,
                        FLOOD_OFFERED_RPS,
                        share_of_run(FLOOD_OVERLOAD_SHARE),
                        || {},
                    )
                    .map_err(fail)?;
                    overload = Some(flood);
                    Ok((sent, stats, ended, cpu_ticks))
                }
                _ => {
                    let sent = ctx.placement.beside_program(cpus, || match workload {
                        Workload::ServeQueryMix => load::send_tcp_paced(
                            serve.tcp,
                            &encoded,
                            Schedule::per_second(QUERY_MIX_RPS / 30.0),
                            mark,
                        ),
                        _ => load::send_tcp_closed(serve.tcp, &encoded, encoded.datagrams(), mark),
                    });
                    let sent = sent.map_err(fail)?;
                    let all = encoded.records_in(sent.datagrams);
                    let (stats, ended) = serve.wait_stats(|s| records_of(s) >= all)?;
                    Ok((sent, stats, ended, serve.cpu_ticks()? - cpu0))
                }
            }
        })();
        stop.store(true, Ordering::Relaxed);
        let requests = second
            .join()
            .map_err(|_| "the request thread panicked".to_string())?;
        let (sent, stats, ended, cpu_ticks) = measured?;
        Ok::<_, String>((sent, stats, ended, cpu_ticks, requests))
    })?;
    let started = started.expect("the sender marks its first write");

    // Correctness of the load phase.
    let records_in = records_of(&stats);
    let (sent_records, books, kernel_dropped) = match &overload {
        None => {
            let sent_records = encoded.records_in(sent.datagrams);
            let books = Books::parse(&stats)?;
            books.check_lossless(sent.datagrams as u64, sent_records)?;
            (sent_records, books, 0)
        }
        Some(flood) => {
            let sent_datagrams = sent.datagrams + flood.datagrams;
            let (stats, _) = serve.wait_udp_settled()?;
            let books = Books::parse(&stats)?;
            let kernel_dropped = books.check_flood(sent_datagrams as u64)?;
            // The flood exists to overload the daemon: a sender that fell
            // short of its rate, or a daemon that kept up with it, measures
            // something else.
            let flood_records =
                encoded.records_in(sent_datagrams) - encoded.records_in(sent.datagrams);
            let offered_rps = flood_records as f64 / flood.elapsed.as_secs_f64().max(1e-9);
            let goodput_rps =
                (books.records - records_in) as f64 / flood.elapsed.as_secs_f64().max(1e-9);
            eprintln!(
                "  flood: offered {offered_rps:.0} records/s ({} slots skipped), decoded \
                 {goodput_rps:.0} records/s, shed {}, kernel dropped {kernel_dropped}",
                flood.skipped_slots, books.shed
            );
            let live = &mut out.live;
            live.insert("gen.offered_rps", offered_rps);
            live.insert("gen.skipped_slots", flood.skipped_slots as f64);
            live.insert("flow.listener.udp_goodput_rps", goodput_rps);
            if offered_rps < FLOOD_MIN_OFFERED_SHARE * FLOOD_OFFERED_RPS {
                return Err(format!(
                    "the flood's sender offered {offered_rps:.0} records/s, under \
                     {FLOOD_MIN_OFFERED_SHARE} of the {FLOOD_OFFERED_RPS:.0} asked for"
                ));
            }
            if books.shed + kernel_dropped == 0 {
                return Err(format!(
                    "the daemon kept up with the flood ({offered_rps:.0} records/s offered, \
                     nothing shed or dropped): raise FLOOD_OFFERED_RPS"
                ));
            }
            (encoded.records_in(sent_datagrams), books, kernel_dropped)
        }
    };
    if records_in == 0 {
        return Err("the daemon decoded nothing".into());
    }
    let expected = expected_whole.unwrap_or_else(|| replay(sent_records));
    let detections = requests
        .issue(serve.http, "GET", "/detections", Instant::now())
        .ok_or("GET /detections failed")?;
    oracle::check_detections(
        &expected,
        &detections,
        if lossless {
            Match::Exact
        } else {
            Match::Subset
        },
    )?;
    out.ops.add(
        sent_records,
        if lossless {
            sent_records - books.records
        } else {
            0
        },
    );

    // Epilogue on the now idle daemon: the state this workload built,
    // queried and checkpointed. (The query mix did both under load.)
    if workload != Workload::ServeQueryMix {
        for &id in lines.iter().take(EPILOGUE_QUERIES) {
            requests.issue(serve.http, "GET", &format!("/line?id={id}"), Instant::now());
        }
        for _ in 0..WARMUP_CHECKPOINTS {
            requests.checkpoint(serve.http, serve.pid, Instant::now());
        }
        requests.ckpt.clear();
        requests.ckpt_busy.clear();
        repeat(ctx.repeat_budget(), || {
            requests.checkpoint(serve.http, serve.pid, Instant::now());
            Ok(())
        })?;
    }
    if requests.ckpt.is_empty() || requests.line.is_empty() {
        return Err("the run issued no checkpoint or no /line request".into());
    }
    let peak_rss = serve.peak_rss_mib()?;

    // Restart: drain to the final checkpoint, come back with --resume,
    // and answer the same question with the same bytes.
    let (daemon_before, reaped_before) = (serve.cpu_ticks()?, proc::self_cpu_ticks().reaped());
    let mut serve = serve;
    let cycles: Vec<Interval> = repeat(ctx.repeat_budget(), || {
        let t0 = Instant::now();
        serve.drain()?;
        let resumed = ctx.spawn_serve(&ckpt_dir, true, cpus)?;
        let cycle = (t0, Instant::now());
        if daemon::get_ok(resumed.http, "/detections")? != detections {
            return Err("/detections after --resume differs from the body before the drain".into());
        }
        serve = resumed;
        Ok(cycle)
    })?;
    // Every daemon of the cycles but the last has been reaped by now;
    // the first one's time before the cycles does not count.
    let cycles_busy = (proc::self_cpu_ticks().reaped() - reaped_before + serve.cpu_ticks()?)
        .saturating_sub(daemon_before);
    let restart_busy = ticks_secs(cycles_busy) / cycles.len() as f64;
    drop(serve);
    let restarts: Vec<f64> = cycles
        .iter()
        .map(|&(from, to)| meter.reference_secs_busy(from, to, restart_busy))
        .collect();
    out.ops
        .add(requests.issued + restarts.len() as u64, requests.failed);

    // The closed loops keep the daemon saturated for the whole time load
    // is offered, so their rate and CPU cost are medians over the spans of
    // that time, each span read against the clock on its own: the host
    // changes speed several times in a run. A paced stream (the query
    // mix's, the flood's sustained phase) arrives at the rate of its
    // schedule whatever the host is doing: it reports that rate as the
    // wall clock saw it, and its CPU cost over the whole window.
    let secs_under_load = |(from, to): Interval| meter.reference_secs(from, to);
    let cpu_ns = |ticks: u64, (from, to)| ticks_secs(ticks) * 1e9 / meter.factor(from, to);
    let offered = (started, started + sent.elapsed);
    let window = (started, ended);
    let saturated = matches!(workload, Workload::ServeMiss99 | Workload::ServeHit50);
    let rates: Vec<f64> = spans(&requests.samples, offered, Duration::ZERO)
        .iter()
        .map(|s| s.records as f64 / secs_under_load(s.during))
        .collect();
    let cpu_costs: Vec<f64> = spans(&requests.samples, offered, CPU_SPAN)
        .iter()
        .filter(|s| s.records > 0)
        .map(|s| cpu_ns(s.cpu_ticks, s.during) / s.records as f64)
        .collect();
    let ingest_rps = if !saturated {
        records_in as f64 / ended.duration_since(started).as_secs_f64()
    } else if rates.len() >= MIN_SPANS {
        stats::median(&rates)
    } else {
        records_in as f64 / secs_under_load(window)
    };
    let cpu_ns_per_record = if saturated && cpu_costs.len() >= MIN_SPANS {
        stats::median(&cpu_costs)
    } else {
        cpu_ns(cpu_ticks, window) / records_in as f64
    };
    // A query is all waiting: the wall clock. A checkpoint is rescaled
    // by as much of it as the daemon ran.
    let raw_ms = |intervals: &[Interval]| -> Vec<f64> {
        let ms = |&(from, to): &Interval| to.duration_since(from).as_secs_f64() * 1e3;
        intervals.iter().map(ms).collect()
    };
    let line_ms = raw_ms(&requests.line);
    let detections_ms = raw_ms(&requests.detections);
    let ckpt_ms: Vec<f64> = requests
        .ckpt
        .iter()
        .zip(&requests.ckpt_busy)
        .map(|(&(from, to), &busy)| meter.reference_secs_busy(from, to, busy) * 1e3)
        .collect();
    let raw_window = ended.duration_since(started).as_secs_f64();
    let host_factor = meter.factor(started, ended);
    eprintln!(
        "  {}: window {raw_window:.3}s (host factor {host_factor:.3}), {} rate spans, {} cpu spans, \
         {} requests ({} failed), line p50 {:.2} ms, ckpt {:?} ms, restarts {restarts:.3?} s",
        workload.name(),
        rates.len(),
        cpu_costs.len(),
        requests.issued,
        requests.failed,
        stats::median(&line_ms),
        ckpt_ms.iter().map(|v| v.round()).collect::<Vec<_>>(),
    );
    out.wall_ns_per_record = secs_under_load(window) * 1e9 / records_in as f64;
    out.e2e.insert("ingest_rps", ingest_rps);
    out.e2e.insert("cpu_ns_per_record", cpu_ns_per_record);
    out.e2e.insert("peak_rss_mib", peak_rss);
    // The idle daemon checkpoints one state over and over: the median
    // is that state's cost. The query mix's checkpoints follow the state
    // as it grows, every run through the same sizes, so their median
    // would be a single sample; the mean of their middle half uses most
    // of them and leaves out the one the host stalled (a run's plain
    // mean read 126 ms against the usual 58).
    let ckpt = if workload == Workload::ServeQueryMix {
        stats::midmean(&ckpt_ms)
    } else {
        stats::median(&ckpt_ms)
    };
    out.e2e.insert("query_ms", stats::median(&line_ms));
    out.e2e.insert("ckpt_ms", ckpt);
    out.e2e.insert("restart_s", stats::median(&restarts));
    out.e2e.insert("setup_s", stats::median(&setup_samples));

    let live = &mut out.live;
    live.insert("host.speed_factor", host_factor);
    live.insert(
        "e2e.raw_wall_ns_per_record",
        raw_window * 1e9 / records_in as f64,
    );
    live.insert("flow.listener.received", books.received as f64);
    live.insert("flow.listener.admitted", books.admitted as f64);
    live.insert("flow.listener.shed", books.shed as f64);
    live.insert("flow.listener.kernel_dropped", kernel_dropped as f64);
    if !requests.queue_depth.is_empty() {
        live.insert(
            "flow.listener.queue_depth_p95",
            stats::percentile(&requests.queue_depth, 95.0),
        );
    }
    live.insert("cli.serve.http.query_ms_p50", stats::median(&line_ms));
    let tail = stats::highest_supported_percentile(line_ms.len()).unwrap_or(50.0);
    live.insert(
        "cli.serve.http.query_ms_p99",
        stats::percentile(&line_ms, tail.min(99.0)),
    );
    if !detections_ms.is_empty() {
        live.insert(
            "cli.serve.http.detections_ms_p50",
            stats::median(&detections_ms),
        );
    }
    live.insert(
        "cli.serve.http.ckpt_ms_max",
        ckpt_ms.iter().copied().fold(0.0, f64::max),
    );
    live.insert(
        "gen.busy_share",
        sent.cpu.as_secs_f64() / sent.elapsed.as_secs_f64().max(1e-9),
    );
    if !sent.late_ms.is_empty() {
        live.insert("gen.late_ms_p99", stats::percentile(&sent.late_ms, 99.0));
    }
    out.encoded = for_ledger.then_some(encoded);
    Ok(out)
}

/// The parts of a soak `--report` the benchmark reads.
#[derive(Debug, Clone, Copy)]
struct SoakReport {
    records_streamed: u64,
    elapsed_secs: f64,
    peak_rss_mib: f64,
    pause_ms_mean: f64,
    pause_ms_max: f64,
    full_over_delta: f64,
}

/// One finished `haystack soak` child.
#[derive(Debug)]
struct SoakRun {
    /// Spawn → reaped.
    wall: Interval,
    /// When each `hour\trecords` row arrived on the child's stdout.
    hour_rows: Vec<Instant>,
    /// When the last row of its answer, the detections per class, had
    /// arrived (stdout closed).
    answered: Instant,
    cpu_ticks: u64,
    out: String,
    report: SoakReport,
}

/// Spawn `haystack soak` with the workload's flags and wait for it.
fn soak_once(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    spec: StreamSpec,
    dir: &Path,
    resume: bool,
) -> Result<SoakRun> {
    let out_file = dir.join("out.tsv");
    let report_file = dir.join("report.json");
    let mut cmd = Command::new(&ctx.haystack);
    ctx.placement.confine(&mut cmd, workload.cpus());
    cmd.arg("soak")
        .arg("--rules")
        .arg(&ctx.pack)
        .args(["--seed", &seed.to_string()])
        .args(["--lines", &gen::LINES.to_string()])
        .args(["--hours", &spec.hours.to_string()])
        .args(["--records-per-hour", &spec.records_per_hour.to_string()])
        .args(["--hit-rate-ppm", &spec.hit_ppm.to_string()])
        .args(["--workers", "2", "--quiet", "--checkpoint-dir"])
        .arg(dir.join("ckpt"))
        .arg("--out")
        .arg(&out_file)
        .arg("--report")
        .arg(&report_file)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if workload == Workload::SoakProcess {
        cmd.args(["--isolate", "process"]);
    }
    if resume {
        cmd.arg("--resume");
    }
    // Reaping the child folds its CPU time, and that of the shard
    // workers it reaped, into this process's children counters.
    let cpu0 = proc::self_cpu_ticks();
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot run haystack soak: {e}"))?;
    // The job prints one `hour\trecords` row as each hour completes —
    // its progress, seen from outside — and after the last one its
    // answer, the detections per class.
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut hour_rows = Vec::with_capacity(spec.hours as usize);
    for line in stdout.lines() {
        let line = line.map_err(|e| format!("reading haystack soak's stdout: {e}"))?;
        if line
            .split_once('\t')
            .is_some_and(|(hour, _)| hour.parse::<u32>().is_ok())
        {
            hour_rows.push(Instant::now());
        }
    }
    let answered = Instant::now();
    let status = child
        .wait()
        .map_err(|e| format!("waiting for haystack soak: {e}"))?;
    let wall = (t0, Instant::now());
    let cpu1 = proc::self_cpu_ticks();
    if !status.success() {
        return Err(format!("haystack soak failed ({status})"));
    }
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let doc: serde_json::Value = serde_json::from_str(&read(&report_file)?)
        .map_err(|e| format!("soak report is not JSON: {e}"))?;
    let num = |v: &serde_json::Value, what: &str| {
        v.as_f64()
            .ok_or_else(|| format!("soak report lacks {what}"))
    };
    let ck = &doc["checkpoints"];
    let per = |bytes: &str, frames: &str| -> Result<f64> {
        Ok(num(&ck[bytes], bytes)? / num(&ck[frames], frames)?.max(1.0))
    };
    let delta_mean = per("delta_bytes", "delta_frames")?;
    let report = SoakReport {
        records_streamed: doc["records_streamed"]
            .as_u64()
            .ok_or("soak report lacks records_streamed")?,
        elapsed_secs: num(&doc["elapsed_secs"], "elapsed_secs")?,
        peak_rss_mib: num(&doc["peak_rss_kb"], "peak_rss_kb")? / 1024.0,
        pause_ms_mean: num(&ck["pause_ms_mean"], "pause_ms_mean")?,
        pause_ms_max: num(&ck["pause_ms_max"], "pause_ms_max")?,
        full_over_delta: if delta_mean > 0.0 {
            per("full_bytes", "full_frames")? / delta_mean
        } else {
            0.0
        },
    };
    Ok(SoakRun {
        wall,
        hour_rows,
        answered,
        cpu_ticks: cpu1.reaped() - cpu0.reaped(),
        out: read(&out_file)?,
        report,
    })
}

fn run_soak(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    spec: StreamSpec,
    for_ledger: bool,
) -> Result<LiveRun> {
    let mut out = LiveRun::default();
    let expected: Detections = oracle::replay(
        &ctx.rules,
        &ctx.targets,
        seed,
        spec,
        spec.records(),
        LineIds::Soak,
        ctx.pack_threshold,
    );
    let meter = ctx.meter.watch(workload.cpus());
    let reference = |(from, to): Interval| meter.reference_secs(from, to);
    let raw_secs = |(from, to): Interval| to.duration_since(from).as_secs_f64();
    // The part of a soak's time its own clock does not cover (start-up
    // and tear-down), in reference seconds.
    let outside_own_clock = |run: &SoakRun| {
        (raw_secs(run.wall) - run.report.elapsed_secs) / meter.factor(run.wall.0, run.wall.1)
    };

    // Set-up samples: pack export plus that start-up share. The first
    // sample comes from the real job, the others from zero-hour jobs.
    let dir = ctx.fresh_dir("soak")?;
    let main = soak_once(ctx, workload, seed, spec, &dir, false)?;
    let mut setup_samples = vec![ctx.export_sample(0, meter)? + outside_own_clock(&main)];
    for i in 1..ctx.setup_samples() {
        let idle_dir = ctx.fresh_dir("soak-setup")?;
        let idle = soak_once(
            ctx,
            workload,
            seed,
            StreamSpec { hours: 0, ..spec },
            &idle_dir,
            false,
        )?;
        setup_samples.push(ctx.export_sample(i, meter)? + outside_own_clock(&idle));
    }

    oracle::check_soak_out(&expected, &main.out)?;
    let records = main.report.records_streamed;
    out.ops
        .add(spec.records(), spec.records().abs_diff(records));
    if records == 0 {
        return Err("the soak streamed nothing".into());
    }

    // Restart: resume the finished run from its checkpoint chain; it
    // must re-derive the same answer. A resumed job prints the hour rows
    // it had printed before, then restores its state, takes the one full
    // checkpoint that ends a job, and answers from the state: what a
    // checkpoint of this state and a query cost a batch job, sampled as
    // often as the restart. (The job's own hourly pauses are a few deltas
    // and two or three full checkpoints of a growing state, and their
    // mean moved by a quarter from run to run; they stay in the ledger.)
    let resumed = repeat(ctx.repeat_budget(), || {
        let resumed = soak_once(ctx, workload, seed, spec, &dir, true)?;
        if resumed.out != main.out {
            return Err("soak --resume re-derived a different --out file".into());
        }
        let last_row = *resumed
            .hour_rows
            .last()
            .ok_or("the resumed soak printed no hour row")?;
        Ok([
            reference(resumed.wall),
            reference((last_row, resumed.answered)) * 1e3,
            resumed.report.pause_ms_mean / meter.factor(resumed.wall.0, resumed.wall.1),
        ])
    })?;
    let sampled = |i: usize| -> Vec<f64> { resumed.iter().map(|cycle| cycle[i]).collect() };
    let (restarts, answers_ms, full_ckpts_ms) = (sampled(0), sampled(1), sampled(2));
    out.ops.add(restarts.len() as u64, 0);

    // A batch job is judged by how long the whole of it takes: the
    // records of every hour after the first (whose row also waits for
    // the job's start-up) over the time between the first hour's row and
    // the last one's, each hour read against the reference clock on its
    // own because the host changes speed within a run. (The hours are not
    // alike — the state grows, and every eighth checkpoint is a full
    // one — so there is no typical hour to take a median of.)
    let host_factor = meter.factor(main.wall.0, main.wall.1);
    let wall = reference(main.wall);
    let hours_secs: Vec<f64> = main
        .hour_rows
        .windows(2)
        .map(|w| reference((w[0], w[1])))
        .collect();
    let ingest_rps = if hours_secs.is_empty() {
        records as f64 / wall
    } else {
        (hours_secs.len() as u64 * spec.records_per_hour) as f64 / hours_secs.iter().sum::<f64>()
    };
    eprintln!(
        "  soak: wall {:.3}s (host factor {host_factor:.3}), {} timed hours, restarts {restarts:.3?} s",
        raw_secs(main.wall),
        hours_secs.len()
    );
    out.wall_ns_per_record = wall * 1e9 / records as f64;
    out.e2e.insert("ingest_rps", ingest_rps);
    out.e2e.insert(
        "cpu_ns_per_record",
        ticks_secs(main.cpu_ticks) / host_factor * 1e9 / records as f64,
    );
    out.e2e.insert("peak_rss_mib", main.report.peak_rss_mib);
    out.e2e.insert("query_ms", stats::median(&answers_ms));
    out.e2e.insert("ckpt_ms", stats::median(&full_ckpts_ms));
    out.e2e.insert("restart_s", stats::median(&restarts));
    out.e2e.insert("setup_s", stats::median(&setup_samples));
    out.live.insert("host.speed_factor", host_factor);
    out.live.insert(
        "e2e.raw_wall_ns_per_record",
        raw_secs(main.wall) * 1e9 / records as f64,
    );
    out.live.insert(
        "core.checkpoint.pause_ms_mean",
        main.report.pause_ms_mean / host_factor,
    );
    out.live.insert(
        "core.checkpoint.pause_ms_max",
        main.report.pause_ms_max / host_factor,
    );
    out.live.insert(
        "core.checkpoint.full_over_delta_ratio",
        main.report.full_over_delta,
    );

    if workload == Workload::SoakProcess && for_ledger {
        // What the pipe path costs over threads, on the same stream.
        let twin_dir = ctx.fresh_dir("soak-thread-twin")?;
        let twin = soak_once(ctx, Workload::SoakThread, seed, spec, &twin_dir, false)?;
        if twin.out != main.out {
            return Err("thread and process soaks disagree on --out".into());
        }
        out.live.insert(
            "core.procpool.ns_per_record_over_thread",
            out.wall_ns_per_record - reference(twin.wall) * 1e9 / records as f64,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lines_are_seeded_daemon_ids() {
        let a = query_lines(7, 50);
        assert_eq!(a, query_lines(7, 50));
        assert_ne!(a, query_lines(8, 50));
        // Every id is the anonymised form of a 100.64/16 line address.
        let anon = oracle::daemon_anonymizer();
        let all: std::collections::HashSet<u64> = (0..=u16::MAX)
            .map(|l| {
                anon.anonymize(Ipv4Addr::new(100, 64, (l >> 8) as u8, l as u8))
                    .0
            })
            .collect();
        assert!(a.iter().all(|id| all.contains(id)));
    }

    #[test]
    fn spans_cover_the_window_in_pieces_of_the_asked_length() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let samples: Vec<Sample> = (0..=10)
            .map(|i| Sample {
                at: at(100 * i),
                records: 1_000 * i,
                cpu_ticks: 10 * i,
            })
            .collect();
        // Every poll interval.
        let each = spans(&samples, (at(0), at(1_000)), Duration::ZERO);
        assert_eq!(each.len(), 10);
        assert_eq!(
            each[3],
            Span {
                during: (at(300), at(400)),
                records: 1_000,
                cpu_ticks: 10
            }
        );
        // At least 250 ms each: three polls per span, the remainder dropped.
        let coarse = spans(&samples, (at(0), at(1_000)), Duration::from_millis(250));
        assert_eq!(coarse.len(), 3);
        assert_eq!(
            coarse[2],
            Span {
                during: (at(600), at(900)),
                records: 3_000,
                cpu_ticks: 30
            }
        );
        // Polls outside the window do not count.
        assert_eq!(spans(&samples, (at(250), at(650)), Duration::ZERO).len(), 3);
        assert!(spans(&samples, (at(2_000), at(3_000)), Duration::ZERO).is_empty());
    }

    #[test]
    fn repeats_stop_at_the_budget_or_the_cap() {
        // A free operation runs into the cap.
        assert_eq!(repeat(REPEAT_BUDGET, || Ok(())).unwrap().len(), MAX_REPEATS);
        // One that spends the whole budget at once still gets its minimum,
        // and so does anything without a budget.
        let budget = Duration::from_millis(20);
        let slow = repeat(budget, || {
            std::thread::sleep(budget);
            Ok(())
        });
        assert_eq!(slow.unwrap().len(), MIN_REPEATS);
        assert_eq!(
            repeat(Duration::ZERO, || Ok(())).unwrap().len(),
            MIN_REPEATS
        );
        assert!(repeat(budget, || Err::<(), _>("boom".into())).is_err());
    }
}
