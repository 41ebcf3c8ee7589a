//! The process link: detector shards as `haystack shard-worker` child
//! processes (DESIGN.md §15).
//!
//! [`crate::parallel::DetectorPool`] is the only supervisor; this module
//! is what it needs to run a shard in another *process* instead of
//! another thread — the HAYPROC codec that puts the pool's
//! `Request`/`Reply` protocol on a byte stream, `ProcLink` (the
//! supervisor's end of a child's stdin/stdout pipes), and
//! [`worker_main`] (the child's end, which feeds decoded requests to the
//! same `serve_shard` loop a thread worker runs). Frames reuse the §12
//! checksummed snapshot codec via [`haystack_net::framing`], so a child
//! killed mid-write leaves a torn frame that fails validation instead
//! of silently corrupting the supervisor.
//!
//! Three failure signals reach the supervisor through this link: a
//! *write timeout* (the child's pipe stayed full past `WRITE_TIMEOUT`
//! — it is hung), a *heartbeat miss* (a request got no reply within
//! `HEARTBEAT`), and a *disconnect* (the child's stdout closed or
//! tore — it died, e.g. SIGKILL or OOM). The first two read as
//! `Stalled`, the last as `Dead`; all three converge on the pool's one
//! heal path.

use crate::checkpoint::{DetectorSnapshot, DetectorState};
use crate::detector::DetectorConfig;
use crate::hitlist::HitList;
use crate::pack::SignaturePack;
use crate::parallel::{
    offer, serve_shard, take, Fault, Link, PoolError, Reply, Request, WorkerPort,
};
use crate::rules::RuleSet;
use crate::telemetry::Gauge;
use haystack_net::framing::{read_frame, write_frame};
use haystack_net::ports::Proto;
use haystack_net::snapshot::{open, seal, SnapError, SnapReader, SnapWriter};
use haystack_net::{AnonId, HourBin, Prefix4};
use haystack_wild::WildRecord;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame magic for the worker protocol.
pub const PROC_MAGIC: &[u8; 8] = b"HAYPROC\0";
/// Protocol version. Parent and child are always the same binary, so a
/// mismatch means a stale worker binary on the PATH — reject it.
pub const PROC_VERSION: u32 = 2;
/// Per-frame payload cap: a corrupt header cannot make the reader
/// allocate unboundedly.
pub const PROC_MAX_PAYLOAD: u64 = 1 << 30;
/// Bytes one [`WildRecord`] occupies on the wire (8+8+8+4+1+4+4+2+1+1+4)
/// — also the allocation guard for a batch's declared record count.
pub const RECORD_WIRE_BYTES: usize = 45;

/// Reply deadline for a request to a child. A miss counts
/// `checkpoint.heartbeat_misses` and heals the shard.
const HEARTBEAT: Duration = Duration::from_secs(10);
/// Deadline for handing a frame to a child's writer thread. The pipe
/// staying full this long means the child stopped reading — hung, not
/// merely slow.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a dropped link waits for its child to exit on its own.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

// Request tags (supervisor → worker). The payload layout after the
// `[seq u64][tag u8]` prefix is documented per tag in the codec below.
// Tags 10–13 belonged to queries retired in version 2; never reuse them.
const T_INIT: u8 = 0;
const T_BATCH: u8 = 1;
const T_BARRIER: u8 = 2;
const T_SNAPSHOT: u8 = 3;
const T_SNAPSHOT_DELTA: u8 = 4;
const T_RESTORE: u8 = 5;
const T_SET_HITLIST: u8 = 6;
const T_SET_RULES: u8 = 7;
const T_RESET: u8 = 8;
const T_DETECTED_LINES: u8 = 9;
const T_PANIC: u8 = 14;
const T_STALL: u8 = 15;
const T_SHUTDOWN: u8 = 16;
const T_LINE_VERDICTS: u8 = 17;

// Reply tags (worker → supervisor). Tags 4–7 belonged to queries retired
// in version 2; never reuse them.
const R_ACK: u8 = 0;
const R_STATE: u8 = 1;
const R_SNAP: u8 = 2;
const R_LINES: u8 = 3;
const R_VERDICTS: u8 = 8;

/// Wire layout of one [`WildRecord`] (fixed [`RECORD_WIRE_BYTES`]).
fn put_record(w: &mut SnapWriter, r: &WildRecord) {
    w.put_u64(r.line.0);
    w.put_u64(r.packets);
    w.put_u64(r.bytes);
    w.put_u32(u32::from(r.line_slash24.network()));
    w.put_u8(r.line_slash24.len());
    w.put_u32(u32::from(r.src_ip));
    w.put_u32(u32::from(r.dst));
    w.put_u16(r.dport);
    w.put_u8(r.proto.number());
    w.put_u8(u8::from(r.established));
    w.put_u32(r.hour.0);
}

fn get_record(r: &mut SnapReader<'_>) -> Result<WildRecord, SnapError> {
    let line = AnonId(r.u64()?);
    let packets = r.u64()?;
    let bytes = r.u64()?;
    let net = Ipv4Addr::from(r.u32()?);
    let plen = r.u8()?;
    let line_slash24 =
        Prefix4::new(net, plen).map_err(|_| SnapError::Malformed("record prefix"))?;
    let src_ip = Ipv4Addr::from(r.u32()?);
    let dst = Ipv4Addr::from(r.u32()?);
    let dport = r.u16()?;
    let proto = Proto::from_number(r.u8()?).ok_or(SnapError::Malformed("record proto"))?;
    let established = r.u8()? != 0;
    let hour = HourBin(r.u32()?);
    Ok(WildRecord {
        line,
        packets,
        bytes,
        line_slash24,
        src_ip,
        dst,
        dport,
        proto,
        established,
        hour,
    })
}

/// Rules travel as a sealed §14 signature-pack frame, so a child
/// rebuilds *exactly* the rule layer the parent holds. The pack's own
/// threshold field is unused here — the detector's travels in `Init`.
fn put_rules(w: &mut SnapWriter, rules: &RuleSet) {
    let pack = SignaturePack {
        rules: rules.clone(),
        threshold: 1.0,
        source: "hayproc".to_string(),
        comment: String::new(),
    };
    w.put_bytes(&pack.encode());
}

fn get_rules(r: &mut SnapReader<'_>) -> Result<Arc<RuleSet>, SnapError> {
    let pack = SignaturePack::load(r.bytes()?).map_err(|_| SnapError::Malformed("rule pack"))?;
    Ok(Arc::new(pack.rules))
}

fn get_string(r: &mut SnapReader<'_>) -> Result<String, SnapError> {
    let raw = r.bytes()?;
    std::str::from_utf8(raw).map(str::to_owned).map_err(|_| SnapError::Malformed("utf-8 string"))
}

/// Seal one request frame: `[seq][tag]` then the tag's payload. `None`
/// for the one request that never crosses a pipe (telemetry handles).
/// A hitlist has no wire codec either: the decoder re-derives the
/// whole-window hitlist from the rules it does carry.
pub(crate) fn encode_request(seq: u64, req: &Request) -> Option<Vec<u8>> {
    let mut w = SnapWriter::new();
    w.put_u64(seq);
    match req {
        Request::Telemetry(_) => return None,
        Request::Init { rules, config, .. } => {
            w.put_u8(T_INIT);
            put_rules(&mut w, rules);
            w.put_f64_bits(config.threshold);
            w.put_u8(u8::from(config.require_established));
        }
        Request::Batch(records) => {
            w.put_u8(T_BATCH);
            w.put_u64(records.len() as u64);
            for r in records.iter() {
                put_record(&mut w, r);
            }
        }
        Request::Barrier => w.put_u8(T_BARRIER),
        Request::Snapshot => w.put_u8(T_SNAPSHOT),
        Request::SnapshotDelta => w.put_u8(T_SNAPSHOT_DELTA),
        Request::Restore(state) => {
            w.put_u8(T_RESTORE);
            w.put_bytes(&state.encode());
        }
        Request::SetHitlist(_) => w.put_u8(T_SET_HITLIST),
        Request::SetRules { rules, state, .. } => {
            w.put_u8(T_SET_RULES);
            put_rules(&mut w, rules);
            w.put_bytes(&state.encode());
        }
        Request::Reset => w.put_u8(T_RESET),
        Request::DetectedLines(class) => {
            w.put_u8(T_DETECTED_LINES);
            w.put_str(class);
        }
        Request::LineVerdicts(line) => {
            w.put_u8(T_LINE_VERDICTS);
            w.put_u64(line.0);
        }
        Request::Panic(msg) => {
            w.put_u8(T_PANIC);
            w.put_str(msg);
        }
        Request::Stall(dur) => {
            w.put_u8(T_STALL);
            w.put_u64(dur.as_millis() as u64);
        }
        Request::Shutdown => w.put_u8(T_SHUTDOWN),
    }
    Some(seal(PROC_MAGIC, PROC_VERSION, &w.into_bytes()))
}

/// Open and decode one request frame (child side).
pub(crate) fn decode_to_worker(frame: &[u8]) -> Result<(u64, Request), SnapError> {
    let payload = open(PROC_MAGIC, PROC_VERSION, frame)?;
    let mut r = SnapReader::new(payload);
    let seq = r.u64()?;
    let req = match r.u8()? {
        T_INIT => {
            let rules = get_rules(&mut r)?;
            let config =
                DetectorConfig { threshold: r.f64_bits()?, require_established: r.u8()? != 0 };
            Request::Init { hitlist: HitList::whole_window(&rules), rules, config }
        }
        T_BATCH => {
            let n = r.count(RECORD_WIRE_BYTES)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(get_record(&mut r)?);
            }
            Request::Batch(Arc::new(records))
        }
        T_BARRIER => Request::Barrier,
        T_SNAPSHOT => Request::Snapshot,
        T_SNAPSHOT_DELTA => Request::SnapshotDelta,
        T_RESTORE => Request::Restore(DetectorState::decode(r.bytes()?)?),
        T_SET_HITLIST => Request::SetHitlist(None),
        T_SET_RULES => {
            let rules = get_rules(&mut r)?;
            let state = DetectorState::decode(r.bytes()?)?;
            Request::SetRules { hitlist: HitList::whole_window(&rules), rules, state }
        }
        T_RESET => Request::Reset,
        T_DETECTED_LINES => Request::DetectedLines(get_string(&mut r)?),
        T_LINE_VERDICTS => Request::LineVerdicts(AnonId(r.u64()?)),
        T_PANIC => Request::Panic(get_string(&mut r)?),
        T_STALL => Request::Stall(Duration::from_millis(r.u64()?)),
        T_SHUTDOWN => Request::Shutdown,
        _ => return Err(SnapError::Malformed("unknown request tag")),
    };
    Ok((seq, req))
}

/// Seal one reply frame: `[seq][tag]` then the tag's payload.
pub(crate) fn encode_reply(seq: u64, reply: &Reply) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u64(seq);
    match reply {
        Reply::Ack => w.put_u8(R_ACK),
        Reply::State(s) => {
            w.put_u8(R_STATE);
            w.put_bytes(&s.encode());
        }
        Reply::Snap(s) => {
            w.put_u8(R_SNAP);
            w.put_bytes(&s.encode());
        }
        Reply::Lines(lines) => {
            w.put_u8(R_LINES);
            w.put_u64(lines.len() as u64);
            for l in lines {
                w.put_u64(l.0);
            }
        }
        Reply::Verdicts(verdicts) => {
            w.put_u8(R_VERDICTS);
            w.put_u64(verdicts.len() as u64);
            for (detected, confidence) in verdicts {
                w.put_u8(u8::from(*detected));
                w.put_f64_bits(*confidence);
            }
        }
    }
    seal(PROC_MAGIC, PROC_VERSION, &w.into_bytes())
}

/// Open and decode one reply frame (supervisor side).
pub(crate) fn decode_reply(frame: &[u8]) -> Result<(u64, Reply), SnapError> {
    let payload = open(PROC_MAGIC, PROC_VERSION, frame)?;
    let mut r = SnapReader::new(payload);
    let seq = r.u64()?;
    let reply = match r.u8()? {
        R_ACK => Reply::Ack,
        R_STATE => Reply::State(DetectorState::decode(r.bytes()?)?),
        R_SNAP => Reply::Snap(DetectorSnapshot::decode(r.bytes()?)?),
        R_LINES => {
            let n = r.count(8)?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                lines.push(AnonId(r.u64()?));
            }
            Reply::Lines(lines)
        }
        R_VERDICTS => {
            let n = r.count(9)?;
            let mut verdicts = Vec::with_capacity(n);
            for _ in 0..n {
                verdicts.push((r.u8()? != 0, r.f64_bits()?));
            }
            Reply::Verdicts(verdicts)
        }
        _ => return Err(SnapError::Malformed("unknown reply tag")),
    };
    Ok((seq, reply))
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// Entry point of the `haystack shard-worker` child process: serve the
/// worker protocol on stdin/stdout until shutdown. Returns the process
/// exit code — `0` for a clean shutdown (a `Shutdown` frame or EOF at a
/// frame boundary), `2` for a protocol or state error. An injected
/// panic unwinds out of here and exits the process 101 with no reply —
/// a torn pipe for the supervisor to detect. Everything the child
/// prints on stdout is protocol frames; diagnostics go to stderr.
pub fn worker_main() -> i32 {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut rin = stdin.lock();
    let mut wout = stdout.lock();
    match run_worker(&mut rin, &mut wout) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("haystack shard-worker: {e}");
            2
        }
    }
}

/// The child's end of the link: requests decoded off one byte stream,
/// replies encoded onto another.
struct PipePort<'a, R, W> {
    rin: &'a mut R,
    wout: &'a mut W,
}

impl<R: Read, W: Write> WorkerPort for PipePort<'_, R, W> {
    fn next(&mut self) -> Result<Option<(u64, Request)>, String> {
        match read_frame(self.rin, PROC_MAGIC, PROC_MAX_PAYLOAD) {
            Ok(Some(frame)) => {
                decode_to_worker(&frame).map(Some).map_err(|e| format!("decode: {e}"))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(format!("read: {e}")),
        }
    }
    fn reply(&mut self, seq: u64, reply: Reply) -> Result<(), String> {
        write_frame(self.wout, &encode_reply(seq, &reply)).map_err(|e| format!("write: {e}"))
    }
}

/// The child's protocol loop, generic over the byte streams so the
/// in-process tests can drive it without spawning: the shared
/// [`serve_shard`] loop over a [`PipePort`].
fn run_worker(rin: &mut impl Read, wout: &mut impl Write) -> Result<(), String> {
    serve_shard(&mut PipePort { rin, wout })
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

/// The supervisor's end of one child process plus the pipe threads that
/// own its ends. The writer thread owns stdin (so a full pipe blocks it,
/// not the feeder — the feeder observes a bounded queue with a
/// deadline), the reader thread owns stdout (so a reply can be awaited
/// with a timeout, which a blocking `read` cannot).
pub(crate) struct ProcLink {
    child: Child,
    /// Frames to the writer thread, flagged when they carry a batch.
    /// `None` after teardown began.
    to_child: Option<SyncSender<(Vec<u8>, bool)>>,
    from_child: Receiver<Vec<u8>>,
    /// The shard's queue-depth gauge, shared with the writer thread,
    /// which decrements it for every batch frame written to the pipe.
    depth: Arc<Mutex<Gauge>>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
}

impl fmt::Debug for ProcLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcLink").field("pid", &self.child.id()).finish_non_exhaustive()
    }
}

impl ProcLink {
    /// Spawn one worker process (`command` is its argv) and the two
    /// threads that own its pipes. The pool completes the `Init`
    /// handshake.
    pub(crate) fn spawn(
        shard: usize,
        command: &[String],
        channel_batches: usize,
    ) -> Result<ProcLink, PoolError> {
        let mut cmd = Command::new(&command[0]);
        cmd.args(&command[1..]).stdin(Stdio::piped()).stdout(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| PoolError::new(shard, format!("spawn shard worker: {e}")))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let depth = Arc::new(Mutex::new(Gauge::noop()));
        let writer_depth = Arc::clone(&depth);
        let (to_child, frames) = sync_channel::<(Vec<u8>, bool)>(channel_batches.max(1));
        let writer = std::thread::Builder::new()
            .name(format!("proc-shard-{shard}-w"))
            .spawn(move || {
                while let Ok((frame, is_batch)) = frames.recv() {
                    if write_frame(&mut stdin, &frame).is_err() {
                        return; // child died; supervisor notices via stdout
                    }
                    if is_batch {
                        if let Ok(gauge) = writer_depth.lock() {
                            gauge.dec();
                        }
                    }
                }
                // Queue closed: dropping stdin EOFs the child, which is
                // its clean-shutdown signal.
            })
            .expect("spawn shard writer thread");
        let (replies, from_child) = channel::<Vec<u8>>();
        let reader = std::thread::Builder::new()
            .name(format!("proc-shard-{shard}-r"))
            .spawn(move || loop {
                match read_frame(&mut stdout, PROC_MAGIC, PROC_MAX_PAYLOAD) {
                    Ok(Some(frame)) => {
                        if replies.send(frame).is_err() {
                            return;
                        }
                    }
                    // EOF or a torn frame: either way the child is
                    // done. Dropping `replies` disconnects the
                    // supervisor's receive end, which reads as Dead.
                    Ok(None) | Err(_) => return,
                }
            })
            .expect("spawn shard reader thread");
        Ok(ProcLink {
            child,
            to_child: Some(to_child),
            from_child,
            depth,
            writer: Some(writer),
            reader: Some(reader),
        })
    }

    /// Close the pipes, give the child `grace` to exit on its own, then
    /// kill and reap whatever is left and join the pipe threads.
    /// Idempotent.
    fn teardown(&mut self, grace: Duration) {
        self.to_child = None;
        let deadline = Instant::now() + grace;
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Link for ProcLink {
    fn send(&self, seq: u64, req: Request, deadline: Option<Instant>) -> Result<bool, Fault> {
        let Some(frame) = encode_request(seq, &req) else {
            if let (Request::Telemetry(t), Ok(mut gauge)) = (req, self.depth.lock()) {
                *gauge = t.queue_depth;
            }
            return Ok(false);
        };
        let tx = self.to_child.as_ref().ok_or(Fault::Dead)?;
        let deadline = deadline.unwrap_or_else(|| Instant::now() + WRITE_TIMEOUT);
        offer(tx, (frame, matches!(req, Request::Batch(_))), deadline)
    }

    fn recv(&self, deadline: Option<Instant>) -> Result<(u64, Reply), Fault> {
        let deadline = deadline.unwrap_or_else(|| Instant::now() + HEARTBEAT);
        let frame = take(&self.from_child, Some(deadline))?;
        // A frame that fails its checksum or shape is a broken child.
        decode_reply(&frame).map_err(|_| Fault::Dead)
    }

    fn kill(&mut self, _fault: Fault) -> Option<String> {
        self.teardown(Duration::ZERO);
        None
    }
}

impl Drop for ProcLink {
    fn drop(&mut self) {
        // Closing the pipes EOFs the child — its clean-shutdown signal,
        // if the pool's `Shutdown` request has not reached it already.
        self.teardown(SHUTDOWN_GRACE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{DetectorDelta, LineEvidence};
    use crate::rules::{RuleDomain, RuleSetBuilder};
    use haystack_dns::DomainName;
    use haystack_testbed::catalog::DetectionLevel;
    use proptest::prelude::*;
    use std::io::Cursor;

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

    fn record(line: u64, dst_octet: u8, hour: u32) -> WildRecord {
        let src = Ipv4Addr::new(100, 64, 0, 7);
        WildRecord {
            line: AnonId(line),
            line_slash24: Prefix4::slash24_of(src),
            src_ip: src,
            dst: Ipv4Addr::new(198, 18, 8, dst_octet),
            dport: 443,
            proto: Proto::Tcp,
            packets: 3,
            bytes: 321,
            established: true,
            hour: HourBin(hour),
        }
    }

    fn request_frame(seq: u64, req: Request) -> Vec<u8> {
        encode_request(seq, &req).expect("request has a wire form")
    }

    fn init_request(rules: &RuleSet, config: DetectorConfig) -> Request {
        Request::Init {
            rules: Arc::new(rules.clone()),
            hitlist: HitList::whole_window(rules),
            config,
        }
    }

    #[test]
    fn record_codec_round_trips_exactly() {
        let records: Vec<WildRecord> =
            (0..40).map(|i| record(i, (i % 6) as u8 + 1, (i % 24) as u32)).collect();
        let frame = request_frame(7, Request::Batch(Arc::new(records.clone())));
        let (seq, msg) = decode_to_worker(&frame).unwrap();
        assert_eq!(seq, 7);
        let Request::Batch(back) = msg else { panic!("not a batch") };
        assert_eq!(*back, records);
        let mut w = SnapWriter::new();
        put_record(&mut w, &records[0]);
        assert_eq!(w.len(), RECORD_WIRE_BYTES, "one record's wire size");
    }

    #[test]
    fn reply_codec_round_trips_every_shape() {
        let shapes: Vec<Reply> = vec![
            Reply::Ack,
            Reply::State(DetectorState { rules: vec![Vec::new(), Vec::new()] }),
            Reply::Lines(vec![AnonId(3), AnonId(9)]),
            Reply::Verdicts(vec![(true, 1.0), (false, 0.375), (false, 0.0)]),
            Reply::Verdicts(Vec::new()),
        ];
        for (i, reply) in shapes.iter().enumerate() {
            let frame = encode_reply(i as u64, reply);
            let (seq, back) = decode_reply(&frame).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(format!("{back:?}"), format!("{reply:?}"), "shape {i}");
        }
    }

    /// Writes a frame's payload after its `[seq][tag]` prefix.
    type Body = fn(&mut SnapWriter);

    /// `[seq][tag]` plus `body`, sealed at `version`.
    fn raw_frame(version: u32, seq: u64, tag: u8, body: Body) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(seq);
        w.put_u8(tag);
        body(&mut w);
        seal(PROC_MAGIC, version, &w.into_bytes())
    }

    #[test]
    fn corrupt_request_frame_is_rejected_not_misread() {
        let mut frame = request_frame(1, Request::Batch(Arc::new(vec![record(5, 1, 0)])));
        let mid = frame.len() / 2;
        frame[mid] ^= 0x80;
        assert!(decode_to_worker(&frame).is_err());

        // The tags version 1 gave the retired single-answer queries, each
        // with the payload version 1 wrote for it, sealed at this
        // version: refused, never read as another request.
        let line_class: Body = |w| {
            w.put_u64(12);
            w.put_str("X");
        };
        let retired: [(u8, Body); 4] =
            [(10, line_class), (11, line_class), (12, line_class), (13, |_| {})];
        for (tag, body) in retired {
            let frame = raw_frame(PROC_VERSION, 2, tag, body);
            assert!(matches!(decode_to_worker(&frame), Err(SnapError::Malformed(_))), "tag {tag}");
            assert!(matches!(run_worker_on(&frame), Some(Err(_))), "tag {tag}");
        }

        // A well-formed version-1 frame is version skew: a stale worker
        // binary, refused by name.
        let old = raw_frame(1, 2, T_BARRIER, |_| {});
        assert!(matches!(
            decode_to_worker(&old),
            Err(SnapError::BadVersion { found: 1, expected: PROC_VERSION })
        ));
        let err = run_worker_on(&old).expect("not a chaos request").unwrap_err();
        assert!(err.contains("version 1"), "err: {err}");
    }

    #[test]
    fn corrupt_reply_frame_is_rejected_not_misread() {
        // The reply tags of the retired queries, with their version-1
        // payloads, sealed at this version.
        let retired: [(u8, Body); 4] = [
            (4, |w| w.put_u8(1)),
            (5, |w| w.put_f64_bits(0.625)),
            (6, |w| {
                w.put_u8(1);
                w.put_u32(17);
            }),
            (7, |w| w.put_u64(42)),
        ];
        for (tag, body) in retired {
            let frame = raw_frame(PROC_VERSION, 3, tag, body);
            assert!(matches!(decode_reply(&frame), Err(SnapError::Malformed(_))), "tag {tag}");
        }
        let old = raw_frame(1, 3, R_ACK, |_| {});
        assert!(matches!(
            decode_reply(&old),
            Err(SnapError::BadVersion { found: 1, expected: PROC_VERSION })
        ));
    }

    /// Drive the child's protocol loop over in-memory pipes — the whole
    /// wire contract without spawning a process.
    #[test]
    fn worker_loop_serves_the_protocol_over_byte_streams() {
        let rules = ruleset(6);
        let config = DetectorConfig { threshold: 0.5, require_established: false };

        // Enough distinct-domain evidence on line 12 to cross 0.5 of 6.
        let records: Vec<WildRecord> = (0..4).map(|i| record(12, i + 1, i as u32)).collect();
        let mut input = Vec::new();
        let mut frame = |f: Vec<u8>| input.extend_from_slice(&f);
        frame(request_frame(1, init_request(&rules, config)));
        frame(request_frame(2, Request::Batch(Arc::new(records))));
        frame(request_frame(3, Request::Barrier));
        frame(request_frame(5, Request::DetectedLines("X".into())));
        frame(request_frame(6, Request::Snapshot));
        frame(request_frame(7, Request::LineVerdicts(AnonId(12))));
        frame(request_frame(8, Request::LineVerdicts(AnonId(13))));
        frame(request_frame(9, Request::Shutdown));

        let mut rin = Cursor::new(input);
        let mut out = Vec::new();
        run_worker(&mut rin, &mut out).unwrap();

        let mut rout = Cursor::new(out);
        let mut next = || {
            let f = read_frame(&mut rout, PROC_MAGIC, PROC_MAX_PAYLOAD).unwrap().expect("reply");
            decode_reply(&f).unwrap()
        };
        assert!(matches!(next(), (1, Reply::Ack)), "init ack");
        assert!(matches!(next(), (3, Reply::Ack)), "barrier ack");
        match next() {
            (5, Reply::Lines(lines)) => assert_eq!(lines, vec![AnonId(12)]),
            other => panic!("unexpected: {other:?}"),
        }
        match next() {
            (6, Reply::State(state)) => assert!(state.entry_count() > 0),
            other => panic!("unexpected: {other:?}"),
        }
        match next() {
            (7, Reply::Verdicts(v)) => assert_eq!(v, vec![(true, 1.0)], "one rule, detected"),
            other => panic!("unexpected: {other:?}"),
        }
        match next() {
            (8, Reply::Verdicts(v)) => assert_eq!(v, vec![(false, 0.0)], "a line never seen"),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(
            read_frame(&mut rout, PROC_MAGIC, PROC_MAX_PAYLOAD).unwrap().is_none(),
            "clean EOF after shutdown"
        );
    }

    #[test]
    fn worker_loop_rejects_a_first_frame_that_is_not_init() {
        let mut input = Vec::new();
        input.extend_from_slice(&request_frame(1, Request::Barrier));
        let mut rin = Cursor::new(input);
        let mut out = Vec::new();
        let err = run_worker(&mut rin, &mut out).unwrap_err();
        assert!(err.contains("Init"), "err: {err}");
    }

    // ------------------------------------------------------------------
    // Hostile frames (ROADMAP 4(d), HAYPROC slice)
    // ------------------------------------------------------------------

    fn evidence() -> Vec<LineEvidence> {
        vec![LineEvidence { line: AnonId(12), mask: 0b101, first_met: Some(HourBin(3)) }]
    }

    /// One valid frame of every request variant that has a wire form.
    fn every_request_frame() -> Vec<Vec<u8>> {
        let rules = ruleset(3);
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let state = DetectorState { rules: vec![evidence()] };
        let line = AnonId(12);
        vec![
            init_request(&rules, config),
            Request::Batch(Arc::new((0..5).map(|i| record(i, 1, 0)).collect())),
            Request::SetHitlist(None),
            Request::SetRules {
                rules: Arc::new(rules.clone()),
                hitlist: HitList::whole_window(&rules),
                state: state.clone(),
            },
            Request::Reset,
            Request::Barrier,
            Request::Snapshot,
            Request::SnapshotDelta,
            Request::Restore(state),
            Request::Panic("boom".into()),
            Request::Stall(Duration::from_millis(1)),
            Request::DetectedLines("X".into()),
            Request::LineVerdicts(line),
            Request::Shutdown,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, req)| request_frame(i as u64 + 2, req))
        .collect()
    }

    /// One valid frame of every reply variant.
    fn every_reply_frame() -> Vec<Vec<u8>> {
        [
            Reply::Ack,
            Reply::State(DetectorState { rules: vec![evidence()] }),
            Reply::Snap(DetectorSnapshot::Full(DetectorState { rules: vec![evidence()] })),
            Reply::Snap(DetectorSnapshot::Delta(DetectorDelta { rules: vec![evidence()] })),
            Reply::Lines(vec![AnonId(3), AnonId(9)]),
            Reply::Verdicts(vec![(true, 1.0), (false, 0.375)]),
        ]
        .iter()
        .enumerate()
        .map(|(i, reply)| encode_reply(i as u64, reply))
        .collect()
    }

    /// Mutate a frame's payload and seal it again, so the mutant gets
    /// past the checksum and the decoder itself is what is on trial.
    fn resealed(frame: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = open(PROC_MAGIC, PROC_VERSION, frame).expect("valid frame").to_vec();
        mutate(&mut payload);
        seal(PROC_MAGIC, PROC_VERSION, &payload)
    }

    /// Feed `Init` then `frame` to the child loop. Mutants that decode
    /// to a chaos request are valid frames doing what they say (panic,
    /// sleep) — not the decoder's business — so they are skipped.
    fn run_worker_on(frame: &[u8]) -> Option<Result<(), String>> {
        if matches!(decode_to_worker(frame), Ok((_, Request::Panic(_) | Request::Stall(_)))) {
            return None;
        }
        let config = DetectorConfig { threshold: 0.5, require_established: false };
        let mut input = request_frame(1, init_request(&ruleset(3), config));
        input.extend_from_slice(frame);
        Some(run_worker(&mut Cursor::new(input), &mut Vec::new()))
    }

    /// Offset of the tag byte in a request or reply payload.
    const TAG_AT: usize = 8;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Truncated, bit-flipped, tag-swapped and count-inflated frames
        /// of every variant: the decoders and the child loop return
        /// `Err` (exit 2) — never panic, never reserve for a count the
        /// frame cannot hold.
        #[test]
        fn hostile_frames_are_rejected_never_a_panic(
            pick in any::<usize>(),
            at in 0.0f64..1.0,
            bit in 0u8..8,
            tag in any::<u8>(),
            count in any::<u64>(),
        ) {
            let requests = every_request_frame();
            let replies = every_reply_frame();
            let request = &requests[pick % requests.len()];
            let reply = &replies[pick % replies.len()];
            // The same relative position in a frame or a payload of any length.
            let spot = |len: usize| ((len - 1) as f64 * at) as usize;
            let flip = |bytes: &mut Vec<u8>| {
                let i = spot(bytes.len());
                bytes[i] ^= 1 << bit;
            };

            // On the wire: a torn or flipped frame fails the envelope.
            for frame in [request, reply] {
                // (Torn after at least a byte: nothing at all is a clean EOF.)
                let torn = frame[..spot(frame.len()).max(1)].to_vec();
                let mut flipped = frame.clone();
                flip(&mut flipped);
                for hostile in [torn, flipped] {
                    prop_assert!(decode_to_worker(&hostile).is_err());
                    prop_assert!(decode_reply(&hostile).is_err());
                    prop_assert!(matches!(run_worker_on(&hostile), Some(Err(_))));
                }
            }

            // Past the checksum: a truncated payload is always refused…
            let short = resealed(request, |p| p.truncate(spot(p.len())));
            prop_assert!(decode_to_worker(&short).is_err());
            prop_assert!(matches!(run_worker_on(&short), Some(Err(_))));
            let short = resealed(reply, |p| p.truncate(spot(p.len())));
            prop_assert!(decode_reply(&short).is_err());

            // …a flipped bit or a swapped tag decodes to *something* or
            // is refused, and the child loop survives either way…
            let flipped = resealed(request, flip);
            let _ = decode_to_worker(&flipped);
            let _ = run_worker_on(&flipped);
            let _ = decode_reply(&resealed(reply, flip));
            let swapped = resealed(request, |p| p[TAG_AT] = tag);
            if tag > T_LINE_VERDICTS || (10..=13).contains(&tag) {
                prop_assert!(decode_to_worker(&swapped).is_err());
            }
            let _ = run_worker_on(&swapped);
            let swapped = resealed(reply, |p| p[TAG_AT] = tag);
            if tag > R_VERDICTS || (4..=7).contains(&tag) {
                prop_assert!(decode_reply(&swapped).is_err());
            }

            // …and a count larger than the frame could hold is refused
            // before anything is reserved for it.
            let batch = request_frame(9, Request::Batch(Arc::new(vec![record(5, 1, 0); 4])));
            let inflated = resealed(&batch, |p| {
                p[TAG_AT + 1..TAG_AT + 9].copy_from_slice(&count.max(5).to_le_bytes());
            });
            prop_assert!(decode_to_worker(&inflated).is_err());
            prop_assert!(matches!(run_worker_on(&inflated), Some(Err(_))));
            let lines = encode_reply(9, &Reply::Lines(vec![AnonId(1); 4]));
            let inflated = resealed(&lines, |p| {
                p[TAG_AT + 1..TAG_AT + 9].copy_from_slice(&count.max(5).to_le_bytes());
            });
            prop_assert!(decode_reply(&inflated).is_err());
            let verdicts = encode_reply(9, &Reply::Verdicts(vec![(true, 1.0); 4]));
            let inflated = resealed(&verdicts, |p| {
                p[TAG_AT + 1..TAG_AT + 9].copy_from_slice(&count.max(5).to_le_bytes());
            });
            prop_assert!(decode_reply(&inflated).is_err());
        }
    }
}
