//! End-to-end robustness oracle for `haystack serve` (DESIGN.md §13).
//!
//! Each proof runs against a real daemon process on loopback sockets:
//!
//! * **chaos**: under a forced shard panic, injected stalls, a malformed
//!   flood, and a 2× overload burst, the daemon stays up, sheds with
//!   exact accounting (`received == admitted + shed`, attributed per
//!   source), heals its shards, and re-admits the flapped source.
//! * **operator reset**: a crash-looping shard trips its breaker
//!   (`/readyz` 503, its records queue); `POST /admin/reset-breaker`
//!   brings it back with the queue replayed and no evidence lost.
//! * **restart determinism**: SIGTERM mid-stream drains to a final
//!   checkpoint; a `--resume` restart fed the remaining records answers
//!   every query byte-identically to a daemon that was never
//!   interrupted.
//! * **restart from a damaged directory**: a bit-flipped newest
//!   generation falls back to the previous one; a checksum-valid frame
//!   of a future format version is refused by generation.
//! * **a shell that never sleeps**: an idle daemon answers `/line` in
//!   well under a poll interval; a client stalled mid-head delays nobody
//!   and is closed by the head deadline; a drain exits promptly with its
//!   200 delivered and its checkpoint written; requests in flight during
//!   the drain are answered, not dropped.

use haystack_core::hitlist::HitList;
use haystack_core::pack::SignaturePack;
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_core::rules::{RuleSet, RuleSetBuilder};
use haystack_core::CheckpointDir;
use haystack_net::snapshot::seal;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_haystack");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("haystack-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The pipeline every daemon in this binary runs, built once.
fn pipeline() -> &'static Pipeline {
    static P: OnceLock<Pipeline> = OnceLock::new();
    P.get_or_init(|| Pipeline::run(PipelineConfig::fast(7)))
}

/// The fast(7) rules as a signature pack on disk, generated once for
/// the whole test binary.
fn rules_file() -> &'static Path {
    static FILE: OnceLock<PathBuf> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = scratch("rules").join("rules.hsp");
        let pack = SignaturePack {
            rules: pipeline().rules.as_ref().clone(),
            threshold: 0.4,
            source: "generate(fast,seed=7)".into(),
            comment: String::new(),
        };
        std::fs::write(&path, pack.encode()).unwrap();
        path
    })
}

/// A running daemon plus the ports it bound.
struct Daemon {
    child: Child,
    udp: u16,
    tcp: u16,
    http: u16,
}

impl Daemon {
    /// Start `haystack serve` and wait for its ports file.
    fn start(tag: &str, ckpt: &Path, extra: &[&str]) -> Daemon {
        Daemon::start_with_rules(tag, ckpt, extra, rules_file())
    }

    /// Like [`Daemon::start`], with an explicit signature pack.
    fn start_with_rules(tag: &str, ckpt: &Path, extra: &[&str], rules: &Path) -> Daemon {
        let ports_file = scratch(tag).join("ports.json");
        let mut child = Command::new(BIN)
            .args(["serve", "--workers", "3", "--seed", "11"])
            .arg("--rules")
            .arg(rules)
            .args(["--checkpoint-dir", ckpt.to_str().unwrap()])
            .args(["--ports-file", ports_file.to_str().unwrap()])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let ports = loop {
            if let Ok(text) = std::fs::read_to_string(&ports_file) {
                if text.ends_with('\n') {
                    break serde_json::from_str(&text).unwrap();
                }
            }
            if let Some(status) = child.try_wait().unwrap() {
                panic!("daemon exited before writing its ports file: {status:?}");
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote its ports file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let port = |k: &str| ports[k].as_u64().unwrap() as u16;
        Daemon {
            child,
            udp: port("udp"),
            tcp: port("tcp"),
            http: port("http"),
        }
    }

    /// A connection to the HTTP plane with nothing sent on it yet.
    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(("127.0.0.1", self.http)).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    }

    /// One HTTP/1.1 request; returns (status, body).
    fn http(&self, method: &str, target: &str) -> (u16, String) {
        let mut stream = self.connect();
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        read_response(&mut stream).unwrap()
    }

    fn get(&self, target: &str) -> String {
        let (status, body) = self.http("GET", target);
        assert_eq!(status, 200, "GET {target} -> {status}: {body}");
        body
    }

    fn post(&self, target: &str) -> String {
        let (status, body) = self.http("POST", target);
        assert_eq!(status, 200, "POST {target} -> {status}: {body}");
        body
    }

    fn stats(&self) -> serde_json::Value {
        serde_json::from_str(&self.get("/stats")).unwrap()
    }

    /// One sample of `/metrics` by its exposition name.
    fn metric(&self, name: &str) -> u64 {
        self.try_metric(name)
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
    }

    /// [`Daemon::metric`], `None` while the sample is not published yet.
    fn try_metric(&self, name: &str) -> Option<u64> {
        let text = self.get("/metrics");
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))?;
        Some(line.split_whitespace().nth(1).unwrap().parse().unwrap())
    }

    /// Poll `/stats` until the decoded-record counter reaches `want`.
    fn wait_records(&self, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let got = self.stats()["records"].as_u64().unwrap();
            if got >= want {
                assert_eq!(got, want, "daemon decoded more records than were sent");
                return;
            }
            assert!(
                Instant::now() < deadline,
                "records stuck at {got}, wanted {want}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Graceful shutdown through the admin plane; asserts exit 0.
    fn drain(mut self) {
        let _ = self.post("/admin/drain");
        let status = self.child.wait().unwrap();
        assert!(status.success(), "daemon drain exited nonzero: {status:?}");
    }

    /// Send the daemon a SIGTERM.
    fn signal_term(&self) {
        assert!(Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .unwrap()
            .success());
    }

    /// SIGTERM the daemon and wait for its orderly exit.
    fn sigterm(mut self) {
        self.signal_term();
        let status = self.child.wait().unwrap();
        assert!(
            status.success(),
            "daemon SIGTERM exited nonzero: {status:?}"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The daemon's whole answer on `stream`, read to EOF: (status, body).
/// `Err` is a reset or a timeout — the daemon never owes a client those.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Drive `haystack send` at a daemon port.
fn send(args: &[&str]) {
    let out = Command::new(BIN).arg("send").args(args).output().unwrap();
    assert!(
        out.status.success(),
        "send failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `haystack send` over TCP; returns the records sent, read from the
/// sender's own accounting line (`sent \t records`).
fn send_counted(tcp: u16, args: &[&str]) -> u64 {
    let out = Command::new(BIN)
        .args(["send", "--port", &tcp.to_string(), "--mode", "tcp"])
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "send failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    text.trim().rsplit('\t').next().unwrap().parse().unwrap()
}

/// Records per `send --rules --lines 8` burst.
fn hitting_burst(tcp: u16, hour: &str) -> u64 {
    send_counted(
        tcp,
        &[
            "--hour",
            hour,
            "--rules",
            rules_file().to_str().unwrap(),
            "--lines",
            "8",
        ],
    )
}

#[test]
fn chaos_daemon_stays_up_sheds_exactly_and_readmits_flapped_sources() {
    let ckpt = scratch("chaos-ckpt");
    let d = Daemon::start("chaos", &ckpt, &["--chaos", "--queue-capacity", "64"]);

    // Baseline traffic: every line hits every rule.
    let records = hitting_burst(d.tcp, "0");
    d.wait_records(records);
    let detections = d.get("/detections");
    assert!(
        detections.contains("\"count\":8"),
        "expected 8 detected lines: {detections}"
    );

    // Forced shard panic: supervision respawns and replays; a stall is
    // healed by the watchdog. The daemon keeps answering throughout.
    let _ = d.post("/admin/panic?shard=1");
    let _ = d.post("/admin/stall?shard=0&ms=700");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = d.stats();
        if s["watchdog"]["respawns"].as_u64().unwrap() >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never respawned the panicked shard"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // 2× overload: slow the engine so the bounded queue (64) fills,
    // then burst over UDP. Shedding must be exact and attributed.
    let _ = d.post("/admin/slow?us=3000");
    send(&[
        "--port",
        &d.udp.to_string(),
        "--mode",
        "udp",
        "--records",
        "5000",
        "--source",
        "44",
    ]);
    let _ = d.post("/admin/slow?us=0");
    std::thread::sleep(Duration::from_millis(500));
    let s = d.stats();
    let (received, admitted, shed) = (
        s["received"].as_u64().unwrap(),
        s["admitted"].as_u64().unwrap(),
        s["shed"].as_u64().unwrap(),
    );
    assert!(shed > 0, "overload burst shed nothing: {s}");
    assert_eq!(
        received,
        admitted + shed,
        "shed accounting does not balance: {s}"
    );
    let by_source = s["shed_by_source"].as_array().unwrap();
    let shed_44: u64 = by_source
        .iter()
        .filter(|row| row[0].as_u64() == Some(44))
        .map(|row| row[1].as_u64().unwrap())
        .sum();
    assert_eq!(
        shed_44, shed,
        "shed not attributed to the bursting source: {s}"
    );

    // Malformed flood: source 99 is quarantined after consecutive bad
    // messages, then re-admitted (probation → healthy) by clean sends.
    send(&[
        "--port",
        &d.tcp.to_string(),
        "--mode",
        "tcp",
        "--source",
        "99",
        "--records",
        "600",
        "--malformed",
        "10",
    ]);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let sources = d.get("/sources");
        if sources.contains("\"id\":99,\"health\":\"quarantined\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "source 99 never quarantined: {sources}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    for _ in 0..6 {
        send(&[
            "--port",
            &d.tcp.to_string(),
            "--mode",
            "tcp",
            "--source",
            "99",
            "--records",
            "300",
        ]);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let sources = d.get("/sources");
        if sources.contains("\"id\":99,\"health\":\"healthy\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "source 99 never re-admitted: {sources}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // After all injected faults the daemon is still live, ready, and no
    // detection evidence was lost: every line detected before the chaos
    // is still detected (background traffic may only have *added*).
    assert_eq!(d.get("/healthz"), "ok\n");
    let ready: serde_json::Value = serde_json::from_str(&d.get("/readyz")).unwrap();
    assert_eq!(
        ready["ready"].as_bool(),
        Some(true),
        "not ready after chaos: {ready}"
    );
    assert_eq!(
        ready["degraded"].as_array().map(Vec::len),
        Some(0),
        "degraded shards: {ready}"
    );
    let before: serde_json::Value = serde_json::from_str(&detections).unwrap();
    let after: serde_json::Value = serde_json::from_str(&d.get("/detections")).unwrap();
    for class in before["classes"].as_array().unwrap() {
        let name = class["class"].as_str().unwrap();
        let survived = after["classes"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["class"] == class["class"])
            .unwrap_or_else(|| panic!("class {name} vanished after chaos"));
        let lines = survived["lines"].as_array().unwrap();
        for line in class["lines"].as_array().unwrap() {
            assert!(
                lines.contains(line),
                "line {line} lost from {name} after panic/stall/overload"
            );
        }
    }
    let metrics = d.get("/metrics");
    assert!(
        metrics.contains("haystack_serve_shed"),
        "shed gauge missing from /metrics"
    );

    d.drain();
    assert!(
        std::fs::read_dir(&ckpt).unwrap().count() > 0,
        "drained daemon left no checkpoint"
    );
}

/// `/readyz` parsed, whatever its status.
fn readyz(d: &Daemon) -> (u16, serde_json::Value) {
    let (status, body) = d.http("GET", "/readyz");
    (
        status,
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("/readyz {body:?}: {e:?}")),
    )
}

#[test]
fn reset_breaker_brings_a_crash_looped_shard_back_without_a_restart() {
    let ckpt = scratch("breaker-ckpt");
    let d = Daemon::start("breaker", &ckpt, &["--chaos"]);
    let records = hitting_burst(d.tcp, "0");
    d.wait_records(records);
    let baseline = d.get("/detections");
    assert!(
        baseline.contains("\"count\":8"),
        "expected 8 detected lines: {baseline}"
    );

    // Only a degraded shard can be reset; a bad shard is the caller's error.
    assert_eq!(d.http("POST", "/admin/reset-breaker").0, 400);
    assert_eq!(d.http("POST", "/admin/reset-breaker?shard=3").0, 400);
    assert_eq!(d.http("POST", "/admin/reset-breaker?shard=1").0, 409);
    assert_eq!(d.http("GET", "/admin/reset-breaker?shard=1").0, 405);

    // Crash loop: each panic is observed (and healed) by the query that
    // follows it, until the fifth death inside the fast window opens
    // the breaker. The query itself fails once the shard is degraded.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let _ = d.http("POST", "/admin/panic?shard=1");
        let _ = d.http("GET", "/detections");
        let (status, ready) = readyz(&d);
        if status == 503 {
            assert_eq!(ready["ready"].as_bool(), Some(false), "{ready}");
            assert_eq!(ready["degraded"], serde_json::json!([1]), "{ready}");
            break;
        }
        assert!(Instant::now() < deadline, "breaker never opened: {ready}");
    }

    // The same lines again, an hour later: shard 1's share queues, the
    // other shards keep ingesting.
    let more = hitting_burst(d.tcp, "1");
    d.wait_records(records + more);
    let queued = d.stats()["shards"][1]["queued"].as_u64().unwrap();
    assert!(queued > 0, "nothing queued for the degraded shard");

    let reset = d.post("/admin/reset-breaker?shard=1");
    assert_eq!(reset, "{\"shard\":1,\"reset\":true}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, ready) = readyz(&d);
        if status == 200 && ready["shards"][1]["status"].as_str() == Some("ok") {
            assert_eq!(ready["degraded"], serde_json::json!([]), "{ready}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shard 1 never came back: {ready}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let shard = &d.stats()["shards"][1];
    assert_eq!(
        shard["queued"].as_u64(),
        Some(0),
        "queue not replayed: {shard}"
    );
    assert_eq!(
        shard["shed"].as_u64(),
        Some(0),
        "records shed below the queue bound: {shard}"
    );
    assert_eq!(
        d.get("/detections"),
        baseline,
        "evidence lost across the crash loop"
    );
    d.drain();
}

/// Every query surface whose bytes must survive a restart. `/stats` is
/// deliberately excluded: counters restart from the checkpoint, but the
/// watchdog-probe count is wall-clock dependent.
fn query_snapshot(d: &Daemon) -> Vec<(String, String)> {
    [
        "/detections",
        "/detections?class=Alexa+Enabled",
        "/usage",
        "/staleness",
        "/line?id=3112275008770825849",
        "/sources",
    ]
    .iter()
    .map(|t| (t.to_string(), d.get(t)))
    .collect()
}

#[test]
fn sigterm_restart_answers_queries_byte_identical_to_an_uninterrupted_run() {
    // Reference: one daemon sees both halves of the stream.
    let ref_ckpt = scratch("ref-ckpt");
    let reference = Daemon::start("ref", &ref_ckpt, &[]);
    let half1 = hitting_burst(reference.tcp, "0");
    let half2 = hitting_burst(reference.tcp, "5");
    reference.wait_records(half1 + half2);
    let want = query_snapshot(&reference);
    reference.drain();

    // Subject: half the stream, SIGTERM, restart --resume, the rest.
    let sub_ckpt = scratch("sub-ckpt");
    let subject = Daemon::start("sub1", &sub_ckpt, &[]);
    let got1 = hitting_burst(subject.tcp, "0");
    assert_eq!(got1, half1);
    subject.wait_records(half1);
    subject.sigterm();

    let subject = Daemon::start("sub2", &sub_ckpt, &["--resume"]);
    let carried = subject.stats()["records"].as_u64().unwrap();
    assert_eq!(carried, half1, "restarted daemon lost checkpointed records");
    assert!(
        subject.metric("haystack_checkpoint_restores") >= 1,
        "the restore went uncounted"
    );
    let got2 = hitting_burst(subject.tcp, "5");
    assert_eq!(got2, half2);
    subject.wait_records(half1 + half2);
    let got = query_snapshot(&subject);
    subject.drain();

    for ((t, want), (_, got)) in want.iter().zip(got.iter()) {
        assert_eq!(got, want, "{t} diverges after SIGTERM + resume restart");
    }
}

#[test]
fn resume_falls_back_past_a_corrupt_generation_and_refuses_a_future_version() {
    // Generation 0 holds the first burst, generation 1 (the SIGTERM
    // drain's) both.
    let ckpt = scratch("rot-ckpt");
    let d = Daemon::start("rot1", &ckpt, &[]);
    let half1 = hitting_burst(d.tcp, "0");
    d.wait_records(half1);
    let want = query_snapshot(&d);
    assert!(d.post("/admin/checkpoint").contains("\"generation\":0"));
    let half2 = hitting_burst(d.tcp, "5");
    d.wait_records(half1 + half2);
    d.sigterm();

    // Bit rot in the newest generation: the restart answers from the
    // previous one — the first burst only — and counts what it skipped.
    let newest = ckpt.join("serve-00000001.ckpt");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&newest, bytes).unwrap();
    let d = Daemon::start("rot2", &ckpt, &["--resume"]);
    assert_eq!(
        d.stats()["records"].as_u64().unwrap(),
        half1,
        "did not fall back to generation 0"
    );
    for ((t, want), (_, got)) in want.iter().zip(query_snapshot(&d).iter()) {
        assert_eq!(got, want, "{t} is not generation 0's answer");
    }
    assert_eq!(d.metric("haystack_checkpoint_corrupt_skipped"), 1);
    assert_eq!(d.metric("haystack_checkpoint_restores"), 1);
    d.drain();

    // A checksum-valid frame from a "future" build is version skew, not
    // rot: falling back would silently serve an older state, so the
    // daemon refuses to start and names the generation.
    let future = seal(b"HAYSRVC\0", 99, &[0; 8]);
    let generation = CheckpointDir::open(&ckpt)
        .unwrap()
        .write("serve", &future)
        .unwrap();
    let out = Command::new(BIN)
        .args([
            "serve",
            "--resume",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ])
        .arg("--rules")
        .arg(rules_file())
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a future-version checkpoint was accepted"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("generation {generation}")),
        "{stderr}"
    );
    assert!(stderr.contains("version 99"), "{stderr}");
}

/// Seal the pipeline's rule set minus one class into a pack file.
fn pack_without(dir: &Path, name: &str, drop: &str) -> PathBuf {
    let rules = &pipeline().rules;
    let mut b = RuleSetBuilder::new();
    for r in &rules.rules {
        let class = rules.class_name(r.class);
        if class == drop {
            continue;
        }
        let parent = r.parent.map(|p| rules.class_name(p)).filter(|p| *p != drop);
        b.rule(class, r.level, parent, r.domains.clone());
    }
    let pack = SignaturePack {
        rules: b.build(),
        threshold: 0.4,
        source: format!("serve_daemon e2e, minus {drop}"),
        comment: String::new(),
    };
    let path = dir.join(name);
    std::fs::write(&path, pack.encode()).unwrap();
    path
}

/// Seal one class of the pipeline's rule set, unparented, into a pack
/// file: `send --rules` on it hits that class's keys and nothing else.
fn pack_only(dir: &Path, name: &str, class: &str) -> PathBuf {
    let rules = &pipeline().rules;
    let mut b = RuleSetBuilder::new();
    for r in rules
        .rules
        .iter()
        .filter(|r| rules.class_name(r.class) == class)
    {
        b.rule(class, r.level, None, r.domains.clone());
    }
    let pack = SignaturePack {
        rules: b.build(),
        threshold: 0.4,
        source: format!("serve_daemon e2e, only {class}"),
        comment: String::new(),
    };
    let path = dir.join(name);
    std::fs::write(&path, pack.encode()).unwrap();
    path
}

/// Classes no other rule claims as parent — safe to drop from a pack
/// without dangling the hierarchy.
fn leaf_classes(rules: &RuleSet) -> Vec<&str> {
    rules
        .rules
        .iter()
        .filter(|r| !rules.rules.iter().any(|o| o.parent == Some(r.class)))
        .map(|r| rules.class_name(r.class))
        // "Alexa Enabled" stays: `query_snapshot` filters on it by name.
        .filter(|c| *c != "Alexa Enabled")
        .collect()
}

#[test]
fn reload_rules_swaps_pack_mid_stream_without_evidence_loss() {
    let rules = &pipeline().rules;
    let leaves = leaf_classes(rules);
    assert!(
        leaves.len() >= 2,
        "need two leaf classes to add/remove: {leaves:?}"
    );
    let added = leaves[0]; // absent from pack A, present in pack B
    let removed = leaves[1]; // present in pack A, absent from pack B
    let packs = scratch("reload-packs");
    let pack_a = pack_without(&packs, "a.hsp", added);
    let pack_b = pack_without(&packs, "b.hsp", removed);

    let class_names = |v: &serde_json::Value| -> Vec<String> {
        v["classes"]
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c["class"].as_str().unwrap().to_string())
            .collect()
    };
    let count_of = |v: &serde_json::Value, class: &str| -> Option<u64> {
        v["classes"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["class"].as_str() == Some(class))
            .map(|c| c["count"].as_u64().unwrap())
    };

    let ckpt = scratch("reload-ckpt");
    let d = Daemon::start_with_rules("reload1", &ckpt, &[], &pack_a);

    // First half of the stream: the burst hits every rule of the *full*
    // set, but the daemon only knows pack A.
    let half1 = hitting_burst(d.tcp, "0");
    d.wait_records(half1);
    let before: serde_json::Value = serde_json::from_str(&d.get("/detections")).unwrap();
    assert!(
        !class_names(&before).contains(&added.to_string()),
        "pack A must not know {added}"
    );
    assert!(
        count_of(&before, removed).unwrap() > 0,
        "{removed} undetected before reload"
    );

    // Swap packs mid-stream: adds `added`, removes `removed`.
    let reply = d.post(&format!("/admin/reload-rules?path={}", pack_b.display()));
    assert!(
        reply.contains("\"reloaded\":true"),
        "unexpected reload reply: {reply}"
    );

    let after: serde_json::Value = serde_json::from_str(&d.get("/detections")).unwrap();
    assert!(
        !class_names(&after).contains(&removed.to_string()),
        "{removed} still served after a reload that dropped it"
    );
    assert_eq!(
        count_of(&after, added),
        Some(0),
        "{added} must appear (still evidence-free) right after the reload"
    );
    // No evidence loss: every unchanged rule keeps its detected lines.
    for class in before["classes"].as_array().unwrap() {
        let name = class["class"].as_str().unwrap();
        if name == removed {
            continue;
        }
        let kept = after["classes"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["class"] == class["class"])
            .unwrap_or_else(|| panic!("class {name} vanished across the reload"));
        assert_eq!(
            kept["lines"], class["lines"],
            "evidence lost for {name} across the reload"
        );
    }

    // Hits for the added class alone. Pack B's hitlist holds every one
    // of them, so the decoder's gate — swapped with the pack — turns
    // none away; a gate left on pack A would silently drop each key A's
    // fingerprint rejects, and there must be some.
    let pack_a_rules = SignaturePack::load(&std::fs::read(&pack_a).unwrap())
        .unwrap()
        .rules;
    let pack_a_hitlist = HitList::whole_window(&pack_a_rules);
    let added_rule = rules.rule(added).unwrap();
    let novel = added_rule
        .domains
        .iter()
        .flat_map(|dom| {
            dom.ips
                .iter()
                .flat_map(move |&ip| dom.ports.iter().map(move |&p| (ip, p)))
        })
        .filter(|&(ip, port)| !pack_a_hitlist.admits(ip, port))
        .count();
    assert!(
        novel > 0,
        "every key of {added} passes pack A's gate: the check below proves nothing"
    );
    let only_added = pack_only(&packs, "added.hsp", added);
    let rejected = d.stats()["parse_rejected"].as_u64().unwrap();
    let own = send_counted(
        d.tcp,
        &[
            "--hour",
            "3",
            "--rules",
            only_added.to_str().unwrap(),
            "--lines",
            "8",
        ],
    );
    d.wait_records(half1 + own);
    assert_eq!(
        d.stats()["parse_rejected"].as_u64().unwrap(),
        rejected,
        "the gate turned away hits of {added} after the reload"
    );
    let own_hits: serde_json::Value = serde_json::from_str(&d.get("/detections")).unwrap();
    assert!(
        count_of(&own_hits, added).unwrap() > 0,
        "{added} undetected from its own hits"
    );

    // Second half of the stream: the added rule lights up.
    let half2 = hitting_burst(d.tcp, "5");
    d.wait_records(half1 + own + half2);
    let lit: serde_json::Value = serde_json::from_str(&d.get("/detections")).unwrap();
    assert!(
        count_of(&lit, added).unwrap() > 0,
        "{added} never detected after the reload"
    );

    // SIGTERM + --resume: the reloaded pack survives the restart — the
    // stale pack A on the command line must lose to the checkpoint.
    let want = query_snapshot(&d);
    d.sigterm();
    let d = Daemon::start_with_rules("reload2", &ckpt, &["--resume"], &pack_a);
    assert_eq!(d.stats()["records"].as_u64().unwrap(), half1 + own + half2);
    let got = query_snapshot(&d);
    for ((t, want), (_, got)) in want.iter().zip(got.iter()) {
        assert_eq!(
            got, want,
            "{t} diverges after SIGTERM + resume with a reloaded pack"
        );
    }
    let resumed: serde_json::Value = serde_json::from_str(&d.get("/detections")).unwrap();
    assert!(!class_names(&resumed).contains(&removed.to_string()));
    assert!(count_of(&resumed, added).unwrap() > 0);
    d.drain();
}

/// The serve conservation identity, over one process lifetime: every
/// record decoded is either turned away by the decoder's fingerprint
/// gate (`parse_rejected`) or handed to the pool (`records_in`). Misses
/// change no answer on the way.
#[test]
fn every_decoded_record_is_parse_rejected_or_reaches_the_pool() {
    let d = Daemon::start("conserve", &scratch("conserve-ckpt"), &[]);
    let hits = hitting_burst(d.tcp, "0");
    d.wait_records(hits);
    let surfaces = ["/detections", "/usage", "/staleness"];
    let before: Vec<String> = surfaces.iter().map(|t| d.get(t)).collect();
    let misses = send_counted(d.tcp, &["--records", "50000"]);
    d.wait_records(hits + misses);
    let after: Vec<String> = surfaces.iter().map(|t| d.get(t)).collect();
    assert_eq!(after, before, "background misses changed an answer");

    // The engine publishes its gauges on the watchdog tick.
    let deadline = Instant::now() + Duration::from_secs(30);
    while d.try_metric("haystack_serve_records_decoded") < Some(hits + misses) {
        assert!(
            Instant::now() < deadline,
            "records_decoded never reached {}",
            hits + misses
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let rejected = d.metric("haystack_serve_parse_rejected");
    let pooled = d.metric("haystack_pool_records_in");
    assert_eq!(
        rejected + pooled,
        hits + misses,
        "rejected {rejected} + pooled {pooled}"
    );
    assert_eq!(d.stats()["parse_rejected"].as_u64().unwrap(), rejected);
    assert!(pooled >= hits, "every rule hit passes the gate");
    assert!(
        rejected > misses / 2,
        "most background records are proven misses"
    );
    d.drain();
}

#[test]
fn serve_takes_its_threshold_from_the_loaded_pack() {
    // The fast(7) rules re-sealed at D = 0.9; the daemon gets no
    // --threshold, so its checkpoint must record the pack's D.
    let pack = scratch("d09-pack").join("d09.hsp");
    let out = Command::new(BIN)
        .args([
            "rules",
            "export",
            "--quiet",
            "--threshold",
            "0.9",
            "--rules",
        ])
        .arg(rules_file())
        .arg("--out")
        .arg(&pack)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ckpt = scratch("d09-ckpt");
    let d = Daemon::start_with_rules("d09a", &ckpt, &[], &pack);
    let records = hitting_burst(d.tcp, "0");
    d.wait_records(records);
    d.sigterm();

    // Confirming that D on resume is no conflict.
    let d = Daemon::start_with_rules("d09b", &ckpt, &["--resume", "--threshold", "0.9"], &pack);
    assert_eq!(d.stats()["records"].as_u64().unwrap(), records);
    d.drain();
}

/// The HTTP plane's handler-thread cap and whole-head deadline
/// (`MAX_HANDLERS`, `HEAD_DEADLINE` in `serve/http.rs`).
const HANDLER_CAP: usize = 8;
const HEAD_DEADLINE: Duration = Duration::from_secs(5);

/// Wall time of one `GET target` that must answer 200.
fn timed_get(d: &Daemon, target: &str) -> Duration {
    let t0 = Instant::now();
    d.get(target);
    t0.elapsed()
}

#[test]
fn idle_daemon_answers_line_queries_without_waiting_out_a_poll() {
    let ckpt = scratch("idle-ckpt");
    let d = Daemon::start("idle", &ckpt, &[]);
    d.get("/readyz");
    // Nothing arrives between the queries: every one finds the engine
    // parked and has to wake it.
    let mut took: Vec<Duration> = (0..20)
        .map(|i| timed_get(&d, &format!("/line?id={i}")))
        .collect();
    took.sort_unstable();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "idle /line median {median:?}: {took:?}"
    );
    d.drain();
}

/// A client that sends half a request line and then nothing.
fn stalled_client(d: &Daemon) -> TcpStream {
    let mut stream = d.connect();
    stream.write_all(b"GET /li").unwrap();
    stream
}

#[test]
fn stalled_clients_delay_nobody_and_are_closed_by_the_head_deadline() {
    let ckpt = scratch("stall-ckpt");
    let d = Daemon::start("stall", &ckpt, &[]);
    d.get("/readyz");

    // One stalled client: the plane answers around it at once (best of
    // three, so one scheduling hiccup on a busy host is not a failure).
    let opened = Instant::now();
    let mut stalled = stalled_client(&d);
    let best = (0..3).map(|_| timed_get(&d, "/readyz")).min().unwrap();
    assert!(
        best < Duration::from_millis(100),
        "/readyz behind a stalled client: {best:?}"
    );
    // ... and the stalled client is told 400 when its head deadline
    // passes — once, for the whole head, not per read.
    let (status, _) = read_response(&mut stalled).expect("stalled client was reset, not answered");
    let held = opened.elapsed();
    assert_eq!(status, 400);
    assert!(
        held >= HEAD_DEADLINE - Duration::from_millis(200)
            && held < HEAD_DEADLINE + Duration::from_secs(2),
        "stalled client held {held:?}"
    );

    // More stalled clients than handler threads: the cap serves one on
    // the accept thread, so a query waits — for one head deadline, not
    // for as long as the clients care to stall.
    let opened = Instant::now();
    let mut stalled: Vec<TcpStream> = (0..HANDLER_CAP + 2).map(|_| stalled_client(&d)).collect();
    let waited = timed_get(&d, "/readyz");
    assert!(
        waited < HEAD_DEADLINE + Duration::from_millis(1_500),
        "/readyz behind {} stalled clients: {waited:?}",
        stalled.len()
    );
    for (i, stream) in stalled.iter_mut().enumerate() {
        let (status, _) = read_response(stream).expect("stalled client was reset, not answered");
        assert_eq!(status, 400, "stalled client {i}");
    }
    assert!(opened.elapsed() < 2 * HEAD_DEADLINE + Duration::from_secs(2));
    d.drain();
}

fn serve_checkpoints(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("serve-") && name.ends_with(".ckpt")
        })
        .count()
}

#[test]
fn drain_and_sigterm_exit_promptly_with_the_final_checkpoint_written() {
    // /admin/drain: the 200 arrives whole, then the process is gone
    // within half a second, its final checkpoint on disk.
    let ckpt = scratch("prompt-drain-ckpt");
    let mut d = Daemon::start("prompt-drain", &ckpt, &[]);
    d.get("/readyz");
    assert_eq!(d.post("/admin/drain"), "{\"draining\":true}");
    let answered = Instant::now();
    let status = d.child.wait().unwrap();
    let took = answered.elapsed();
    assert!(
        status.success(),
        "drained daemon exited nonzero: {status:?}"
    );
    assert!(
        took < Duration::from_millis(500),
        "drain to exit took {took:?}"
    );
    assert_eq!(
        serve_checkpoints(&ckpt),
        1,
        "no final checkpoint after /admin/drain"
    );
    // The listener is closed, not hanging: a late client is refused.
    assert!(TcpStream::connect(("127.0.0.1", d.http)).is_err());

    // SIGTERM: the handler only sets a flag, so the orchestrator's 50 ms
    // look at it is the one poll left on this path.
    let ckpt = scratch("prompt-term-ckpt");
    let mut d = Daemon::start("prompt-term", &ckpt, &[]);
    d.get("/readyz");
    d.signal_term();
    let signalled = Instant::now();
    let status = d.child.wait().unwrap();
    let took = signalled.elapsed();
    assert!(
        status.success(),
        "daemon SIGTERM exited nonzero: {status:?}"
    );
    assert!(
        took < Duration::from_millis(500),
        "SIGTERM to exit took {took:?}"
    );
    assert_eq!(
        serve_checkpoints(&ckpt),
        1,
        "no final checkpoint after SIGTERM"
    );
}

#[test]
fn requests_in_flight_during_a_drain_are_answered_not_dropped() {
    let ckpt = scratch("race-ckpt");
    let mut d = Daemon::start("race", &ckpt, &[]);
    d.get("/readyz");
    // Connected before the drain, asking during it: each of these has a
    // handler already waiting for its head when the flag goes up.
    let targets = [
        "/readyz",
        "/stats",
        "/line?id=7",
        "/readyz",
        "/detections",
        "/line?id=8",
    ];
    let mut racers: Vec<TcpStream> = targets.iter().map(|_| d.connect()).collect();
    assert_eq!(d.post("/admin/drain"), "{\"draining\":true}");
    for (stream, target) in racers.iter_mut().zip(targets) {
        // A refused write would be the daemon already gone: it may not
        // leave while these are in flight.
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
    }
    for (stream, target) in racers.iter_mut().zip(targets) {
        let (status, body) =
            read_response(stream).unwrap_or_else(|e| panic!("GET {target} during the drain: {e}"));
        assert!(
            matches!(status, 200 | 503),
            "GET {target} during the drain -> {status}: {body}"
        );
        if target == "/readyz" {
            assert_eq!((status, body.as_str()), (503, "draining\n"));
        }
    }
    let status = d.child.wait().unwrap();
    assert!(
        status.success(),
        "drained daemon exited nonzero: {status:?}"
    );
    assert_eq!(serve_checkpoints(&ckpt), 1);
}
