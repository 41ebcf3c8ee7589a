//! Crash-injection oracle for `haystack detect --checkpoint-dir`
//! (DESIGN.md §12): SIGKILL the process mid-stream, resume from the
//! checkpoint directory, and diff stdout byte-for-byte against an
//! uninterrupted run. Also proves the corruption fallback: bit-flipping
//! the newest checkpoint generation makes resume fall back to the
//! previous one — same byte-identical output, no panic. The rule file
//! those runs load is checked here too: `rules export` writes the one
//! default pack, and anything but a pack is refused.

use haystack_cli::resume::RunCheckpoint;
use haystack_core::pack::SignaturePack;
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_core::CheckpointDir;
use haystack_net::snapshot::{seal, SnapWriter};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_haystack");

/// Detect flags shared by every run in this file. Four days at modest
/// scale: the second checkpoint generation lands within the first
/// tenth of the run, so the kill always lands mid-stream, and the run is
/// still short enough for CI.
const DETECT: &[&str] = &[
    "detect",
    "--lines",
    "3000",
    "--days",
    "4",
    "--seed",
    "7",
    "--workers",
    "3",
    "--quiet",
];

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("haystack-kill-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fast(7) rules as a signature pack on disk, generated once for
/// the whole test binary.
fn rules_file() -> &'static Path {
    static FILE: OnceLock<PathBuf> = OnceLock::new();
    FILE.get_or_init(|| {
        let p = Pipeline::run(PipelineConfig::fast(7));
        let path = scratch("rules").join("rules.hsp");
        let pack = SignaturePack {
            rules: p.rules.as_ref().clone(),
            threshold: 0.4,
            source: "generate(fast,seed=7)".into(),
            comment: String::new(),
        };
        std::fs::write(&path, pack.encode()).unwrap();
        path
    })
}

fn detect_cmd(extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(DETECT)
        .arg("--rules")
        .arg(rules_file())
        .args(extra);
    cmd
}

fn run_to_string(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn ckpt_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Start a checkpointed run, SIGKILL it once at least two checkpoint
/// generations exist, and return the checkpoint directory.
fn crashed_run() -> PathBuf {
    let dir = scratch("ckpt");
    let mut child = detect_cmd(&["--checkpoint-dir", dir.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if ckpt_files(&dir).len() >= 2 {
            child.kill().unwrap(); // SIGKILL on unix — no cleanup runs
            break;
        }
        assert!(
            child.try_wait().unwrap().is_none(),
            "the run finished before the kill"
        );
        assert!(
            Instant::now() < deadline,
            "no checkpoints appeared in 120 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.wait();
    assert!(
        !ckpt_files(&dir).is_empty(),
        "killed run left no checkpoint"
    );
    dir
}

#[test]
fn sigkill_then_resume_is_byte_identical() {
    let clean = run_to_string(&mut detect_cmd(&[]));
    assert!(clean.lines().count() > 1, "clean run produced no rows");

    let dir = crashed_run();
    let resumed = run_to_string(&mut detect_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
    ]));
    assert_eq!(
        resumed, clean,
        "resumed stdout diverges from the uninterrupted run"
    );

    // A second resume replays the completed run verbatim from its
    // done-marked checkpoint without recomputing anything.
    let replayed = run_to_string(&mut detect_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
    ]));
    assert_eq!(replayed, clean);

    // Corruption fallback: flip bits throughout the newest generation.
    // The checksum rejects it, resume falls back to the previous
    // generation and recomputes the tail — same bytes, no panic.
    let files = ckpt_files(&dir);
    assert!(
        files.len() >= 2,
        "expected two retained generations, got {files:?}"
    );
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    for i in (0..bytes.len()).step_by(7) {
        bytes[i] ^= 0x5A;
    }
    std::fs::write(newest, bytes).unwrap();
    let fallback = run_to_string(&mut detect_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
    ]));
    assert_eq!(fallback, clean, "fallback resume diverges");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn events_stream_survives_sigkill_and_resume_byte_identical() {
    // Reference: the NDJSON event stream of an uninterrupted run.
    let clean_path = scratch("events-clean").join("clean.ndjson");
    run_to_string(&mut detect_cmd(&["--events", clean_path.to_str().unwrap()]));
    let want = std::fs::read_to_string(&clean_path).unwrap();
    assert!(!want.is_empty(), "clean run emitted no events");

    // Crash a checkpointed run writing the same stream, then resume it
    // against the same file — the result must be byte-identical, with
    // no day lost and no day duplicated.
    let dir = scratch("events-ckpt");
    let events = scratch("events-out").join("events.ndjson");
    let mut child = detect_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--events",
        events.to_str().unwrap(),
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if ckpt_files(&dir).len() >= 2 {
            child.kill().unwrap();
            break;
        }
        assert!(
            child.try_wait().unwrap().is_none(),
            "the run finished before the kill"
        );
        assert!(
            Instant::now() < deadline,
            "no checkpoints appeared in 120 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.wait();

    run_to_string(&mut detect_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
        "--events",
        events.to_str().unwrap(),
    ]));
    assert_eq!(
        std::fs::read_to_string(&events).unwrap(),
        want,
        "event stream diverges after SIGKILL + resume"
    );
}

/// Run a command expecting failure; return its stderr.
fn run_to_failure(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert!(
        !out.status.success(),
        "expected failure, got success with stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn sigterm_drains_to_a_final_checkpoint_and_resumes_byte_identical() {
    let clean = run_to_string(&mut detect_cmd(&[]));

    let dir = scratch("sigterm");
    let mut child = detect_cmd(&["--checkpoint-dir", dir.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Wait until the run is demonstrably mid-stream (one durable
    // generation), then ask for a graceful drain.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if !ckpt_files(&dir).is_empty() {
            let sent = Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .unwrap()
                .success();
            assert!(sent, "SIGTERM not delivered");
            break;
        }
        assert!(
            child.try_wait().unwrap().is_none(),
            "the run finished before the drain request"
        );
        assert!(
            Instant::now() < deadline,
            "no checkpoints appeared in 120 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    // Unlike SIGKILL, a drain is an orderly exit: status 0, and when the
    // signal landed mid-run the process says what it checkpointed.
    assert!(
        out.status.success(),
        "SIGTERM drain exited nonzero: {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    if stderr.contains("sigterm") {
        assert!(
            stderr.contains("checkpointed"),
            "drain message missing: {stderr}"
        );
    }
    assert!(
        !ckpt_files(&dir).is_empty(),
        "drained run left no checkpoint"
    );

    let resumed = run_to_string(&mut detect_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
    ]));
    assert_eq!(
        resumed, clean,
        "post-SIGTERM resume diverges from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skew_refuses_resume_and_names_the_generation() {
    // A directory holding one valid-checksum frame from a "future"
    // snapshot format version: resume must refuse loudly rather than
    // silently recompute or misparse.
    let dir = scratch("skew");
    let ckpt = CheckpointDir::open(&dir).unwrap();
    let mut w = SnapWriter::new();
    w.put_u64(0xDEAD);
    let future = seal(
        RunCheckpoint::MAGIC,
        RunCheckpoint::VERSION + 1,
        &w.into_bytes(),
    );
    let generation = ckpt.write(RunCheckpoint::PREFIX, &future).unwrap();

    let stderr = run_to_failure(&mut detect_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
    ]));
    assert!(
        stderr.contains(&format!("generation {generation}")),
        "error does not name the generation: {stderr}"
    );
    assert!(
        stderr.contains(&format!("version {}", RunCheckpoint::VERSION + 1)),
        "error does not name the found version: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn conflicting_flag_refuses_resume_and_names_the_field() {
    let dir = crashed_run();
    // The checkpointed run used --lines 3000; resuming under a
    // different synthetic-universe size would silently answer for the
    // wrong world, so it must be refused by name.
    let mut cmd = Command::new(BIN);
    cmd.args([
        "detect",
        "--lines",
        "4321",
        "--days",
        "4",
        "--seed",
        "7",
        "--workers",
        "3",
        "--quiet",
    ])
    .arg("--rules")
    .arg(rules_file())
    .args(["--checkpoint-dir", dir.to_str().unwrap(), "--resume"]);
    let stderr = run_to_failure(&mut cmd);
    assert!(
        stderr.contains("--lines"),
        "error does not name the flag: {stderr}"
    );
    assert!(
        stderr.contains("4321"),
        "error does not echo the flag value: {stderr}"
    );
    assert!(
        stderr.contains("generation"),
        "error does not name the generation: {stderr}"
    );

    // `soak` shares the frame format and the `run` prefix: resuming this
    // directory as a soak would run another stream with `hours = days`.
    let mut cmd = Command::new(BIN);
    cmd.args(["soak", "--quiet", "--rules"])
        .arg(rules_file())
        .args(["--checkpoint-dir", dir.to_str().unwrap(), "--resume"]);
    let stderr = run_to_failure(&mut cmd);
    assert!(
        stderr.contains("`haystack detect`"),
        "error does not name the writer: {stderr}"
    );
    assert!(
        stderr.contains("generation"),
        "error does not name the generation: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_a_checkpoint_starts_fresh_and_matches() {
    let clean = run_to_string(&mut detect_cmd(&[]));
    let dir = scratch("fresh");
    let resumed = run_to_string(&mut detect_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
    ]));
    assert_eq!(resumed, clean, "fresh --resume diverges from a plain run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `haystack rules export` with the given flags, into `out`.
fn export(args: &[&str], out: &Path) -> std::process::Output {
    Command::new(BIN)
        .args(["rules", "export", "--quiet"])
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .unwrap()
}

#[test]
fn the_default_pack_is_the_seed_42_pack() {
    let dir = scratch("default-pack");
    let (default, seeded) = (dir.join("default.hsp"), dir.join("seed42.hsp"));
    assert!(export(&[], &default).status.success());
    assert!(export(&["--seed", "42"], &seeded).status.success());
    assert_eq!(
        std::fs::read(&default).unwrap(),
        std::fs::read(&seeded).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rules_file_that_is_not_a_pack_is_refused_by_path() {
    let dir = scratch("json-rules");
    let json = dir.join("rules.json");
    std::fs::write(&json, "{\"format_version\":1,\"rules\":[]}").unwrap();
    let out = Command::new(BIN)
        .args(DETECT)
        .arg("--rules")
        .arg(&json)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(json.to_str().unwrap()),
        "error does not name the file: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn export_refuses_rules_together_with_seed() {
    let dir = scratch("export-conflict");
    let pack = rules_file().to_str().unwrap();
    let out = export(&["--rules", pack, "--seed", "1"], &dir.join("x.hsp"));
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("x.hsp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
