//! Soak-scale crash oracle for `haystack soak --checkpoint-dir`
//! (DESIGN.md §12): a 10⁶-line soak is SIGKILLed mid-stream with an
//! incremental delta chain on disk, resumed, and its stdout, final
//! detections file, and NDJSON event stream are diffed byte-for-byte
//! against an uninterrupted run.
//!
//! This is the wild-scale companion to `kill_resume.rs`: same contract,
//! but the state being recovered is dominated by dirty-only `.dckpt`
//! frames chained onto periodic fulls, not standalone full snapshots —
//! the kill is timed so at least two delta frames exist when it lands.

use haystack_core::pack::SignaturePack;
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_haystack");

/// One soak shape for every run in this file: a full 10⁶-line
/// population, ~99% miss rate, three simulated hours. `--checkpoint-
/// chunks 4` makes saves land every few chunks so the SIGKILL window is
/// wide and the chain holds many deltas per full anchor. 10.5 M records:
/// the second delta frame lands within a few tens of ms, and the run
/// lasts hundreds of ms even in release, so the kill always lands.
const SOAK: &[&str] = &[
    "soak",
    "--lines",
    "1000000",
    "--hours",
    "3",
    "--records-per-hour",
    "3500000",
    "--hit-rate-ppm",
    "10000",
    "--seed",
    "11",
    "--workers",
    "3",
    "--checkpoint-chunks",
    "4",
    "--quiet",
];

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("haystack-soak-resume-{}-{tag}", std::process::id()));
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

fn soak_cmd(extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(SOAK).arg("--rules").arg(rules_file()).args(extra);
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

fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == ext))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

#[test]
fn soak_sigkill_resume_replays_the_delta_chain_byte_identical() {
    // Reference: the uninterrupted soak's stdout, detections, events.
    let clean_out = scratch("clean").join("detections.tsv");
    let clean_events = scratch("clean-ev").join("events.ndjson");
    let clean_stdout = run_to_string(&mut soak_cmd(&[
        "--out",
        clean_out.to_str().unwrap(),
        "--events",
        clean_events.to_str().unwrap(),
    ]));
    assert!(
        clean_stdout.lines().count() > 5,
        "clean soak produced no rows"
    );
    let want_out = std::fs::read_to_string(&clean_out).unwrap();
    let want_events = std::fs::read_to_string(&clean_events).unwrap();
    assert!(!want_events.is_empty(), "clean soak emitted no events");

    // Crash a checkpointed soak once the incremental chain is real: a
    // full anchor plus at least two dirty-only delta frames on disk.
    let dir = scratch("ckpt");
    let out = scratch("out").join("detections.tsv");
    let events = scratch("ev").join("events.ndjson");
    let mut child = soak_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--events",
        events.to_str().unwrap(),
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if files_with_ext(&dir, "dckpt").len() >= 2 {
            child.kill().unwrap(); // SIGKILL — no cleanup runs
            break;
        }
        assert!(
            child.try_wait().unwrap().is_none(),
            "the soak finished before the kill"
        );
        assert!(
            Instant::now() < deadline,
            "no delta frames appeared in 300 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.wait();
    assert!(
        !files_with_ext(&dir, "ckpt").is_empty(),
        "killed soak left no full anchor"
    );
    assert!(
        files_with_ext(&dir, "dckpt").len() >= 2,
        "killed soak left no delta chain"
    );

    // Resume: the chain (full + deltas, applied in base_generation
    // order) plus the stateless stream must reconstruct everything.
    let resumed_stdout = run_to_string(&mut soak_cmd(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
        "--out",
        out.to_str().unwrap(),
        "--events",
        events.to_str().unwrap(),
    ]));
    assert_eq!(
        resumed_stdout, clean_stdout,
        "resumed soak stdout diverges from the uninterrupted run"
    );
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        want_out,
        "final detections diverge after SIGKILL + resume"
    );
    assert_eq!(
        std::fs::read_to_string(&events).unwrap(),
        want_events,
        "event stream diverges after SIGKILL + resume"
    );

    // The finished chain refuses what would silently change the stream:
    // a soak-only flag that contradicts its config row, and `detect`,
    // which shares the frame format and would run the ISP stream with
    // `days = hours`. Both errors name the generation.
    let refused = |cmd: &mut Command| {
        let out = cmd
            .args(["--checkpoint-dir", dir.to_str().unwrap(), "--resume"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "resume was accepted");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let stderr = refused(soak_cmd(&[]).args(["--hit-rate-ppm", "5"]));
    assert!(
        stderr.contains("--hit-rate-ppm 5"),
        "error does not name the flag: {stderr}"
    );
    assert!(
        stderr.contains("generation"),
        "error does not name the generation: {stderr}"
    );
    let stderr = refused(
        Command::new(BIN)
            .args(["detect", "--quiet", "--rules"])
            .arg(rules_file()),
    );
    assert!(
        stderr.contains("`haystack soak`"),
        "error does not name the writer: {stderr}"
    );
    assert!(
        stderr.contains("generation"),
        "error does not name the generation: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
