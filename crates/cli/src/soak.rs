//! `haystack soak` — the wild-scale soak harness (DESIGN.md §12).
//!
//! The paper's deployment regime is ~15 M subscriber lines where ~99%
//! of sampled flows miss the hitlist. `soak` reproduces that shape at
//! operator-chosen scale with the stateless [`SoakStream`] generator:
//! ≥10⁶ lines of streamed traffic over many simulated hours, pushed
//! through the supervised detector pool with **incremental dirty-only
//! checkpoints** — hourly delta frames chained onto periodic full
//! generations, through the same [`ResumableRun`] driver as `detect`.
//!
//! What it reports (stderr note, or `--report FILE` as JSON):
//!
//! * sustained records/s over the whole invocation;
//! * peak RSS (`VmHWM` from `/proc/self/status`) against the
//!   `--mem-ceiling-mb` budget — breach is exit 1;
//! * per-checkpoint pause times and full-vs-delta frame bytes.
//!
//! Like `detect`, a soak with `--checkpoint-dir` drains on SIGTERM,
//! survives SIGKILL, and `--resume` replays the full+delta chain and
//! regenerates byte-identical traffic from the watermark, so the final
//! detections (`--out`) and events (`--events`) match an uninterrupted
//! run exactly. CI's `soak-smoke` job gates the `--report` of this
//! command (RSS ceiling, checkpoint pause, delta frames written);
//! `benchmark/` measures it as the `soak_thread`/`soak_process`
//! workloads.

use crate::load_pack;
use haystack_cli::resume::{conflict, fatal, or_exit, ResumableRun, RunSpec, SOAK_ROW};
use haystack_cli::{cli_error, note, num};
use haystack_core::rules::RuleSet;
use haystack_wild::{SoakConfig, SoakStream, Watermark};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::process::exit;
use std::time::Instant;

/// `soak` counts its run in flat hours (`RunCheckpoint::days` stores
/// the total) over the stateless wild-scale generator.
const SOAK: RunSpec = RunSpec {
    command: "soak",
    span_flag: "hours",
    default_lines: 1_000_000,
    default_span: 6,
};

/// Peak resident set size in KiB, from `/proc/self/status` (`VmHWM`).
/// `None` off Linux or if the field is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Every (service IP, port) pair the rule set can match — the soak
/// stream's hit targets. Deterministic order (BTreeSets underneath),
/// deduplicated across rules sharing infrastructure.
fn hit_targets(rules: &RuleSet) -> Vec<(Ipv4Addr, u16)> {
    let mut targets: Vec<(Ipv4Addr, u16)> = rules
        .rules
        .iter()
        .flat_map(|r| &r.domains)
        .flat_map(|d| {
            d.ips
                .iter()
                .flat_map(|&ip| d.ports.iter().map(move |&p| (ip, p)))
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// The soak run's config row — first stdout line, checkpointed with the
/// rest of `emitted`. It carries the soak-only parameters a
/// `RunCheckpoint` has no fields for, so `--resume` can restore (and
/// conflict-check) the exact stream configuration.
fn config_row(cfg: &SoakConfig, hours: u32) -> String {
    format!(
        "{SOAK_ROW}lines={} hours={hours} records_per_hour={} hit_rate_ppm={} seed={}",
        cfg.lines, cfg.records_per_hour, cfg.hit_rate_ppm, cfg.seed
    )
}

/// Parse `(records_per_hour, hit_rate_ppm)` back out of a [`config_row`]
/// line. `None` means the checkpoint was not written by `haystack soak`.
fn parse_config_row(line: &str) -> Option<(u64, u32)> {
    if !line.starts_with(SOAK_ROW) {
        return None;
    }
    let mut records_per_hour = None;
    let mut hit_rate_ppm = None;
    for token in line.split_whitespace() {
        if let Some(v) = token.strip_prefix("records_per_hour=") {
            records_per_hour = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("hit_rate_ppm=") {
            hit_rate_ppm = v.parse().ok();
        }
    }
    Some((records_per_hour?, hit_rate_ppm?))
}

pub fn cmd_soak(flags: HashMap<String, String>) {
    let pack = load_pack(&flags);
    let mem_ceiling_mb: u64 = num(&flags, "mem-ceiling-mb", 0);
    let loaded = ResumableRun::load(&SOAK, &flags, pack.threshold);
    let rules = pack.rules;
    let (lines, hours, seed) = (loaded.ck.lines, loaded.ck.days, loaded.ck.seed);
    let (workers, chunk_records) = (loaded.ck.workers, loaded.ck.chunk_records as usize);

    // Fresh runs read the soak-only stream shape from flags; resumed
    // runs from the checkpointed config row, so flag drift cannot
    // silently change the traffic.
    let (records_per_hour, hit_rate_ppm) = match loaded.generation {
        Some(generation) => {
            // `load` refused any chain whose first row is not a soak's.
            let Some((rph, ppm)) = parse_config_row(&loaded.ck.emitted[0]) else {
                cli_error!("resume: checkpoint generation {generation} has a malformed config row");
                exit(1);
            };
            fatal(
                "resume",
                conflict(&flags, generation, "records-per-hour", rph),
            );
            fatal("resume", conflict(&flags, generation, "hit-rate-ppm", ppm));
            (rph, ppm)
        }
        None => (
            num(&flags, "records-per-hour", 1_000_000),
            num(&flags, "hit-rate-ppm", 10_000),
        ),
    };

    let soak_cfg = SoakConfig {
        lines,
        seed,
        hit_rate_ppm,
        records_per_hour,
    };
    let targets = hit_targets(&rules);
    if targets.is_empty() {
        cli_error!("the rule set has no service IPs — every record would miss");
        exit(1);
    }
    note!(
        "soaking {lines} lines for {hours} h at {records_per_hour} records/h (~{:.1}% hit rate, {} targets) ...",
        f64::from(hit_rate_ppm) / 10_000.0,
        targets.len()
    );

    // `emitted` is the replayable stdout, exactly as in `detect`: the
    // config row, the column header, then one row per completed hour.
    let mut run = ResumableRun::start(loaded, &flags, &rules);
    if run.ck.done {
        note!("checkpointed soak already complete; re-deriving its outputs");
    }
    if !run.resumed {
        run.emit(config_row(&soak_cfg, hours));
        run.emit("hour\trecords".to_string());
    }

    let t0 = Instant::now();
    // Soak time is a flat hour index: no day rolls, no evidence resets —
    // the detector's state grows monotonically, which is exactly what
    // the memory-ceiling check is about.
    while run.ck.watermark.hour < hours {
        let g = run.ck.watermark.hour;
        run.feed_hour(&mut SoakStream::hour(
            &targets,
            soak_cfg,
            0,
            g,
            chunk_records,
        ));
        run.emit(format!("{g}\t{}", run.ck.records_this_day));
        run.ck.watermark = Watermark::hour_start(0, g + 1);
        run.ck.records_this_day = 0;
        run.save(false, false);
    }

    or_exit(run.pool.finish());
    run.save(true, false);

    // Final detections: always to stdout (deterministically re-derived
    // from final state, so a resumed run's stdout is byte-identical to
    // an uninterrupted one), and to `--out` as a file for diffing.
    let mut out_rows = vec!["class\tdetected_lines".to_string()];
    for rule in &rules.rules {
        let name = rules.class_name(rule.class);
        let n = or_exit(run.pool.detected_lines(name)).len();
        out_rows.push(format!("{name}\t{n}"));
    }
    for row in &out_rows {
        println!("{row}");
    }
    if let Some(path) = flags.get("out") {
        let mut text = out_rows.join("\n");
        text.push('\n');
        std::fs::write(path, text).unwrap_or_else(|e| {
            cli_error!("cannot write {path}: {e}");
            exit(1);
        });
    }
    if let Some(path) = flags.get("events") {
        use std::io::Write;
        let states = or_exit(run.pool.shard_states());
        let mut f = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
            cli_error!("cannot open {path}: {e}");
            exit(1);
        }));
        for e in &haystack_core::events::events_from_states(&rules, &states) {
            let line = haystack_core::events::ndjson_line(&rules, e, None);
            writeln!(f, "{line}").unwrap_or_else(|e| {
                cli_error!("events write failed: {e}");
                exit(1);
            });
        }
    }

    let (streamed, saves) = (run.streamed, &run.tally);
    let elapsed = t0.elapsed().as_secs_f64();
    let records_per_sec = streamed as f64 / elapsed.max(1e-9);
    let peak_kb = peak_rss_kb().unwrap_or(0);
    let pause_max = saves.pause_ms_max;
    let pause_mean = saves.pause_ms_sum / (saves.fulls + saves.deltas).max(1) as f64;
    note!(
        "soak: {streamed} records in {elapsed:.2}s ({records_per_sec:.0} records/s), peak RSS {:.1} MiB, {} checkpoints (pause mean {pause_mean:.2} ms, max {pause_max:.2} ms)",
        peak_kb as f64 / 1024.0,
        saves.fulls + saves.deltas
    );

    if let Some(path) = flags.get("report") {
        let report = serde_json::json!({
            "bench": "haystack_soak",
            "lines": lines,
            "hours": hours,
            "records_per_hour": records_per_hour,
            "hit_rate_ppm": hit_rate_ppm,
            "seed": seed,
            "workers": workers,
            "records_streamed": streamed,
            "elapsed_secs": elapsed,
            "records_per_sec": records_per_sec,
            "peak_rss_kb": peak_kb,
            "mem_ceiling_mb": mem_ceiling_mb,
            "checkpoints": {
                "full_frames": saves.fulls,
                "delta_frames": saves.deltas,
                "full_bytes": saves.full_bytes,
                "delta_bytes": saves.delta_bytes,
                "pause_ms_mean": pause_mean,
                "pause_ms_max": pause_max,
            },
        });
        let text = serde_json::to_string_pretty(&report).expect("serializable");
        std::fs::write(path, text).unwrap_or_else(|e| {
            cli_error!("cannot write {path}: {e}");
            exit(1);
        });
    }

    // The memory ceiling is the soak's reason to exist: unbounded state
    // growth at wild scale must be caught, not graphed. Breach is a
    // hard failure (after the report is written, so the evidence lands).
    if mem_ceiling_mb > 0 && peak_kb > mem_ceiling_mb * 1024 {
        cli_error!(
            "peak RSS {:.1} MiB exceeded the {mem_ceiling_mb} MiB ceiling",
            peak_kb as f64 / 1024.0
        );
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_row_round_trips() {
        let cfg = SoakConfig {
            lines: 1_000_000,
            seed: 7,
            hit_rate_ppm: 12_345,
            records_per_hour: 250_000,
        };
        let row = config_row(&cfg, 12);
        assert_eq!(parse_config_row(&row), Some((250_000, 12_345)));
        // A detect checkpoint's header row is not a soak config row.
        assert_eq!(parse_config_row("day\tclass\tdetected_lines"), None);
    }
}
