//! `haystack soak` — the wild-scale soak harness (DESIGN.md §12).
//!
//! The paper's deployment regime is ~15 M subscriber lines where ~99%
//! of sampled flows miss the hitlist. `soak` reproduces that shape at
//! operator-chosen scale with the stateless [`SoakStream`] generator:
//! ≥10⁶ lines of streamed traffic over many simulated hours, pushed
//! through the supervised detector pool with **incremental dirty-only
//! checkpoints** — hourly delta frames chained onto periodic full
//! generations, exactly the `detect --resume` machinery.
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
//! run exactly. The canonical `BENCH_wild.json` numbers come from the
//! in-process `soak` bench bin; this command is the operator-facing,
//! kill-able variant.

use crate::sig;
use crate::{build_pool, chaos_tick, load_rules_full, num, parse_isolate, pool_fatal,
    pool_fatal_ck, Isolate};
use haystack_cli::resume::{flag_conflicts, load_resume_checkpoint, RunCheckpoint, RunDelta};
use haystack_cli::{cli_error, note};
use haystack_core::detector::DetectorConfig;
use haystack_core::parallel::DetectorPool;
use haystack_core::rules::RuleSet;
use haystack_core::{CheckpointDir, DetectorSnapshot};
use haystack_wild::{
    skip_chunks, RecordChunk, RecordStream, SoakConfig, SoakStream, Watermark,
    DEFAULT_CHUNK_RECORDS,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::process::exit;
use std::time::Instant;

/// Full-frame cadence: every `FULL_EVERY`-th save anchors a new full
/// generation; saves in between write dirty-only [`RunDelta`] frames.
const FULL_EVERY: u64 = 8;

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
        .flat_map(|d| d.ips.iter().flat_map(|&ip| d.ports.iter().map(move |&p| (ip, p))))
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// The soak run's config row — first stdout line, checkpointed with the
/// rest of `emitted`. It carries the soak-only parameters a
/// [`RunCheckpoint`] has no fields for, so `--resume` can restore (and
/// conflict-check) the exact stream configuration.
fn config_row(cfg: &SoakConfig, hours: u32) -> String {
    format!(
        "# soak lines={} hours={hours} records_per_hour={} hit_rate_ppm={} seed={}",
        cfg.lines, cfg.records_per_hour, cfg.hit_rate_ppm, cfg.seed
    )
}

/// Parse `(records_per_hour, hit_rate_ppm)` back out of a [`config_row`]
/// line. `None` means the checkpoint was not written by `haystack soak`.
fn parse_config_row(line: &str) -> Option<(u64, u32)> {
    if !line.starts_with("# soak ") {
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

/// A resumed soak takes its stream config from the checkpoint; an
/// explicitly conflicting flag fails with the field at fault, like
/// `detect --resume`'s [`flag_conflicts`] (which covers the shared
/// fields — this covers the soak-only ones).
fn soak_flag_conflict(
    flags: &HashMap<String, String>,
    field: &'static str,
    checkpoint: u64,
) {
    if let Some(flag) = flags.get(field) {
        if flag.parse::<u64>().ok() != Some(checkpoint) {
            cli_error!(
                "resume: --{field} {flag} conflicts with the checkpointed run's {checkpoint}"
            );
            exit(1);
        }
    }
}

/// Incremental checkpoint writer: owns the full/delta cadence, the
/// chain head, and the pause/bytes accounting the report surfaces.
struct Saver<'a> {
    dir: Option<&'a CheckpointDir>,
    seed: u64,
    lines: u32,
    hours: u32,
    threshold: f64,
    workers: u32,
    chunk_records: u64,
    last_generation: Option<u64>,
    saves_since_full: u64,
    last_emitted_flushed: usize,
    pauses_ms: Vec<f64>,
    fulls: u64,
    deltas: u64,
    full_bytes: u64,
    delta_bytes: u64,
}

impl Saver<'_> {
    fn save(
        &mut self,
        pool: &mut DetectorPool,
        wm: Watermark,
        records_this_hour: u64,
        done: bool,
        emitted: &[String],
    ) {
        let Some(dir) = self.dir else { return };
        let t0 = Instant::now();
        let full =
            done || self.last_generation.is_none() || self.saves_since_full + 1 >= FULL_EVERY;
        let generation = if full {
            // Fold outstanding dirty state into the supervisor's bases so
            // the full frame doubles as the next delta's clean anchor.
            pool_fatal(pool.checkpoint_all_delta());
            let ck = RunCheckpoint {
                seed: self.seed,
                lines: self.lines,
                days: self.hours, // soak time is hours; `days` stores the total
                threshold: self.threshold,
                workers: self.workers,
                chunk_records: self.chunk_records,
                watermark: wm,
                records_this_day: records_this_hour,
                done,
                emitted: emitted.to_vec(),
                shards: pool.supervised_shard_states(),
            };
            let frame = ck.encode();
            self.fulls += 1;
            self.full_bytes += frame.len() as u64;
            self.saves_since_full = 0;
            pool_fatal_ck(dir.write(RunCheckpoint::PREFIX, &frame))
        } else {
            let shards = pool_fatal(pool.checkpoint_all_delta());
            let dirty: usize = shards.iter().map(DetectorSnapshot::entry_count).sum();
            let delta = RunDelta {
                base_generation: self.last_generation.expect("delta saves follow a full"),
                watermark: wm,
                records_this_day: records_this_hour,
                done,
                emitted_new: emitted[self.last_emitted_flushed..].to_vec(),
                shards,
            };
            let frame = delta.encode();
            self.deltas += 1;
            self.delta_bytes += frame.len() as u64;
            self.saves_since_full += 1;
            pool_fatal_ck(dir.write_delta(RunCheckpoint::PREFIX, &frame, dirty as u64))
        };
        self.last_generation = Some(generation);
        self.last_emitted_flushed = emitted.len();
        self.pauses_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
}

pub fn cmd_soak(flags: HashMap<String, String>) {
    let (rules, pack) = load_rules_full(&flags);
    let ckpt_dir = flags
        .get("checkpoint-dir")
        .map(|d| pool_fatal_ck(CheckpointDir::open(d)));
    let resume = flags.contains_key("resume");
    if resume && ckpt_dir.is_none() {
        cli_error!("--resume needs --checkpoint-dir");
        exit(2);
    }
    let checkpoint_chunks: u64 = num(&flags, "checkpoint-chunks", 0);
    let mem_ceiling_mb: u64 = num(&flags, "mem-ceiling-mb", 0);

    let loaded: Option<RunCheckpoint> = if resume {
        let dir = ckpt_dir.as_ref().expect("checked above");
        match load_resume_checkpoint(dir) {
            Ok(Some((generation, ck))) => {
                if let Err(e) = flag_conflicts(&ck, generation, &flags) {
                    cli_error!("resume: {e}");
                    exit(1);
                }
                note!(
                    "resuming from checkpoint generation {generation} at hour {} chunk {}",
                    ck.watermark.hour,
                    ck.watermark.chunk
                );
                Some(ck)
            }
            Ok(None) => {
                note!("no checkpoint found; starting fresh");
                None
            }
            Err(e) => {
                cli_error!("resume: {e}");
                exit(1);
            }
        }
    } else {
        None
    };

    // Fresh runs read the stream shape from flags; resumed runs from the
    // checkpoint (the shared fields) and its config row (the soak-only
    // ones), so flag drift cannot silently change the traffic.
    let (lines, hours, threshold, seed, workers, chunk_records, records_per_hour, hit_rate_ppm) =
        match &loaded {
            Some(ck) => {
                let Some((rph, ppm)) =
                    ck.emitted.first().and_then(|row| parse_config_row(row))
                else {
                    cli_error!("resume: checkpoint was not written by `haystack soak`");
                    exit(1);
                };
                soak_flag_conflict(&flags, "hours", u64::from(ck.days));
                soak_flag_conflict(&flags, "records-per-hour", rph);
                soak_flag_conflict(&flags, "hit-rate-ppm", u64::from(ppm));
                (
                    ck.lines,
                    ck.days,
                    ck.threshold,
                    ck.seed,
                    ck.workers as usize,
                    ck.chunk_records as usize,
                    rph,
                    ppm,
                )
            }
            None => {
                let workers: usize = num(&flags, "workers", 4);
                if workers == 0 {
                    cli_error!("--workers must be at least 1");
                    exit(2);
                }
                (
                    num(&flags, "lines", 1_000_000),
                    num(&flags, "hours", 6),
                    num(
                        &flags,
                        "threshold",
                        pack.as_ref().map(|p| p.threshold).unwrap_or(0.4),
                    ),
                    num(&flags, "seed", 42),
                    workers,
                    DEFAULT_CHUNK_RECORDS,
                    num(&flags, "records-per-hour", 1_000_000),
                    num(&flags, "hit-rate-ppm", 10_000),
                )
            }
        };

    let soak_cfg = SoakConfig { lines, seed, hit_rate_ppm, records_per_hour };
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

    let isolate = parse_isolate(&flags);
    let chaos = flags.contains_key("chaos");
    let mut pool = build_pool(
        &rules,
        DetectorConfig { threshold, require_established: false },
        workers,
        isolate,
    );
    if ckpt_dir.is_some() || isolate == Isolate::Process || chaos {
        // Process isolation and chaos both imply supervision — losing a
        // child (or killing one on purpose) must never lose evidence.
        pool_fatal(pool.enable_supervision(haystack_core::parallel::DEFAULT_REPLAY_LIMIT));
    }
    if ckpt_dir.is_some() {
        sig::install();
    }

    let mut saver = Saver {
        dir: ckpt_dir.as_ref(),
        seed,
        lines,
        hours,
        threshold,
        workers: workers as u32,
        chunk_records: chunk_records as u64,
        last_generation: None,
        saves_since_full: 0,
        last_emitted_flushed: 0,
        pauses_ms: Vec::new(),
        fulls: 0,
        deltas: 0,
        full_bytes: 0,
        delta_bytes: 0,
    };

    // `emitted` is the replayable stdout, exactly as in `detect`: the
    // config row, the column header, then one row per completed hour.
    let mut emitted: Vec<String> = Vec::new();
    let mut wm = Watermark::start();
    let mut records_this_hour = 0u64;
    match &loaded {
        Some(ck) => {
            if ck.done {
                note!("checkpointed soak already complete; re-deriving its outputs");
            }
            for line in &ck.emitted {
                println!("{line}");
            }
            emitted = ck.emitted.clone();
            wm = ck.watermark;
            records_this_hour = ck.records_this_day;
            pool_fatal(pool.restore_shard_states(&ck.shards));
            saver.last_emitted_flushed = emitted.len();
        }
        None => {
            let cfg = config_row(&soak_cfg, hours);
            println!("{cfg}");
            emitted.push(cfg);
            let header = "hour\trecords".to_string();
            println!("{header}");
            emitted.push(header);
        }
    }

    let t0 = Instant::now();
    let mut streamed = 0u64;
    let mut chaos_ticks = 0u64;
    let mut chunk = RecordChunk::with_capacity(chunk_records);
    // Soak time is a flat hour index: no day rolls, no evidence resets —
    // the detector's state grows monotonically, which is exactly what
    // the memory-ceiling check is about.
    while wm.hour < hours {
        let g = wm.hour;
        let mut stream = SoakStream::hour(&targets, soak_cfg, 0, g, chunk_records);
        // Resuming mid-hour: regenerate the hour and discard the
        // already-processed prefix (generation is stateless).
        let mut chunk_no = if wm.chunk > 0 { skip_chunks(&mut stream, wm.chunk) } else { 0 };
        while stream.next_chunk(&mut chunk) {
            records_this_hour += chunk.records.len() as u64;
            streamed += chunk.records.len() as u64;
            pool_fatal(pool.observe_records(&chunk.records));
            chunk_no += 1;
            if chaos {
                chaos_ticks += 1;
                chaos_tick(&mut pool, chaos_ticks);
            }
            if checkpoint_chunks > 0 && chunk_no % checkpoint_chunks == 0 {
                saver.save(
                    &mut pool,
                    Watermark { day: 0, hour: g, chunk: chunk_no },
                    records_this_hour,
                    false,
                    &emitted,
                );
            }
            if ckpt_dir.is_some() && sig::triggered() {
                saver.save(
                    &mut pool,
                    Watermark { day: 0, hour: g, chunk: chunk_no },
                    records_this_hour,
                    false,
                    &emitted,
                );
                note!("sigterm: checkpointed at hour {g} chunk {chunk_no}; exiting");
                exit(0);
            }
        }
        let row = format!("{g}\t{records_this_hour}");
        println!("{row}");
        emitted.push(row);
        wm = Watermark { day: 0, hour: g + 1, chunk: 0 };
        records_this_hour = 0;
        saver.save(&mut pool, wm, 0, false, &emitted);
    }

    pool_fatal(pool.finish());
    saver.save(&mut pool, wm, 0, true, &emitted);

    // Final detections: always to stdout (deterministically re-derived
    // from final state, so a resumed run's stdout is byte-identical to
    // an uninterrupted one), and to `--out` as a file for diffing.
    let mut out_rows = vec!["class\tdetected_lines".to_string()];
    for rule in &rules.rules {
        let name = rules.class_name(rule.class);
        let n = pool_fatal(pool.detected_lines(name)).len();
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
        let states = pool_fatal(pool.shard_states());
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

    let elapsed = t0.elapsed().as_secs_f64();
    let records_per_sec = streamed as f64 / elapsed.max(1e-9);
    let peak_kb = peak_rss_kb().unwrap_or(0);
    let pause_max = saver.pauses_ms.iter().cloned().fold(0.0f64, f64::max);
    let pause_mean = if saver.pauses_ms.is_empty() {
        0.0
    } else {
        saver.pauses_ms.iter().sum::<f64>() / saver.pauses_ms.len() as f64
    };
    note!(
        "soak: {streamed} records in {elapsed:.2}s ({records_per_sec:.0} records/s), peak RSS {:.1} MiB, {} checkpoints (pause mean {pause_mean:.2} ms, max {pause_max:.2} ms)",
        peak_kb as f64 / 1024.0,
        saver.fulls + saver.deltas
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
                "full_frames": saver.fulls,
                "delta_frames": saver.deltas,
                "full_bytes": saver.full_bytes,
                "delta_bytes": saver.delta_bytes,
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
