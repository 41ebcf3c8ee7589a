//! `haystack` — the operator-facing command line.
//!
//! ```text
//! haystack rules export [--rules PACK | --seed N [--full]] [--threshold T] --out PACK
//! haystack rules show   --pack PACK
//! haystack detect   [--rules PACK] [--lines N] [--days D] [--threshold T] [--workers W]
//! haystack mitigate --rules PACK --class NAME [--redirect IP]
//! haystack chaos    [--severity S] [--seed N] [--records N]
//! haystack metrics  [--rules PACK] [--threshold T] [--severity S] [--records N] [--json]
//! ```
//!
//! `rules export` runs the §2–§4 pipeline (it needs the testbeds) and
//! seals the detection rules and their threshold `D` into a signature
//! pack — the one rule file there is; the other commands work from that
//! pack alone, the way a collector-side deployment would.
//!
//! `--quiet` silences progress notes on any command (errors still
//! print), keeping stdout machine-readable and stderr clean. All
//! progress/error output routes through [`haystack_cli::log`].

mod serve;
mod soak;

use haystack_cli::resume::{or_exit, ResumableRun, RunSpec};
use haystack_cli::{cli_error, note, num};
use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::HitList;
use haystack_core::mitigation::{block_plan, Action};
use haystack_core::pack::SignaturePack;
use haystack_core::parallel::DetectorPool;
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_core::telemetry;
use haystack_core::{CheckpointDir, DetectorSnapshot, DetectorState};
use haystack_dns::DnsDb;
use haystack_net::DayBin;
use haystack_testbed::catalog::data::standard_catalog;
use haystack_testbed::materialize::materialize;
use haystack_wild::{
    IspConfig, IspVantage, RecordChunk, VantagePoint, Watermark, DEFAULT_CHUNK_RECORDS,
};
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    haystack_cli::log::raw_args(format_args!(
        "usage:\n  haystack rules export [--rules PACK | --seed N [--full]] [--threshold T] [--comment TEXT] --out PACK\n  haystack rules show   --pack PACK\n  haystack rules lint   --pack PACK\n  haystack detect   [--rules PACK] [--lines N] [--days D] [--threshold T] [--seed N] [--workers W]\n                    [--checkpoint-dir DIR] [--resume] [--checkpoint-chunks N] [--events FILE]\n                    [--isolate thread|process] [--chaos]\n  haystack serve    [--rules PACK] [--udp-port N] [--tcp-port N] [--http-port N] [--host IP]\n                    [--workers W] [--threshold T] [--seed N] [--queue-capacity N]\n                    [--checkpoint-dir DIR] [--resume] [--checkpoint-secs N]\n                    [--ports-file FILE] [--watchdog-ms N] [--watchdog-timeout-ms N] [--chaos]\n                    [--isolate thread|process]\n  haystack send     --port N [--host IP] [--mode tcp|udp] [--rules PACK] [--lines N]\n                    [--records N] [--packets N] [--seed N] [--source N] [--hour N]\n                    [--malformed N] [--repeat N]\n  haystack soak     [--rules PACK] [--lines N] [--hours N] [--records-per-hour N]\n                    [--hit-rate-ppm N] [--threshold T] [--seed N] [--workers W]\n                    [--checkpoint-dir DIR] [--resume] [--checkpoint-chunks N]\n                    [--mem-ceiling-mb N] [--out FILE] [--events FILE] [--report FILE]\n                    [--isolate thread|process] [--chaos]\n  haystack mitigate --rules PACK --class NAME [--redirect IP]\n  haystack capture  --out FILE [--hours N] [--seed N]\n  haystack replay   --trace FILE --rules PACK [--sampling N] [--threshold T]\n  haystack chaos    [--severity S] [--seed N] [--records N]\n  haystack metrics  [--rules PACK] [--threshold T] [--severity S] [--seed N] [--records N] [--lines N] [--workers W] [--json]\nnotes:\n  --rules takes a signature pack (HAYPACK frame) written by `rules export`, and\n  --threshold defaults to the pack's D; when --rules is omitted, the default pack\n  is generated (fast pipeline, seed 42, D 0.4), the one `rules export` writes;\n  --isolate process runs each detector shard as a supervised `haystack shard-worker`\n  child process (crash-isolated; see DESIGN.md \u{00a7}15) instead of an in-process thread\nglobal flags:\n  --quiet           suppress progress notes (errors still print)"
    ));
    exit(2);
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if matches!(key, "full" | "quiet" | "json" | "resume" | "chaos") {
                out.insert(key.to_string(), "true".into());
            } else {
                match it.next() {
                    Some(v) => {
                        out.insert(key.to_string(), v.clone());
                    }
                    None => usage(),
                }
            }
        } else {
            usage();
        }
    }
    out
}

/// The pack `rules export --seed N [--full]` seals: the ground-truth
/// pipeline's rules at `D` = 0.4. With no flags at all that is
/// `generate_pack(42, false)`, the default pack.
fn generate_pack(seed: u64, full: bool) -> SignaturePack {
    let (config, mode) = if full {
        (
            PipelineConfig {
                seed,
                ..Default::default()
            },
            "full",
        )
    } else {
        (PipelineConfig::fast(seed), "fast")
    };
    note!("running the ground-truth pipeline ({mode}, seed {seed}) ...");
    SignaturePack {
        rules: Pipeline::run(config).rules.as_ref().clone(),
        threshold: 0.4,
        source: format!("generate({mode},seed={seed})"),
        comment: String::new(),
    }
}

/// The one rule loader: the signature pack at `--rules`, or the default
/// pack when the flag is absent — so `detect --rules <default pack>` is
/// byte-identical to `detect` with no `--rules` at all.
fn load_pack(flags: &HashMap<String, String>) -> SignaturePack {
    let Some(path) = flags.get("rules") else {
        note!("no --rules: generating the default pack");
        return generate_pack(42, false);
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        cli_error!("cannot read {path}: {e}");
        exit(1);
    });
    SignaturePack::load(&bytes).unwrap_or_else(|e| {
        cli_error!("{path}: {e}");
        exit(1);
    })
}

/// `haystack rules export`: seal a rule set — re-sealed from `--rules`,
/// generated by `--seed N [--full]`, or the default pack — as a
/// versioned, checksummed signature pack. The encoding is deterministic,
/// so exporting twice gives byte-identical packs, and `export → load →
/// export` is a fixpoint.
fn cmd_rules_export(flags: HashMap<String, String>) {
    let out = flags.get("out").unwrap_or_else(|| usage());
    let generate = flags.contains_key("seed") || flags.contains_key("full");
    if generate && flags.contains_key("rules") {
        cli_error!("--rules re-seals an existing pack; --seed and --full generate a new one");
        exit(2);
    }
    let mut pack = if generate {
        generate_pack(num(&flags, "seed", 42), flags.contains_key("full"))
    } else {
        load_pack(&flags)
    };
    pack.threshold = num(&flags, "threshold", pack.threshold);
    if let Some(comment) = flags.get("comment") {
        pack.comment = comment.clone();
    }
    let defects = pack.lint();
    if !defects.is_empty() {
        for d in &defects {
            cli_error!("lint: {d}");
        }
        exit(1);
    }
    let bytes = pack.encode();
    std::fs::write(out, &bytes).unwrap_or_else(|e| {
        cli_error!("cannot write {out}: {e}");
        exit(1);
    });
    note!(
        "wrote signature pack v{} ({} classes, {} rules, {} undetectable, {} bytes) to {out}",
        SignaturePack::VERSION,
        pack.rules.classes.len(),
        pack.rules.rules.len(),
        pack.rules.undetectable.len(),
        bytes.len()
    );
}

/// Read `--pack`, tolerating semantic defects (lint reports them) but
/// not codec-level corruption.
fn read_pack(flags: &HashMap<String, String>) -> (String, SignaturePack) {
    let path = flags.get("pack").unwrap_or_else(|| usage());
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        cli_error!("cannot read {path}: {e}");
        exit(1);
    });
    let pack = SignaturePack::decode(&bytes).unwrap_or_else(|e| {
        cli_error!("{path}: signature pack unreadable: {e}");
        exit(1);
    });
    (path.clone(), pack)
}

/// `haystack rules show`: human-readable pack summary (provenance plus
/// one row per rule and per undetectable class), with lint defects
/// appended if any.
fn cmd_rules_show(flags: HashMap<String, String>) {
    let (_, pack) = read_pack(&flags);
    println!("format\tHAYPACK v{}", SignaturePack::VERSION);
    println!("threshold\t{}", pack.threshold);
    println!("source\t{}", pack.source);
    println!("comment\t{}", pack.comment);
    println!("classes\t{}", pack.rules.classes.len());
    println!();
    println!("class\tlevel\tparent\tdomains\tservice_ips\tusage_indicators");
    let rules = &pack.rules;
    for r in &rules.rules {
        println!(
            "{}\t{:?}\t{}\t{}\t{}\t{}",
            rules.class_name(r.class),
            r.level,
            r.parent.map(|p| rules.class_name(p)).unwrap_or("-"),
            r.domains.len(),
            r.domains.iter().map(|d| d.ips.len()).sum::<usize>(),
            r.domains.iter().filter(|d| d.usage_indicator).count(),
        );
    }
    for (class, reason) in &rules.undetectable {
        println!(
            "{}\tundetectable\t{reason:?}\t-\t-\t-",
            rules.class_name(*class)
        );
    }
    let defects = pack.lint();
    if !defects.is_empty() {
        println!();
        for d in &defects {
            println!("lint\t{d}");
        }
    }
}

/// `haystack rules lint`: exit 0 on a clean pack, exit 1 with one line
/// per defect (naming the offending class/domain/field) otherwise.
fn cmd_rules_lint(flags: HashMap<String, String>) {
    let (path, pack) = read_pack(&flags);
    let defects = pack.lint();
    if defects.is_empty() {
        println!(
            "ok: {} classes, {} rules, {} undetectable, threshold {}",
            pack.rules.classes.len(),
            pack.rules.rules.len(),
            pack.rules.undetectable.len(),
            pack.threshold
        );
        return;
    }
    for d in &defects {
        println!("{path}: {d}");
    }
    exit(1);
}

/// `detect` counts its run in days of 24 hours over the simulated ISP.
const DETECT: RunSpec = RunSpec {
    command: "detect",
    span_flag: "days",
    default_lines: 20_000,
    default_span: 1,
};

fn cmd_detect(flags: HashMap<String, String>) {
    let pack = load_pack(&flags);
    let loaded = ResumableRun::load(&DETECT, &flags, pack.threshold);
    let rules = pack.rules;
    let (lines, days, seed) = (loaded.ck.lines, loaded.ck.days, loaded.ck.seed);
    let (workers, chunk_records) = (loaded.ck.workers, loaded.ck.chunk_records as usize);

    note!("building the simulated ISP ({lines} lines) ...");
    let catalog = standard_catalog();
    let world = materialize(&catalog);
    let isp = IspVantage::new(
        &catalog,
        IspConfig {
            lines,
            sampling: 1_000,
            seed,
            background: false,
        },
    );
    let mut run = ResumableRun::start(loaded, &flags, &rules);
    if run.ck.done {
        note!("checkpointed run already complete; re-printed its output");
        return;
    }
    if !run.resumed {
        run.emit("day\tclass\tdetected_lines".to_string());
    }

    // `--events FILE`: the NDJSON detection-event stream, derived from
    // shard states at each day boundary (evidence resets there). Fresh
    // runs truncate. Resumed runs rewrite the file keeping only the
    // days the watermark proves complete, then append — a crash can
    // land between a day's event append and its day-roll checkpoint,
    // and re-deriving that day on resume must not duplicate it.
    let mut events_file = flags.get("events").map(|path| {
        use std::io::Write;
        let kept: String = if run.resumed {
            std::fs::read_to_string(path)
                .unwrap_or_default()
                .lines()
                .filter(|l| {
                    l.strip_prefix("{\"day\":")
                        .and_then(|rest| rest.split(',').next())
                        .and_then(|n| n.parse::<u32>().ok())
                        .is_some_and(|d| d < run.ck.watermark.day)
                })
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                })
        } else {
            String::new()
        };
        let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
            cli_error!("cannot open {path}: {e}");
            exit(1);
        });
        f.write_all(kept.as_bytes()).unwrap_or_else(|e| {
            cli_error!("events write failed: {e}");
            exit(1);
        });
        f
    });

    while run.ck.watermark.day < days {
        let day = run.ck.watermark.day;
        for hour_idx in run.ck.watermark.hour..24 {
            let hour = DayBin(day)
                .hours()
                .nth(hour_idx as usize)
                .expect("a day has 24 hours");
            // Hours stream chunk-by-chunk into the persistent worker pool
            // — the hour is never materialized, and detection state is
            // sharded by line.
            run.feed_hour(&mut *isp.stream_hour(&world, hour, chunk_records));
            run.ck.watermark = Watermark::hour_start(day, hour_idx).next_hour();
            // Hour-boundary cadence — but the day-roll checkpoint waits
            // for the day's summary rows below.
            if run.ck.watermark.day == day {
                run.save(false, false);
            }
        }
        or_exit(run.pool.finish());
        note!(
            "day {day}: {} records streamed through {workers} workers",
            run.ck.records_this_day
        );
        for rule in &rules.rules {
            let name = rules.class_name(rule.class);
            let n = or_exit(run.pool.detected_lines(name)).len();
            run.emit(format!("{day}\t{name}\t{n}"));
        }
        if let Some(f) = &mut events_file {
            use std::io::Write;
            let states = or_exit(run.pool.shard_states());
            for e in &haystack_core::events::events_from_states(&rules, &states) {
                let line = haystack_core::events::ndjson_line(&rules, e, Some(day));
                writeln!(f, "{line}").unwrap_or_else(|e| {
                    cli_error!("events write failed: {e}");
                    exit(1);
                });
            }
        }
        // Evidence resets at the day boundary; the day-roll checkpoint
        // captures the post-reset state so a resume lands exactly here.
        or_exit(run.pool.reset());
        run.ck.records_this_day = 0;
        run.save(false, true);
    }
    run.save(true, false);
}

fn cmd_mitigate(flags: HashMap<String, String>) {
    let rules = load_pack(&flags).rules;
    let class = flags.get("class").unwrap_or_else(|| usage());
    let class: &'static str = Box::leak(class.clone().into_boxed_str());
    let action = match flags.get("redirect") {
        Some(ip) => Action::Redirect(ip.parse().unwrap_or_else(|_| {
            cli_error!("--redirect needs an IPv4 address");
            exit(2);
        })),
        None => Action::Block,
    };
    // Collector-side mitigations work from the rules' IP unions when no
    // passive-DNS feed is wired in.
    match block_plan(&rules, &DnsDb::new(), class, DayBin(0), action) {
        Some(plan) => {
            println!(
                "# {:?} plan for {class} ({} targets)",
                plan.action,
                plan.targets.len()
            );
            for (ip, port) in &plan.targets {
                println!("{ip}\t{port}");
            }
        }
        None => {
            cli_error!("no rule for class {class:?} (try `haystack rules show`)");
            exit(1);
        }
    }
}

fn cmd_capture(flags: HashMap<String, String>) {
    use haystack_testbed::capture::write_trace;
    use haystack_testbed::ExperimentDriver;
    let out = flags.get("out").unwrap_or_else(|| usage());
    let hours: u32 = num(&flags, "hours", 6);
    let seed: u64 = num(&flags, "seed", 42);
    let driver = ExperimentDriver::new(standard_catalog(), seed);
    let world = materialize(driver.catalog());
    let mut packets = Vec::new();
    note!("capturing {hours} h of the idle experiment at the Home-VP ...");
    for hour in haystack_net::StudyWindow::IDLE_GT
        .hour_bins()
        .take(hours as usize)
    {
        packets.extend(driver.generate_hour(&world, hour));
    }
    let file = std::fs::File::create(out).unwrap_or_else(|e| {
        cli_error!("cannot create {out}: {e}");
        exit(1);
    });
    write_trace(std::io::BufWriter::new(file), &packets).unwrap_or_else(|e| {
        cli_error!("write failed: {e}");
        exit(1);
    });
    note!("wrote {} packets to {out}", packets.len());
}

fn cmd_replay(flags: HashMap<String, String>) {
    use haystack_flow::sampling::{PacketSampler, SystematicSampler};
    use haystack_testbed::capture::read_trace;
    let SignaturePack {
        rules, threshold, ..
    } = load_pack(&flags);
    let trace_path = flags.get("trace").unwrap_or_else(|| usage());
    let sampling: u64 = num(&flags, "sampling", 1_000);
    let threshold: f64 = num(&flags, "threshold", threshold);
    let file = std::fs::File::open(trace_path).unwrap_or_else(|e| {
        cli_error!("cannot open {trace_path}: {e}");
        exit(1);
    });
    let packets = read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        cli_error!("{trace_path}: {e}");
        exit(1);
    });
    let mut sampler = SystematicSampler::new(sampling, 3).unwrap_or_else(|e| {
        cli_error!("{e}");
        exit(1);
    });
    let mut det = Detector::new(
        &rules,
        HitList::whole_window(&rules),
        DetectorConfig {
            threshold,
            require_established: false,
        },
    );
    let line = haystack_net::AnonId(1);
    let mut kept = 0u64;
    for g in &packets {
        if sampler.sample() {
            kept += 1;
            det.observe(
                line,
                g.packet.dst,
                g.packet.dport,
                g.packet.proto,
                g.packet.flags.is_established_evidence(),
                g.packet.ts.hour(),
            );
        }
    }
    note!(
        "{} packets replayed, {kept} sampled (1/{sampling})",
        packets.len()
    );
    println!("class\tdetected");
    for (ri, rule) in rules.rules.iter().enumerate() {
        println!(
            "{}\t{}",
            rules.class_name(rule.class),
            det.is_detected_rule(line, ri as u16)
        );
    }
}

/// Deterministic synthetic flow records shared by `chaos`, `metrics` and
/// `send`'s background stream. Every destination is in TEST-NET-3
/// (`203.0.113.0/24`), which no rule's service IPs ever overlap (the
/// soak stream's miss space too), so none of them is evidence.
fn synthetic_flow_records(n_records: usize, seed: u64) -> Vec<haystack_flow::FlowRecord> {
    use haystack_flow::{FlowKey, FlowRecord, TcpFlags};
    use haystack_net::ports::Proto;
    use haystack_net::SimTime;
    (0..n_records)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed);
            FlowRecord {
                key: FlowKey {
                    src: std::net::Ipv4Addr::new(100, 64, (x >> 8) as u8, x as u8),
                    dst: std::net::Ipv4Addr::new(203, 0, 113, (x >> 16) as u8),
                    sport: 40_000 + (i % 1_000) as u16,
                    dport: 443,
                    proto: Proto::Tcp,
                },
                packets: 1 + (x % 5),
                bytes: 60 * (1 + (x % 5)),
                tcp_flags: TcpFlags::ACK,
                first: SimTime(i as u64),
                last: SimTime(i as u64 + 30),
            }
        })
        .collect()
}

/// Push one synthetic hour through Exporter → ChaosLink → Collector at
/// the given severity and print what survived — a quick operator-facing
/// smoke test of the collector's fault tolerance (DESIGN.md, "Fault
/// model"). `haystack chaos --severity 0` must report a lossless path.
fn cmd_chaos(flags: HashMap<String, String>) {
    use haystack_flow::export::{ExportProtocol, Exporter};
    use haystack_flow::{ChaosConfig, ChaosLink, Collector};

    let seed: u64 = num(&flags, "seed", 42);
    let n_records: usize = num(&flags, "records", 10_000);
    let severities: Vec<f64> = match flags.get("severity") {
        Some(v) => match v.parse::<f64>() {
            Ok(s) if (0.0..=1.0).contains(&s) => vec![s],
            _ => {
                cli_error!("--severity needs a number in [0, 1]");
                exit(2);
            }
        },
        None => vec![0.0, 0.25, 0.5, 0.75, 1.0],
    };
    let records = synthetic_flow_records(n_records, seed);
    println!(
        "severity\tsent\tdelivered\tdecoded\tdecode_rate\tmissed_dg\trestarts\tmalformed\tquarantined"
    );
    for &severity in &severities {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7);
        let mut link = ChaosLink::new(ChaosConfig::at_severity(severity, seed));
        let mut collector = Collector::new();
        let mut decoded = 0usize;
        for (hour, chunk) in records.chunks(512).enumerate() {
            let msgs = exporter.export(chunk, 3_600 * hour as u32).expect("export");
            for d in link.transmit_all(msgs) {
                decoded += collector.feed(d).map_or(0, |rs| rs.len());
            }
        }
        for d in link.shutdown() {
            decoded += collector.feed(d).map_or(0, |rs| rs.len());
        }
        let s = link.stats();
        println!(
            "{severity:.2}\t{}\t{}\t{decoded}\t{:.3}\t{}\t{}\t{}\t{}",
            s.sent,
            s.delivered,
            if records.is_empty() {
                1.0
            } else {
                decoded as f64 / records.len() as f64
            },
            collector.missed_datagrams(),
            collector.restarts_detected(),
            collector.malformed_messages() + collector.malformed_sets(),
            collector.quarantined_sources().len(),
        );
        if severity == 0.0 && decoded != records.len() {
            cli_error!("clean link lost records ({decoded}/{})", records.len());
            exit(1);
        }
    }
}

/// Run an instrumented slice of the pipeline and print the telemetry
/// snapshot — Prometheus text exposition by default, the structured
/// JSON document with `--json` (DESIGN.md §11).
///
/// The wire stage (Exporter → ChaosLink → Collector) always runs; the
/// detect stage (simulated ISP hour → instrumented stream → sharded
/// detector pool) runs when `--rules` is given.
fn cmd_metrics(flags: HashMap<String, String>) {
    use haystack_core::telemetry::{observe_collector, observe_hitlist, InstrumentedStream};
    use haystack_flow::export::{ExportProtocol, Exporter};
    use haystack_flow::{ChaosConfig, ChaosLink, Collector};

    telemetry::set_enabled(true);
    let seed: u64 = num(&flags, "seed", 42);
    let severity: f64 = num(&flags, "severity", 0.25);
    let n_records: usize = num(&flags, "records", 10_000);
    if !(0.0..=1.0).contains(&severity) {
        cli_error!("--severity needs a number in [0, 1]");
        exit(2);
    }

    note!("wire stage: {n_records} records through a severity-{severity:.2} link ...");
    let records = synthetic_flow_records(n_records, seed);
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7);
    let mut link = ChaosLink::new(ChaosConfig::at_severity(severity, seed));
    let mut collector = Collector::new();
    let wire = telemetry::Scope::named("wire");
    let mut decoded = 0u64;
    for (hour, chunk) in records.chunks(512).enumerate() {
        let msgs = exporter.export(chunk, 3_600 * hour as u32).expect("export");
        for d in link.transmit_all(msgs) {
            decoded += collector.feed(d).map_or(0, |rs| rs.len()) as u64;
        }
    }
    for d in link.shutdown() {
        decoded += collector.feed(d).map_or(0, |rs| rs.len()) as u64;
    }
    let s = link.stats();
    wire.counter("records_sent").add(records.len() as u64);
    wire.counter("records_decoded").add(decoded);
    wire.gauge("datagrams_sent").set(s.sent);
    wire.gauge("datagrams_delivered").set(s.delivered);
    wire.gauge("datagrams_dropped").set(s.dropped);
    observe_collector(&telemetry::Scope::named("collector"), &collector);

    if flags.contains_key("rules") {
        let SignaturePack {
            rules, threshold, ..
        } = load_pack(&flags);
        let threshold: f64 = num(&flags, "threshold", threshold);
        let lines: u32 = num(&flags, "lines", 2_000);
        let workers: usize = num(&flags, "workers", 2);
        if workers == 0 {
            cli_error!("--workers must be at least 1");
            exit(2);
        }
        note!("detect stage: simulated ISP hour over {lines} lines, {workers} workers ...");
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let isp = IspVantage::new(
            &catalog,
            IspConfig {
                lines,
                sampling: 1_000,
                seed,
                background: false,
            },
        );
        let hitlist = HitList::whole_window(&rules);
        observe_hitlist(&telemetry::Scope::named("hitlist"), &hitlist);
        let mut pool = DetectorPool::new(
            &rules,
            &hitlist,
            DetectorConfig {
                threshold,
                require_established: false,
            },
            workers,
        );
        pool.attach_telemetry(&telemetry::Scope::named("pool"))
            .unwrap_or_else(|e| {
                cli_error!("{e}");
                exit(1);
            });
        let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
        let hour = DayBin(0).hours().next().expect("a day has hours");
        let mut stream = InstrumentedStream::new(
            isp.stream_hour(&world, hour, DEFAULT_CHUNK_RECORDS),
            &telemetry::Scope::named("stream"),
        );
        or_exit(pool.observe_stream(&mut stream, &mut chunk));
        or_exit(pool.finish());
        // One durable checkpoint round-trip per shard — a full frame,
        // the dirty set as a delta chained onto it, the chain restored —
        // so the snapshot also shows the CheckpointDir side of DESIGN.md
        // §12 (snapshots_written, snapshot_bytes, dirty_entries,
        // delta_bytes, restores) next to the pool-side counters.
        let ckpt_root =
            std::env::temp_dir().join(format!("haystack-metrics-ckpt-{}", std::process::id()));
        let states = or_exit(pool.shard_states());
        let deltas = or_exit(pool.checkpoint_all_delta());
        let round_trip = CheckpointDir::open(&ckpt_root).and_then(|dir| {
            for (i, (state, delta)) in states.iter().zip(&deltas).enumerate() {
                let prefix = format!("shard{i}");
                let base = dir.write(&prefix, &state.encode())?;
                dir.write_delta(&prefix, &delta.encode(), delta.entry_count() as u64)?;
                dir.load_chain(
                    &prefix,
                    DetectorState::decode,
                    |frame| Ok((base, DetectorSnapshot::decode(frame)?)),
                    |state, delta: DetectorSnapshot| delta.apply_to(state),
                )?;
            }
            Ok(())
        });
        if let Err(e) = round_trip {
            note!("checkpoint slice skipped: {e}");
        }
        let _ = std::fs::remove_dir_all(&ckpt_root);
    }

    let snap = telemetry::global().snapshot();
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&snap.to_json()).expect("serializable")
        );
    } else {
        print!("{}", snap.to_prometheus());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    // The process-isolated shard entry point (DESIGN.md §15): parent
    // supervisors spawn `haystack shard-worker` and speak the HAYPROC
    // frame protocol over stdin/stdout. Dispatched before flag parsing —
    // its only interface is the pipe pair.
    if cmd == "shard-worker" {
        exit(haystack_core::procpool::worker_main());
    }
    // `rules` is the one command with subcommands: `rules export`,
    // `rules show` and `rules lint` dispatch as two-word commands.
    let (cmd, rest) = match rest.split_first() {
        Some((sub, sub_rest)) if cmd == "rules" => (format!("rules {sub}"), sub_rest),
        _ => (cmd.clone(), rest),
    };
    let flags = parse_flags(rest);
    haystack_cli::log::set_quiet(flags.contains_key("quiet"));
    match cmd.as_str() {
        "rules export" => cmd_rules_export(flags),
        "rules show" => cmd_rules_show(flags),
        "rules lint" => cmd_rules_lint(flags),
        "detect" => cmd_detect(flags),
        "soak" => soak::cmd_soak(flags),
        "serve" => serve::cmd_serve(flags),
        "send" => serve::cmd_send(flags),
        "mitigate" => cmd_mitigate(flags),
        "capture" => cmd_capture(flags),
        "replay" => cmd_replay(flags),
        "chaos" => cmd_chaos(flags),
        "metrics" => cmd_metrics(flags),
        _ => usage(),
    }
}
