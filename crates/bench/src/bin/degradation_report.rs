//! How detection quality degrades when the flow feed is impaired — the
//! robustness companion to `accuracy_report` (DESIGN.md, "Fault model").
//!
//! Two sections, both swept over a chaos severity in `[0, 1]`:
//!
//! 1. **Wire**: a real `Exporter → ChaosLink → Collector` path over
//!    synthetic flow records, reporting delivery and decode rates plus
//!    the collector's survival counters (sequence gaps, restarts,
//!    quarantines). Severity 0 must decode *exactly* what was exported.
//! 2. **Detection**: the §6.2 ISP study with the vantage point's feed
//!    degraded at the same severity, reporting micro-averaged
//!    precision/recall/F1 against the clean baseline. Recall should fall
//!    smoothly with severity — partial evidence, not a cliff to zero.
//!
//! The paper's wild results implicitly assume a healthy feed; this sweep
//! quantifies how far that assumption can erode before the §6 numbers
//! move.

use haystack_bench::{build_isp, build_pipeline, pct, Args};
use haystack_core::detector::DetectorConfig;
use haystack_core::hitlist::HitList;
use haystack_core::parallel::DetectorPool;
use haystack_core::pipeline::Pipeline;
use haystack_core::quality::{evaluate, Confusion};
use haystack_core::telemetry::{self, InstrumentedStream};
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::key::FlowKey;
use haystack_flow::tcp_flags::TcpFlags;
use haystack_flow::{ChaosConfig, ChaosLink, Collector, FlowRecord};
use haystack_net::ports::Proto;
use haystack_net::{DayBin, SimTime};
use haystack_wild::{IspVantage, RecordChunk, VantagePoint, DEFAULT_CHUNK_RECORDS};
use std::net::Ipv4Addr;

fn synthetic_records(n: usize, salt: u64) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt);
            FlowRecord {
                key: FlowKey {
                    src: Ipv4Addr::new(100, 64, (x >> 8) as u8, x as u8),
                    dst: Ipv4Addr::new(198, 18, 0, (x >> 16) as u8),
                    sport: 40_000 + (i % 1_000) as u16,
                    dport: if i % 3 == 0 { 8_883 } else { 443 },
                    proto: Proto::Tcp,
                },
                packets: 1 + (x % 7),
                bytes: 40 * (1 + (x % 7)),
                tcp_flags: TcpFlags::ACK,
                first: SimTime(i as u64),
                last: SimTime(i as u64 + 30),
            }
        })
        .collect()
}

/// One severity step of the wire sweep.
fn wire_step(severity: f64, seed: u64, records: &[FlowRecord]) -> (u64, u64, usize) {
    let chaos = ChaosConfig::at_severity(severity, seed);
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7);
    let mut link = ChaosLink::new(chaos);
    let mut collector = Collector::new();
    let mut decoded = 0usize;
    for (hour, chunk) in records.chunks(256).enumerate() {
        let msgs = exporter.export(chunk, 3_600 * hour as u32).expect("export");
        for d in link.transmit_all(msgs) {
            // Malformed datagrams are counted, never fatal.
            if let Ok(rs) = collector.feed(d) {
                decoded += rs.len();
            }
        }
    }
    for d in link.shutdown() {
        if let Ok(rs) = collector.feed(d) {
            decoded += rs.len();
        }
    }
    let s = link.stats();
    println!(
        "{severity:.1}\t{}\t{}\t{}\t{}\t{decoded}\t{}\t{}\t{}\t{}\t{}\t{}",
        s.sent,
        s.delivered,
        s.dropped,
        records.len(),
        collector.missed_datagrams(),
        collector.missed_records(),
        collector.restarts_detected(),
        collector.malformed_messages(),
        collector.malformed_sets(),
        collector.dropped_unknown_template(),
    );
    (s.delivered, collector.missed_datagrams(), decoded)
}

/// Run the ISP study at one severity; `None` severity = clean vantage.
fn detection_step(p: &Pipeline, args: &Args, severity: Option<f64>, days: u32) -> Confusion {
    let label = severity.map_or("clean".to_string(), |s| format!("{s:.1}"));
    let scope = telemetry::Scope::named(&format!("detect.{label}"));
    let mut isp = build_isp(p, args);
    if let Some(s) = severity {
        isp = IspVantage::with_chaos(isp, ChaosConfig::at_severity(s, args.seed ^ 0xC4A0));
    }
    // The degraded feed streams chunk-by-chunk into the persistent
    // worker pool; degradation accounting rides along on the chunks.
    let mut pool = DetectorPool::new(&p.rules, &HitList::default(), DetectorConfig::default(), 4);
    pool.attach_telemetry(&scope.sub("pool")).unwrap();
    // The hitlist swaps below double as shard checkpoints, so the
    // `# telemetry` section carries the checkpoint.* recovery counters.
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    let mut degradation = haystack_wild::FeedDegradation::default();
    for day in 0..days {
        pool.set_hitlist(&HitList::for_day(&p.rules, &p.dnsdb, DayBin(day)))
            .unwrap();
        for hour in DayBin(day).hours() {
            let mut stream = InstrumentedStream::new(
                isp.stream_hour(&p.world, hour, DEFAULT_CHUNK_RECORDS),
                &scope.sub("stream"),
            );
            let (_records, _packets, deg) = pool.observe_stream(&mut stream, &mut chunk).unwrap();
            degradation.absorb(deg);
        }
    }
    pool.finish().unwrap();
    let mut total = Confusion::default();
    let last_day = days - 1;
    for r in &p.rules.rules {
        let c = evaluate(p, &isp, &mut pool, p.rules.class_name(r.class), last_day);
        total.true_pos += c.true_pos;
        total.false_pos += c.false_pos;
        total.false_neg += c.false_neg;
    }
    println!(
        "{label}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{}",
        total.true_pos,
        total.false_pos,
        total.false_neg,
        total.precision(),
        total.recall(),
        total.f1(),
        pct(degradation.delivery_ratio()),
    );
    total
}

fn main() {
    let args = Args::parse();
    // The report doubles as the telemetry showcase: every stage below
    // feeds the global registry, dumped as JSON at the end (§11).
    telemetry::set_enabled(true);

    // ---- Section 1: the wire path under chaos -------------------------
    let records = synthetic_records(if args.fast { 4_000 } else { 20_000 }, args.seed);
    println!("# wire sweep: Exporter -> ChaosLink -> Collector, NetFlow v9, batch 30");
    println!(
        "severity\tsent\tdelivered\tdropped\texported\tdecoded\tmissed_dg\tmissed_rec\trestarts\tmalformed_msg\tmalformed_set\tunknown_tmpl"
    );
    let severities: &[f64] = if args.fast {
        &[0.0, 0.3, 0.6, 1.0]
    } else {
        &[0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    for &s in severities {
        let (_, _, decoded) = wire_step(s, args.seed, &records);
        if s == 0.0 {
            assert_eq!(
                decoded,
                records.len(),
                "severity 0 must decode exactly the exported records"
            );
        }
    }

    // The acceptance scenario: 10 % datagram loss plus one exporter
    // restart mid-stream. The collector must come through with gap and
    // restart counters set, never a panic.
    let chaos = ChaosConfig {
        drop_probability: 0.1,
        restart_after: Some(40),
        seed: args.seed,
        ..ChaosConfig::off()
    };
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7);
    let mut link = ChaosLink::new(chaos);
    let mut collector = Collector::new();
    let mut decoded = 0usize;
    for (hour, chunk) in records.chunks(256).enumerate() {
        for d in link.transmit_all(exporter.export(chunk, 3_600 * hour as u32).expect("export")) {
            decoded += collector.feed(d).map_or(0, |rs| rs.len());
        }
    }
    for d in link.shutdown() {
        decoded += collector.feed(d).map_or(0, |rs| rs.len());
    }
    assert!(
        collector.missed_datagrams() > 0,
        "10% loss must register sequence gaps"
    );
    assert!(
        collector.restarts_detected() >= 1,
        "the restart must be detected"
    );
    assert!(decoded > 0, "most records still decode");
    telemetry::observe_collector(&telemetry::Scope::named("wire.collector"), &collector);
    println!(
        "# acceptance: 10% loss + restart -> decoded {}/{} ({}), missed_dg {}, restarts {}",
        decoded,
        records.len(),
        pct(decoded as f64 / records.len() as f64),
        collector.missed_datagrams(),
        collector.restarts_detected(),
    );

    // ---- Section 2: detection quality under a degraded feed -----------
    let p = build_pipeline(&args);
    let days = if args.fast { 1u32 } else { 2 };
    println!("# detection sweep: ISP study over {days} day(s), micro-averaged across classes");
    println!("severity\ttp\tfp\tfn\tprecision\trecall\tf1\tdelivery");
    let clean = detection_step(&p, &args, None, days);
    let zero = detection_step(&p, &args, Some(0.0), days);
    assert_eq!(
        (clean.true_pos, clean.false_pos, clean.false_neg),
        (zero.true_pos, zero.false_pos, zero.false_neg),
        "severity 0 must reproduce the clean study exactly"
    );
    let det_severities: &[f64] = if args.fast {
        &[0.3, 0.6]
    } else {
        &[0.2, 0.4, 0.6, 0.8]
    };
    let mut last_recall = zero.recall();
    for &s in det_severities {
        let c = detection_step(&p, &args, Some(s), days);
        if s <= 0.6 && clean.recall() > 0.0 {
            assert!(
                c.recall() > 0.0,
                "recall must degrade smoothly, not cliff to zero (severity {s})"
            );
        }
        last_recall = c.recall();
    }
    println!(
        "# recall: clean {} -> severity {:.1} {} (evidence thins; verdicts don't flip to noise)",
        pct(clean.recall()),
        det_severities.last().copied().unwrap_or(0.0),
        pct(last_recall),
    );

    // ---- Section 3: pipeline telemetry --------------------------------
    println!("# telemetry");
    let snap = telemetry::global().snapshot();
    println!(
        "{}",
        serde_json::to_string_pretty(&snap.to_json()).expect("serializable")
    );
}
