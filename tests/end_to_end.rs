//! Integration tests spanning the whole workspace: ground truth →
//! classification → rules → wild detection, validated against the
//! simulation's ownership oracles (which the detector never sees).

use haystack::core::detector::{Detector, DetectorConfig};
use haystack::core::hitlist::HitList;
use haystack::core::parallel::DetectorPool;
use haystack::core::pipeline::{Pipeline, PipelineConfig};
use haystack::core::report::{
    run_isp_study, run_ixp_study, DeviceGroup, IspStudyConfig, IxpStudyConfig,
};
use haystack::net::{AnonId, DayBin, StudyWindow};
use haystack::wild::{
    IspConfig, IspVantage, IxpConfig, IxpVantage, RecordChunk, VantagePoint, DEFAULT_CHUNK_RECORDS,
};
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn pipeline() -> &'static Pipeline {
    static P: OnceLock<Pipeline> = OnceLock::new();
    P.get_or_init(|| Pipeline::run(PipelineConfig::fast(99)))
}

fn isp(lines: u32) -> IspVantage {
    IspVantage::new(
        &pipeline().catalog,
        IspConfig {
            lines,
            sampling: 1_000,
            seed: 4242,
            background: true,
        },
    )
}

/// Owner oracle: the anonymized ids of lines owning any product whose
/// class ancestry includes `class`.
fn owner_ids(isp: &IspVantage, class: &str, day: u32) -> BTreeSet<AnonId> {
    let p = pipeline();
    let mut out = BTreeSet::new();
    for (pi, prod) in p.catalog.products.iter().enumerate() {
        let in_class = p
            .catalog
            .ancestry(prod.class)
            .iter()
            .any(|c| c.name == class);
        if !in_class {
            continue;
        }
        for &line in isp.population().owners_of(pi) {
            out.insert(
                isp.anonymizer()
                    .anonymize(isp.population().ip_of(line, day)),
            );
        }
    }
    out
}

#[test]
fn alexa_detection_has_high_precision_and_useful_recall() {
    let p = pipeline();
    let isp = isp(12_000);
    // The day streams chunk-by-chunk into the persistent worker pool —
    // the deployment shape; the hour is never materialized.
    let mut pool = DetectorPool::new(
        &p.rules,
        &HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
        DetectorConfig::default(),
        2,
    );
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    for hour in DayBin(0).hours() {
        let mut stream = isp.stream_hour(&p.world, hour, DEFAULT_CHUNK_RECORDS);
        pool.observe_stream(&mut *stream, &mut chunk).unwrap();
    }
    pool.finish().unwrap();
    let detected: BTreeSet<AnonId> = pool
        .detected_lines("Alexa Enabled")
        .unwrap()
        .into_iter()
        .collect();
    let owners = owner_ids(&isp, "Alexa Enabled", 0);
    assert!(!detected.is_empty(), "nothing detected");
    let true_pos = detected.intersection(&owners).count();
    let precision = true_pos as f64 / detected.len() as f64;
    let recall = true_pos as f64 / owners.len() as f64;
    assert!(precision > 0.97, "precision {precision:.3}");
    assert!(
        recall > 0.5,
        "daily recall {recall:.3} (paper: Alexa detectable within a day)"
    );
}

#[test]
fn background_browsing_alone_triggers_nothing() {
    // A population with zero IoT penetration but full background traffic:
    // the detector must stay silent (the §4.1/§4.2 filters put no generic
    // or shared IP in the hitlist).
    let p = pipeline();
    let mut catalog = p.catalog.clone();
    for prod in &mut catalog.products {
        prod.penetration = 0.0;
    }
    let isp = IspVantage::new(
        &catalog,
        IspConfig {
            lines: 8_000,
            sampling: 200,
            seed: 7,
            background: true,
        },
    );
    let mut det = Detector::new(
        &p.rules,
        HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
        DetectorConfig::default(),
    );
    let mut records = 0usize;
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    for hour in DayBin(0).hours().take(6) {
        let mut stream = isp.stream_hour(&p.world, hour, DEFAULT_CHUNK_RECORDS);
        while stream.next_chunk(&mut chunk) {
            records += chunk.records.len();
            for r in &chunk.records {
                det.observe_wild(r);
            }
        }
    }
    assert!(records > 1_000, "background produced traffic: {records}");
    for rule in &p.rules.rules {
        assert!(
            det.detected_lines(p.rules.class_name(rule.class))
                .is_empty(),
            "false positive for {} from pure background traffic",
            p.rules.class_name(rule.class)
        );
    }
}

#[test]
fn isp_study_headline_shares_track_the_paper() {
    let p = pipeline();
    let isp = isp(15_000);
    let study = run_isp_study(
        p,
        &p.world,
        &isp,
        &IspStudyConfig {
            window: StudyWindow::days(0, 1),
            ..Default::default()
        },
    );
    let lines = 15_000f64;
    let any = study.any_iot_daily[&0] as f64 / lines;
    // Paper: ~20 % of lines show IoT activity per day.
    assert!((0.10..=0.32).contains(&any), "any-IoT share {any:.3}");
    let alexa = study
        .group_daily
        .get(&(DeviceGroup::Alexa, 0))
        .copied()
        .unwrap_or(0) as f64
        / lines;
    // Paper: ~14 % Alexa-enabled penetration.
    assert!((0.07..=0.20).contains(&alexa), "alexa share {alexa:.3}");
    // Samsung hour→day gain is larger than Alexa's (paper: ×6 vs ×2).
    let peak = |g: DeviceGroup| {
        (0..24u32)
            .filter_map(|h| study.group_hourly.get(&(g, h)))
            .max()
            .copied()
            .unwrap_or(0) as f64
    };
    let alexa_gain =
        study.group_daily[&(DeviceGroup::Alexa, 0)] as f64 / peak(DeviceGroup::Alexa).max(1.0);
    let samsung_gain =
        study.group_daily[&(DeviceGroup::Samsung, 0)] as f64 / peak(DeviceGroup::Samsung).max(1.0);
    assert!(
        samsung_gain > alexa_gain,
        "samsung day/hour gain {samsung_gain:.1} should exceed alexa's {alexa_gain:.1}"
    );
}

#[test]
fn ixp_spoofing_filter_kills_fake_evidence() {
    let p = pipeline();
    let config = IxpConfig {
        sampling: 2_000,
        seed: 31,
        big_eyeballs: 2,
        big_lines: 2_000,
        tail_members: 4,
        tail_lines: 100,
        route_visibility: 0.8,
        spoofed_per_hour: 5_000, // heavy attack
    };
    let ixp = IxpVantage::new(&p.catalog, config);
    let window = StudyWindow::days(0, 1);
    let filtered = run_ixp_study(
        p,
        &p.world,
        &ixp,
        &IxpStudyConfig {
            window,
            ..Default::default()
        },
    );
    let unfiltered = run_ixp_study(
        p,
        &p.world,
        &ixp,
        &IxpStudyConfig {
            window,
            established_filter: false,
            ..Default::default()
        },
    );
    let total = |s: &haystack::core::report::IxpStudyResult| -> u64 { s.daily_ips.values().sum() };
    assert!(
        total(&unfiltered) > total(&filtered) * 2,
        "spoofing should inflate unfiltered counts: {} vs {}",
        total(&unfiltered),
        total(&filtered)
    );
    // With the filter, detected IPs are overwhelmingly real owners.
    // (Owner oracle: lines with any device across members.)
    let real_total = total(&filtered);
    assert!(real_total > 0, "filter must not kill real detections");
}

#[test]
fn mitigation_starves_only_the_targeted_class() {
    use haystack::core::mitigation::{block_plan, enforce, Action};
    let p = pipeline();
    let isp = isp(10_000);
    let plan = block_plan(&p.rules, &p.dnsdb, "Yi Camera", DayBin(0), Action::Block)
        .expect("Yi Camera has a rule");

    let mut unfiltered = Detector::new(
        &p.rules,
        HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
        DetectorConfig::default(),
    );
    let mut filtered = Detector::new(
        &p.rules,
        HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
        DetectorConfig::default(),
    );
    let mut total_blocked = 0u64;
    for hour in DayBin(0).hours() {
        let records = isp.capture_hour(&p.world, hour).records;
        for r in &records {
            unfiltered.observe_wild(r);
        }
        let (passed, log) = enforce(&plan, records);
        total_blocked += log.blocked;
        for r in &passed {
            filtered.observe_wild(r);
        }
    }
    assert!(
        total_blocked > 0,
        "the BNG filter must have dropped something"
    );
    assert!(
        !unfiltered.detected_lines("Yi Camera").is_empty(),
        "Yi owners exist in this population"
    );
    assert!(
        filtered.detected_lines("Yi Camera").is_empty(),
        "blocking the C2 must blind the detector for that class"
    );
    // Collateral check: another camera class is untouched.
    assert_eq!(
        filtered.detected_lines("Wansview Cam.").len(),
        unfiltered.detected_lines("Wansview Cam.").len(),
        "unrelated classes must be unaffected"
    );
}

#[test]
fn dns_assisted_covers_what_flows_cannot() {
    use haystack::core::dns_assisted::{dns_rules, DnsDetector};
    use haystack::wild::gen::generate_dns_hour;
    let p = pipeline();
    let isp = isp(10_000);
    let rules = dns_rules(&p.catalog, &p.observations, &p.classification);
    let mut det = DnsDetector::new(&rules, 0.4);
    for hour in DayBin(0).hours() {
        for e in generate_dns_hour(
            isp.population(),
            isp.plan(),
            hour,
            1.0,
            isp.config().seed,
            isp.anonymizer(),
        ) {
            det.observe_event(&e, &isp.plan().domains);
        }
    }
    // Google Home: no flow rule (§4.2.3), but DNS sees it.
    assert!(p.rules.rule("Google Home").is_none());
    let google = det.detected_lines("Google Home");
    assert!(
        !google.is_empty(),
        "resolver logs must expose the CDN-hosted class"
    );
    // And precision against the oracle stays high.
    let owners = owner_ids(&isp, "Google Home", 0);
    let tp = google.iter().filter(|l| owners.contains(l)).count();
    let precision = tp as f64 / google.len() as f64;
    assert!(precision > 0.95, "dns precision {precision:.3}");
}

#[test]
fn streaming_detection_is_worker_and_chunking_invariant() {
    // Same seed, same day: the materialized sequential detector and the
    // streamed pool must agree exactly, for every class, at 1, 2, and 8
    // workers and an unusual chunk size.
    let p = pipeline();
    let isp = isp(6_000);
    let hours = 8usize;
    let mut det = Detector::new(
        &p.rules,
        HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
        DetectorConfig::default(),
    );
    for hour in DayBin(0).hours().take(hours) {
        for r in &isp.capture_hour(&p.world, hour).records {
            det.observe_wild(r);
        }
    }
    for workers in [1usize, 2, 8] {
        let mut pool = DetectorPool::new(
            &p.rules,
            &HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
            DetectorConfig::default(),
            workers,
        );
        let mut chunk = RecordChunk::default();
        for hour in DayBin(0).hours().take(hours) {
            let mut stream = isp.stream_hour(&p.world, hour, 1_013);
            pool.observe_stream(&mut *stream, &mut chunk).unwrap();
        }
        pool.finish().unwrap();
        for rule in &p.rules.rules {
            let class = p.rules.class_name(rule.class);
            assert_eq!(
                pool.detected_lines(class).unwrap(),
                det.detected_lines(class),
                "class {class} diverges at {workers} workers"
            );
        }
    }
}

/// Golden snapshot of the whole gen → degrade → detect → report path:
/// the detection report AND the telemetry counters are pinned to
/// fixtures under `tests/golden/`. Every stage is seeded and the
/// telemetry subset is counters-only (no gauges, no span histograms),
/// so a diff means behavior changed — re-bless with
/// `HAYSTACK_BLESS=1 cargo test golden_e2e` after verifying the change
/// is intended.
#[test]
fn golden_e2e_snapshot_matches_fixture() {
    use haystack::core::telemetry::{self, HotStats, HotStatsCounters, InstrumentedStream};
    use haystack::flow::ChaosConfig;
    use haystack::wild::{DegradeStream, RecordStream};

    telemetry::set_enabled(true);
    let p = pipeline();
    let isp = isp(4_000);
    let scope = telemetry::Scope::named("golden");
    let chaos = ChaosConfig {
        drop_probability: 0.05,
        duplicate_probability: 0.02,
        seed: 17,
        ..ChaosConfig::off()
    };
    // Single-threaded detector: per-shard pool counters would pin the
    // worker count into the fixture; the detector itself is invariant.
    let mut det = Detector::new(
        &p.rules,
        HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
        DetectorConfig::default(),
    );
    let hot = HotStatsCounters::new(&scope.sub("detector"));
    let mut flushed = HotStats::default();
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    for (h, hour) in DayBin(0).hours().enumerate() {
        let mut stream = InstrumentedStream::new(
            DegradeStream::new(
                isp.stream_hour(&p.world, hour, DEFAULT_CHUNK_RECORDS),
                chaos.clone(),
                h as u64,
                DEFAULT_CHUNK_RECORDS,
            ),
            &scope.sub("stream"),
        );
        while stream.next_chunk(&mut chunk) {
            det.observe_chunk(&chunk.records);
            let now = det.hot_stats();
            hot.flush(now.since(&flushed));
            flushed = now;
        }
    }

    let report = serde_json::json!({
        "window": "day 0",
        "chaos": {"drop_probability": 0.05, "duplicate_probability": 0.02, "seed": 17},
        "classes": p.rules.rules.iter().map(|r| serde_json::json!({
            "class": p.rules.class_name(r.class),
            "detected_lines": det.detected_lines(p.rules.class_name(r.class)).iter().map(|l| l.0).collect::<Vec<_>>(),
        })).collect::<Vec<_>>(),
    });
    let filtered = telemetry::global().snapshot().filtered("golden");
    let report_text = serde_json::to_string_pretty(&report).expect("serializable");
    let tel_text =
        serde_json::to_string_pretty(&filtered.counters_to_json()).expect("serializable");

    // CI artifact: the run's full Prometheus exposition (target/ is
    // uploaded from the golden-e2e job, never committed).
    let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    let _ = std::fs::create_dir_all(&target);
    let _ = std::fs::write(
        target.join("metrics_snapshot.prom"),
        filtered.to_prometheus(),
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    if std::env::var_os("HAYSTACK_BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(dir.join("e2e_report.json"), format!("{report_text}\n")).unwrap();
        std::fs::write(dir.join("e2e_telemetry.json"), format!("{tel_text}\n")).unwrap();
        return;
    }
    let fixture = |name: &str| {
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| {
            panic!("missing fixture {name} ({e}); run HAYSTACK_BLESS=1 cargo test golden_e2e")
        })
    };
    assert_eq!(
        report_text.trim(),
        fixture("e2e_report.json").trim(),
        "detection report drifted from tests/golden/e2e_report.json"
    );
    assert_eq!(
        tel_text.trim(),
        fixture("e2e_telemetry.json").trim(),
        "telemetry counters drifted from tests/golden/e2e_telemetry.json"
    );
}

#[test]
fn full_flow_pipeline_ipfix_round_trip() {
    // Packets → sampler → flow cache → IPFIX wire → collector → detector:
    // the wire format carries everything the detector needs.
    use haystack::flow::cache::{FlowCache, FlowCacheConfig};
    use haystack::flow::export::{ExportProtocol, Exporter};
    use haystack::flow::sampling::{PacketSampler, SystematicSampler};
    use haystack::flow::Collector;
    use haystack::net::ports::Proto;

    let p = pipeline();
    let mut sampler = SystematicSampler::new(50, 3).unwrap();
    let mut cache = FlowCache::new(FlowCacheConfig::default());
    let mut exporter = Exporter::new(ExportProtocol::Ipfix, 9);
    let mut collector = Collector::new();
    let mut det = Detector::new(
        &p.rules,
        HitList::whole_window(&p.rules),
        DetectorConfig::default(),
    );
    let line = AnonId(1);
    for hour in StudyWindow::IDLE_GT.hour_bins().take(3) {
        for g in p.driver.generate_hour(&p.world, hour) {
            if sampler.sample() {
                cache.on_packet(&g.packet);
            }
        }
        cache.advance(hour.next().start());
        for msg in exporter
            .export(&cache.drain_expired(), hour.start().0 as u32)
            .unwrap()
        {
            for rec in collector.feed(msg).unwrap() {
                let proto = rec.key.proto;
                det.observe(
                    line,
                    rec.key.dst,
                    rec.key.dport,
                    proto,
                    rec.is_established_evidence(),
                    hour,
                );
            }
        }
        let _ = Proto::Tcp;
    }
    assert!(
        det.is_detected(line, "Alexa Enabled"),
        "the Home-VP line must be detected through the full IPFIX pipeline"
    );
    assert_eq!(collector.malformed_messages(), 0);
    assert_eq!(collector.dropped_unknown_template(), 0);
}

#[test]
fn exported_records_decode_alike_through_feed_into_and_feed() {
    // The decode path the daemon runs (`Collector::feed_into` into a
    // reused buffer) and the one everything else uses (`feed`), under the
    // tier-1 command: real flow-cache output exported as NetFlow v9 and
    // as IPFIX comes back record for record through both, and turns into
    // the same `WildRecord`s.
    use haystack::flow::cache::{FlowCache, FlowCacheConfig};
    use haystack::flow::export::{ExportProtocol, Exporter};
    use haystack::flow::{Collector, FlowRecord};
    use haystack::net::Anonymizer;
    use haystack::wild::WildRecord;

    let p = pipeline();
    let mut cache = FlowCache::new(FlowCacheConfig::default());
    let mut exported: Vec<FlowRecord> = Vec::new();
    for hour in StudyWindow::IDLE_GT.hour_bins().take(2) {
        for g in p.driver.generate_hour(&p.world, hour) {
            cache.on_packet(&g.packet);
        }
        cache.advance(hour.next().start());
        exported.extend(cache.drain_expired());
    }
    assert!(
        exported.len() > 100,
        "only {} records to export",
        exported.len()
    );

    let anon = Anonymizer::new(7, 8);
    for protocol in [ExportProtocol::NetflowV9, ExportProtocol::Ipfix] {
        let wire = Exporter::new(protocol, 9).export(&exported, 100).unwrap();
        assert!(
            wire.len() as u64 > Exporter::TEMPLATE_REFRESH,
            "no template refresh on the wire"
        );
        let (mut by_buf, mut by_vec) = (Collector::new(), Collector::new());
        let (mut buf, mut from_buf, mut from_vec) = (Vec::new(), Vec::new(), Vec::new());
        for datagram in wire {
            buf.clear();
            let decoded = by_buf.feed_into(&datagram, &mut buf, |_, _| true).unwrap();
            assert_eq!(decoded, buf.len());
            from_buf.extend(buf.iter().map(|r| WildRecord::from_flow(r, &anon)));
            from_vec.extend(by_vec.feed(datagram).unwrap());
        }
        assert_eq!(from_vec, exported, "{protocol:?}");
        let wild: Vec<WildRecord> = exported
            .iter()
            .map(|r| WildRecord::from_flow(r, &anon))
            .collect();
        assert_eq!(from_buf, wild, "{protocol:?}");
        assert_eq!(by_buf.snapshot(), by_vec.snapshot(), "{protocol:?}");
        assert_eq!(by_buf.records_decoded(), exported.len() as u64);
    }
}
