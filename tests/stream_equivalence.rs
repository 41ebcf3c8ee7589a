//! The streaming pin: any chunking of an hour, through any vantage
//! point, must be byte-identical to the legacy materialized
//! `HourTraffic` path — same records in the same order, same funnel
//! accounting, and therefore identical detections.
//!
//! The unit tests in `haystack-wild` pin each stream implementation to
//! its eager twin; these tests pin the *composition*: vantage point →
//! chunks → detector, across chunk sizes 1, 7, 1024, and whole-hour,
//! with and without feed chaos.

use haystack::core::detector::{Detector, DetectorConfig};
use haystack::core::hitlist::HitList;
use haystack::core::pipeline::{Pipeline, PipelineConfig};
use haystack::flow::ChaosConfig;
use haystack::net::{DayBin, HourBin};
use haystack::wild::{
    FeedDegradation, HourTraffic, IspConfig, IspVantage, IxpConfig, IxpVantage, RecordChunk,
    VantagePoint,
};
use std::sync::OnceLock;

fn pipeline() -> &'static Pipeline {
    static P: OnceLock<Pipeline> = OnceLock::new();
    P.get_or_init(|| Pipeline::run(PipelineConfig::fast(7)))
}

const CHUNK_SIZES: [usize; 4] = [1, 7, 1_024, usize::MAX];

/// Drain `vantage`'s stream at `chunk_records`, collecting records and
/// summing per-chunk accounting.
fn drain(
    vantage: &dyn VantagePoint,
    world: &haystack::testbed::materialize::MaterializedWorld,
    hour: HourBin,
    chunk_records: usize,
) -> (HourTraffic, usize) {
    let mut out = HourTraffic::default();
    let mut chunk = RecordChunk::default();
    let mut chunks = 0usize;
    let mut stream = vantage.stream_hour(world, hour, chunk_records);
    while stream.next_chunk(&mut chunk) {
        assert!(
            chunk_records == usize::MAX || chunk.records.len() <= chunk_records,
            "chunk overflow: {} > {chunk_records}",
            chunk.records.len()
        );
        chunks += 1;
        out.records.extend_from_slice(&chunk.records);
        out.sampled_packets += chunk.sampled_packets;
        out.degradation.absorb(chunk.degradation);
    }
    (out, chunks)
}

fn assert_hour_equivalent(vantage: &dyn VantagePoint, label: &str) {
    let p = pipeline();
    let hour = HourBin(21);
    let want = vantage.materialize_hour(&p.world, hour);
    for chunk_records in CHUNK_SIZES {
        let (got, chunks) = drain(vantage, &p.world, hour, chunk_records);
        assert_eq!(
            got.records, want.records,
            "{label}: records diverge at chunk {chunk_records}"
        );
        assert_eq!(
            got.sampled_packets, want.sampled_packets,
            "{label}: sampled_packets diverge at chunk {chunk_records}"
        );
        assert_eq!(
            got.degradation, want.degradation,
            "{label}: degradation diverges at chunk {chunk_records}"
        );
        assert!(
            chunks > 0,
            "{label}: at least one (possibly accounting-only) chunk"
        );
    }
}

#[test]
fn isp_any_chunking_matches_the_materialized_hour() {
    let p = pipeline();
    let clean = IspVantage::new(
        &p.catalog,
        IspConfig {
            lines: 6_000,
            sampling: 500,
            seed: 13,
            background: true,
        },
    );
    assert_hour_equivalent(&clean, "isp/clean");
    let chaotic = IspVantage::new(
        &p.catalog,
        IspConfig {
            lines: 6_000,
            sampling: 500,
            seed: 13,
            background: true,
        },
    )
    .with_chaos(ChaosConfig::at_severity(0.5, 99));
    assert_hour_equivalent(&chaotic, "isp/chaos");
}

#[test]
fn ixp_any_chunking_matches_the_materialized_hour() {
    let p = pipeline();
    let config = IxpConfig {
        sampling: 1_000,
        seed: 23,
        big_eyeballs: 2,
        big_lines: 1_500,
        tail_members: 3,
        tail_lines: 200,
        route_visibility: 0.7,
        spoofed_per_hour: 400,
    };
    let clean = IxpVantage::new(&p.catalog, config.clone());
    assert_hour_equivalent(&clean, "ixp/clean");
    let chaotic = IxpVantage::new(&p.catalog, config).with_chaos(ChaosConfig::at_severity(0.4, 5));
    assert_hour_equivalent(&chaotic, "ixp/chaos");
}

#[test]
fn detections_and_funnel_stats_are_chunking_invariant() {
    // The satellite claim, end to end: feed the same ISP day at every
    // chunk size into a fresh detector; detection sets and funnel stats
    // must be identical to the HourTraffic path.
    let p = pipeline();
    let isp = IspVantage::new(
        &p.catalog,
        IspConfig {
            lines: 6_000,
            sampling: 1_000,
            seed: 31,
            background: false,
        },
    )
    .with_chaos(ChaosConfig::at_severity(0.3, 17));
    let hours = 6usize;

    // Baseline: the legacy materialized path.
    let mut base = Detector::new(
        &p.rules,
        HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
        DetectorConfig::default(),
    );
    let mut base_packets = 0u64;
    let mut base_deg = FeedDegradation::default();
    for hour in DayBin(0).hours().take(hours) {
        let t = isp.capture_hour(&p.world, hour);
        base_packets += t.sampled_packets;
        base_deg.absorb(t.degradation);
        for r in &t.records {
            base.observe_wild(r);
        }
    }
    let base_detected: Vec<(&str, Vec<haystack::net::AnonId>)> = p
        .rules
        .rules
        .iter()
        .map(|r| {
            let class = p.rules.class_name(r.class);
            (class, base.detected_lines(class))
        })
        .collect();

    for chunk_records in CHUNK_SIZES {
        let mut det = Detector::new(
            &p.rules,
            HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
            DetectorConfig::default(),
        );
        let mut packets = 0u64;
        let mut deg = FeedDegradation::default();
        let mut chunk = RecordChunk::default();
        for hour in DayBin(0).hours().take(hours) {
            let mut stream = isp.stream_hour(&p.world, hour, chunk_records);
            while stream.next_chunk(&mut chunk) {
                packets += chunk.sampled_packets;
                deg.absorb(chunk.degradation);
                for r in &chunk.records {
                    det.observe_wild(r);
                }
            }
        }
        assert_eq!(
            packets, base_packets,
            "sampled_packets diverge at chunk {chunk_records}"
        );
        assert_eq!(
            deg, base_deg,
            "funnel stats diverge at chunk {chunk_records}"
        );
        for (class, want) in &base_detected {
            assert_eq!(
                &det.detected_lines(class),
                want,
                "detections for {class} diverge at chunk {chunk_records}"
            );
        }
    }
}
