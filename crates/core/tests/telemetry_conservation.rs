#![cfg(feature = "telemetry")]
//! Record-conservation invariants under chaos, asserted through the
//! telemetry snapshot alone (DESIGN.md §11): every record entering a
//! stage must be accounted for by the stage's emitted count plus its
//! per-reason drop counters — at 1 %, 5 %, and 20 % loss.
//!
//! * **Wire**: `Exporter → ChaosLink → Collector`;
//!   `records_sent == records_decoded + missed_records`.
//! * **Stream + pool**: `VecStream → DegradeStream → InstrumentedStream
//!   → DetectorPool`; `records_in == records_emitted + records_lost -
//!   records_duplicated`, and the pool's feeder count equals what its
//!   fingerprint gate retired plus the sum of the per-shard worker
//!   counts plus what a reset discarded: `records_in == gate_rejected +
//!   Σ shard records_observed + records_discarded`.

use haystack_core::detector::DetectorConfig;
use haystack_core::hitlist::HitList;
use haystack_core::parallel::DetectorPool;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
use haystack_core::telemetry::{self, InstrumentedStream};
use haystack_dns::DomainName;
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::{ChaosConfig, ChaosLink, Collector, FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin, Prefix4, SimTime};
use haystack_testbed::catalog::DetectionLevel;
use haystack_wild::{DegradeStream, RecordChunk, VecStream, WildRecord};
use std::net::Ipv4Addr;

const LOSS_RATES: [f64; 3] = [0.01, 0.05, 0.20];

fn flow_records(n: usize, seed: u64) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed);
            FlowRecord {
                key: FlowKey {
                    src: Ipv4Addr::new(100, 64, (x >> 8) as u8, x as u8),
                    dst: Ipv4Addr::new(198, 18, 0, (x >> 16) as u8),
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

/// Sequence-gap accounting closes the books exactly: whatever the link
/// did to the datagrams, decoded + missed must equal what was exported.
#[test]
fn wire_records_are_conserved_under_loss() {
    telemetry::set_enabled(true);
    let records = flow_records(6_000, 3);
    for (i, &loss) in LOSS_RATES.iter().enumerate() {
        let scope = telemetry::Scope::named(&format!("cons.wire{i}"));
        let chaos = ChaosConfig {
            drop_probability: loss,
            seed: 7,
            ..ChaosConfig::off()
        };
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7);
        let mut link = ChaosLink::new(chaos);
        let mut collector = Collector::new();
        for (hour, chunk) in records.chunks(256).enumerate() {
            let msgs = exporter.export(chunk, 3_600 * hour as u32).expect("export");
            for d in link.transmit_all(msgs) {
                let _ = collector.feed(d);
            }
        }
        for d in link.shutdown() {
            let _ = collector.feed(d);
        }
        // A sentinel fed around the link: tail loss only registers as a
        // sequence gap once a later datagram arrives.
        let sentinel = flow_records(1, 999);
        for d in exporter.export(&sentinel, 90_000).expect("export") {
            let _ = collector.feed(d);
        }
        let sent = (records.len() + sentinel.len()) as u64;

        telemetry::observe_collector(&scope, &collector);
        let snap = telemetry::global().snapshot();
        let decoded = snap
            .gauge(&format!("cons.wire{i}.records_decoded"))
            .unwrap();
        let missed = snap.gauge(&format!("cons.wire{i}.missed_records")).unwrap();
        assert_eq!(
            decoded + missed,
            sent,
            "loss {loss}: decoded {decoded} + missed {missed} != sent {sent}"
        );
        if loss >= 0.05 {
            assert!(missed > 0, "loss {loss} should have cost something");
        }
    }
}

fn small_rules() -> RuleSet {
    let mut b = RuleSetBuilder::new();
    b.rule(
        "Conserved",
        DetectionLevel::Platform,
        None,
        vec![RuleDomain {
            name: DomainName::parse("svc.conserved.example").unwrap(),
            ports: [443u16].into_iter().collect(),
            ips: [Ipv4Addr::new(198, 18, 7, 1)].into_iter().collect(),
            usage_indicator: false,
        }],
    );
    b.build()
}

fn wild_records(n: usize, seed: u64) -> Vec<WildRecord> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed);
            // ~30 % rule hits, the rest background.
            let dst = if x % 10 < 3 {
                Ipv4Addr::new(198, 18, 7, 1)
            } else {
                Ipv4Addr::new(151, 64, (x >> 24) as u8, (x >> 32) as u8)
            };
            let src = Ipv4Addr::new(100, 64, (x >> 40) as u8, x as u8);
            WildRecord {
                line: AnonId(x % 1_024),
                line_slash24: Prefix4::slash24_of(src),
                src_ip: src,
                dst,
                dport: 443,
                proto: Proto::Tcp,
                packets: 1 + (x % 4),
                bytes: 400,
                established: true,
                hour: HourBin((i / 4_096) as u32),
            }
        })
        .collect()
}

/// Chunk accounting and pool feeder/worker counters agree with each
/// other and with the degrade adapter's per-reason drop counts.
#[test]
fn stream_and_pool_records_are_conserved_under_loss() {
    telemetry::set_enabled(true);
    let rules = small_rules();
    let hitlist = HitList::whole_window(&rules);
    let n = 20_000usize;
    for (i, &loss) in LOSS_RATES.iter().enumerate() {
        let scope = telemetry::Scope::named(&format!("cons.rec{i}"));
        let chaos = ChaosConfig {
            drop_probability: loss,
            seed: 11,
            ..ChaosConfig::off()
        };
        let mut pool = DetectorPool::new(&rules, &hitlist, DetectorConfig::default(), 3);
        pool.attach_telemetry(&scope.sub("pool")).unwrap();
        let mut stream = InstrumentedStream::new(
            DegradeStream::new(VecStream::new(wild_records(n, 5), 1_000), chaos, 5, 1_000),
            &scope.sub("stream"),
        );
        let mut chunk = RecordChunk::with_capacity(1_000);
        pool.observe_stream(&mut stream, &mut chunk).unwrap();
        pool.finish().unwrap();

        let snap = telemetry::global().snapshot();
        let c = |name: &str| {
            snap.counter(&format!("cons.rec{i}.{name}"))
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        let emitted = c("stream.records_emitted");
        let lost = c("stream.records_lost");
        let duplicated = c("stream.records_duplicated");
        assert_eq!(
            emitted,
            n as u64 - lost + duplicated,
            "loss {loss}: stream books don't balance"
        );
        let records_in = c("pool.records_in");
        assert_eq!(
            records_in, emitted,
            "loss {loss}: the pool saw what the stream emitted"
        );
        let rejected = c("pool.gate_rejected");
        let discarded = c("pool.records_discarded");
        let shard_sum: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with(&format!("cons.rec{i}.pool.shard"))
                    && k.ends_with(".records_observed")
            })
            .map(|(_, v)| *v)
            .sum();
        // The stream mixes rule hits with 151.64/16 background, so both
        // the feeder's gate and the shards have records to account for.
        assert!(rejected > 0, "loss {loss}: the feeder gate retired nothing");
        assert!(shard_sum > 0, "loss {loss}: no record reached a shard");
        assert_eq!(
            rejected + shard_sum + discarded,
            records_in,
            "loss {loss}: feeder gate and worker shards must account for every fed record"
        );
        if loss >= 0.05 {
            assert!(lost > 0, "loss {loss} should have cost something");
        }
    }
}
