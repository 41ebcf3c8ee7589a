//! Property-based chaos tests: under *arbitrary* impairment
//! configurations and interleavings, the hardened collector must
//!
//! 1. never panic,
//! 2. decode only records the exporter actually exported (no
//!    fabrication, even from corrupted bytes),
//! 3. keep its bookkeeping consistent (link delivery accounting adds
//!    up; collector counters stay sane),
//! 4. detect a configured exporter restart when the restart datagram
//!    gets through.

use haystack_flow::chaos::records_subset;
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::netflow_v5 as v5;
use haystack_flow::{ChaosConfig, ChaosLink, Collector, FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(Proto::Tcp), Just(Proto::Udp)],
        1u64..=100_000,
        0u64..=u64::from(u32::MAX),
        any::<u8>(),
        0u32..=2_000_000,
        0u32..=1_000,
    )
        .prop_map(
            |(src, dst, sport, dport, proto, packets, bytes, flags, first, dur)| FlowRecord {
                key: FlowKey {
                    src: Ipv4Addr::from(src),
                    dst: Ipv4Addr::from(dst),
                    sport,
                    dport,
                    proto,
                },
                packets,
                bytes,
                tcp_flags: TcpFlags(flags),
                first: SimTime(u64::from(first)),
                last: SimTime(u64::from(first) + u64::from(dur)),
            },
        )
}

/// Arbitrary-but-bounded chaos: probabilities in [0, 0.5] keep runs
/// informative (probability-1 corruption is covered by unit tests).
fn arb_chaos() -> impl Strategy<Value = ChaosConfig> {
    (
        0.0f64..=0.5,
        0.0f64..=0.5,
        0.0f64..=0.5,
        0.0f64..=0.3,
        0.0f64..=0.3,
        0.0f64..=0.5,
        prop_oneof![Just(None), (0u64..12).prop_map(Some)],
        any::<u64>(),
    )
        .prop_map(
            |(drop, reorder, dup, trunc, corrupt, withhold, restart, seed)| ChaosConfig {
                drop_probability: drop,
                reorder_probability: reorder,
                duplicate_probability: dup,
                truncate_probability: trunc,
                corrupt_probability: corrupt,
                template_withhold_probability: withhold,
                restart_after: restart,
                misannounce_sampling: None,
                seed,
                ..ChaosConfig::off()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collector_survives_arbitrary_chaos(
        records in prop::collection::vec(arb_record(), 0..120),
        chaos in arb_chaos(),
        protocol in prop_oneof![Just(ExportProtocol::NetflowV9), Just(ExportProtocol::Ipfix)],
        batch in 1usize..40,
    ) {
        let mut exporter = Exporter::new(protocol, 7).with_batch_size(batch);
        let mut link = ChaosLink::new(chaos.clone());
        let mut collector = Collector::new();
        let mut decoded = Vec::new();
        let mut sent_expected = 0u64;
        // Interleave: export in hour-sized chunks so restarts and
        // withholding hit mid-stream, not only at the boundary.
        for (hour, chunk) in records.chunks(37.max(batch)).enumerate() {
            let msgs = exporter.export(chunk, 100 + hour as u32).unwrap();
            sent_expected += msgs.len() as u64;
            for d in link.transmit_all(msgs) {
                // Errors are fine (malformed datagrams are counted);
                // panics are not.
                if let Ok(rs) = collector.feed(d) {
                    decoded.extend(rs);
                }
            }
        }
        for d in link.shutdown() {
            if let Ok(rs) = collector.feed(d) {
                decoded.extend(rs);
            }
        }

        // (2) No fabricated records: when nothing corrupts record bytes,
        // every decoded record was exported. (Bit corruption may alter
        // field values without breaking framing, so the subset property
        // is only guaranteed corruption-free.)
        if chaos.corrupt_probability == 0.0 {
            prop_assert!(records_subset(&decoded, &records));
        }

        // (3) Link accounting adds up: every sent datagram was withheld,
        // dropped, or delivered exactly once; duplicates add one more.
        let s = *link.stats();
        prop_assert_eq!(s.sent, sent_expected);
        prop_assert_eq!(s.delivered + s.dropped + s.templates_withheld, s.sent + s.duplicated);

        // Collector counters are consistent with what the link did: only
        // byte-level damage can malform, and only stream perturbation can
        // register as loss.
        if s.truncated == 0 && s.corrupted == 0 {
            prop_assert_eq!(collector.malformed_messages() + collector.malformed_sets(), 0);
        }
        if s.dropped == 0
            && s.reordered == 0
            && s.templates_withheld == 0
            && s.truncated == 0
            && s.corrupted == 0
            && chaos.restart_after.is_none()
        {
            prop_assert_eq!(collector.missed_datagrams(), 0);
        }
    }

    /// `feed` and `feed_into` are one collector: over the same impaired
    /// stream (loss, reordering, restart, corruption deep enough to
    /// quarantine the source and put it on probation) a collector fed
    /// through fresh `Vec`s and one fed through a single reused buffer
    /// end with the same records and byte-identical state.
    #[test]
    fn feed_and_feed_into_agree_under_chaos(
        records in prop::collection::vec(arb_record(), 0..120),
        chaos in arb_chaos(),
        protocol in prop_oneof![Just(ExportProtocol::NetflowV9), Just(ExportProtocol::Ipfix)],
        batch in 1usize..40,
    ) {
        let mut exporter = Exporter::new(protocol, 7).with_batch_size(batch);
        let mut link = ChaosLink::new(chaos);
        let mut delivered = Vec::new();
        for (hour, chunk) in records.chunks(37.max(batch)).enumerate() {
            delivered.extend(link.transmit_all(exporter.export(chunk, 100 + hour as u32).unwrap()));
        }
        delivered.extend(link.shutdown());

        let (mut by_vec, mut by_buf) = (Collector::new(), Collector::new());
        let (mut from_vec, mut from_buf) = (Vec::new(), Vec::new());
        let mut buf = Vec::new();
        for d in delivered {
            buf.clear();
            let fed = by_buf.feed_into(&d, &mut buf, |_, _| true);
            from_buf.extend_from_slice(&buf);
            match by_vec.feed(d) {
                Ok(rs) => {
                    prop_assert_eq!(fed, Ok(rs.len()));
                    from_vec.extend(rs);
                }
                Err(e) => {
                    prop_assert_eq!(fed, Err(e));
                    prop_assert!(buf.is_empty(), "a rejected datagram left records behind");
                }
            }
        }
        prop_assert_eq!(from_vec, from_buf);
        prop_assert_eq!(by_vec.snapshot(), by_buf.snapshot());
    }

    /// The admission predicate filters `out` and nothing else: over v5,
    /// v9 and IPFIX streams under loss, reordering, duplication,
    /// corruption and restarts, a collector fed through a random `keep`
    /// reports the same counts as one fed `|_, _| true`, appends exactly
    /// the kept subsequence in order, and ends with byte-identical state
    /// and per-source books.
    #[test]
    fn admission_predicate_filters_only_what_reaches_out(
        records in prop::collection::vec(arb_record(), 0..120),
        chaos in arb_chaos(),
        protocol in prop_oneof![
            Just(None),
            Just(Some(ExportProtocol::NetflowV9)),
            Just(Some(ExportProtocol::Ipfix)),
        ],
        batch in 1usize..40,
        eighths in 0u32..=8,
        salt in any::<u32>(),
    ) {
        // Keeps about `eighths`/8 of the keys: none, all, or a hashed share.
        let keep = |dst: Ipv4Addr, port: u16| {
            (u32::from(dst) ^ (u32::from(port) << 7) ^ salt).wrapping_mul(0x9E37_79B1) >> 29
                < eighths
        };
        let mut link = ChaosLink::new(chaos);
        let mut delivered = Vec::new();
        match protocol {
            Some(protocol) => {
                let mut exporter = Exporter::new(protocol, 7).with_batch_size(batch);
                for (hour, chunk) in records.chunks(37.max(batch)).enumerate() {
                    let msgs = exporter.export(chunk, 100 + hour as u32).unwrap();
                    delivered.extend(link.transmit_all(msgs));
                }
            }
            None => {
                let msgs: Vec<_> = records
                    .chunks(batch.min(30))
                    .enumerate()
                    .map(|(i, chunk)| {
                        let sequence = (i * batch.min(30)) as u32;
                        let header = v5::V5Header { sequence, engine: 7, ..Default::default() }
                            .with_sampling_interval(100);
                        v5::encode(&header, chunk).unwrap()
                    })
                    .collect();
                delivered.extend(link.transmit_all(msgs));
            }
        }
        delivered.extend(link.shutdown());

        let (mut all, mut gated) = (Collector::new(), Collector::new());
        let (mut from_all, mut from_gated) = (Vec::new(), Vec::new());
        for d in &delivered {
            let fed_all = all.feed_into(d, &mut from_all, |_, _| true);
            let fed_gated = gated.feed_into(d, &mut from_gated, keep);
            prop_assert_eq!(fed_gated, fed_all);
        }
        let kept: Vec<FlowRecord> =
            from_all.iter().filter(|r| keep(r.key.dst, r.key.dport)).copied().collect();
        prop_assert_eq!(from_gated, kept);
        prop_assert_eq!(gated.records_decoded(), all.records_decoded());
        prop_assert_eq!(gated.source_healths(), all.source_healths());
        prop_assert_eq!(gated.source_stats(7), all.source_stats(7));
        prop_assert_eq!(gated.snapshot(), all.snapshot());
    }

    #[test]
    fn restart_is_detected_when_its_datagram_arrives(
        records in prop::collection::vec(arb_record(), 60..120),
        restart_after in 1u64..8,
        seed in any::<u64>(),
    ) {
        // Loss-free link so the restart datagram always arrives.
        let chaos = ChaosConfig { restart_after: Some(restart_after), seed, ..ChaosConfig::off() };
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 9).with_batch_size(8);
        let mut link = ChaosLink::new(chaos);
        let mut collector = Collector::new();
        let mut decoded = Vec::new();
        for (hour, chunk) in records.chunks(16).enumerate() {
            for d in link.transmit_all(exporter.export(chunk, 100 + hour as u32).unwrap()) {
                if let Ok(rs) = collector.feed(d) {
                    decoded.extend(rs);
                }
            }
        }
        prop_assert_eq!(link.stats().restarts, 1);
        prop_assert_eq!(collector.restarts_detected(), 1);
        // A restart rebases sequence numbers but loses no datagrams:
        // everything still decodes (templates ride in every message here
        // or are re-learnt from the periodic refresh).
        prop_assert!(records_subset(&decoded, &records));
    }

    #[test]
    fn quarantine_never_leaks_across_sources(
        garbage in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..30),
        records in prop::collection::vec(arb_record(), 1..40),
    ) {
        let mut collector = Collector::new();
        // Hostile source 666 feeds arbitrary bytes dressed as v9 from a
        // fixed source id; decode failures may quarantine it.
        for g in &garbage {
            let mut d = Vec::new();
            d.extend_from_slice(&9u16.to_be_bytes());
            d.extend_from_slice(&1u16.to_be_bytes());
            d.extend_from_slice(&[0u8; 12]);
            d.extend_from_slice(&666u32.to_be_bytes());
            d.extend_from_slice(g);
            let _ = collector.feed(bytes::Bytes::from(d));
        }
        // A well-behaved source is never affected.
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 5).with_batch_size(16);
        let mut decoded = Vec::new();
        for msg in exporter.export(&records, 100).unwrap() {
            decoded.extend(collector.feed(msg).unwrap());
        }
        prop_assert_eq!(decoded, records.clone());
        prop_assert!(!collector.quarantined_sources().contains(&5));
    }
}
