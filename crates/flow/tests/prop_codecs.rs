//! Property-based round-trip tests for the NetFlow v9 / IPFIX codecs and
//! the samplers. These complement the unit tests with arbitrary inputs:
//! any record the exporter can emit must survive the wire unchanged, and
//! malformed bytes must never panic the decoders.

use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::sampling::{binomial_thin, PacketSampler, SystematicSampler};
use haystack_flow::wire::{self, Template, TemplateField};
use haystack_flow::{Collector, FlowKey, FlowRecord, TcpFlags};
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

/// One field of an arbitrary *valid* template: a known field at a width
/// `Template::validate` accepts, or a vendor field of any short length.
/// A vector of these is in arbitrary order, repeats known fields and
/// leaves key fields out.
fn arb_field() -> impl Strategy<Value = TemplateField> {
    let fixed = |ids: [u16; 2], len: u16| {
        prop_oneof![Just(ids[0]), Just(ids[1])].prop_map(move |id| TemplateField { id, len })
    };
    prop_oneof![
        fixed([wire::FIELD_IPV4_SRC_ADDR, wire::FIELD_IPV4_DST_ADDR], 4),
        fixed([wire::FIELD_L4_SRC_PORT, wire::FIELD_L4_DST_PORT], 2),
        fixed([wire::FIELD_PROTOCOL, wire::FIELD_TCP_FLAGS], 1),
        fixed([wire::FIELD_FIRST_SWITCHED, wire::FIELD_LAST_SWITCHED], 4),
        (
            prop_oneof![Just(wire::FIELD_IN_PKTS), Just(wire::FIELD_IN_BYTES)],
            prop_oneof![Just(1u16), Just(2u16), Just(4u16), Just(8u16)],
        )
            .prop_map(|(id, len)| TemplateField { id, len }),
        (100u16..30_000, 0u16..=40).prop_map(|(id, len)| TemplateField { id, len }),
    ]
}

/// A v9 (`version == 9`) or IPFIX datagram from source 7 announcing `t`
/// and then carrying `body` as one data set under it.
fn announce_and_data(version: u16, t: &Template, body: &[u8]) -> Vec<u8> {
    use bytes::BytesMut;
    let mut tmpl = BytesMut::new();
    t.encode_body(&mut tmpl);
    let mut sets = Vec::new();
    for (id, set_body) in [
        (if version == 9 { 0u16 } else { 2 }, &tmpl[..]),
        (t.id, body),
    ] {
        sets.extend_from_slice(&id.to_be_bytes());
        sets.extend_from_slice(&((4 + set_body.len()) as u16).to_be_bytes());
        sets.extend_from_slice(set_body);
    }
    let mut d = Vec::new();
    d.extend_from_slice(&version.to_be_bytes());
    if version == 9 {
        d.extend_from_slice(&2u16.to_be_bytes()); // record count
        d.extend_from_slice(&[0u8; 12]); // uptime, secs, sequence
    } else {
        d.extend_from_slice(&((16 + sets.len()) as u16).to_be_bytes());
        d.extend_from_slice(&[0u8; 8]); // export time, sequence
    }
    d.extend_from_slice(&7u32.to_be_bytes());
    d.extend_from_slice(&sets);
    d
}

/// Hostile templates the plan compiler and decoder must shrug off: no
/// records, no panic — `chunks_exact(0)` would be one.
#[test]
fn hostile_templates_decode_nothing() {
    let zero_len = Template {
        id: 256,
        fields: vec![TemplateField { id: 999, len: 0 }],
    };
    let mut huge = Template::standard(257);
    huge.fields.extend(
        [TemplateField {
            id: 999,
            len: u16::MAX,
        }; 3],
    );
    assert!(huge.plan().record_len() > usize::from(u16::MAX));
    let longer_than_body = Template::standard(258);
    for t in [zero_len, huge, longer_than_body] {
        t.validate().unwrap();
        let body = [0xA5u8; 37];
        let mut out = Vec::new();
        assert_eq!(
            t.plan().decode_into(&body, &mut out, |_, _| true),
            0,
            "template {}",
            t.id
        );
        assert_eq!(wire::decode_records(&t, &body), vec![]);
        for version in [9, 10] {
            let mut collector = Collector::new();
            let datagram = announce_and_data(version, &t, &body);
            let fed = collector.feed_into(&datagram, &mut out, |_, _| true);
            assert_eq!(fed, Ok(0), "template {} over version {version}", t.id);
            assert_eq!(collector.template_count(), 1);
        }
        assert!(out.is_empty());
    }
}

proptest! {
    /// The compiled plan is the field walk: for any valid template and
    /// any bytes, the plan decoder — called directly and through the
    /// collector, for v9 and IPFIX — yields exactly what
    /// `Template::decode_record` yields record by record.
    #[test]
    fn plan_decoder_equals_the_field_walk(
        fields in prop::collection::vec(arb_field(), 1..24),
        raw in prop::collection::vec(any::<u8>(), 1..300),
        n_records in 0usize..12,
        padding in 0usize..=3,
    ) {
        let t = Template { id: 300, fields };
        t.validate().unwrap();
        let rlen = t.record_len();
        prop_assert_eq!(t.plan().record_len(), rlen);
        let body: Vec<u8> = raw.iter().copied().cycle().take(n_records * rlen + padding).collect();
        // With records shorter than the padding, padding is records.
        let whole_records = body.len().checked_div(rlen).unwrap_or(0);
        let expected: Vec<FlowRecord> = (0..whole_records)
            .map(|i| t.decode_record(&mut &body[i * rlen..]).unwrap())
            .collect();

        let mut out = Vec::new();
        prop_assert_eq!(t.plan().decode_into(&body, &mut out, |_, _| true), expected.len());
        prop_assert_eq!(&out, &expected);

        for version in [9, 10] {
            let mut collector = Collector::new();
            out.clear();
            let datagram = announce_and_data(version, &t, &body);
            let fed = collector.feed_into(&datagram, &mut out, |_, _| true);
            prop_assert_eq!(fed, Ok(expected.len()));
            prop_assert_eq!(&out, &expected);
            prop_assert_eq!(collector.records_decoded(), expected.len() as u64);
            let overhang = body.len().checked_rem(rlen).unwrap_or(0);
            prop_assert_eq!(collector.malformed_sets(), u64::from(overhang > 3));
        }
    }

    #[test]
    fn netflow_v9_round_trips(records in prop::collection::vec(arb_record(), 0..80)) {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 5);
        let mut collector = Collector::new();
        let mut decoded = Vec::new();
        for msg in exporter.export(&records, 1234).unwrap() {
            decoded.extend(collector.feed(msg).unwrap());
        }
        prop_assert_eq!(decoded, records);
        prop_assert_eq!(collector.dropped_unknown_template(), 0);
    }

    #[test]
    fn ipfix_round_trips(records in prop::collection::vec(arb_record(), 0..80)) {
        let mut exporter = Exporter::new(ExportProtocol::Ipfix, 5);
        let mut collector = Collector::new();
        let mut decoded = Vec::new();
        for msg in exporter.export(&records, 1234).unwrap() {
            decoded.extend(collector.feed(msg).unwrap());
        }
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn decoders_never_panic_on_garbage(
        version in prop_oneof![Just(5u16), Just(9), Just(10)],
        mut bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        // A real version word, so the garbage reaches that decoder.
        if bytes.len() >= 2 {
            bytes[..2].copy_from_slice(&version.to_be_bytes());
        }
        let mut collector = Collector::new();
        let _ = collector.feed(bytes::Bytes::from(bytes));
    }

    #[test]
    fn decoders_never_panic_on_truncated_valid_messages(
        records in prop::collection::vec(arb_record(), 1..40),
        cut in 0usize..200,
    ) {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 5);
        let msgs = exporter.export(&records, 0).unwrap();
        let msg = &msgs[0];
        let cut = cut.min(msg.len());
        let mut collector = Collector::new();
        let _ = collector.feed(msg.slice(0..cut));
    }

    #[test]
    fn systematic_sampler_exact_rate(n in 1u64..500, total in 1u64..5_000) {
        let mut s = SystematicSampler::new(n, 0).unwrap();
        let kept = (0..total).filter(|_| s.sample()).count() as u64;
        prop_assert_eq!(kept, total / n);
    }

    #[test]
    fn binomial_thin_bounded(n in 0u64..200_000, p in 0.0f64..=1.0, seed in any::<u64>()) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = binomial_thin(n, p, &mut rng);
        prop_assert!(k <= n);
    }

    #[test]
    fn template_body_round_trips(id in 256u16..1000) {
        use bytes::BytesMut;
        let t = Template::standard(id);
        let mut buf = BytesMut::new();
        t.encode_body(&mut buf);
        let parsed = Template::parse_body(&mut buf.freeze()).unwrap();
        prop_assert_eq!(parsed, t);
    }
}
