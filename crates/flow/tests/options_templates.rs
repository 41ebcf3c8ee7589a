//! Options-template tests: the sampling-rate announcement path
//! (exporter → wire → collector) for both protocols, plus wire-level
//! round trips and failure injection.

use bytes::BytesMut;
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::wire::{
    OptionsTemplate, SamplingOptions, TemplateField, FIELD_SAMPLING_ALGORITHM,
    FIELD_SAMPLING_INTERVAL, SCOPE_SYSTEM,
};
use haystack_flow::{Collector, FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::net::Ipv4Addr;

fn recs(n: usize) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::new(100, 64, 0, i as u8),
                dst: Ipv4Addr::new(198, 18, 0, 1),
                sport: 40_000,
                dport: 443,
                proto: Proto::Tcp,
            },
            packets: 1,
            bytes: 100,
            tcp_flags: TcpFlags::ACK,
            first: SimTime(0),
            last: SimTime(0),
        })
        .collect()
}

#[test]
fn v9_options_body_round_trips() {
    let ot = OptionsTemplate::sampling(512);
    let mut buf = BytesMut::new();
    ot.encode_body_v9(&mut buf);
    let parsed = OptionsTemplate::parse_body_v9(&mut buf.freeze()).unwrap();
    assert_eq!(parsed, ot);
}

#[test]
fn ipfix_options_body_round_trips() {
    let ot = OptionsTemplate::sampling(513);
    let mut buf = BytesMut::new();
    ot.encode_body_ipfix(&mut buf);
    let parsed = OptionsTemplate::parse_body_ipfix(&mut buf.freeze()).unwrap();
    assert_eq!(parsed, ot);
}

#[test]
fn sampling_record_round_trips() {
    let ot = OptionsTemplate::sampling(512);
    let opts = SamplingOptions {
        interval: 1_000,
        algorithm: 1,
    };
    let mut buf = BytesMut::new();
    ot.encode_sampling(77, &opts, &mut buf);
    assert_eq!(buf.len(), ot.record_len());
    let decoded = ot.decode_sampling(&mut buf.freeze()).unwrap();
    assert_eq!(decoded, opts);
}

#[test]
fn collector_learns_sampling_rate_netflow() {
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7).with_sampling(1_000, false);
    let mut collector = Collector::new();
    for msg in exporter.export(&recs(3), 100).unwrap() {
        collector.feed(msg).unwrap();
    }
    let s = collector.sampling_of(7).expect("sampling learned");
    assert_eq!(s.interval, 1_000);
    assert_eq!(s.algorithm, 1);
    assert!(collector.sampling_of(8).is_none(), "per-source isolation");
}

#[test]
fn collector_learns_sampling_rate_ipfix() {
    let mut exporter = Exporter::new(ExportProtocol::Ipfix, 9).with_sampling(10_000, true);
    let mut collector = Collector::new();
    for msg in exporter.export(&recs(3), 100).unwrap() {
        collector.feed(msg).unwrap();
    }
    let s = collector.sampling_of(9).expect("sampling learned");
    assert_eq!(s.interval, 10_000);
    assert_eq!(s.algorithm, 2);
}

#[test]
fn data_records_still_decode_alongside_options() {
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7).with_sampling(1_000, false);
    let mut collector = Collector::new();
    let records = recs(5);
    let mut decoded = Vec::new();
    for msg in exporter.export(&records, 100).unwrap() {
        decoded.extend(collector.feed(msg).unwrap());
    }
    assert_eq!(
        decoded, records,
        "options sets must not disturb data decoding"
    );
}

#[test]
fn odd_width_option_fields_are_skipped_not_overread() {
    // Found by a mutation fuzzer: a 3-byte SAMPLING_INTERVAL used to be
    // read as eight bytes, past the end of the record.
    let ot = OptionsTemplate {
        id: 512,
        scope_fields: vec![TemplateField {
            id: SCOPE_SYSTEM,
            len: 4,
        }],
        option_fields: vec![
            TemplateField {
                id: FIELD_SAMPLING_INTERVAL,
                len: 3,
            },
            TemplateField {
                id: FIELD_SAMPLING_ALGORITHM,
                len: 1,
            },
        ],
    };
    let mut record = &[0, 0, 0, 7, 9, 9, 9, 2][..];
    let decoded = ot.decode_sampling(&mut record).unwrap();
    assert_eq!(
        decoded,
        SamplingOptions {
            interval: 0,
            algorithm: 2
        }
    );
    assert!(record.is_empty(), "exactly one record consumed");
}

#[test]
fn exporter_without_sampling_announces_nothing() {
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7);
    let mut collector = Collector::new();
    for msg in exporter.export(&recs(2), 100).unwrap() {
        collector.feed(msg).unwrap();
    }
    assert!(collector.sampling_of(7).is_none());
}

#[test]
fn truncated_options_template_is_an_error() {
    let ot = OptionsTemplate::sampling(512);
    let mut buf = BytesMut::new();
    ot.encode_body_v9(&mut buf);
    let full = buf.freeze();
    for cut in [0usize, 3, 5, 8] {
        let mut short = full.slice(0..cut.min(full.len()));
        assert!(
            OptionsTemplate::parse_body_v9(&mut short).is_err(),
            "cut at {cut} must fail"
        );
    }
}

#[test]
fn rate_update_overwrites_previous_announcement() {
    // A reconfigured router announces a new rate; the collector follows.
    let mut collector = Collector::new();
    let mut e1 = Exporter::new(ExportProtocol::NetflowV9, 7).with_sampling(1_000, false);
    for msg in e1.export(&recs(1), 100).unwrap() {
        collector.feed(msg).unwrap();
    }
    let mut e2 = Exporter::new(ExportProtocol::NetflowV9, 7).with_sampling(2_000, false);
    for msg in e2.export(&recs(1), 200).unwrap() {
        collector.feed(msg).unwrap();
    }
    assert_eq!(collector.sampling_of(7).unwrap().interval, 2_000);
}
