//! The collector's contract around the compiled decode plans (DESIGN.md
//! §8): a message is validated whole before any of it is applied, and a
//! plan lives and dies with the template it was compiled from.

use bytes::{Bytes, BytesMut};
use haystack_flow::wire::{Template, TemplateField, FIELD_IN_BYTES, FIELD_IN_PKTS};
use haystack_flow::{Collector, FlowError, FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::net::Ipv4Addr;

const SOURCE: u32 = 7;

fn recs(n: usize) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::new(100, 64, 3, i as u8),
                dst: Ipv4Addr::new(198, 18, 0, 1),
                sport: 40_000 + i as u16,
                dport: 443,
                proto: Proto::Tcp,
            },
            packets: 2 + i as u64,
            bytes: 222,
            tcp_flags: TcpFlags::ACK,
            first: SimTime(5),
            last: SimTime(9),
        })
        .collect()
}

/// One set: id, length covering its own header, body.
fn set(id: u16, body: &[u8]) -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(&id.to_be_bytes());
    s.extend_from_slice(&((4 + body.len()) as u16).to_be_bytes());
    s.extend_from_slice(body);
    s
}

fn template_set(version: u16, t: &Template) -> Vec<u8> {
    let mut body = BytesMut::new();
    t.encode_body(&mut body);
    set(if version == 9 { 0 } else { 2 }, &body)
}

fn data_set(t: &Template, records: &[FlowRecord]) -> Vec<u8> {
    let mut body = BytesMut::new();
    for r in records {
        t.encode_record(r, &mut body);
    }
    set(t.id, &body)
}

/// A v9 or IPFIX datagram from [`SOURCE`] carrying `sets` verbatim.
fn datagram(version: u16, sequence: u32, sets: &[Vec<u8>]) -> Vec<u8> {
    let sets = sets.concat();
    let mut d = Vec::new();
    d.extend_from_slice(&version.to_be_bytes());
    if version == 9 {
        d.extend_from_slice(&1u16.to_be_bytes()); // record count
        d.extend_from_slice(&[0u8; 8]); // uptime, secs
    } else {
        d.extend_from_slice(&((16 + sets.len()) as u16).to_be_bytes());
        d.extend_from_slice(&[0u8; 4]); // export time
    }
    d.extend_from_slice(&sequence.to_be_bytes());
    d.extend_from_slice(&SOURCE.to_be_bytes());
    d.extend_from_slice(&sets);
    d
}

#[test]
fn a_bad_last_set_applies_nothing_of_the_message() {
    let t = Template::standard(300);
    let records = recs(2);
    // A template set whose header promises five fields and carries one.
    let truncated_template = {
        let mut body = Vec::new();
        body.extend_from_slice(&301u16.to_be_bytes());
        body.extend_from_slice(&5u16.to_be_bytes());
        body.extend_from_slice(&[0, 8, 0, 4]);
        body
    };
    for version in [9u16, 10] {
        let bad_tails: [(Vec<u8>, FlowError); 3] = [
            // Declared length 3 cannot cover the set's own header. The
            // trailing word keeps the IPFIX message length consistent.
            (
                [300u16.to_be_bytes(), 3u16.to_be_bytes(), [0, 0], [0, 0]].concat(),
                FlowError::BadSetLength {
                    declared: 3,
                    remaining: 4,
                },
            ),
            (set(5, &[]), FlowError::ReservedTemplateId(5)),
            (
                set(if version == 9 { 0 } else { 2 }, &truncated_template),
                FlowError::Truncated {
                    context: "template fields",
                    needed: 20,
                    available: 4,
                },
            ),
        ];
        for (tail, want) in bad_tails {
            let mut collector = Collector::new();
            let mut out = recs(1);
            let bad = datagram(
                version,
                0,
                &[template_set(version, &t), data_set(&t, &records), tail],
            );
            let fed = collector.feed_into(&bad, &mut out, |_, _| true);
            assert_eq!(fed, Err(want.clone()), "v{version}");
            assert_eq!(out, recs(1), "out must be left as it was");
            assert_eq!(collector.datagrams_received(), 1);
            assert_eq!(collector.malformed_messages(), 1);
            assert_eq!(collector.template_count(), 0);
            assert_eq!(collector.template_announcements(), 0);
            assert_eq!(collector.template_hits(), 0);
            assert_eq!(collector.records_decoded(), 0);

            // Everything the collector remembers is what a datagram that
            // is nothing but a bad set leaves behind.
            let mut reference = Collector::new();
            let only_bad = datagram(version, 0, &[set(5, &[])]);
            assert!(reference
                .feed_into(&only_bad, &mut Vec::new(), |_, _| true)
                .is_err());
            assert_eq!(
                collector.snapshot(),
                reference.snapshot(),
                "v{version} {want:?}"
            );

            // The template was not learnt: clean data for it still drops.
            let clean = datagram(version, 0, &[data_set(&t, &records)]);
            assert_eq!(collector.feed_into(&clean, &mut out, |_, _| true), Ok(0));
            assert_eq!(collector.dropped_unknown_template(), 1);
            assert_eq!(out, recs(1));
        }
    }
}

#[test]
fn feed_is_feed_into_plus_the_vec() {
    let t = Template::standard(300);
    let records = recs(3);
    for version in [9u16, 10] {
        let d = datagram(
            version,
            0,
            &[template_set(version, &t), data_set(&t, &records)],
        );
        let mut a = Collector::new();
        let mut b = Collector::new();
        let mut out = recs(1);
        assert_eq!(a.feed(Bytes::from(d.clone())).unwrap(), records);
        assert_eq!(
            b.feed_into(&d, &mut out, |_, _| true),
            Ok(3),
            "appends, and says how many"
        );
        assert_eq!(out[1..], records[..]);
        assert_eq!(a.snapshot(), b.snapshot());
    }
}

#[test]
fn strict_unknown_template_leaves_out_untouched() {
    let (known, unknown) = (Template::standard(300), Template::standard(301));
    let records = recs(2);
    let d = datagram(
        9,
        0,
        &[
            template_set(9, &known),
            data_set(&known, &records),
            data_set(&unknown, &records),
        ],
    );
    let mut collector = Collector::new();
    assert_eq!(
        collector.feed_strict(Bytes::from(d)),
        Err(FlowError::UnknownTemplate {
            source_id: SOURCE,
            template_id: 301
        })
    );
    // As before the plans: the sets ahead of the unknown one were
    // applied, the message's records were not handed out or counted.
    assert_eq!(collector.template_count(), 1);
    assert_eq!(collector.records_decoded(), 0);
}

#[test]
fn restart_flush_drops_the_plan_with_the_template() {
    let t = Template::standard(300);
    let records = recs(4);
    let mut collector = Collector::new();
    let mut out = Vec::new();
    let first = datagram(9, 0, &[template_set(9, &t), data_set(&t, &records)]);
    assert_eq!(collector.feed_into(&first, &mut out, |_, _| true), Ok(4));
    let second = datagram(9, 4, &[data_set(&t, &records)]);
    assert_eq!(collector.feed_into(&second, &mut out, |_, _| true), Ok(4));
    // The exporter restarts (sequence back to zero) and sends data before
    // re-announcing: the old process's layout must not decode it.
    let after_restart = datagram(9, 0, &[data_set(&t, &records)]);
    assert_eq!(
        collector.feed_into(&after_restart, &mut out, |_, _| true),
        Ok(0)
    );
    assert_eq!(collector.restarts_detected(), 1);
    assert_eq!(collector.template_count(), 0);
    assert_eq!(collector.dropped_unknown_template(), 1);
    assert_eq!(out.len(), 8);
}

#[test]
fn lru_eviction_drops_the_plan_with_the_template() {
    let (old, new) = (Template::standard(300), Template::standard(301));
    let records = recs(2);
    let mut collector = Collector::new().with_template_cache_cap(1);
    let mut out = Vec::new();
    let d = datagram(9, 0, &[template_set(9, &old), data_set(&old, &records)]);
    assert_eq!(collector.feed_into(&d, &mut out, |_, _| true), Ok(2));
    let d = datagram(
        9,
        2,
        &[
            template_set(9, &new),
            data_set(&old, &records),
            data_set(&new, &records),
        ],
    );
    let fed = collector.feed_into(&d, &mut out, |_, _| true);
    assert_eq!(fed, Ok(2), "only the surviving template decodes");
    assert_eq!(collector.templates_evicted(), 1);
    assert_eq!(collector.dropped_unknown_template(), 1);
}

#[test]
fn reannouncing_an_id_replaces_its_plan() {
    let wide = Template::standard(300);
    // Same id, different layout: counters first and narrow, key after.
    let mut narrow = Template {
        id: 300,
        fields: wide.fields.clone(),
    };
    narrow.fields.rotate_left(6);
    for f in &mut narrow.fields {
        if f.id == FIELD_IN_PKTS || f.id == FIELD_IN_BYTES {
            *f = TemplateField { id: f.id, len: 2 };
        }
    }
    let records = recs(3);
    let mut collector = Collector::new();
    let mut out = Vec::new();
    let d = datagram(9, 0, &[template_set(9, &wide), data_set(&wide, &records)]);
    assert_eq!(collector.feed_into(&d, &mut out, |_, _| true), Ok(3));
    let d = datagram(
        9,
        3,
        &[template_set(9, &narrow), data_set(&narrow, &records)],
    );
    assert_eq!(collector.feed_into(&d, &mut out, |_, _| true), Ok(3));
    assert_eq!(out[..3], records[..]);
    assert_eq!(
        out[3..],
        records[..],
        "decoded under the re-announced layout"
    );

    // And a restored collector rebuilds the plan it does not serialize.
    let mut restored = Collector::restore(&collector.snapshot()).unwrap();
    out.clear();
    let d = datagram(9, 6, &[data_set(&narrow, &records)]);
    assert_eq!(restored.feed_into(&d, &mut out, |_, _| true), Ok(3));
    assert_eq!(out, records);
}
