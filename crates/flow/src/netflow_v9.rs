//! NetFlow v9 wire codec (RFC 3954) — the ISP's export format (§2.1).
//!
//! Message layout:
//!
//! ```text
//! +--------+-------+------------+-----------+-----+-----------+
//! | ver=9  | count | sysUptime  | unixSecs  | seq | source id |  20-byte header
//! +--------+-------+------------+-----------+-----+-----------+
//! | flowset id | length | body ...                            |  repeated
//! +------------+--------+-------------------------------------+
//! ```
//!
//! Flowset id `0` carries templates, id `1` carries options templates
//! (parsed and skipped — the reproduction exports none), ids ≥ 256 carry
//! data described by a previously announced template. Decoding is
//! two-phase: this module splits a datagram into flowsets and parses
//! template flowsets eagerly, but leaves data flowsets as raw bytes for the
//! stateful [`Collector`](crate::collector::Collector), which owns the
//! template cache — exactly the statefulness a real collector needs
//! (templates may arrive in a different datagram than the data they
//! describe).

use crate::error::FlowError;
use crate::record::FlowRecord;
use crate::wire::{be16, be32, Dialect, OptionsTemplate, SamplingOptions, Sets, Template};
use bytes::{BufMut, Bytes, BytesMut};

/// Protocol version constant.
pub const VERSION: u16 = 9;
/// Flowset id carrying templates.
pub const TEMPLATE_FLOWSET_ID: u16 = 0;
/// Flowset id carrying options templates (skipped on decode).
pub const OPTIONS_TEMPLATE_FLOWSET_ID: u16 = 1;

/// NetFlow v9 message header (minus version/count, which the codec owns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct V9Header {
    /// Router uptime in milliseconds. The simulation carries simulated
    /// seconds × 1000.
    pub sys_uptime_ms: u32,
    /// Export wall-clock seconds (simulated seconds since epoch).
    pub unix_secs: u32,
    /// Cumulative sequence number of exported flows.
    pub sequence: u32,
    /// Exporter source id (we use one id per border router).
    pub source_id: u32,
}

/// A flowset: templates parsed as they are iterated, data left raw.
pub use crate::wire::Set as FlowSet;

/// A parsed NetFlow v9 message, borrowing its data flowsets from the
/// datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<'a> {
    /// Header fields.
    pub header: V9Header,
    /// Record count from the header (templates + data records).
    pub count: u16,
    /// Flowsets in order of appearance.
    pub flowsets: Vec<FlowSet<'a>>,
}

/// Encode one message containing the given templates followed by data
/// flowsets. `data` pairs each template with the records to encode under
/// it; callers pass an empty `templates` slice for data-only messages.
pub fn encode(
    header: &V9Header,
    templates: &[Template],
    data: &[(&Template, &[FlowRecord])],
) -> Result<Bytes, FlowError> {
    encode_full(header, templates, data, None)
}

/// Like [`encode`], additionally announcing the sampling configuration:
/// an options template plus one options record scoped to the exporting
/// system (how real routers tell collectors their 1-in-N rate).
pub fn encode_full(
    header: &V9Header,
    templates: &[Template],
    data: &[(&Template, &[FlowRecord])],
    sampling: Option<(&OptionsTemplate, SamplingOptions)>,
) -> Result<Bytes, FlowError> {
    for t in templates {
        t.validate()?;
    }
    for (t, _) in data {
        t.validate()?;
    }
    let record_count = templates.len()
        + data.iter().map(|(_, rs)| rs.len()).sum::<usize>()
        + if sampling.is_some() { 2 } else { 0 };
    let mut buf = BytesMut::with_capacity(1500);
    buf.put_u16(VERSION);
    buf.put_u16(record_count as u16);
    buf.put_u32(header.sys_uptime_ms);
    buf.put_u32(header.unix_secs);
    buf.put_u32(header.sequence);
    buf.put_u32(header.source_id);

    if !templates.is_empty() {
        let mut body = BytesMut::new();
        for t in templates {
            t.encode_body(&mut body);
        }
        put_set(&mut buf, TEMPLATE_FLOWSET_ID, &body);
    }
    if let Some((ot, opts)) = sampling {
        let mut body = BytesMut::new();
        ot.encode_body_v9(&mut body);
        put_set(&mut buf, OPTIONS_TEMPLATE_FLOWSET_ID, &body);
        let mut body = BytesMut::new();
        ot.encode_sampling(header.source_id, &opts, &mut body);
        put_set(&mut buf, ot.id, &body);
    }
    for (t, records) in data {
        if records.is_empty() {
            continue;
        }
        let mut body = BytesMut::with_capacity(t.record_len() * records.len());
        for r in *records {
            t.encode_record(r, &mut body);
        }
        put_set(&mut buf, t.id, &body);
    }
    Ok(buf.freeze())
}

/// Append one flowset with 4-byte alignment padding.
fn put_set(buf: &mut BytesMut, id: u16, body: &BytesMut) {
    let unpadded = 4 + body.len();
    let pad = (4 - unpadded % 4) % 4;
    buf.put_u16(id);
    buf.put_u16((unpadded + pad) as u16);
    buf.extend_from_slice(body);
    buf.put_bytes(0, pad);
}

/// Parse a datagram's header, leaving its flowsets to be walked (and
/// checked) lazily: `(header, record count, flowsets)`.
pub fn split(datagram: &[u8]) -> Result<(V9Header, u16, Sets<'_>), FlowError> {
    if datagram.len() < 20 {
        return Err(FlowError::Truncated {
            context: "netflow v9 header",
            needed: 20,
            available: datagram.len(),
        });
    }
    let version = be16(datagram, 0);
    if version != VERSION {
        return Err(FlowError::BadVersion {
            expected: VERSION,
            found: version,
        });
    }
    let header = V9Header {
        sys_uptime_ms: be32(datagram, 4),
        unix_secs: be32(datagram, 8),
        sequence: be32(datagram, 12),
        source_id: be32(datagram, 16),
    };
    Ok((
        header,
        be16(datagram, 2),
        Sets::new(&datagram[20..], Dialect::V9),
    ))
}

/// Decode a datagram into a [`Message`], every flowset and template
/// checked.
pub fn decode(datagram: &[u8]) -> Result<Message<'_>, FlowError> {
    let (header, count, sets) = split(datagram)?;
    sets.validate()?;
    Ok(Message {
        header,
        count,
        flowsets: sets.collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FlowKey;
    use crate::tcp_flags::TcpFlags;
    use crate::wire::decode_records;
    use haystack_net::ports::Proto;
    use haystack_net::SimTime;
    use std::net::Ipv4Addr;

    fn rec(i: u8) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::new(100, 64, 0, i),
                dst: Ipv4Addr::new(198, 18, 0, 1),
                sport: 40_000 + u16::from(i),
                dport: 443,
                proto: Proto::Tcp,
            },
            packets: u64::from(i) + 1,
            bytes: u64::from(i) * 100,
            tcp_flags: TcpFlags::ACK,
            first: SimTime(100),
            last: SimTime(160),
        }
    }

    fn header() -> V9Header {
        V9Header {
            sys_uptime_ms: 5000,
            unix_secs: 100,
            sequence: 42,
            source_id: 7,
        }
    }

    #[test]
    fn full_message_round_trip() {
        let t = Template::standard(256);
        let records: Vec<_> = (0..5).map(rec).collect();
        let wire = encode(&header(), std::slice::from_ref(&t), &[(&t, &records)]).unwrap();
        let msg = decode(&wire).unwrap();
        assert_eq!(msg.header, header());
        assert_eq!(msg.count, 6); // 1 template + 5 data records
        assert_eq!(msg.flowsets.len(), 2);
        match &msg.flowsets[0] {
            FlowSet::Templates(ts) => {
                assert_eq!(ts.clone().next().unwrap().unwrap().to_template(), t)
            }
            other => panic!("expected templates, got {other:?}"),
        }
        match &msg.flowsets[1] {
            FlowSet::Data { template_id, body } => {
                assert_eq!(*template_id, 256);
                let decoded = decode_records(&t, body);
                assert_eq!(decoded, records);
            }
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn data_only_message() {
        let t = Template::standard(300);
        let records: Vec<_> = (0..3).map(rec).collect();
        let wire = encode(&header(), &[], &[(&t, &records)]).unwrap();
        let msg = decode(&wire).unwrap();
        assert_eq!(msg.count, 3);
        assert_eq!(msg.flowsets.len(), 1);
    }

    #[test]
    fn empty_data_flowsets_are_omitted() {
        let t = Template::standard(256);
        let wire = encode(&header(), std::slice::from_ref(&t), &[(&t, &[])]).unwrap();
        let msg = decode(&wire).unwrap();
        assert_eq!(msg.flowsets.len(), 1, "only the template flowset");
    }

    #[test]
    fn wrong_version_rejected() {
        let t = Template::standard(256);
        let wire = encode(&header(), &[t], &[]).unwrap();
        let mut tampered = BytesMut::from(&wire[..]);
        tampered[0] = 0;
        tampered[1] = 5; // NetFlow v5
        assert_eq!(
            decode(&tampered),
            Err(FlowError::BadVersion {
                expected: 9,
                found: 5
            })
        );
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            decode(&[0u8; 10]),
            Err(FlowError::Truncated { .. })
        ));
    }

    #[test]
    fn lying_set_length_rejected() {
        let t = Template::standard(256);
        let records = [rec(1)];
        let wire = encode(&header(), &[], &[(&t, &records[..])]).unwrap();
        let mut tampered = BytesMut::from(&wire[..]);
        // Flowset length field sits at offset 22; claim more than remains.
        tampered[22] = 0xFF;
        tampered[23] = 0xFF;
        assert!(matches!(
            decode(&tampered),
            Err(FlowError::BadSetLength { .. })
        ));
    }

    #[test]
    fn alignment_padding_present() {
        let t = Template::standard(256); // record_len 38 → needs padding
        let records = [rec(1)];
        let wire = encode(&header(), &[], &[(&t, &records[..])]).unwrap();
        assert_eq!((wire.len() - 20) % 4, 0, "flowsets padded to 4 bytes");
    }

    #[test]
    fn reserved_data_flowset_id_rejected() {
        // Hand-craft a message with flowset id 5 (reserved, not options).
        let mut buf = BytesMut::new();
        buf.put_u16(VERSION);
        buf.put_u16(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u16(5);
        buf.put_u16(4);
        assert!(matches!(
            decode(&buf),
            Err(FlowError::ReservedTemplateId(5))
        ));
    }
}
