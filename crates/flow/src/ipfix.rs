//! IPFIX wire codec (RFC 7011) — the IXP's export format (§2.1).
//!
//! Message layout:
//!
//! ```text
//! +---------+--------+-------------+-----+--------------------+
//! | ver=10  | length | export time | seq | obs. domain id     |  16-byte header
//! +---------+--------+-------------+-----+--------------------+
//! | set id | length | body ...                                |  repeated
//! +--------+--------+-----------------------------------------+
//! ```
//!
//! Differences from NetFlow v9 that this codec implements faithfully:
//! the header carries the **total message length** (v9 carries a record
//! count), template sets use id `2` (options templates `3`, skipped), and
//! the observation-domain id replaces the source id. Enterprise-specific
//! information elements (high bit of the field id) are not exported by the
//! reproduction and are rejected on decode.

use crate::error::FlowError;
use crate::record::FlowRecord;
use crate::wire::{be16, be32, Dialect, OptionsTemplate, SamplingOptions, Sets, Template};
use bytes::{BufMut, Bytes, BytesMut};

/// Protocol version constant.
pub const VERSION: u16 = 10;
/// Set id carrying templates.
pub const TEMPLATE_SET_ID: u16 = 2;
/// Set id carrying options templates (skipped on decode).
pub const OPTIONS_TEMPLATE_SET_ID: u16 = 3;

/// IPFIX message header (minus version/length, which the codec owns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IpfixHeader {
    /// Export time in (simulated) seconds since epoch.
    pub export_time: u32,
    /// Sequence number: cumulative count of data records.
    pub sequence: u32,
    /// Observation domain — we use one per IXP edge switch.
    pub domain_id: u32,
}

/// A set: templates parsed as they are iterated, data left raw for the
/// collector.
pub use crate::wire::Set;

/// A parsed IPFIX message, borrowing its data sets from the datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<'a> {
    /// Header fields.
    pub header: IpfixHeader,
    /// Sets in order of appearance.
    pub sets: Vec<Set<'a>>,
}

/// Encode one message: `templates` first, then data sets.
pub fn encode(
    header: &IpfixHeader,
    templates: &[Template],
    data: &[(&Template, &[FlowRecord])],
) -> Result<Bytes, FlowError> {
    encode_full(header, templates, data, None)
}

/// Like [`encode`], additionally announcing the sampling configuration.
pub fn encode_full(
    header: &IpfixHeader,
    templates: &[Template],
    data: &[(&Template, &[FlowRecord])],
    sampling: Option<(&OptionsTemplate, SamplingOptions)>,
) -> Result<Bytes, FlowError> {
    for t in templates {
        t.validate()?;
        if t.fields.iter().any(|f| f.id & 0x8000 != 0) {
            return Err(FlowError::UnsupportedField {
                field: t.fields.iter().find(|f| f.id & 0x8000 != 0).unwrap().id,
                len: 0,
            });
        }
    }
    for (t, _) in data {
        t.validate()?;
    }
    let mut buf = BytesMut::with_capacity(1500);
    buf.put_u16(VERSION);
    buf.put_u16(0); // length placeholder
    buf.put_u32(header.export_time);
    buf.put_u32(header.sequence);
    buf.put_u32(header.domain_id);

    if !templates.is_empty() {
        let mut body = BytesMut::new();
        for t in templates {
            t.encode_body(&mut body);
        }
        put_set(&mut buf, TEMPLATE_SET_ID, &body);
    }
    if let Some((ot, opts)) = sampling {
        let mut body = BytesMut::new();
        ot.encode_body_ipfix(&mut body);
        put_set(&mut buf, OPTIONS_TEMPLATE_SET_ID, &body);
        let mut body = BytesMut::new();
        ot.encode_sampling(header.domain_id, &opts, &mut body);
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
    let total = buf.len() as u16;
    buf[2..4].copy_from_slice(&total.to_be_bytes());
    Ok(buf.freeze())
}

fn put_set(buf: &mut BytesMut, id: u16, body: &BytesMut) {
    let unpadded = 4 + body.len();
    let pad = (4 - unpadded % 4) % 4;
    buf.put_u16(id);
    buf.put_u16((unpadded + pad) as u16);
    buf.extend_from_slice(body);
    buf.put_bytes(0, pad);
}

/// Parse a datagram's header, leaving its sets to be walked (and checked)
/// lazily. The header's length field is honoured: bytes beyond it are
/// rejected as trailing garbage.
pub fn split(datagram: &[u8]) -> Result<(IpfixHeader, Sets<'_>), FlowError> {
    if datagram.len() < 16 {
        return Err(FlowError::Truncated {
            context: "ipfix header",
            needed: 16,
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
    let declared_len = be16(datagram, 2);
    if declared_len < 16 || usize::from(declared_len) != datagram.len() {
        return Err(FlowError::BadSetLength {
            declared: declared_len,
            remaining: datagram.len() - 4,
        });
    }
    let header = IpfixHeader {
        export_time: be32(datagram, 4),
        sequence: be32(datagram, 8),
        domain_id: be32(datagram, 12),
    };
    Ok((header, Sets::new(&datagram[16..], Dialect::Ipfix)))
}

/// Decode a datagram into a [`Message`], every set and template checked.
pub fn decode(datagram: &[u8]) -> Result<Message<'_>, FlowError> {
    let (header, sets) = split(datagram)?;
    sets.validate()?;
    Ok(Message {
        header,
        sets: sets.collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FlowKey;
    use crate::tcp_flags::TcpFlags;
    use crate::wire::{decode_records, TemplateField};
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
            packets: 1,
            bytes: 1400,
            tcp_flags: TcpFlags::ACK,
            first: SimTime(100),
            last: SimTime(100),
        }
    }

    fn header() -> IpfixHeader {
        IpfixHeader {
            export_time: 100,
            sequence: 1,
            domain_id: 9,
        }
    }

    #[test]
    fn full_message_round_trip() {
        let t = Template::standard(400);
        let records: Vec<_> = (0..7).map(rec).collect();
        let wire = encode(&header(), std::slice::from_ref(&t), &[(&t, &records)]).unwrap();
        // Header length field covers the whole message.
        assert_eq!(u16::from_be_bytes([wire[2], wire[3]]) as usize, wire.len());
        let msg = decode(&wire).unwrap();
        assert_eq!(msg.header, header());
        assert_eq!(msg.sets.len(), 2);
        match &msg.sets[1] {
            Set::Data { template_id, body } => {
                assert_eq!(*template_id, 400);
                let decoded = decode_records(&t, body);
                assert_eq!(decoded, records);
            }
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let t = Template::standard(256);
        let wire = encode(&header(), &[t], &[]).unwrap();
        let mut tampered = BytesMut::from(&wire[..]);
        tampered[1] = 9;
        assert_eq!(
            decode(&tampered),
            Err(FlowError::BadVersion {
                expected: 10,
                found: 9
            })
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let t = Template::standard(256);
        let wire = encode(&header(), &[t], &[]).unwrap();
        let mut tampered = BytesMut::from(&wire[..]);
        tampered[3] = tampered[3].wrapping_add(4); // lie about length
        assert!(matches!(
            decode(&tampered),
            Err(FlowError::BadSetLength { .. })
        ));
    }

    #[test]
    fn enterprise_fields_rejected_on_encode() {
        let mut t = Template::standard(256);
        t.fields.push(TemplateField { id: 0x8001, len: 4 });
        assert!(matches!(
            encode(&header(), &[t], &[]),
            Err(FlowError::UnsupportedField { field: 0x8001, .. })
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            decode(&[0u8; 8]),
            Err(FlowError::Truncated { .. })
        ));
    }

    #[test]
    fn multiple_data_sets() {
        let t1 = Template::standard(256);
        let t2 = Template::standard(257);
        let r1: Vec<_> = (0..2).map(rec).collect();
        let r2: Vec<_> = (2..5).map(rec).collect();
        let wire = encode(
            &header(),
            &[t1.clone(), t2.clone()],
            &[(&t1, &r1), (&t2, &r2)],
        )
        .unwrap();
        let msg = decode(&wire).unwrap();
        assert_eq!(msg.sets.len(), 3);
        match &msg.sets[0] {
            Set::Templates(ts) => assert_eq!(ts.clone().count(), 2),
            other => panic!("expected templates, got {other:?}"),
        }
    }
}
