//! NetFlow v5 wire codec — the fixed-format legacy protocol.
//!
//! Older border routers export v5; a credible collector accepts it
//! alongside v9/IPFIX, and the methodology works identically (v5 carries
//! the same 5-tuple + counters + cumulative TCP flags, §2.1 needs nothing
//! more). Format: a 24-byte header followed by up to 30 fixed 48-byte
//! records — no templates, no options; the sampling rate rides in the
//! header's `sampling` field (mode in the top 2 bits, interval below).
//!
//! ```text
//! header: ver=5 | count | sysUptime | unixSecs | unixNsecs | seq | engine | sampling
//! record: srcIP dstIP nexthop ifIdx ifIdx pkts bytes first last sport dport
//!         pad tcpFlags proto tos srcAS dstAS srcMask dstMask pad
//! ```

use crate::error::FlowError;
use crate::key::FlowKey;
use crate::record::FlowRecord;
use crate::tcp_flags::TcpFlags;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::net::Ipv4Addr;

/// Protocol version constant.
pub const VERSION: u16 = 5;
/// Header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Fixed record size in bytes.
pub const RECORD_LEN: usize = 48;
/// Maximum records per datagram (RFC-era convention, fits a 1500 MTU).
pub const MAX_RECORDS: usize = 30;

/// NetFlow v5 header fields the codec does not own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct V5Header {
    /// Router uptime in ms (simulated seconds × 1000).
    pub sys_uptime_ms: u32,
    /// Export time in (simulated) seconds.
    pub unix_secs: u32,
    /// Cumulative flow sequence number.
    pub sequence: u32,
    /// Engine type/id packed (we use it as a source id surrogate).
    pub engine: u16,
    /// Sampling: top 2 bits mode (1 = deterministic), lower 14 bits the
    /// 1-in-N interval.
    pub sampling: u16,
}

impl V5Header {
    /// Pack a deterministic 1-in-`n` sampling announcement (`n < 2^14`).
    pub fn with_sampling_interval(mut self, n: u16) -> Self {
        self.sampling = (1 << 14) | (n & 0x3FFF);
        self
    }

    /// The announced sampling interval, if any.
    pub fn sampling_interval(&self) -> Option<u16> {
        let mode = self.sampling >> 14;
        if mode == 0 {
            None
        } else {
            Some(self.sampling & 0x3FFF)
        }
    }
}

/// Encode up to [`MAX_RECORDS`] records into one datagram.
pub fn encode(header: &V5Header, records: &[FlowRecord]) -> Result<Bytes, FlowError> {
    if records.len() > MAX_RECORDS {
        return Err(FlowError::BadSetLength {
            declared: records.len() as u16,
            remaining: MAX_RECORDS,
        });
    }
    let mut buf = BytesMut::with_capacity(HEADER_LEN + RECORD_LEN * records.len());
    buf.put_u16(VERSION);
    buf.put_u16(records.len() as u16);
    buf.put_u32(header.sys_uptime_ms);
    buf.put_u32(header.unix_secs);
    buf.put_u32(0); // unix nsecs
    buf.put_u32(header.sequence);
    buf.put_u16(header.engine);
    buf.put_u16(header.sampling);
    for r in records {
        buf.put_u32(u32::from(r.key.src));
        buf.put_u32(u32::from(r.key.dst));
        buf.put_u32(0); // nexthop
        buf.put_u16(0); // input ifindex
        buf.put_u16(0); // output ifindex
        buf.put_u32(r.packets as u32);
        buf.put_u32(r.bytes as u32);
        buf.put_u32(r.first.0 as u32);
        buf.put_u32(r.last.0 as u32);
        buf.put_u16(r.key.sport);
        buf.put_u16(r.key.dport);
        buf.put_u8(0); // pad
        buf.put_u8(r.tcp_flags.0);
        buf.put_u8(r.key.proto.number());
        buf.put_u8(0); // tos
        buf.put_u16(0); // src AS
        buf.put_u16(0); // dst AS
        buf.put_u8(0); // src mask
        buf.put_u8(0); // dst mask
        buf.put_u16(0); // pad
    }
    Ok(buf.freeze())
}

/// A decoded v5 datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header fields.
    pub header: V5Header,
    /// Decoded records. Non-TCP/UDP records are dropped (the methodology
    /// consumes only those), counted in `skipped`.
    pub records: Vec<FlowRecord>,
    /// Records skipped for unsupported protocols.
    pub skipped: usize,
}

/// Decode one datagram.
pub fn decode(mut datagram: impl Buf) -> Result<Message, FlowError> {
    if datagram.remaining() < HEADER_LEN {
        return Err(FlowError::Truncated {
            context: "netflow v5 header",
            needed: HEADER_LEN,
            available: datagram.remaining(),
        });
    }
    let version = datagram.get_u16();
    if version != VERSION {
        return Err(FlowError::BadVersion {
            expected: VERSION,
            found: version,
        });
    }
    let count = usize::from(datagram.get_u16());
    if count > MAX_RECORDS {
        return Err(FlowError::BadSetLength {
            declared: count as u16,
            remaining: MAX_RECORDS,
        });
    }
    let header = V5Header {
        sys_uptime_ms: datagram.get_u32(),
        unix_secs: datagram.get_u32(),
        sequence: {
            let _nsecs = datagram.get_u32();
            datagram.get_u32()
        },
        engine: datagram.get_u16(),
        sampling: datagram.get_u16(),
    };
    if datagram.remaining() < count * RECORD_LEN {
        return Err(FlowError::Truncated {
            context: "netflow v5 records",
            needed: count * RECORD_LEN,
            available: datagram.remaining(),
        });
    }
    let mut records = Vec::with_capacity(count);
    let mut skipped = 0usize;
    for _ in 0..count {
        let src = Ipv4Addr::from(datagram.get_u32());
        let dst = Ipv4Addr::from(datagram.get_u32());
        datagram.advance(8); // nexthop + ifindexes
        let packets = u64::from(datagram.get_u32());
        let bytes = u64::from(datagram.get_u32());
        let first = SimTime(u64::from(datagram.get_u32()));
        let last = SimTime(u64::from(datagram.get_u32()));
        let sport = datagram.get_u16();
        let dport = datagram.get_u16();
        datagram.advance(1); // pad
        let flags = TcpFlags(datagram.get_u8());
        let proto_num = datagram.get_u8();
        datagram.advance(9); // tos + ASes + masks + pad
        match Proto::from_number(proto_num) {
            Some(proto) => records.push(FlowRecord {
                key: FlowKey {
                    src,
                    dst,
                    sport,
                    dport,
                    proto,
                },
                packets,
                bytes,
                tcp_flags: flags,
                first,
                last,
            }),
            None => skipped += 1,
        }
    }
    Ok(Message {
        header,
        records,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u8) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::new(100, 64, 0, i),
                dst: Ipv4Addr::new(198, 18, 0, 1),
                sport: 40_000 + u16::from(i),
                dport: 443,
                proto: if i.is_multiple_of(2) {
                    Proto::Tcp
                } else {
                    Proto::Udp
                },
            },
            packets: u64::from(i) + 1,
            bytes: u64::from(i) * 120 + 40,
            tcp_flags: if i.is_multiple_of(2) {
                TcpFlags::ACK
            } else {
                TcpFlags::NONE
            },
            first: SimTime(100),
            last: SimTime(130),
        }
    }

    #[test]
    fn round_trip() {
        let records: Vec<_> = (0..7).map(rec).collect();
        let header = V5Header {
            sys_uptime_ms: 1_000,
            unix_secs: 100,
            sequence: 9,
            engine: 3,
            sampling: 0,
        }
        .with_sampling_interval(1_000);
        let wire = encode(&header, &records).unwrap();
        assert_eq!(wire.len(), HEADER_LEN + 7 * RECORD_LEN);
        let msg = decode(wire).unwrap();
        assert_eq!(msg.records, records);
        assert_eq!(msg.skipped, 0);
        assert_eq!(msg.header.sampling_interval(), Some(1_000));
        assert_eq!(msg.header.sequence, 9);
    }

    #[test]
    fn too_many_records_rejected_on_encode() {
        let records: Vec<_> = (0..31).map(|i| rec(i as u8)).collect();
        assert!(encode(&V5Header::default(), &records).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let wire = encode(&V5Header::default(), &[rec(1)]).unwrap();
        let mut tampered = BytesMut::from(&wire[..]);
        tampered[1] = 9;
        assert_eq!(
            decode(tampered.freeze()),
            Err(FlowError::BadVersion {
                expected: 5,
                found: 9
            })
        );
    }

    #[test]
    fn truncation_rejected() {
        let wire = encode(&V5Header::default(), &[rec(1), rec(2)]).unwrap();
        assert!(matches!(
            decode(wire.slice(0..HEADER_LEN + 10)),
            Err(FlowError::Truncated { .. })
        ));
        assert!(matches!(
            decode(wire.slice(0..10)),
            Err(FlowError::Truncated { .. })
        ));
    }

    #[test]
    fn unsupported_protocols_are_skipped_not_fatal() {
        // Craft a record with protocol 1 (ICMP) by editing the wire.
        let wire = encode(&V5Header::default(), &[rec(0), rec(2)]).unwrap();
        let mut tampered = BytesMut::from(&wire[..]);
        // Protocol byte of record 0 sits at HEADER_LEN + 38.
        tampered[HEADER_LEN + 38] = 1;
        let msg = decode(tampered.freeze()).unwrap();
        assert_eq!(msg.records.len(), 1);
        assert_eq!(msg.skipped, 1);
    }

    #[test]
    fn sampling_field_modes() {
        assert_eq!(V5Header::default().sampling_interval(), None);
        let h = V5Header::default().with_sampling_interval(4_096);
        assert_eq!(h.sampling_interval(), Some(4_096 & 0x3FFF));
    }
}
