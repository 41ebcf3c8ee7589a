//! Persisting Home-VP captures.
//!
//! The testbeds' packet captures are the paper's primary artifact (§2).
//! This module defines a compact, versioned binary trace format —
//! pcap-like, but carrying the ground-truth attribution (instance id,
//! domain id) that a `.pcap` cannot — so experiments can be captured
//! once and replayed by downstream tools without regenerating traffic.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "HSTK" | version u16 | record count u64
//! then per packet (34 bytes):
//!   ts u64 | src u32 | dst u32 | sport u16 | dport u16 | proto u8 |
//!   flags u8 | bytes u32 | instance u32 | domain_id u32
//! ```

use crate::experiment::GroundTruthPacket;
use haystack_flow::{Packet, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;

/// File magic.
pub const MAGIC: &[u8; 4] = b"HSTK";
/// Format version.
pub const VERSION: u16 = 1;
const RECORD_LEN: usize = 34;

/// Errors from reading a trace.
#[derive(Debug)]
pub enum CaptureError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Magic or version mismatch.
    BadHeader,
    /// Trace ended mid-record or the count lied.
    Truncated,
    /// A record carried an unsupported protocol number.
    BadProtocol(u8),
}

impl From<io::Error> for CaptureError {
    fn from(e: io::Error) -> Self {
        CaptureError::Io(e)
    }
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Io(e) => write!(f, "i/o error: {e}"),
            CaptureError::BadHeader => write!(f, "not a haystack trace (bad magic/version)"),
            CaptureError::Truncated => write!(f, "trace truncated"),
            CaptureError::BadProtocol(p) => write!(f, "unsupported protocol {p}"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// Write a capture to any sink.
pub fn write_trace<W: Write>(mut w: W, packets: &[GroundTruthPacket]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(packets.len() as u64).to_le_bytes())?;
    let mut buf = [0u8; RECORD_LEN];
    for g in packets {
        buf[0..8].copy_from_slice(&g.packet.ts.0.to_le_bytes());
        buf[8..12].copy_from_slice(&u32::from(g.packet.src).to_le_bytes());
        buf[12..16].copy_from_slice(&u32::from(g.packet.dst).to_le_bytes());
        buf[16..18].copy_from_slice(&g.packet.sport.to_le_bytes());
        buf[18..20].copy_from_slice(&g.packet.dport.to_le_bytes());
        buf[20] = g.packet.proto.number();
        buf[21] = g.packet.flags.0;
        buf[22..26].copy_from_slice(&g.packet.bytes.to_le_bytes());
        buf[26..30].copy_from_slice(&g.instance.to_le_bytes());
        buf[30..34].copy_from_slice(&g.domain_id.to_le_bytes());
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Read a capture back.
pub fn read_trace<R: Read>(mut r: R) -> Result<Vec<GroundTruthPacket>, CaptureError> {
    let mut header = [0u8; 14];
    r.read_exact(&mut header)
        .map_err(|_| CaptureError::BadHeader)?;
    if &header[0..4] != MAGIC || u16::from_le_bytes([header[4], header[5]]) != VERSION {
        return Err(CaptureError::BadHeader);
    }
    let count = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let mut out = Vec::with_capacity(count.min(1 << 24) as usize);
    let mut buf = [0u8; RECORD_LEN];
    for _ in 0..count {
        r.read_exact(&mut buf)
            .map_err(|_| CaptureError::Truncated)?;
        let proto_num = buf[20];
        let proto = Proto::from_number(proto_num).ok_or(CaptureError::BadProtocol(proto_num))?;
        out.push(GroundTruthPacket {
            packet: Packet {
                ts: SimTime(u64::from_le_bytes(buf[0..8].try_into().expect("8"))),
                src: Ipv4Addr::from(u32::from_le_bytes(buf[8..12].try_into().expect("4"))),
                dst: Ipv4Addr::from(u32::from_le_bytes(buf[12..16].try_into().expect("4"))),
                sport: u16::from_le_bytes([buf[16], buf[17]]),
                dport: u16::from_le_bytes([buf[18], buf[19]]),
                proto,
                bytes: u32::from_le_bytes(buf[22..26].try_into().expect("4")),
                flags: TcpFlags(buf[21]),
            },
            instance: u32::from_le_bytes(buf[26..30].try_into().expect("4")),
            domain_id: u32::from_le_bytes(buf[30..34].try_into().expect("4")),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packets(n: u32) -> Vec<GroundTruthPacket> {
        (0..n)
            .map(|i| GroundTruthPacket {
                packet: Packet {
                    ts: SimTime(u64::from(i) * 7),
                    src: Ipv4Addr::new(100, 64, 4, 49),
                    dst: Ipv4Addr::new(198, 18, 0, (i % 200) as u8),
                    sport: 40_000 + (i % 1000) as u16,
                    dport: if i % 5 == 0 { 123 } else { 443 },
                    proto: if i % 5 == 0 { Proto::Udp } else { Proto::Tcp },
                    bytes: 40 + i % 1400,
                    flags: if i % 5 == 0 {
                        TcpFlags::NONE
                    } else {
                        TcpFlags::ACK
                    },
                },
                instance: i % 96,
                domain_id: i % 400,
            })
            .collect()
    }

    #[test]
    fn round_trip() {
        let pkts = packets(1_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &pkts).unwrap();
        assert_eq!(buf.len(), 14 + 1_000 * RECORD_LEN);
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, pkts);
    }

    #[test]
    fn empty_trace() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &packets(2)).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(CaptureError::BadHeader)
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &packets(10)).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(CaptureError::Truncated)
        ));
    }

    #[test]
    fn bad_protocol_detected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &packets(1)).unwrap();
        buf[14 + 20] = 99; // protocol byte of record 0
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(CaptureError::BadProtocol(99))
        ));
    }
}
