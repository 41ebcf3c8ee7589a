//! The simulated packet event.
//!
//! This is the unit the testbed traffic generator emits and the unit the
//! vantage-point samplers operate on. Only header fields are modelled —
//! the paper's whole point is that detection *"does not rely on payload"*
//! (§1), so the simulation never materializes one.

use crate::key::FlowKey;
use crate::tcp_flags::TcpFlags;
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::net::Ipv4Addr;

/// One packet as seen at a capture point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Capture timestamp.
    pub ts: SimTime,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// IP-layer length in bytes.
    pub bytes: u32,
    /// TCP flags (`TcpFlags::NONE` for UDP).
    pub flags: TcpFlags,
}

impl Packet {
    /// The packet's flow key.
    pub fn key(&self) -> FlowKey {
        FlowKey {
            src: self.src,
            dst: self.dst,
            sport: self.sport,
            dport: self.dport,
            proto: self.proto,
        }
    }

    /// Convenience constructor for a client→server data packet.
    pub fn data(
        ts: SimTime,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        proto: Proto,
        bytes: u32,
    ) -> Packet {
        let flags = match proto {
            Proto::Tcp => TcpFlags::ACK,
            Proto::Udp => TcpFlags::NONE,
        };
        Packet {
            ts,
            src,
            dst,
            sport,
            dport,
            proto,
            bytes,
            flags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_extraction() {
        let p = Packet::data(
            SimTime(5),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(198, 18, 0, 1),
            49152,
            443,
            Proto::Tcp,
            120,
        );
        let k = p.key();
        assert_eq!(k.dport, 443);
        assert_eq!(p.flags, TcpFlags::ACK);
    }

    #[test]
    fn udp_data_has_no_flags() {
        let p = Packet::data(
            SimTime(5),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(198, 18, 0, 2),
            49152,
            123,
            Proto::Udp,
            76,
        );
        assert_eq!(p.flags, TcpFlags::NONE);
    }
}
