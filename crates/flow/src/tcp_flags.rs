//! TCP flag handling.
//!
//! §6.3 is the consumer: at the IXP, spoofing prevention is impossible, so
//! the methodology *"require\[s\] TCP traffic to see at least one packet
//! without flags, indicating that a TCP connection was successfully
//! established"* — "without flags" meaning without any of the
//! connection-management flags (SYN/FIN/RST); a mid-connection data or pure
//! ACK segment. Flow exporters carry the **cumulative OR** of the flags of
//! the packets aggregated into a record, so at the IXP's very sparse
//! sampling (where a record typically covers a single sampled packet) a
//! record whose flags contain no SYN/FIN/RST is evidence of an established
//! connection.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// TCP flags byte as carried in NetFlow/IPFIX field 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// No flags set (also the value carried for UDP flows).
    pub const NONE: TcpFlags = TcpFlags(0);
    /// SYN|ACK — the server side of the handshake.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);

    /// Whether all flags in `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any flag in `other` is set in `self`.
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// The §6.3 anti-spoofing predicate: this flag set carries none of the
    /// connection-management flags (SYN/FIN/RST), i.e. it could only have
    /// been produced by segments of an established connection. A blindly
    /// spoofed packet train (SYN floods, RST backscatter) fails this.
    pub fn is_established_evidence(self) -> bool {
        !self.intersects(TcpFlags(Self::SYN.0 | Self::FIN.0 | Self::RST.0))
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            return f.write_str(".");
        }
        let mut s = String::new();
        for (bit, ch) in [(0x02u8, 'S'), (0x10, 'A'), (0x08, 'P'), (0x01, 'F'), (0x04, 'R')] {
            if self.0 & bit != 0 {
                s.push(ch);
            }
        }
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn established_evidence() {
        assert!(TcpFlags::ACK.is_established_evidence());
        assert!((TcpFlags::ACK | TcpFlags::PSH).is_established_evidence());
        assert!(TcpFlags::NONE.is_established_evidence());
        assert!(!TcpFlags::SYN.is_established_evidence());
        assert!(!TcpFlags::SYN_ACK.is_established_evidence());
        assert!(!(TcpFlags::ACK | TcpFlags::FIN).is_established_evidence());
        assert!(!TcpFlags::RST.is_established_evidence());
    }

    #[test]
    fn or_accumulates_like_a_flow_cache() {
        let mut f = TcpFlags::NONE;
        f |= TcpFlags::SYN;
        f |= TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN_ACK));
        assert!(!f.is_established_evidence(), "cumulative SYN taints the record");
    }

    #[test]
    fn display() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SA");
        assert_eq!(TcpFlags::NONE.to_string(), ".");
        assert_eq!((TcpFlags::ACK | TcpFlags::PSH).to_string(), "AP");
    }
}
