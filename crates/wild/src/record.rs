//! The flow record a wild vantage point hands to the detector.
//!
//! The testbed pipeline carries real NetFlow v9 / IPFIX datagrams through
//! `haystack-flow`'s codecs; at population scale, re-encoding tens of
//! millions of records buys nothing analytically, so the wild vantage
//! points emit this decoded form directly (the codecs are exercised
//! end-to-end by the ground-truth pipeline and its integration tests; see
//! DESIGN.md). Fields mirror exactly what §2.1's setup exposes: an
//! anonymized subscriber identity, the /24 kept on-premises for Figure 13,
//! and the server side in the clear.

use haystack_flow::FlowRecord;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, Anonymizer, HourBin, Prefix4};
use std::net::Ipv4Addr;

/// One hour-aggregated, sampled flow observation at a wild vantage point.
///
/// `repr(C)` with a hand-chosen field order: the detector's fingerprint
/// gate (DESIGN.md §10) touches exactly `dst` + `dport` per record, and
/// the fixed layout keeps them adjacent — one cache-line touch per
/// record in the gate loop — while packing the struct to 48 bytes (no
/// padding anywhere but the tail of `line_slash24`; the wild pipeline
/// holds millions of records per simulated hour, so a stray
/// rustc-chosen layout regressing either property would cost real
/// throughput and memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct WildRecord {
    /// Anonymized subscriber line (ISP) or remote client identity (IXP).
    pub line: AnonId,
    /// Sampled packet count within the hour.
    pub packets: u64,
    /// Sampled byte count within the hour.
    pub bytes: u64,
    /// The /24 of the subscriber address (retained on-premises only).
    pub line_slash24: Prefix4,
    /// Raw client address — used by the IXP pipeline, which counts unique
    /// IPs (it has no subscriber-line notion); the ISP pipeline must not
    /// use it (and its reports only consume `line`).
    pub src_ip: Ipv4Addr,
    /// Service address.
    pub dst: Ipv4Addr,
    /// Service port.
    pub dport: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// §6.3 anti-spoofing evidence: at least one sampled TCP packet
    /// carried no SYN/FIN/RST (always true for UDP).
    pub established: bool,
    /// The hour bin.
    pub hour: HourBin,
}

impl WildRecord {
    /// The record a collector-fed vantage point hands on for one decoded
    /// flow: the subscriber side anonymized, its /24 kept, the hour taken
    /// from the flow's first packet.
    pub fn from_flow(r: &FlowRecord, anon: &Anonymizer) -> WildRecord {
        WildRecord {
            line: anon.anonymize(r.key.src),
            line_slash24: Prefix4::slash24_of(r.key.src),
            src_ip: r.key.src,
            dst: r.key.dst,
            dport: r.key.dport,
            proto: r.key.proto,
            packets: r.packets,
            bytes: r.bytes,
            established: r.tcp_flags.is_established_evidence(),
            hour: r.first.hour(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_compact() {
        // Guard the layout properties the hot path banks on (see
        // struct docs): 48 bytes flat, detector-read fields adjacent.
        assert_eq!(std::mem::size_of::<WildRecord>(), 48);
        assert_eq!(
            std::mem::offset_of!(WildRecord, dport),
            std::mem::offset_of!(WildRecord, dst) + 4,
        );
    }
}
