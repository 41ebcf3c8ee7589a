//! Property tests for the flow cache: whatever packet stream arrives, the
//! emitted records must conserve packets/bytes and respect the timeouts.

use haystack_flow::cache::{FlowCache, FlowCacheConfig};
use haystack_flow::{Packet, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

fn arb_packet() -> impl Strategy<Value = (u64, u8, u16, u32)> {
    // (timestamp, flow-selector, dport, bytes)
    (
        0u64..600,
        0u8..6,
        prop_oneof![Just(443u16), Just(123)],
        40u32..1500,
    )
}

proptest! {
    #[test]
    fn packets_and_bytes_are_conserved(
        mut pkts in prop::collection::vec(arb_packet(), 1..300),
        inactive in 5u64..60,
        active in 20u64..120,
    ) {
        pkts.sort_by_key(|(t, ..)| *t);
        let mut cache = FlowCache::new(FlowCacheConfig {
            inactive_timeout_secs: inactive,
            active_timeout_secs: active,
        });
        let mut sent: HashMap<(u8, u16), (u64, u64)> = HashMap::new();
        let mut last_ts = 0;
        for (t, sel, dport, bytes) in &pkts {
            let p = Packet {
                ts: SimTime(*t),
                src: Ipv4Addr::new(100, 64, 0, 1),
                dst: Ipv4Addr::new(198, 18, 0, *sel),
                sport: 40_000,
                dport: *dport,
                proto: Proto::Tcp,
                bytes: *bytes,
                flags: TcpFlags::ACK,
            };
            cache.advance(SimTime(*t));
            cache.on_packet(&p);
            let e = sent.entry((*sel, *dport)).or_default();
            e.0 += 1;
            e.1 += u64::from(*bytes);
            last_ts = *t;
        }
        cache.advance(SimTime(last_ts + active + inactive + 1));
        cache.flush();
        let records = cache.drain_expired();
        prop_assert_eq!(cache.active_flows(), 0);

        let mut got: HashMap<(u8, u16), (u64, u64)> = HashMap::new();
        for r in &records {
            let key = (r.key.dst.octets()[3], r.key.dport);
            let e = got.entry(key).or_default();
            e.0 += r.packets;
            e.1 += r.bytes;
            // Record time bounds are sane.
            prop_assert!(r.first <= r.last);
            // No record spans longer than the active timeout window plus
            // the final second (splits happen at absorb time).
            prop_assert!(r.last.0 - r.first.0 <= active);
        }
        prop_assert_eq!(got, sent, "per-flow conservation");
    }

    #[test]
    fn drain_twice_is_empty(pkts in prop::collection::vec(arb_packet(), 1..50)) {
        let mut cache = FlowCache::new(FlowCacheConfig::default());
        for (t, sel, dport, bytes) in &pkts {
            cache.on_packet(&Packet {
                ts: SimTime(*t),
                src: Ipv4Addr::new(100, 64, 0, 1),
                dst: Ipv4Addr::new(198, 18, 0, *sel),
                sport: 40_000,
                dport: *dport,
                proto: Proto::Tcp,
                bytes: *bytes,
                flags: TcpFlags::ACK,
            });
        }
        cache.flush();
        let first = cache.drain_expired();
        prop_assert!(!first.is_empty());
        prop_assert!(cache.drain_expired().is_empty());
    }
}
