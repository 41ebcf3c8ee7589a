//! Property tests for the NetFlow v5 codec: arbitrary record batches
//! round-trip; arbitrary bytes never panic the decoder.

use haystack_flow::netflow_v5 as v5;
use haystack_flow::{FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(Proto::Tcp), Just(Proto::Udp)],
        1u32..=1_000_000, // v5 counters are 32-bit on the wire
        0u32..=100_000_000,
        any::<u8>(),
        0u32..=2_000_000,
        0u32..=10_000,
    )
        .prop_map(
            |(src, dst, sport, dport, proto, packets, bytes, flags, first, dur)| FlowRecord {
                key: FlowKey {
                    src: Ipv4Addr::from(src),
                    dst: Ipv4Addr::from(dst),
                    sport,
                    dport,
                    proto,
                },
                packets: u64::from(packets),
                bytes: u64::from(bytes),
                tcp_flags: TcpFlags(flags),
                first: SimTime(u64::from(first)),
                last: SimTime(u64::from(first) + u64::from(dur)),
            },
        )
}

proptest! {
    #[test]
    fn v5_round_trips(records in prop::collection::vec(arb_record(), 0..=30), seq in any::<u32>(), engine in any::<u16>()) {
        let header = v5::V5Header {
            sys_uptime_ms: 1,
            unix_secs: 2,
            sequence: seq,
            engine,
            sampling: 0,
        }
        .with_sampling_interval(1_000);
        let wire = v5::encode(&header, &records).unwrap();
        let msg = v5::decode(wire).unwrap();
        prop_assert_eq!(msg.records, records);
        prop_assert_eq!(msg.header.sequence, seq);
        prop_assert_eq!(msg.header.engine, engine);
        prop_assert_eq!(msg.header.sampling_interval(), Some(1_000 & 0x3FFF));
        prop_assert_eq!(msg.skipped, 0);
    }

    #[test]
    fn v5_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = v5::decode(bytes::Bytes::from(bytes));
    }

    #[test]
    fn v5_truncation_always_detected(
        records in prop::collection::vec(arb_record(), 1..=10),
        cut_frac in 0.0f64..1.0,
    ) {
        let wire = v5::encode(&v5::V5Header::default(), &records).unwrap();
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        // Any strict prefix must fail cleanly (header or record truncation).
        if cut < wire.len() {
            prop_assert!(v5::decode(wire.slice(0..cut)).is_err());
        }
    }
}
