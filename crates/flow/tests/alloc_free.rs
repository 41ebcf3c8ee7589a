//! Allocation pin for the collector's decode path.
//!
//! A counting global allocator wraps the system allocator. Once a source
//! has announced its template and the caller's record buffer has grown to
//! a datagram's worth, `Collector::feed_into` must decode data datagrams
//! — and the exporter's periodic refresh of the same template — with
//! **zero** heap allocations, and `Collector::feed` with exactly one: the
//! `Vec` it returns. A predicate that rejects every record costs none at
//! all, into a buffer that never grew.
//!
//! This file deliberately holds exactly one `#[test]`: the counter is
//! process-global, and a concurrently running test would pollute it.

use bytes::Bytes;
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::{Collector, FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator with an allocation counter in front.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const DATAGRAMS: usize = 1_000;
const PER_DATAGRAM: usize = 30;

fn records(n: usize) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::from(0x6440_0000 + i as u32),
                dst: Ipv4Addr::new(198, 18, 0, 1),
                sport: 40_000,
                dport: 443,
                proto: Proto::Tcp,
            },
            packets: 1 + (i % 9) as u64,
            bytes: 40 + (i % 1400) as u64,
            tcp_flags: TcpFlags::ACK,
            first: SimTime(i as u64),
            last: SimTime(i as u64 + 30),
        })
        .collect()
}

#[test]
fn steady_state_decode_does_not_allocate() {
    let recs = records((DATAGRAMS + 1) * PER_DATAGRAM);
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7);
    let wire = exporter.export(&recs, 100).unwrap();
    assert_eq!(wire.len(), DATAGRAMS + 1);
    // The first datagram announces the template; every
    // `TEMPLATE_REFRESH`-th one after it repeats the announcement.
    let (announce, data) = wire.split_first().unwrap();

    let mut collector = Collector::new();
    let mut out = Vec::new();
    collector
        .feed_into(announce, &mut out, |_, _| true)
        .unwrap();
    let mut decoded = out.len();
    let before = ALLOCS.load(Ordering::Relaxed);
    for d in data {
        out.clear();
        decoded += collector.feed_into(d, &mut out, |_, _| true).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(decoded, recs.len());
    assert_eq!(out[..], recs[recs.len() - PER_DATAGRAM..]);
    assert_eq!(after - before, 0, "feed_into allocated in steady state");

    let mut collector = Collector::new();
    collector.feed(announce.clone()).unwrap();
    // Cloning a `Bytes` shares its storage; it is done up front all the
    // same, so that the loop holds nothing but `feed`.
    let data: Vec<Bytes> = data.to_vec();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut decoded = 0;
    for d in data {
        decoded += collector.feed(d).unwrap().len();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(decoded, DATAGRAMS * PER_DATAGRAM);
    assert_eq!(
        after - before,
        DATAGRAMS,
        "feed allocates the Vec it returns and nothing else"
    );

    // A predicate that turns every record away needs no room for any:
    // on a warm collector, even an empty, never-grown buffer stays so.
    let mut collector = Collector::new();
    collector
        .feed_into(announce, &mut Vec::new(), |_, _| true)
        .unwrap();
    let mut out = Vec::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut decoded = 0;
    for d in wire.iter().skip(1) {
        decoded += collector.feed_into(d, &mut out, |_, _| false).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        decoded,
        DATAGRAMS * PER_DATAGRAM,
        "rejected records are still decoded"
    );
    assert!(out.is_empty() && out.capacity() == 0);
    assert_eq!(after - before, 0, "a reject-all feed_into allocated");
}
