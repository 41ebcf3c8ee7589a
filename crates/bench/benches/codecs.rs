//! NetFlow v9 / IPFIX codec throughput — the vantage-point export and
//! collection path the testbed pipeline exercises.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::{Collector, FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::net::Ipv4Addr;

fn records(n: usize) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| FlowRecord {
            key: FlowKey {
                src: Ipv4Addr::from(0x6440_0000 + i as u32),
                dst: Ipv4Addr::from(0xC612_0000 + (i % 4096) as u32),
                sport: 32_768 + (i % 28_000) as u16,
                dport: if i % 7 == 0 { 8883 } else { 443 },
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

fn bench(c: &mut Criterion) {
    let recs = records(10_000);

    for (label, proto) in [
        ("netflow_v9", ExportProtocol::NetflowV9),
        ("ipfix", ExportProtocol::Ipfix),
    ] {
        let mut g = c.benchmark_group(label);
        g.throughput(Throughput::Elements(recs.len() as u64));
        g.sample_size(30);
        g.bench_function("encode_10k", |b| {
            b.iter(|| {
                let mut e = Exporter::new(proto, 1);
                e.export(&recs, 100).unwrap().len()
            })
        });
        // Pre-encode once for the decode side.
        let mut e = Exporter::new(proto, 1);
        let msgs = e.export(&recs, 100).unwrap();
        g.bench_function("decode_10k", |b| {
            b.iter(|| {
                let mut coll = Collector::new();
                let mut total = 0usize;
                for m in &msgs {
                    total += coll.feed(m.clone()).unwrap().len();
                }
                assert_eq!(total, recs.len());
                total
            })
        });
        // The daemon's entry point: one record buffer reused across
        // datagrams, no `Vec` per call.
        g.bench_function("decode_into_10k", |b| {
            let mut out = Vec::new();
            b.iter(|| {
                let mut coll = Collector::new();
                let mut total = 0usize;
                for m in &msgs {
                    out.clear();
                    total += coll.feed_into(m, &mut out, |_, _| true).unwrap();
                }
                assert_eq!(total, recs.len());
                total
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
