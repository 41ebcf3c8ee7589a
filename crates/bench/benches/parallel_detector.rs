//! Detector-pool scaling: the multi-core configuration behind the
//! "ISP-hour in seconds" claim. Compares shard counts on the same record
//! stream, chunked through the persistent pool (results are
//! bit-identical to sequential; the equivalence is unit-tested in
//! `haystack-core`). On a single-core host this measures sharding
//! overhead rather than speedup — read it next to `nproc`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use haystack_core::detector::DetectorConfig;
use haystack_core::hitlist::HitList;
use haystack_core::parallel::DetectorPool;
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin, Prefix4};
use haystack_wild::{RecordChunk, VecStream, WildRecord, DEFAULT_CHUNK_RECORDS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

fn pipeline() -> &'static Pipeline {
    static P: OnceLock<Pipeline> = OnceLock::new();
    P.get_or_init(|| Pipeline::run(PipelineConfig::fast(42)))
}

fn stream(n: usize) -> Vec<WildRecord> {
    let p = pipeline();
    let mut rule_ips: Vec<(Ipv4Addr, u16)> = Vec::new();
    for r in &p.rules.rules {
        for d in &r.domains {
            for ip in &d.ips {
                for port in &d.ports {
                    rule_ips.push((*ip, *port));
                }
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(5);
    (0..n)
        .map(|i| {
            let (dst, dport) = if rng.gen_bool(0.3) {
                rule_ips[rng.gen_range(0..rule_ips.len())]
            } else {
                (Ipv4Addr::new(151, 64, (i % 200) as u8, 1), 443)
            };
            let src = Ipv4Addr::new(100, 64, rng.gen(), rng.gen());
            WildRecord {
                line: AnonId(rng.gen::<u64>()),
                line_slash24: Prefix4::slash24_of(src),
                src_ip: src,
                dst,
                dport,
                proto: Proto::Tcp,
                packets: 1,
                bytes: 400,
                established: true,
                hour: HourBin(0),
            }
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let p = pipeline();
    let records = stream(150_000);
    let hl = HitList::whole_window(&p.rules);

    let mut g = c.benchmark_group("sharded_detector");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.sample_size(10);
    // Chunks through the persistent pool with backpressure — the shape
    // `haystack detect` and the studies use.
    for workers in [1usize, 2, 4] {
        g.bench_function(format!("pool_stream_workers_{workers}"), |b| {
            b.iter_batched(
                || {
                    (
                        DetectorPool::new(&p.rules, &hl, DetectorConfig::default(), workers),
                        VecStream::new(records.clone(), DEFAULT_CHUNK_RECORDS),
                    )
                },
                |(mut pool, mut stream)| {
                    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
                    pool.observe_stream(&mut stream, &mut chunk).unwrap();
                    pool.finish().unwrap();
                    pool.state_size().unwrap()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
