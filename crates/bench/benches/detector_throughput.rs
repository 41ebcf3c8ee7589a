//! The detector kernel in isolation: the pre-optimization reference
//! path, the flattened hot path, and the batched fingerprint-gated path
//! at the miss rates a wild deployment actually sees.
//!
//! The wild workload is *miss-dominated* — the overwhelming majority of
//! sampled records match no IoT rule — so the headline variants here are
//! the `compiled_chunk_missNN` rows: `observe_chunk` over streams where
//! 50 % / 90 % / 99 % of records miss every rule key. Every miss record
//! carries a *distinct* destination, because that is what makes the
//! workload honest: with only a handful of recycled miss keys the probe
//! table stays cache-resident and an ungated probe looks artificially
//! cheap; real traffic's key diversity is exactly what the fingerprint
//! front gate exists to absorb (one L1 byte per miss instead of a
//! cache-missing slot probe). The `ungated_probe_miss99` comparator
//! measures that pre-gate cost in the same run, so the gate's speedup is
//! recomputed — not trusted from a stale snapshot — every time the bench
//! runs.
//!
//! This is a comparison, not a gate: read the rows of one run against
//! each other (compiled vs reference, gated vs ungated). Absolute
//! records/s, and every perf bound, come from `benchmark/` — the kernel
//! on the real record stream is `core.detector.ns_per_record` on
//! `serve_miss99` / `serve_hit50` / `serve_query_mix`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::{HitList, MapHitList};
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_core::reference::ReferenceDetector;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin, Prefix4};
use haystack_wild::WildRecord;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Records per measured pass.
const RECORDS: usize = 100_000;

fn pipeline() -> &'static Pipeline {
    static P: OnceLock<Pipeline> = OnceLock::new();
    P.get_or_init(|| Pipeline::run(PipelineConfig::fast(42)))
}

/// Every (ip, port) combination any rule indexes — the hit vocabulary.
fn rule_keys() -> Vec<(Ipv4Addr, u16)> {
    let p = pipeline();
    let mut keys = Vec::new();
    for r in &p.rules.rules {
        for d in &r.domains {
            for ip in &d.ips {
                for port in &d.ports {
                    keys.push((*ip, *port));
                }
            }
        }
    }
    keys
}

/// A synthetic sampled-flow stream with the given rule-hit rate. Hits
/// draw uniformly from the rule keys; every miss record gets a distinct
/// destination (see the module doc — recycled miss keys would let the
/// probe table hide in cache and understate the gate's value).
fn stream(hit_rate: f64) -> Vec<WildRecord> {
    let keys = rule_keys();
    let mut rng = SmallRng::seed_from_u64(7);
    (0..RECORDS)
        .map(|i| {
            let (dst, dport) = if rng.gen_bool(hit_rate) {
                keys[rng.gen_range(0..keys.len())]
            } else {
                (
                    Ipv4Addr::new(30 + (i >> 16) as u8, (i >> 8) as u8, i as u8, 1),
                    443,
                )
            };
            let src = Ipv4Addr::new(100, 64, rng.gen(), rng.gen());
            WildRecord {
                line: AnonId(rng.gen_range(0..500_000)),
                line_slash24: Prefix4::slash24_of(src),
                src_ip: src,
                dst,
                dport,
                proto: Proto::Tcp,
                packets: 1 + rng.gen_range(0u64..4),
                bytes: 400,
                established: true,
                hour: HourBin(0),
            }
        })
        .collect()
}

fn compiled() -> Detector<'static> {
    let p = pipeline();
    Detector::new(
        &p.rules,
        HitList::whole_window(&p.rules),
        DetectorConfig::default(),
    )
}

/// "reference" is the pre-optimization implementation (SipHash tuple
/// maps, per-match entry clone over the HashMap hitlist); "compiled" is
/// the flattened hot path; "compiled_chunk" adds the batched
/// fingerprint-gated entry point the pool shards use. All three run a
/// 30 %-hit mix on a fresh detector per pass, state growth included.
fn before_after(c: &mut Criterion) {
    let p = pipeline();
    let records = stream(0.3);
    let mut g = c.benchmark_group("detector");
    g.throughput(Throughput::Elements(RECORDS as u64));
    g.sample_size(10);
    g.bench_function("reference", |b| {
        b.iter_batched(
            || {
                ReferenceDetector::new(
                    &p.rules,
                    MapHitList::whole_window(&p.rules),
                    DetectorConfig::default(),
                )
            },
            |mut det| {
                for r in &records {
                    det.observe_wild(r);
                }
                det.state_size()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("compiled", |b| {
        b.iter_batched(
            compiled,
            |mut det| {
                for r in &records {
                    det.observe_wild(r);
                }
                det.state_size()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("compiled_chunk", |b| {
        b.iter_batched(
            compiled,
            |mut det| {
                det.observe_chunk(&records);
                det.state_size()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Steady-state `observe_chunk` at wild miss rates on a *warm* detector
/// (`Bencher::iter` runs one untimed pass first, so the scratch columns
/// are sized and every (line, rule) state the stream can touch exists —
/// the state `alloc_free.rs` pins allocation-free; first-touch map
/// growth belongs to the first hour, not to the per-record cost), and
/// the ungated comparator: what every record cost before the
/// fingerprint front gate existed — pack, hash, full open-addressing
/// probe — through the public [`HitList::lookup_ungated`] bypass on the
/// same compiled table and the same 99 %-miss stream.
fn miss_dominated(c: &mut Criterion) {
    let p = pipeline();
    let mut g = c.benchmark_group("detector");
    g.throughput(Throughput::Elements(RECORDS as u64));
    g.sample_size(10);
    let miss99 = stream(0.01);
    for (name, records) in [
        ("compiled_chunk_miss50", &stream(0.50)),
        ("compiled_chunk_miss90", &stream(0.10)),
        ("compiled_chunk_miss99", &miss99),
    ] {
        let mut det = compiled();
        g.bench_function(name, |b| {
            b.iter(|| {
                det.observe_chunk(records);
                det.hot_stats().records
            })
        });
    }
    let hl = HitList::whole_window(&p.rules);
    g.bench_function("ungated_probe_miss99", |b| {
        b.iter(|| {
            miss99
                .iter()
                .map(|r| hl.lookup_ungated(r.dst, r.dport).len())
                .sum::<usize>()
        })
    });
    g.finish();
}

criterion_group!(benches, before_after, miss_dominated);
criterion_main!(benches);
