//! Zero-allocation pin for `DetectorPool`'s feeder on the miss path.
//!
//! The feeder runs the fingerprint gate into pool-owned survivor
//! columns, so a chunk of proven misses is gated, counted and dropped
//! without staging, retaining or shipping anything. A counting global
//! allocator wraps the system allocator; once the pool is warm, feeding
//! it all-miss chunks must perform **zero** heap allocations.
//!
//! This file deliberately holds exactly one `#[test]`: the counter is
//! process-global, and a concurrently running test would pollute it.

use haystack_core::checkpoint::DetectorState;
use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::fasthash::mix64;
use haystack_core::hitlist::HitList;
use haystack_core::parallel::{DetectorPool, DEFAULT_REPLAY_LIMIT};
use haystack_core::rules::{RuleDomain, RuleSetBuilder};
use haystack_core::telemetry::{self, Scope};
use haystack_dns::DomainName;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin, Prefix4};
use haystack_wild::WildRecord;
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

fn record(line: u64, dst: Ipv4Addr) -> WildRecord {
    let src = Ipv4Addr::new(100, 64, 1, 1);
    WildRecord {
        line: AnonId(line),
        line_slash24: Prefix4::slash24_of(src),
        src_ip: src,
        dst,
        dport: 443,
        proto: Proto::Tcp,
        packets: 1,
        bytes: 80,
        established: true,
        hour: HourBin(0),
    }
}

#[test]
fn warm_pool_feeds_an_all_miss_chunk_without_allocating() {
    let mut b = RuleSetBuilder::new();
    b.rule(
        "Cam",
        haystack_testbed::catalog::DetectionLevel::Manufacturer,
        None,
        (1..=4u8)
            .map(|i| RuleDomain {
                name: DomainName::parse(&format!("d{i}.cam.test")).unwrap(),
                ports: [443u16].into_iter().collect(),
                ips: [Ipv4Addr::new(198, 18, 50, i)].into_iter().collect(),
                usage_indicator: false,
            })
            .collect(),
    );
    let rules = b.build();
    let hl = HitList::whole_window(&rules);
    // As the daemon runs it: supervised, instrumented, several shards.
    telemetry::set_enabled(true);
    let mut pool = DetectorPool::new(&rules, &hl, DetectorConfig::default(), 3);
    pool.enable_supervision(DEFAULT_REPLAY_LIMIT).unwrap();
    pool.attach_telemetry(&Scope::named("pool_alloc")).unwrap();

    // Proven misses only: destinations whose fingerprint bit is clear,
    // so not even a gate false positive reaches a shard.
    let misses: Vec<WildRecord> = (0..u32::MAX)
        .map(|i| {
            let dst = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
            record(u64::from(i % 97), dst)
        })
        .filter(|r| !hl.prefilter_pass(mix64(HitList::pack_key(r.dst, r.dport))))
        .take(8_192)
        .collect();

    // Warm-up: hits and misses through every shard, then a barrier.
    let hits: Vec<WildRecord> = (0..4_096u64)
        .map(|i| record(i % 97, Ipv4Addr::new(198, 18, 50, 1 + (i % 4) as u8)))
        .collect();
    pool.observe_records(&hits).unwrap();
    pool.observe_records(&misses).unwrap();
    pool.finish().unwrap();
    let buffered = pool.replay_buffered();
    // The state the hits alone leave, from a sequential detector: read
    // from the pool only at the end, as `shard_states` checkpoints a
    // supervised pool and drains its replay buffers.
    let mut seq = Detector::new(&rules, hl.clone(), DetectorConfig::default());
    seq.observe_chunk(&hits);
    let states = seq.state_size();
    assert!(states > 0, "the hits must leave evidence");

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..4 {
        pool.observe_records(&misses).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "feeding 4 × {} proven misses allocated {} times",
        misses.len(),
        after - before
    );
    assert_eq!(pool.replay_buffered(), buffered, "a miss must never be retained");
    let entries: usize = pool.shard_states().unwrap().iter().map(DetectorState::entry_count).sum();
    assert_eq!(entries, states, "misses must not create state");
}
