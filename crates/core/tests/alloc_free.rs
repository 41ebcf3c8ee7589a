//! Zero-allocation pin for the detector hot path.
//!
//! A counting global allocator wraps the system allocator; after warming
//! the detector (every (line, rule) state inserted, hitlist compiled),
//! re-observing the same record stream — the steady state an ISP-scale
//! deployment lives in — must perform **zero** heap allocations. This is
//! the acceptance gate for the `entries.to_vec()` removal: any defensive
//! clone or rehash on the matching path trips the counter.
//!
//! This file deliberately holds exactly one `#[test]`: the counter is
//! process-global, and a concurrently running test would pollute it.

use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::HitList;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
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

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(198, 18, 50, last)
}

/// Two-level ruleset with enough domains to exercise multi-entry slots.
fn ruleset() -> RuleSet {
    let dom = |ri: usize, di: usize, octets: &[u8]| RuleDomain {
        name: DomainName::parse(&format!("d{di}.r{ri}.test")).unwrap(),
        ports: [443u16].into_iter().collect(),
        ips: octets.iter().map(|o| ip(*o)).collect(),
        usage_indicator: false,
    };
    let mut b = RuleSetBuilder::new();
    // Octet 1 is shared with the child rule: one hitlist key carrying
    // entries for both rules.
    b.rule(
        "Parent",
        haystack_testbed::catalog::DetectionLevel::Manufacturer,
        None,
        vec![dom(0, 0, &[1, 2]), dom(0, 1, &[3]), dom(0, 2, &[4])],
    );
    b.rule(
        "Child",
        haystack_testbed::catalog::DetectionLevel::Product,
        Some("Parent"),
        vec![dom(1, 0, &[1]), dom(1, 1, &[5])],
    );
    b.build()
}

fn stream(lines: u64) -> Vec<WildRecord> {
    let src = Ipv4Addr::new(100, 64, 1, 1);
    let mut out = Vec::new();
    for line in 0..lines {
        for (i, octet) in [1u8, 2, 3, 4, 5, 1].into_iter().enumerate() {
            out.push(WildRecord {
                line: AnonId(line),
                line_slash24: Prefix4::slash24_of(src),
                src_ip: src,
                dst: ip(octet),
                dport: 443,
                proto: Proto::Tcp,
                packets: 1,
                bytes: 80,
                established: true,
                hour: HourBin(i as u32),
            });
        }
    }
    out
}

#[test]
fn steady_state_observe_allocates_nothing() {
    let rules = ruleset();
    let mut det = Detector::new(
        &rules,
        HitList::whole_window(&rules),
        DetectorConfig {
            threshold: 1.0,
            require_established: false,
        },
    );
    let records = stream(512);

    // Warm-up: inserts every (line, rule) state the stream will touch
    // (map growth and rehashing happen here, legitimately).
    det.observe_chunk(&records);
    assert!(
        det.is_detected(AnonId(0), "Child"),
        "warm-up must fully detect"
    );
    let states = det.state_size();

    // Steady state: identical records, every one down the matching path
    // (hitlist hit + existing state entry). Zero allocations allowed.
    let before = ALLOCS.load(Ordering::Relaxed);
    det.observe_chunk(&records);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state observe of {} records allocated {} times",
        records.len(),
        after - before
    );
    assert_eq!(det.state_size(), states, "steady state must not grow");

    // All-miss steady state: the miss-dominated wild mix, every
    // destination distinct and outside the rule space. The fingerprint
    // gate retires these before any probe — and the struct-of-arrays
    // scratch columns were sized during warm-up, so this pass must
    // also be allocation-free (the batched path's miss lane touches
    // only the fingerprint array and the survivor columns).
    let miss_records: Vec<WildRecord> = (0..4_096u32)
        .map(|i| WildRecord {
            line: AnonId(u64::from(i % 64)),
            line_slash24: Prefix4::slash24_of(Ipv4Addr::new(100, 64, 1, 1)),
            src_ip: Ipv4Addr::new(100, 64, 1, 1),
            dst: Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
            dport: 443,
            proto: Proto::Tcp,
            packets: 1,
            bytes: 80,
            established: true,
            hour: HourBin(0),
        })
        .collect();
    let miss_base = det.hot_stats().prefilter_misses;
    let before = ALLOCS.load(Ordering::Relaxed);
    det.observe_chunk(&miss_records);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "all-miss observe of {} records allocated {} times",
        miss_records.len(),
        after - before
    );
    assert_eq!(det.state_size(), states, "misses must not create state");
    assert!(
        det.hot_stats().prefilter_misses > miss_base,
        "the gate must have retired the miss records"
    );
}
