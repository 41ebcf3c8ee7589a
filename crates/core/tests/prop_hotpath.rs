//! Equivalence pin for the flattened hot path.
//!
//! The optimized structures — the compiled open-addressing
//! [`HitList`] and the per-rule fast-hash [`Detector`] — must be
//! observationally identical to the naive reference implementations they
//! replaced ([`MapHitList`], [`ReferenceDetector`]). These properties
//! drive random rulesets (flat and hierarchical, with shared IPs across
//! rules to exercise the spill arena) and random flow streams through
//! both sides and require identical `lookup`, `detected_lines`,
//! `first_detection`, and `confidence` — across chunk sizes too, since
//! `observe_chunk` is the entry point the shard workers use — and, with
//! the fingerprint gate run a second time in `DetectorPool`'s feeder,
//! through the pool as well.

use haystack_core::checkpoint::{DetectorState, LineEvidence};
use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::fasthash::mix64;
use haystack_core::hitlist::{HitList, MapHitList};
use haystack_core::parallel::DetectorPool;
use haystack_core::reference::ReferenceDetector;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
use haystack_dns::DomainName;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin, Prefix4};
use haystack_wild::WildRecord;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Class names for generated rules.
const CLASSES: [&str; 6] = ["R0", "R1", "R2", "R3", "R4", "R5"];

/// Spec for one generated rule: domain count and, per domain, which IP
/// octets it resolves to (shared octets across rules collide in the
/// hitlist and exercise the spill arena).
type RuleSpec = Vec<Vec<u8>>;

/// Build a rule set from generated specs. Rule `i > 0` is optionally a
/// child of rule `i - 1` (chained hierarchy) when `chain` is set.
fn ruleset(specs: &[RuleSpec], chain: bool) -> RuleSet {
    let mut b = RuleSetBuilder::new();
    for (ri, doms) in specs.iter().enumerate() {
        b.rule(
            CLASSES[ri],
            haystack_testbed::catalog::DetectionLevel::Manufacturer,
            if chain && ri > 0 { Some(CLASSES[ri - 1]) } else { None },
            doms.iter()
                .enumerate()
                .map(|(di, ips)| RuleDomain {
                    name: DomainName::parse(&format!("d{di}.r{ri}.test")).unwrap(),
                    ports: [443u16, 8883].into_iter().collect(),
                    ips: ips.iter().map(|o| Ipv4Addr::new(198, 18, 40, *o)).collect(),
                    usage_indicator: false,
                })
                .collect(),
        );
    }
    b.build()
}

/// Turn generated (line, octet, port-choice, hour) tuples into records.
fn records(hits: &[(u64, u8, bool, u32)]) -> Vec<WildRecord> {
    let src = Ipv4Addr::new(100, 64, 9, 9);
    hits.iter()
        .map(|&(line, octet, alt_port, hour)| WildRecord {
            line: AnonId(line),
            line_slash24: Prefix4::slash24_of(src),
            src_ip: src,
            dst: Ipv4Addr::new(198, 18, 40, octet),
            dport: if alt_port { 8883 } else { 443 },
            proto: Proto::Tcp,
            packets: 1,
            bytes: 80,
            established: true,
            hour: HourBin(hour),
        })
        .collect()
}

/// Strategy: 1–6 rules × 1–4 domains × 1–3 IP octets each, octets drawn
/// from a small range so rules share IPs (spill-arena pressure).
fn specs() -> impl Strategy<Value = Vec<RuleSpec>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0u8..24, 1..4), 1..5),
        1..7,
    )
}

proptest! {
    /// The compiled hitlist answers every probe exactly like the map
    /// oracle — hits, misses, entry order, and spill-arena slices.
    #[test]
    fn compiled_hitlist_equals_map_oracle(
        sp in specs(),
        probes in prop::collection::vec((0u8..32, any::<bool>()), 0..64),
    ) {
        let rules = ruleset(&sp, false);
        let map = MapHitList::whole_window(&rules);
        let compiled = map.clone().compile();
        prop_assert_eq!(map.len(), compiled.len());
        prop_assert_eq!(map.is_empty(), compiled.is_empty());
        // Exhaustive over the octet range plus generated off-range probes.
        for octet in 0u8..32 {
            for port in [443u16, 8883, 80] {
                let ip = Ipv4Addr::new(198, 18, 40, octet);
                prop_assert_eq!(
                    compiled.lookup(ip, port),
                    map.lookup(ip, port),
                    "divergence at {}:{}", ip, port
                );
            }
        }
        for (octet, alt) in probes {
            let ip = Ipv4Addr::new(198, 18, 40, octet);
            let port = if alt { 8883 } else { 443 };
            prop_assert_eq!(compiled.lookup(ip, port), map.lookup(ip, port));
        }
    }

    /// The optimized detector matches the reference detector on every
    /// query surface, for flat and chained-hierarchy rulesets, and the
    /// answers are invariant to the chunk size records arrive in.
    #[test]
    fn detector_equals_reference_across_chunk_sizes(
        sp in specs(),
        chain in any::<bool>(),
        threshold in prop_oneof![Just(0.4), Just(0.6), Just(1.0)],
        hits in prop::collection::vec((0u64..12, 0u8..26, any::<bool>(), 0u32..48), 0..120),
        chunk_size in prop_oneof![Just(1usize), Just(7), Just(1024)],
    ) {
        let rules = ruleset(&sp, chain);
        let config = DetectorConfig { threshold, require_established: false };
        let recs = records(&hits);

        let mut reference = ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);
        for r in &recs {
            reference.observe_wild(r);
        }
        let mut fast = Detector::new(&rules, MapHitList::whole_window(&rules).compile(), config);
        for chunk in recs.chunks(chunk_size.max(1)) {
            fast.observe_chunk(chunk);
        }

        prop_assert_eq!(fast.state_size(), reference.state_size());
        let lines: Vec<AnonId> = (0u64..12).map(AnonId).collect();
        for rule in &rules.rules {
            let class = rules.class_name(rule.class);
            prop_assert_eq!(
                fast.detected_lines(class),
                reference.detected_lines(class),
                "detected_lines({}) diverged", class
            );
            for &line in &lines {
                prop_assert_eq!(
                    fast.is_detected(line, class),
                    reference.is_detected(line, class)
                );
                prop_assert_eq!(
                    fast.first_detection(line, class),
                    reference.first_detection(line, class),
                    "first_detection({:?}, {}) diverged", line, class
                );
                let (cf, cr) = (
                    fast.confidence(line, class),
                    reference.confidence(line, class),
                );
                prop_assert!(
                    (cf - cr).abs() < 1e-12,
                    "confidence({:?}, {}): {} vs {}", line, class, cf, cr
                );
            }
        }
        // Unknown classes answer identically too.
        prop_assert_eq!(fast.detected_lines("NoSuchClass"), reference.detected_lines("NoSuchClass"));
    }

    /// The wild deployment profile, pinned across the fingerprint gate:
    /// streams at controlled miss rates (0 % / 50 % / 99 % / 100 % of
    /// records touching no rule key) flow through the batched gated
    /// path in every chunking — including whole-stream — and the
    /// answers match the reference detector record-for-record. The
    /// per-record tallies must also close: every record is either a
    /// gate pass (and then a probe) or a gate miss, at any miss rate.
    #[test]
    fn detector_equals_reference_at_controlled_miss_rates(
        sp in specs(),
        miss_pct in prop_oneof![Just(0u8), Just(50), Just(99), Just(100)],
        hits in prop::collection::vec((0u64..12, 0u8..26, any::<bool>(), 0u32..48, 0u8..100), 0..160),
        chunk_size in prop_oneof![Just(1usize), Just(7), Just(1024), Just(usize::MAX)],
    ) {
        let rules = ruleset(&sp, false);
        let config = DetectorConfig::default();
        // Misses live in 10/8 — disjoint from the 198.18.40/24 rule
        // space — and each gets a distinct destination, like real
        // traffic.
        let recs: Vec<WildRecord> = records(
            &hits.iter().map(|&(l, o, a, h, _)| (l, o, a, h)).collect::<Vec<_>>(),
        )
        .into_iter()
        .zip(&hits)
        .enumerate()
        .map(|(i, (mut r, &(line, octet, _, _, roll)))| {
            if roll < miss_pct {
                r.dst = Ipv4Addr::new(10, i as u8, octet, line as u8);
            }
            r
        })
        .collect();

        let mut reference = ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);
        for r in &recs {
            reference.observe_wild(r);
        }
        let mut fast = Detector::new(&rules, HitList::whole_window(&rules), config);
        for chunk in recs.chunks(chunk_size.min(recs.len()).max(1)) {
            fast.observe_chunk(chunk);
        }

        prop_assert_eq!(fast.state_size(), reference.state_size());
        for rule in &rules.rules {
            let class = rules.class_name(rule.class);
            prop_assert_eq!(
                fast.detected_lines(class),
                reference.detected_lines(class),
                "detected_lines({}) diverged at miss_pct={}", class, miss_pct
            );
        }
        let stats = fast.hot_stats();
        prop_assert_eq!(stats.records, recs.len() as u64);
        prop_assert_eq!(stats.prefilter_hits + stats.prefilter_misses, stats.records);
        prop_assert_eq!(stats.probes, stats.prefilter_hits);
        // No false negatives: every indexed key the stream touched
        // must pass the gate (misses here can only be non-indexed
        // destinations — octets outside the generated rules, or the
        // 10/8 miss space).
        let map = MapHitList::whole_window(&rules);
        let hl = map.clone().compile();
        for r in &recs {
            if !map.lookup(r.dst, r.dport).is_empty() {
                let h = mix64(HitList::pack_key(r.dst, r.dport));
                prop_assert!(
                    hl.prefilter_pass(h),
                    "gate dropped an indexed key: {}:{}", r.dst, r.dport
                );
            }
        }
    }
}

/// The fixed ruleset of the adversarial-collision tests.
fn collision_rules() -> RuleSet {
    let sp: Vec<RuleSpec> = vec![vec![vec![1, 2, 3], vec![4, 5]], vec![vec![2, 6], vec![7]]];
    ruleset(&sp, false)
}

/// Brute-force up to 16 keys `10.99.x.y:443` that are *absent* from the
/// hitlist but collide with some indexed key's fingerprint bit, through
/// the same public hash pipeline the gate uses. The fingerprint is small
/// for [`collision_rules`], so colliders are dense enough to find
/// quickly.
fn fingerprint_colliders(rules: &RuleSet) -> Vec<Ipv4Addr> {
    let map = MapHitList::whole_window(rules);
    let hl = map.clone().compile();
    assert!(hl.prefilter_len().is_power_of_two());
    let mut colliders: Vec<Ipv4Addr> = Vec::new();
    'scan: for a in 0u8..=255 {
        for b in 0u8..=255 {
            let ip = Ipv4Addr::new(10, 99, a, b);
            let h = mix64(HitList::pack_key(ip, 443));
            if hl.prefilter_pass(h) {
                assert!(map.lookup(ip, 443).is_empty(), "collider must be absent");
                assert!(hl.lookup(ip, 443).is_empty(), "probe must reject the collider");
                colliders.push(ip);
                if colliders.len() >= 16 {
                    break 'scan;
                }
            }
        }
    }
    assert!(!colliders.is_empty(), "no fingerprint collision found in a /16 scan");
    colliders
}

/// An all-collider stream: every record passes the gate (worst-case
/// false-positive pressure) and every probe comes back empty.
fn collider_records(colliders: &[Ipv4Addr]) -> Vec<WildRecord> {
    let src = Ipv4Addr::new(100, 64, 9, 9);
    colliders
        .iter()
        .cycle()
        .take(colliders.len() * 13)
        .enumerate()
        .map(|(i, &dst)| WildRecord {
            line: AnonId(i as u64 % 5),
            line_slash24: Prefix4::slash24_of(src),
            src_ip: src,
            dst,
            dport: 443,
            proto: Proto::Tcp,
            packets: 1,
            bytes: 80,
            established: true,
            hour: HourBin(0),
        })
        .collect()
}

/// Adversarial fingerprint collisions: keys that are *absent* from the
/// hitlist but pass the fingerprint front gate (hash-colliding tag
/// bits). These are the gate's false positives — the probe pass must
/// reject every one against the full key table, leaving detections,
/// matches, and state untouched, in both the scalar and the batched
/// path, at every chunking.
#[test]
fn fingerprint_collisions_are_rejected_by_the_probe() {
    let rules = collision_rules();
    let colliders = fingerprint_colliders(&rules);
    let recs = collider_records(&colliders);
    for chunk_size in [1usize, 7, recs.len()] {
        let mut det =
            Detector::new(&rules, MapHitList::whole_window(&rules).compile(), DetectorConfig::default());
        for chunk in recs.chunks(chunk_size) {
            det.observe_chunk(chunk);
        }
        let stats = det.hot_stats();
        assert_eq!(stats.records, recs.len() as u64);
        assert_eq!(stats.prefilter_hits, recs.len() as u64, "colliders must pass the gate");
        assert_eq!(stats.probes, recs.len() as u64);
        assert_eq!(stats.matches, 0, "the probe must reject every collider");
        assert_eq!(stats.detections, 0);
        assert_eq!(det.state_size(), 0, "false positives must leave no state");
    }
}

/// A 99 %-miss stream with the adversarial colliders woven in: one rule
/// hit per hundred records, one collider per 150, background (`151.64/16`,
/// outside every rule) otherwise.
fn miss99_with_colliders(colliders: &[Ipv4Addr]) -> Vec<WildRecord> {
    let colliding = collider_records(colliders);
    let src = Ipv4Addr::new(100, 64, 9, 9);
    (0..20_000u32)
        .map(|i| {
            if i % 150 == 75 {
                return colliding[(i / 150) as usize % colliding.len()];
            }
            let (dst, dport) = if i % 100 == 0 {
                let k = i / 100;
                (Ipv4Addr::new(198, 18, 40, 1 + (k % 7) as u8), if k % 3 == 0 { 8883 } else { 443 })
            } else {
                (Ipv4Addr::new(151, 64, (i >> 8) as u8, i as u8), 443)
            };
            WildRecord {
                line: AnonId(u64::from(i % 29)),
                line_slash24: Prefix4::slash24_of(src),
                src_ip: src,
                dst,
                dport,
                proto: Proto::Tcp,
                packets: 1,
                bytes: 80,
                established: true,
                hour: HourBin(i / 1_000),
            }
        })
        .collect()
}

/// The pool's shard states folded into one, entries sorted by line per
/// rule — what a single detector over the same records exports.
fn merged(states: &[DetectorState]) -> DetectorState {
    let mut rules = vec![Vec::new(); states[0].rules.len()];
    for state in states {
        for (ri, entries) in state.rules.iter().enumerate() {
            rules[ri].extend_from_slice(entries);
        }
    }
    for entries in &mut rules {
        entries.sort_unstable_by_key(|e: &LineEvidence| e.line);
    }
    DetectorState { rules }
}

/// The same colliders through a `DetectorPool` on thread shards, whose
/// feeder now runs the fingerprint gate: colliders pass it and are
/// rejected by the shard's probe, proven misses are retired before they
/// reach a shard. At 1, 2 and 4 workers the detections and the shard
/// states' bytes equal the reference detector's, and a colliders-only
/// feed leaves no state on any shard.
#[test]
fn pool_feeder_gate_equals_reference_on_colliders_and_misses() {
    let rules = collision_rules();
    let colliders = fingerprint_colliders(&rules);
    let hl = HitList::whole_window(&rules);
    let config = DetectorConfig::default();
    let feed = miss99_with_colliders(&colliders);
    let mut reference = ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);
    for r in &feed {
        reference.observe_wild(r);
    }
    let want = reference.export_state().encode();
    assert!(reference.state_size() > 0, "the hits must leave evidence");

    for workers in [1usize, 2, 4] {
        let mut pool = DetectorPool::new(&rules, &hl, config, workers);
        for chunk in feed.chunks(777) {
            pool.observe_records(chunk).unwrap();
        }
        pool.finish().unwrap();
        for rule in &rules.rules {
            let class = rules.class_name(rule.class);
            assert_eq!(
                pool.detected_lines(class).unwrap(),
                reference.detected_lines(class),
                "{workers} workers: detected_lines({class})"
            );
        }
        let states = pool.shard_states().unwrap();
        assert!(merged(&states).encode() == want, "{workers} workers: state bytes diverge");

        let mut colliders_only = DetectorPool::new(&rules, &hl, config, workers);
        colliders_only.observe_records(&collider_records(&colliders)).unwrap();
        colliders_only.finish().unwrap();
        let states = colliders_only.shard_states().unwrap();
        assert!(states.iter().all(|s| s.entry_count() == 0), "{workers} workers: collider state");
    }
}
