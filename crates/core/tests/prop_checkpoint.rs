//! Property tests for crash-safe checkpoint/restore (DESIGN.md §12).
//!
//! The invariant the whole subsystem rests on: **snapshot → restore →
//! continue ≡ uninterrupted**. For any rule set, any record feed, and
//! any split point, exporting a component's state, decoding it from its
//! sealed frame, restoring into a *fresh* instance, and feeding the
//! remaining records must land in exactly the state of an instance that
//! saw the whole feed — detections, active lines, and (for the
//! staleness monitor) bit-identical `f64` baselines, since the codec
//! carries floats as raw IEEE-754 bits and restore must not re-order
//! the decay folds.

use haystack_core::checkpoint::{DetectorSnapshot, DetectorState, StalenessState, UsageState};
use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::HitList;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
use haystack_core::staleness::StalenessMonitor;
use haystack_core::usage::{UsageConfig, UsageTracker};
use haystack_dns::DomainName;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, DayBin, HourBin, Prefix4};
use haystack_testbed::catalog::DetectionLevel;
use haystack_wild::WildRecord;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A fixed class-name universe keeps generated rule sets comparable.
const CLASSES: [&str; 3] = ["R0", "R1", "R2"];
/// Small shared pools so rules overlap on IPs — the multi-entry case.
const PORTS: [u16; 2] = [443, 8883];

fn pool_ip(idx: u8) -> Ipv4Addr {
    Ipv4Addr::new(198, 18, 21, idx % 8)
}

/// One generated domain: (ip pool index, port pool index, usage flag).
type DomainSpec = (u8, u8, bool);

fn build_rules(specs: &[Vec<DomainSpec>]) -> RuleSet {
    let mut b = RuleSetBuilder::new();
    for (ri, domains) in specs.iter().enumerate() {
        b.rule(
            CLASSES[ri],
            DetectionLevel::Manufacturer,
            None,
            domains
                .iter()
                .enumerate()
                .map(|(di, &(ip, port, usage_indicator))| RuleDomain {
                    name: DomainName::parse(&format!("d{di}.r{ri}.example")).unwrap(),
                    ports: [PORTS[port as usize % PORTS.len()]].into_iter().collect(),
                    ips: [pool_ip(ip)].into_iter().collect(),
                    usage_indicator,
                })
                .collect(),
        );
    }
    b.build()
}

/// One generated record: (line, ip idx, port idx, packets, hour).
type RecordSpec = (u64, u8, u8, u64, u32);

fn build_record(&(line, ip, port, packets, hour): &RecordSpec) -> WildRecord {
    let src = Ipv4Addr::new(100, 64, 0, line as u8);
    WildRecord {
        line: AnonId(line),
        line_slash24: Prefix4::slash24_of(src),
        src_ip: src,
        dst: pool_ip(ip),
        dport: PORTS[port as usize % PORTS.len()],
        proto: Proto::Tcp,
        packets,
        bytes: packets * 500,
        established: true,
        hour: HourBin(hour),
    }
}

fn record_strategy() -> impl Strategy<Value = Vec<RecordSpec>> {
    prop::collection::vec((0u64..6, 0u8..8, 0u8..2, 1u64..30, 0u32..48), 0..120)
}

fn rules_strategy() -> impl Strategy<Value = Vec<Vec<DomainSpec>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..8, 0u8..2, any::<bool>()), 1..4),
        1..=3,
    )
}

proptest! {
    /// Detector: snapshot at any split, round-trip the frame bytes,
    /// restore into a fresh detector, continue — equals uninterrupted.
    #[test]
    fn detector_snapshot_restore_continue_equals_uninterrupted(
        specs in rules_strategy(),
        records in record_strategy(),
        split_frac in 0.0f64..=1.0,
        threshold_pick in 0usize..3,
    ) {
        let rules = build_rules(&specs);
        let threshold = [0.3f64, 0.5, 0.9][threshold_pick];
        let config = DetectorConfig { threshold, require_established: false };
        let records: Vec<WildRecord> = records.iter().map(build_record).collect();
        let split = ((records.len() as f64) * split_frac) as usize;

        let mut whole = Detector::new(&rules, HitList::whole_window(&rules), config);
        for r in &records {
            whole.observe_wild(r);
        }

        let mut first = Detector::new(&rules, HitList::whole_window(&rules), config);
        for r in &records[..split] {
            first.observe_wild(r);
        }
        // Through the sealed frame, as the checkpoint file would.
        let frame = first.export_state().encode();
        let state = DetectorState::decode(&frame).expect("own frame decodes");
        let mut resumed = Detector::new(&rules, HitList::whole_window(&rules), config);
        resumed.restore_state(&state).expect("same rule count");
        for r in &records[split..] {
            resumed.observe_wild(r);
        }

        prop_assert_eq!(resumed.export_state(), whole.export_state());
        for rule in &rules.rules {
            let class = rules.class_name(rule.class);
            prop_assert_eq!(
                resumed.detected_lines(class),
                whole.detected_lines(class),
                "class {} diverges after restore", class
            );
        }
        prop_assert_eq!(resumed.state_size(), whole.state_size());
    }

    /// UsageTracker: the same invariant over the hour window.
    #[test]
    fn usage_snapshot_restore_continue_equals_uninterrupted(
        specs in rules_strategy(),
        records in record_strategy(),
        split_frac in 0.0f64..=1.0,
        threshold in 1u64..40,
    ) {
        let rules = build_rules(&specs);
        let config = UsageConfig { packet_threshold: threshold };
        let records: Vec<WildRecord> = records.iter().map(build_record).collect();
        let split = ((records.len() as f64) * split_frac) as usize;

        let rules = std::sync::Arc::new(rules);
        let mut whole = UsageTracker::new(rules.clone(), HitList::whole_window(&rules), config);
        for r in &records {
            whole.observe(r);
        }

        let mut first = UsageTracker::new(rules.clone(), HitList::whole_window(&rules), config);
        for r in &records[..split] {
            first.observe(r);
        }
        let frame = first.export_state().encode();
        let state = UsageState::decode(&frame).expect("own frame decodes");
        let mut resumed = UsageTracker::new(rules.clone(), HitList::whole_window(&rules), config);
        resumed.restore_state(&state).expect("same rule count");
        for r in &records[split..] {
            resumed.observe(r);
        }

        prop_assert_eq!(resumed.export_state(), whole.export_state());
        for rule in &rules.rules {
            let class = rules.class_name(rule.class);
            prop_assert_eq!(
                resumed.active_lines(class),
                whole.active_lines(class),
                "class {} diverges after restore", class
            );
        }
    }

    /// StalenessMonitor: multi-day feed with a snapshot at an arbitrary
    /// (day, position) point. Baselines are decayed `f64` folds — the
    /// restored monitor must continue from **bit-identical** values, so
    /// the states are compared exactly (raw-bits equality via
    /// `StalenessState`'s `PartialEq`), not approximately.
    #[test]
    fn staleness_snapshot_restore_is_bitwise_identical(
        specs in rules_strategy(),
        days in prop::collection::vec(record_strategy(), 1..4),
        split_day in 0usize..4,
        split_frac in 0.0f64..=1.0,
    ) {
        let rules = build_rules(&specs);
        let split_day = split_day.min(days.len() - 1);

        let run = |snapshot_at: Option<(usize, usize)>| -> StalenessState {
            let mut mon = StalenessMonitor::new(HitList::whole_window(&rules));
            let mut resumed: Option<StalenessMonitor> = None;
            for (d, day_specs) in days.iter().enumerate() {
                for (i, spec) in day_specs.iter().enumerate() {
                    let r = build_record(spec);
                    if let Some(m) = &mut resumed {
                        m.observe(&r);
                    } else {
                        mon.observe(&r);
                    }
                    if snapshot_at == Some((d, i)) {
                        // Through the sealed frame, into a fresh monitor.
                        let frame = mon.export_state().encode();
                        let state = StalenessState::decode(&frame).expect("own frame");
                        let mut m = StalenessMonitor::new(HitList::whole_window(&rules));
                        m.restore_state(&state);
                        resumed = Some(m);
                    }
                }
                let m = resumed.as_mut().unwrap_or(&mut mon);
                m.end_of_day(&rules, HitList::whole_window(&rules), DayBin(d as u32));
            }
            resumed.unwrap_or(mon).export_state()
        };

        let split = days[split_day]
            .len()
            .saturating_sub(1)
            .min(((days[split_day].len() as f64) * split_frac) as usize);
        let uninterrupted = run(None);
        if days[split_day].is_empty() {
            // No record to hook the snapshot on — nothing to compare.
            return Ok(());
        }
        let resumed = run(Some((split_day, split)));
        prop_assert_eq!(resumed, uninterrupted);
    }

    /// Detector delta chains: snapshot at arbitrary cut points (first
    /// full, then dirty-only deltas), replay the chain through sealed
    /// frame bytes — the reconstruction is **byte-identical** to a full
    /// snapshot taken at the same point, and a detector restored from it
    /// continues ≡ uninterrupted.
    #[test]
    fn detector_delta_chain_equals_full_snapshot_at_same_point(
        specs in rules_strategy(),
        records in record_strategy(),
        cut_fracs in prop::collection::vec(0.0f64..=1.0, 1..5),
        threshold_pick in 0usize..3,
    ) {
        let rules = build_rules(&specs);
        let threshold = [0.3f64, 0.5, 0.9][threshold_pick];
        let config = DetectorConfig { threshold, require_established: false };
        let records: Vec<WildRecord> = records.iter().map(build_record).collect();
        let mut cuts: Vec<usize> =
            cut_fracs.iter().map(|f| ((records.len() as f64) * f) as usize).collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut live = Detector::new(&rules, HitList::whole_window(&rules), config);
        let mut chained: Option<DetectorState> = None;
        let mut fed = 0usize;
        for &cut in &cuts {
            for r in &records[fed..cut] {
                live.observe_wild(r);
            }
            fed = cut;
            // Through the sealed frame, as the delta file would.
            let frame = live.take_snapshot_delta().encode();
            let snap = DetectorSnapshot::decode(&frame).expect("own frame decodes");
            match &mut chained {
                None => {
                    prop_assert!(snap.is_full(), "a fresh detector snapshots full");
                    let DetectorSnapshot::Full(s) = snap else { unreachable!() };
                    chained = Some(s);
                }
                Some(base) => snap.apply_to(base).expect("chain applies"),
            }
        }
        let chained = chained.expect("at least one cut");

        // Byte-identical to a full snapshot at the last cut point.
        let mut oracle = Detector::new(&rules, HitList::whole_window(&rules), config);
        for r in &records[..fed] {
            oracle.observe_wild(r);
        }
        prop_assert_eq!(chained.encode(), oracle.export_state().encode());

        // Continuing from the chain ≡ uninterrupted.
        let mut resumed = Detector::new(&rules, HitList::whole_window(&rules), config);
        resumed.restore_state(&chained).expect("same rule count");
        for r in &records[fed..] {
            resumed.observe_wild(r);
        }
        let mut whole = Detector::new(&rules, HitList::whole_window(&rules), config);
        for r in &records {
            whole.observe_wild(r);
        }
        prop_assert_eq!(resumed.export_state(), whole.export_state());
        for rule in &rules.rules {
            let class = rules.class_name(rule.class);
            prop_assert_eq!(
                resumed.detected_lines(class),
                whole.detected_lines(class),
                "class {} diverges after chain restore", class
            );
        }
    }
}
