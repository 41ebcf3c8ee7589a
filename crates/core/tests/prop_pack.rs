//! Property tests for the signature-pack codec (DESIGN.md §14).
//!
//! The invariant the external rule layer rests on: **export → load ≡
//! identity**. For any generated rule set, sealing it into a pack frame
//! and loading it back must reproduce the rule set exactly — class
//! names, hierarchy, domain evidence, the undetectable list, and the
//! packed threshold — and a detector built from the loaded rules must
//! produce *byte-identical* detections to one built from the in-process
//! rules, at every feed chunking.

use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::HitList;
use haystack_core::pack::SignaturePack;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder, Undetectable};
use haystack_dns::DomainName;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin, Prefix4};
use haystack_testbed::catalog::DetectionLevel;
use haystack_wild::WildRecord;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A fixed class-name universe keeps generated rule sets comparable.
const CLASSES: [&str; 4] = ["R0", "R1", "R2", "R3"];
/// Small shared pools so rules overlap on IPs — the multi-entry case.
const PORTS: [u16; 2] = [443, 8883];
const LEVELS: [DetectionLevel; 3] = [
    DetectionLevel::Platform,
    DetectionLevel::Manufacturer,
    DetectionLevel::Product,
];

fn pool_ip(idx: u8) -> Ipv4Addr {
    Ipv4Addr::new(198, 18, 21, idx % 8)
}

/// One generated domain: (ip pool index, port pool index, usage flag).
type DomainSpec = (u8, u8, bool);
/// One generated rule: (level pick, parent pick, domains).
type RuleSpec = (u8, u8, Vec<DomainSpec>);

fn build_rules(specs: &[RuleSpec], undetectable: &[(u8, bool)]) -> RuleSet {
    let mut b = RuleSetBuilder::new();
    for (ri, (level, parent, domains)) in specs.iter().enumerate() {
        // Parents link strictly backwards so the hierarchy never dangles.
        let parent = if ri > 0 && *parent as usize % (ri + 1) != ri {
            Some(CLASSES[*parent as usize % ri])
        } else {
            None
        };
        b.rule(
            CLASSES[ri],
            LEVELS[*level as usize % LEVELS.len()],
            parent,
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
    for (i, &(pick, shared)) in undetectable.iter().enumerate() {
        let reason = if shared {
            Undetectable::SharedInfrastructure
        } else {
            Undetectable::InsufficientInfo
        };
        b.undetectable(&format!("Hidden{}{}", i, pick), reason);
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

fn rules_strategy() -> impl Strategy<Value = Vec<RuleSpec>> {
    prop::collection::vec(
        (
            0u8..3,
            0u8..4,
            prop::collection::vec((0u8..8, 0u8..2, any::<bool>()), 1..4),
        ),
        1..=4,
    )
}

fn record_strategy() -> impl Strategy<Value = Vec<RecordSpec>> {
    prop::collection::vec((0u64..6, 0u8..8, 0u8..2, 1u64..30, 0u32..48), 0..120)
}

/// Serialize every class's detections + confidences as one string —
/// "byte-identical detections" compares these byte-for-byte.
fn detection_bytes(rules: &RuleSet, det: &mut Detector) -> String {
    let mut out = String::new();
    for rule in &rules.rules {
        let class = rules.class_name(rule.class);
        out.push_str(class);
        for line in det.detected_lines(class) {
            out.push_str(&format!("\t{}:{:.17}", line.0, det.confidence(line, class)));
        }
        out.push('\n');
    }
    out
}

proptest! {
    /// Export → load reproduces the rule set exactly: the interned class
    /// table, rule order, hierarchy, domain evidence, the undetectable
    /// list, and the pack metadata.
    #[test]
    fn pack_export_load_is_identity(
        specs in rules_strategy(),
        undet in prop::collection::vec((0u8..4, any::<bool>()), 0..3),
        threshold in 0.1f64..1.0,
    ) {
        let rules = build_rules(&specs, &undet);
        let pack = SignaturePack {
            rules: rules.clone(),
            threshold,
            source: "proptest".to_string(),
            comment: "round trip".to_string(),
        };
        let loaded = SignaturePack::load(&pack.encode()).expect("own pack loads");

        prop_assert_eq!(loaded.threshold.to_bits(), threshold.to_bits());
        prop_assert_eq!(&loaded.source, "proptest");
        prop_assert_eq!(&loaded.comment, "round trip");
        prop_assert_eq!(loaded.rules.rules.len(), rules.rules.len());
        for (a, b) in rules.rules.iter().zip(&loaded.rules.rules) {
            prop_assert_eq!(rules.class_name(a.class), loaded.rules.class_name(b.class));
            prop_assert_eq!(a.level, b.level);
            prop_assert_eq!(
                a.parent.map(|p| rules.class_name(p)),
                b.parent.map(|p| loaded.rules.class_name(p))
            );
            prop_assert_eq!(&a.domains, &b.domains);
        }
        prop_assert_eq!(rules.undetectable.len(), loaded.rules.undetectable.len());
        for ((ca, ra), (cb, rb)) in rules.undetectable.iter().zip(&loaded.rules.undetectable) {
            prop_assert_eq!(rules.class_name(*ca), loaded.rules.class_name(*cb));
            prop_assert_eq!(ra, rb);
        }
        // A second seal of the loaded pack is byte-identical — the
        // canonical frame is stable, which is what lets the serve
        // checkpoint embed and re-embed it.
        prop_assert_eq!(pack.encode(), loaded.encode());
    }

    /// A detector built from the loaded pack produces byte-identical
    /// detections to one built from the in-process rule set, at every
    /// feed chunking.
    #[test]
    fn loaded_pack_detections_match_in_process_across_chunk_sizes(
        specs in rules_strategy(),
        records in record_strategy(),
        threshold_pick in 0usize..3,
    ) {
        let rules = build_rules(&specs, &[]);
        let threshold = [0.3f64, 0.5, 0.9][threshold_pick];
        let config = DetectorConfig { threshold, require_established: false };
        let records: Vec<WildRecord> = records.iter().map(build_record).collect();

        let mut native = Detector::new(&rules, HitList::whole_window(&rules), config);
        for r in &records {
            native.observe_wild(r);
        }
        let want = detection_bytes(&rules, &mut native);

        let pack = SignaturePack {
            rules: rules.clone(),
            threshold,
            source: String::new(),
            comment: String::new(),
        };
        let loaded = SignaturePack::load(&pack.encode()).expect("own pack loads").rules;
        for chunk in [1usize, 7, usize::MAX] {
            let mut det = Detector::new(&loaded, HitList::whole_window(&loaded), config);
            for batch in records.chunks(chunk.min(records.len().max(1))) {
                for r in batch {
                    det.observe_wild(r);
                }
            }
            prop_assert_eq!(
                &detection_bytes(&loaded, &mut det),
                &want,
                "detections diverge at chunk {}", chunk
            );
        }
    }
}
