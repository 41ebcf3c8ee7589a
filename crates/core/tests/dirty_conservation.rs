#![cfg(feature = "telemetry")]
//! Dirty-entry conservation for incremental checkpoints (DESIGN.md §12):
//! every dirty (line, rule) entry a component flushes must be accounted
//! for by the entries encoded into delta frames on disk —
//! `checkpoint.dirty_entries` equals the sum of per-frame entry counts,
//! and `checkpoint.delta_bytes` equals the sealed frame bytes written.
//!
//! One `#[test]` on purpose: the `checkpoint` telemetry scope is
//! process-global, and a sibling test writing frames concurrently would
//! break the exact equality this file asserts.

use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::HitList;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
use haystack_core::telemetry;
use haystack_core::{CheckpointDir, DetectorSnapshot};
use haystack_dns::DomainName;
use haystack_net::ports::Proto;
use haystack_net::snapshot::{open, seal, SnapError, SnapReader, SnapWriter, MAGIC_LEN};
use haystack_net::{AnonId, HourBin};
use haystack_testbed::catalog::DetectionLevel;
use std::net::Ipv4Addr;

fn ruleset() -> RuleSet {
    let mut b = RuleSetBuilder::new();
    b.rule(
        "Cam",
        DetectionLevel::Manufacturer,
        None,
        (0..4)
            .map(|i| RuleDomain {
                name: DomainName::parse(&format!("d{i}.cam.com")).unwrap(),
                ports: [443u16].into_iter().collect(),
                ips: [Ipv4Addr::new(198, 18, 40, i as u8 + 1)]
                    .into_iter()
                    .collect(),
                usage_indicator: false,
            })
            .collect(),
    );
    b.build()
}

/// A delta frame as the chain loader wants it: the generation it chains
/// onto in front of the detector's own dirty-only snapshot frame.
const LINK_MAGIC: &[u8; MAGIC_LEN] = b"HAYTLNK\0";

fn linked(base: u64, snap: &DetectorSnapshot) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u64(base);
    w.put_bytes(&snap.encode());
    seal(LINK_MAGIC, 1, &w.into_bytes())
}

fn decode_linked(frame: &[u8]) -> Result<(u64, DetectorSnapshot), SnapError> {
    let mut r = SnapReader::new(open(LINK_MAGIC, 1, frame)?);
    Ok((r.u64()?, DetectorSnapshot::decode(r.bytes()?)?))
}

#[test]
fn dirty_entries_flushed_equal_entries_encoded() {
    telemetry::set_enabled(true);
    let rules = ruleset();
    let mut det = Detector::new(
        &rules,
        HitList::whole_window(&rules),
        DetectorConfig {
            threshold: 0.4,
            require_established: false,
        },
    );
    let root = std::env::temp_dir().join(format!("haystack-dirty-cons-{}", std::process::id()));
    let dir = CheckpointDir::open(&root).unwrap();

    let observe = |det: &mut Detector<'_>, line: u64, ip_last: u8| {
        det.observe(
            AnonId(line),
            Ipv4Addr::new(198, 18, 40, ip_last),
            443,
            Proto::Tcp,
            true,
            HourBin(0),
        );
    };

    // Anchor the chain: a full generation, then delta rounds of varying
    // dirty-set sizes (including an empty round — zero entries, but the
    // frame bytes still count).
    observe(&mut det, 1, 1);
    let mut head = dir.write("det", &det.checkpoint_full().encode()).unwrap();

    let mut expected_entries = 0u64;
    let mut expected_bytes = 0u64;
    for round in 0..4u64 {
        // Fresh lines each round: repeated identical evidence takes the
        // mask early-out and must NOT count as dirty.
        for i in 0..round {
            let line = 10 * round + i;
            observe(&mut det, line, (line % 4) as u8 + 1);
            observe(&mut det, line, (line % 4) as u8 + 1);
        }
        let dirty = det.dirty_entries().expect("clean base exists") as u64;
        assert_eq!(dirty, round, "each round dirties `round` distinct lines");
        let snap = det.take_snapshot_delta();
        assert_eq!(snap.entry_count() as u64, dirty, "flushed == encoded");
        let frame = linked(head, &snap);
        head = dir.write_delta("det", &frame, dirty).unwrap();
        expected_entries += dirty;
        expected_bytes += frame.len() as u64;
    }

    let snap = telemetry::global().snapshot();
    assert_eq!(
        snap.counter("checkpoint.dirty_entries"),
        Some(expected_entries),
        "dirty entries flushed must equal entries encoded into delta frames"
    );
    assert_eq!(
        snap.counter("checkpoint.delta_bytes"),
        Some(expected_bytes),
        "delta bytes must equal the sealed frames written"
    );

    // The chain those frames form restores to the live state.
    let restored = dir
        .load_chain(
            "det",
            haystack_core::DetectorState::decode,
            decode_linked,
            |base, d| d.apply_to(base),
        )
        .unwrap()
        .expect("chain present");
    assert_eq!(
        restored,
        (head, det.export_state()),
        "every delta linked and applied"
    );
    // …and the one loader is what `checkpoint.restores` counts.
    assert_eq!(snap.counter("checkpoint.restores"), Some(0));
    assert_eq!(
        telemetry::global()
            .snapshot()
            .counter("checkpoint.restores"),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(dir.root());
}
