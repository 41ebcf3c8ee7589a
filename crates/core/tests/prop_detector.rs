//! Property tests on the detector's core invariants.

use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::HitList;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
use haystack_dns::DomainName;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin};
use haystack_testbed::catalog::DetectionLevel;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Build a single rule with `n` domains, each on one distinct IP.
fn ruleset(n: usize) -> RuleSet {
    let mut b = RuleSetBuilder::new();
    b.rule(
        "X",
        DetectionLevel::Manufacturer,
        None,
        (0..n)
            .map(|i| RuleDomain {
                name: DomainName::parse(&format!("d{i}.x.com")).unwrap(),
                ports: [443u16].into_iter().collect(),
                ips: [Ipv4Addr::new(198, 18, 8, i as u8 + 1)]
                    .into_iter()
                    .collect(),
                usage_indicator: false,
            })
            .collect(),
    );
    b.build()
}

proptest! {
    /// Monotonicity in D: with identical evidence, a lower threshold
    /// never detects later (and whatever high-D detects, low-D detects).
    #[test]
    fn lower_threshold_detects_no_later(
        n in 1usize..20,
        mut hits in prop::collection::vec((0u8..20, 0u32..100), 1..60),
        d_low in 0.05f64..0.5,
        d_gap in 0.0f64..0.5,
    ) {
        // The detector is a *streaming* consumer: evidence arrives in
        // time order (the contract the vantage points uphold).
        hits.sort_by_key(|(_, h)| *h);
        let d_high = (d_low + d_gap).min(1.0);
        let rules = ruleset(n);
        let mk = |d: f64| {
            Detector::new(
                &rules,
                HitList::whole_window(&rules),
                DetectorConfig { threshold: d, require_established: false },
            )
        };
        let mut lo = mk(d_low);
        let mut hi = mk(d_high);
        let line = AnonId(1);
        for (ip_idx, hour) in &hits {
            let ip = Ipv4Addr::new(198, 18, 8, (*ip_idx as usize % n) as u8 + 1);
            lo.observe(line, ip, 443, Proto::Tcp, true, HourBin(*hour));
            hi.observe(line, ip, 443, Proto::Tcp, true, HourBin(*hour));
        }
        if hi.is_detected(line, "X") {
            prop_assert!(lo.is_detected(line, "X"));
            // Evidence is fed in the same order, so detection hours obey
            // the threshold ordering.
            let lo_h = lo.first_detection(line, "X").unwrap();
            let hi_h = hi.first_detection(line, "X").unwrap();
            prop_assert!(lo_h <= hi_h, "low D detected at {lo_h:?}, high D at {hi_h:?}");
        }
    }

    /// Evidence is per-line: traffic from other lines never affects a
    /// line's detection state.
    #[test]
    fn lines_are_independent(
        n in 2usize..10,
        noise in prop::collection::vec((1u64..50, 0u8..20), 0..100),
    ) {
        let rules = ruleset(n);
        let mut det = Detector::new(
            &rules,
            HitList::whole_window(&rules),
            DetectorConfig { threshold: 1.0, require_established: false },
        );
        // Noise from many other lines.
        for (line, ip_idx) in &noise {
            let ip = Ipv4Addr::new(198, 18, 8, (*ip_idx as usize % n) as u8 + 1);
            det.observe(AnonId(*line + 100), ip, 443, Proto::Tcp, true, HourBin(0));
        }
        prop_assert!(!det.is_detected(AnonId(1), "X"));
        // Now give line 1 full evidence.
        for i in 0..n {
            det.observe(AnonId(1), Ipv4Addr::new(198, 18, 8, i as u8 + 1), 443, Proto::Tcp, true, HourBin(1));
        }
        prop_assert!(det.is_detected(AnonId(1), "X"));
    }

    /// Repeating the same evidence is idempotent: state size and
    /// detection outcomes don't change.
    #[test]
    fn evidence_is_idempotent(
        n in 1usize..10,
        hits in prop::collection::vec(0u8..10, 1..30),
    ) {
        let rules = ruleset(n);
        let mut det = Detector::new(
            &rules,
            HitList::whole_window(&rules),
            DetectorConfig { threshold: 0.5, require_established: false },
        );
        let line = AnonId(7);
        let feed = |det: &mut Detector<'_>| {
            for (t, ip_idx) in hits.iter().enumerate() {
                let ip = Ipv4Addr::new(198, 18, 8, (*ip_idx as usize % n) as u8 + 1);
                det.observe(line, ip, 443, Proto::Tcp, true, HourBin(t as u32));
            }
        };
        feed(&mut det);
        let detected_once = det.is_detected(line, "X");
        let first_once = det.first_detection(line, "X");
        let size_once = det.state_size();
        feed(&mut det);
        prop_assert_eq!(det.is_detected(line, "X"), detected_once);
        prop_assert_eq!(det.first_detection(line, "X"), first_once);
        prop_assert_eq!(det.state_size(), size_once);
    }

    /// detected_lines returns exactly the lines whose evidence crossed
    /// the requirement.
    #[test]
    fn detected_lines_matches_is_detected(
        n in 1usize..8,
        hits in prop::collection::vec((0u64..20, 0u8..8), 1..80),
    ) {
        let rules = ruleset(n);
        let mut det = Detector::new(
            &rules,
            HitList::whole_window(&rules),
            DetectorConfig { threshold: 0.6, require_established: false },
        );
        for (line, ip_idx) in &hits {
            let ip = Ipv4Addr::new(198, 18, 8, (*ip_idx as usize % n) as u8 + 1);
            det.observe(AnonId(*line), ip, 443, Proto::Tcp, true, HourBin(0));
        }
        let listed: BTreeSet<AnonId> = det.detected_lines("X").into_iter().collect();
        for (line, _) in &hits {
            prop_assert_eq!(listed.contains(&AnonId(*line)), det.is_detected(AnonId(*line), "X"));
        }
    }
}
