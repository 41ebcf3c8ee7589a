//! Property tests for the hitlist: whatever the rule set looks like, the
//! (IP, port) index must agree exactly with the rules it was built from.

use haystack_core::hitlist::HitList;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
use haystack_dns::DomainName;
use haystack_testbed::catalog::DetectionLevel;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
struct DomainSpec {
    ips: BTreeSet<Ipv4Addr>,
    ports: BTreeSet<u16>,
}

fn arb_domain() -> impl Strategy<Value = DomainSpec> {
    (
        prop::collection::btree_set(1u8..250, 1..6),
        prop::collection::btree_set(
            prop_oneof![Just(443u16), Just(80), Just(8883), Just(123)],
            1..3,
        ),
    )
        .prop_map(|(last_octets, ports)| DomainSpec {
            ips: last_octets
                .into_iter()
                .map(|o| Ipv4Addr::new(198, 18, 11, o))
                .collect(),
            ports,
        })
}

fn ruleset(domains_per_rule: &[Vec<DomainSpec>]) -> RuleSet {
    let classes: &[&str] = &["C0", "C1", "C2", "C3", "C4", "C5"];
    let mut b = RuleSetBuilder::new();
    for (ri, specs) in domains_per_rule.iter().enumerate() {
        b.rule(
            classes[ri],
            DetectionLevel::Manufacturer,
            None,
            specs
                .iter()
                .enumerate()
                .map(|(di, s)| RuleDomain {
                    name: DomainName::parse(&format!("d{di}.c{ri}.com")).unwrap(),
                    ports: s.ports.clone(),
                    ips: s.ips.clone(),
                    usage_indicator: false,
                })
                .collect(),
        );
    }
    b.build()
}

proptest! {
    #[test]
    fn whole_window_index_is_exact(
        rules in prop::collection::vec(prop::collection::vec(arb_domain(), 1..5), 1..6),
    ) {
        let rs = ruleset(&rules);
        let hl = HitList::whole_window(&rs);
        // Soundness + completeness: lookup(ip, port) contains (r, d) iff
        // rule r's domain d lists that combination.
        for (ri, rule) in rs.rules.iter().enumerate() {
            for (di, dom) in rule.domains.iter().enumerate() {
                for ip in &dom.ips {
                    for port in &dom.ports {
                        prop_assert!(
                            hl.lookup(*ip, *port).contains(&(ri as u16, di as u16)),
                            "missing entry for {ip}:{port}"
                        );
                    }
                }
            }
        }
        // No phantom entries.
        for o in 1u8..250 {
            let ip = Ipv4Addr::new(198, 18, 11, o);
            for port in [443u16, 80, 8883, 123] {
                for &(ri, di) in hl.lookup(ip, port) {
                    let dom = &rs.rules[ri as usize].domains[di as usize];
                    prop_assert!(dom.ips.contains(&ip) && dom.ports.contains(&port));
                }
            }
        }
    }

    #[test]
    fn unindexed_lookups_are_empty(
        rules in prop::collection::vec(prop::collection::vec(arb_domain(), 1..4), 1..4),
        probe_ip in any::<u32>(),
        probe_port in any::<u16>(),
    ) {
        let rs = ruleset(&rules);
        let hl = HitList::whole_window(&rs);
        let ip = Ipv4Addr::from(probe_ip);
        let in_rules = rs.rules.iter().any(|r| {
            r.domains.iter().any(|d| d.ips.contains(&ip) && d.ports.contains(&probe_port))
        });
        prop_assert_eq!(!hl.lookup(ip, probe_port).is_empty(), in_rules);
    }
}
