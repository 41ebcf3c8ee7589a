//! Property tests for the DNS substrate: name algebra, resolver
//! determinism and churn, passive-DNS window-query consistency.

use haystack_dns::zone::RotationPolicy;
use haystack_dns::{DnsDb, DomainName, Resolver, ZoneDb};
use haystack_net::{SimTime, StudyWindow};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,10}[a-z0-9]".prop_map(|s| s)
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    (
        arb_label(),
        arb_label(),
        prop_oneof![Just("com"), Just("net"), Just("io"), Just("co.uk")],
    )
        .prop_map(|(a, b, tld)| DomainName::parse(&format!("{a}.{b}.{tld}")).unwrap())
}

proptest! {
    #[test]
    fn name_parse_is_idempotent(n in arb_name()) {
        let reparsed = DomainName::parse(n.as_str()).unwrap();
        prop_assert_eq!(&reparsed, &n);
        // SLD of the SLD is itself.
        let sld = n.sld();
        prop_assert_eq!(sld.sld(), sld.clone());
        // The name is a subdomain of its SLD.
        prop_assert!(n.is_subdomain_of(&sld));
    }

    #[test]
    fn child_is_subdomain(n in arb_name(), label in arb_label()) {
        let child = n.child(&label).unwrap();
        prop_assert!(child.is_subdomain_of(&n));
        prop_assert!(!n.is_subdomain_of(&child));
        prop_assert_eq!(child.label_count(), n.label_count() + 1);
    }

    #[test]
    fn resolver_is_deterministic_within_an_epoch(
        pool_size in 1usize..16,
        active in 1usize..8,
        t in 0u64..100_000,
    ) {
        let name = DomainName::parse("svc.example.com").unwrap();
        let mut z = ZoneDb::new();
        z.insert_pool(
            name.clone(),
            (0..pool_size).map(|i| Ipv4Addr::new(198, 18, 0, i as u8 + 1)).collect(),
            RotationPolicy { active_count: active, period_secs: 3_600 },
        );
        let r = Resolver::new(&z);
        let a = r.resolve(&name, SimTime(t)).unwrap();
        let b = r.resolve(&name, SimTime(t)).unwrap();
        prop_assert_eq!(&a, &b);
        // Answers come from the pool, are unique, and number min(active, pool).
        prop_assert_eq!(a.ips.len(), active.min(pool_size));
        let unique: std::collections::BTreeSet<_> = a.ips.iter().collect();
        prop_assert_eq!(unique.len(), a.ips.len());
        // Same epoch → same answer.
        let same_epoch = r.resolve(&name, SimTime(t - (t % 3_600))).unwrap();
        prop_assert_eq!(a.ips, same_epoch.ips);
    }

    #[test]
    fn dnsdb_window_queries_are_monotone_in_window(
        times in prop::collection::btree_set(0u64..1_000_000, 1..40),
        split in 1u64..1_000_000,
    ) {
        // Feed one rotating domain at arbitrary instants; any sub-window's
        // answer must be a subset of the full window's.
        let name = DomainName::parse("svc.example.com").unwrap();
        let mut z = ZoneDb::new();
        z.insert_pool(
            name.clone(),
            (1..=10).map(|i| Ipv4Addr::new(198, 18, 1, i)).collect(),
            RotationPolicy { active_count: 3, period_secs: 3_600 },
        );
        let r = Resolver::new(&z);
        let mut db = DnsDb::new();
        for &t in &times {
            let res = r.resolve(&name, SimTime(t)).unwrap();
            db.record_resolution(&res, SimTime(t));
        }
        let full = StudyWindow { start: SimTime(0), end: SimTime(1_000_001) };
        let early = StudyWindow { start: SimTime(0), end: SimTime(split) };
        let late = StudyWindow { start: SimTime(split), end: SimTime(1_000_001) };
        let all = db.ips_of(&name, &full);
        let a = db.ips_of(&name, &early);
        let b = db.ips_of(&name, &late);
        prop_assert!(a.is_subset(&all));
        prop_assert!(b.is_subset(&all));
        prop_assert!(a.union(&b).cloned().collect::<std::collections::BTreeSet<_>>() == all,
            "window split must not lose observations");
        // Inverse index agrees with the forward index.
        for ip in &all {
            prop_assert!(db.names_of_ip(*ip, &full).contains(&name));
        }
    }
}
