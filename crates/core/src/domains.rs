//! §4.1 — classifying observed domains.
//!
//! > *"We classify each domain name from our idle and active experiments
//! > using pattern matching, manual inspection, and by visiting their
//! > websites and those of the device manufacturers."*
//!
//! The paper's manual steps are modelled by [`WebIntelligence`]: an
//! analyst-knowledge oracle answering "is this SLD a well-known generic
//! service?" — the one question a human answers by visiting the site.
//! Everything else is derived from traffic:
//!
//! * **Generic** — a known-generic SLD, a public-service port (NTP/DNS),
//!   or a domain contacted by devices of several unrelated families
//!   (`netflix.com`-style properties every TV touches).
//! * **Primary** — contacted by a single device family on the family's
//!   own SLD.
//! * **Support** — contacted by a single family but registered under a
//!   third party's SLD (the `samsung-*.whisk.com` example).

use crate::observations::DomainUsage;
use haystack_dns::DomainName;
use haystack_testbed::catalog::Catalog;
use std::collections::BTreeSet;

/// §4.1's three buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainClass {
    /// IoT-specific, registered to the manufacturer / service operator.
    Primary,
    /// IoT-specific, complementary third-party service.
    Support,
    /// Generic service; dropped from further consideration.
    Generic,
}

/// Analyst knowledge about well-known generic services (the "manual
/// inspection" of §4.1). Implementations answer for the *SLD*.
pub trait WebIntelligence {
    /// Whether the SLD belongs to a well-known generic service provider.
    fn is_known_generic(&self, sld: &DomainName) -> bool;
}

/// A static SLD list — what an analyst's notebook of "obviously not IoT"
/// sites looks like.
#[derive(Debug, Default, Clone)]
pub struct StaticWebIntelligence {
    known_generic: BTreeSet<DomainName>,
}

impl StaticWebIntelligence {
    /// Build from a list of generic SLDs.
    pub fn new(slds: impl IntoIterator<Item = DomainName>) -> Self {
        StaticWebIntelligence {
            known_generic: slds.into_iter().collect(),
        }
    }

    /// The analyst list for the synthetic universe: the SLDs of the
    /// catalog's generic domains (public NTP pool, streaming, search, ads,
    /// OS updates, wikis). Note this does *not* leak per-domain hosting or
    /// class truth — only "this SLD is a famous generic site".
    pub fn for_catalog(catalog: &Catalog) -> Self {
        Self::new(catalog.generic_domains.iter().map(|d| d.name.sld()))
    }
}

impl WebIntelligence for StaticWebIntelligence {
    fn is_known_generic(&self, sld: &DomainName) -> bool {
        self.known_generic.contains(sld)
    }
}

/// How many *unrelated* device families contact a domain before it is
/// considered generic plumbing rather than a manufacturer backend.
pub const UNRELATED_FAMILY_LIMIT: usize = 3;

/// Group the classes contacting a domain into hierarchy families using
/// the analyst's device knowledge (§4.3 uses the same side information).
fn family_count(catalog: &Catalog, classes: &BTreeSet<&'static str>) -> usize {
    let mut roots: BTreeSet<&'static str> = BTreeSet::new();
    for c in classes {
        let ancestry = catalog.ancestry(c);
        let root = ancestry.last().map(|k| k.name).unwrap_or(c);
        roots.insert(root);
    }
    roots.len()
}

/// Classify one observed domain.
pub fn classify(
    catalog: &Catalog,
    intel: &impl WebIntelligence,
    name: &DomainName,
    usage: &DomainUsage,
    majority_sld: Option<&DomainName>,
) -> DomainClass {
    if intel.is_known_generic(&name.sld()) {
        return DomainClass::Generic;
    }
    if usage.ports.iter().all(|p| *p == 123 || *p == 53) {
        // Pure time/name service traffic.
        return DomainClass::Generic;
    }
    if family_count(catalog, &usage.classes) >= UNRELATED_FAMILY_LIMIT {
        return DomainClass::Generic;
    }
    match majority_sld {
        Some(sld) if name.sld() == *sld => DomainClass::Primary,
        Some(_) => DomainClass::Support,
        // No family majority computable (e.g. the family contacts only
        // this domain): default to Primary, as the paper does for
        // single-domain devices.
        None => DomainClass::Primary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_testbed::catalog::data::standard_catalog;

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn usage(classes: &[&'static str], ports: &[u16]) -> DomainUsage {
        DomainUsage {
            classes: classes.iter().copied().collect(),
            ports: ports.iter().copied().collect(),
            packets: 1_000,
            packets_active: 600,
            packets_idle: 400,
            seed_ips: Default::default(),
            active_hours: 10,
        }
    }

    #[test]
    fn known_generic_sld_wins() {
        let c = standard_catalog();
        let intel = StaticWebIntelligence::for_catalog(&c);
        let cls = classify(
            &c,
            &intel,
            &d("cdn3.videostream.tv"),
            &usage(&["Fire TV"], &[443]),
            Some(&d("amazon-iot.com")),
        );
        assert_eq!(cls, DomainClass::Generic);
    }

    #[test]
    fn ntp_only_traffic_is_generic() {
        let c = standard_catalog();
        let intel = StaticWebIntelligence::new([]);
        let cls = classify(
            &c,
            &intel,
            &d("clock.unknown-pool.net"),
            &usage(&["Yi Camera"], &[123]),
            Some(&d("yi-iot.com")),
        );
        assert_eq!(cls, DomainClass::Generic);
    }

    #[test]
    fn many_unrelated_families_make_generic() {
        let c = standard_catalog();
        let intel = StaticWebIntelligence::new([]);
        let cls = classify(
            &c,
            &intel,
            &d("g7.unlisted-metrics.com"),
            &usage(&["Yi Camera", "Roku TV", "Philips Dev."], &[443]),
            None,
        );
        assert_eq!(cls, DomainClass::Generic);
    }

    #[test]
    fn hierarchy_family_counts_once() {
        let c = standard_catalog();
        let intel = StaticWebIntelligence::new([]);
        // Alexa Enabled + Amazon Product + Fire TV = one family.
        let cls = classify(
            &c,
            &intel,
            &d("d3.amazon-iot.com"),
            &usage(&["Alexa Enabled", "Amazon Product", "Fire TV"], &[443]),
            Some(&d("amazon-iot.com")),
        );
        assert_eq!(cls, DomainClass::Primary);
    }

    #[test]
    fn own_sld_is_primary_foreign_sld_is_support() {
        let c = standard_catalog();
        let intel = StaticWebIntelligence::new([]);
        let majority = d("samsung-iot.com");
        assert_eq!(
            classify(
                &c,
                &intel,
                &d("d2.samsung-iot.com"),
                &usage(&["Samsung IoT"], &[443]),
                Some(&majority)
            ),
            DomainClass::Primary
        );
        assert_eq!(
            classify(
                &c,
                &intel,
                &d("samsung0.svc-partner0.com"),
                &usage(&["Samsung IoT"], &[443]),
                Some(&majority)
            ),
            DomainClass::Support
        );
    }

    #[test]
    fn single_domain_device_defaults_primary() {
        let c = standard_catalog();
        let intel = StaticWebIntelligence::new([]);
        assert_eq!(
            classify(
                &c,
                &intel,
                &d("d0.anova-iot.com"),
                &usage(&["Anova Sousvide"], &[443]),
                None
            ),
            DomainClass::Primary
        );
    }
}
