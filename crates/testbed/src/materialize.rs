//! Bridges the catalog to the backend universe: registers every domain's
//! hosting with the [`UniverseBuilder`] and returns the assembled world
//! plus a domain→class directory used by evaluation oracles.

use crate::catalog::{Catalog, HostingKind};
use haystack_backend::{BackendUniverse, UniverseBuilder};
use haystack_dns::{DomainName, Resolver};
use std::collections::HashMap;

/// The standard cloud provider all catalog CloudVm domains rent from.
pub const CLOUD_PROVIDER: &str = "cloudnova";
/// The standard CDN all catalog Cdn domains front through.
pub const CDN_PROVIDER: &str = "akadns";

/// The materialized world: DNS + scans + AS registry (in
/// [`BackendUniverse`]) and the evaluation directory.
#[derive(Debug)]
pub struct MaterializedWorld {
    /// The server-side Internet.
    pub universe: BackendUniverse,
    /// Domain → detection-class name (None for generic domains).
    pub directory: HashMap<DomainName, Option<&'static str>>,
}

impl MaterializedWorld {
    /// Resolver over the universe's zones.
    pub fn resolver(&self) -> Resolver<'_> {
        Resolver::new(&self.universe.zones)
    }

    /// The class a domain belongs to (evaluation oracle).
    pub fn class_of(&self, d: &DomainName) -> Option<&'static str> {
        self.directory.get(d).copied().flatten()
    }

    /// Whether a domain is one of the catalog's generic (non-IoT) domains.
    pub fn is_generic(&self, d: &DomainName) -> bool {
        matches!(self.directory.get(d), Some(None))
    }
}

/// Register every catalog domain with a fresh universe and build it.
pub fn materialize(catalog: &Catalog) -> MaterializedWorld {
    let mut b = UniverseBuilder::new();
    b.add_cloud(CLOUD_PROVIDER, &format!("ec2compute.{CLOUD_PROVIDER}.com"));
    b.add_cdn(CDN_PROVIDER, &format!("{CDN_PROVIDER}.net"), 96, 4, 3_600);

    let mut directory: HashMap<DomainName, Option<&'static str>> = HashMap::new();
    let mut operators_added: std::collections::HashSet<String> = Default::default();

    for class in &catalog.classes {
        for d in &class.domains {
            directory.insert(d.name.clone(), Some(class.name));
            match d.hosting {
                HostingKind::Dedicated {
                    pool,
                    active,
                    period_secs,
                } => {
                    let op = d.name.sld().as_str().to_string();
                    if operators_added.insert(op.clone()) {
                        b.add_operator(&op);
                    }
                    b.host_dedicated(&op, &d.name, pool, active, period_secs);
                }
                HostingKind::CloudVm => {
                    let tenant = d.name.sld().as_str().to_string();
                    b.host_cloud_vm(CLOUD_PROVIDER, &tenant, &d.name);
                }
                HostingKind::Cdn => {
                    b.host_cdn(CDN_PROVIDER, &d.name);
                }
            }
        }
    }
    for d in &catalog.generic_domains {
        directory.insert(d.name.clone(), None);
        match d.hosting {
            HostingKind::Cdn => b.host_cdn(CDN_PROVIDER, &d.name),
            HostingKind::Dedicated {
                pool,
                active,
                period_secs,
            } => {
                b.host_generic(&d.name, pool, active, period_secs);
            }
            HostingKind::CloudVm => {
                let tenant = d.name.sld().as_str().to_string();
                b.host_cloud_vm(CLOUD_PROVIDER, &tenant, &d.name);
            }
        }
    }

    MaterializedWorld {
        universe: b.build(),
        directory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::data::standard_catalog;
    use haystack_net::SimTime;

    #[test]
    fn every_catalog_domain_resolves() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let r = world.resolver();
        for d in catalog.iot_domains() {
            let res = r.resolve(&d.name, SimTime(0));
            assert!(res.is_some(), "domain {} does not resolve", d.name);
            assert!(!res.unwrap().ips.is_empty());
        }
        for d in &catalog.generic_domains {
            assert!(
                r.resolve(&d.name, SimTime(0)).is_some(),
                "generic {} unresolvable",
                d.name
            );
        }
    }

    #[test]
    fn hosting_oracle_matches_catalog() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        for d in catalog.iot_domains() {
            assert_eq!(
                world.universe.is_dedicated(&d.name),
                Some(d.hosting.is_dedicated()),
                "hosting mismatch for {}",
                d.name
            );
        }
    }

    #[test]
    fn directory_classifies_domains() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let avs = DomainName::parse("avs-alexa.amazon-iot.com").unwrap();
        assert_eq!(world.class_of(&avs), Some("Alexa Enabled"));
        let ntp = DomainName::parse("ntp0.pool-time.org").unwrap();
        assert!(world.is_generic(&ntp));
        assert_eq!(world.class_of(&ntp), None);
    }

    #[test]
    fn cdn_domains_share_edge_ips_across_classes() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let r = world.resolver();
        // Two shared domains from different classes resolve into the same
        // edge pool (the precondition for §4.2's shared classification).
        let a = DomainName::parse("s0.blink-iot.com").unwrap();
        let b = DomainName::parse("s0.yi-iot.com").unwrap();
        let pa = r.full_pool(&a).unwrap();
        let pb = r.full_pool(&b).unwrap();
        assert_eq!(pa, pb);
    }
}
