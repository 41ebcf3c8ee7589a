//! §4.2 — from IoT-specific domains to dedicated service IPs.
//!
//! Three stages, exactly as Figure 7 draws them:
//!
//! 1. **DNSDB** (§4.2.1): a domain is *dedicated* when, on **every day**
//!    of the window, every service IP it mapped to served names from a
//!    single SLD (the domain's own) — after discounting cloud-provider
//!    infrastructure names, per the paper's EC2 allowance: a VM's public
//!    IP reverse-maps to the provider's zone *and* the tenant CNAME, yet
//!    the IP is exclusively the tenant's while held.
//! 2. **Censys** (§4.2.2): domains without DNSDB records fall back to the
//!    certificate/banner expansion — possible only if the device speaks
//!    HTTPS to them and the presented certificate passes the match
//!    criteria (SLD-anchored, no foreign SAN).
//! 3. **Removal** (§4.2.3): services left without dedicated domains are
//!    dropped from rule generation.

use haystack_dns::{DnsDb, DomainName};
use haystack_net::StudyWindow;
use haystack_scan::ScanDb;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Analyst knowledge about infrastructure zones: which SLDs are cloud
/// providers' machine zones (`amazonaws.com`-alikes). The §4.2.1 cloud
/// allowance discounts these when testing exclusivity.
#[derive(Debug, Clone, Default)]
pub struct InfraKnowledge {
    cloud_slds: BTreeSet<DomainName>,
}

impl InfraKnowledge {
    /// Build from the cloud providers' zone SLDs.
    pub fn new(cloud_slds: impl IntoIterator<Item = DomainName>) -> Self {
        InfraKnowledge {
            cloud_slds: cloud_slds.into_iter().collect(),
        }
    }

    /// Whether an SLD is a cloud machine zone.
    pub fn is_cloud_zone(&self, sld: &DomainName) -> bool {
        self.cloud_slds.contains(sld)
    }
}

/// Outcome of the §4.2.1 analysis for one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DedicationVerdict {
    /// Every observed service IP is exclusive to the domain's SLD; the
    /// union of observed IPs over the window is attached.
    Dedicated(BTreeSet<Ipv4Addr>),
    /// At least one service IP also serves foreign SLDs.
    Shared,
    /// DNSDB has no record (→ try Censys, §4.2.2).
    NoRecord,
}

/// §4.2.1: classify one domain against the passive-DNS view.
pub fn dnsdb_verdict(
    dnsdb: &DnsDb,
    infra: &InfraKnowledge,
    domain: &DomainName,
    window: &StudyWindow,
) -> DedicationVerdict {
    if !dnsdb.has_records(domain, window) {
        return DedicationVerdict::NoRecord;
    }
    let own_sld = domain.sld();
    let mut all_ips = BTreeSet::new();
    // "all service IPs have to be dedicated to this domain for all days".
    for day in window.day_bins() {
        let day_window = StudyWindow::days(day.0, day.0 + 1);
        let ips = dnsdb.ips_of(domain, &day_window);
        for ip in ips {
            let mut foreign = false;
            for sld in dnsdb.slds_of_ip(ip, &day_window) {
                if sld == own_sld || infra.is_cloud_zone(&sld) {
                    continue;
                }
                foreign = true;
                break;
            }
            if foreign {
                return DedicationVerdict::Shared;
            }
            all_ips.insert(ip);
        }
    }
    if all_ips.is_empty() {
        // Records exist somewhere in the window but not day-resolved —
        // treat as no usable record.
        return DedicationVerdict::NoRecord;
    }
    DedicationVerdict::Dedicated(all_ips)
}

/// §4.2.2: Censys fallback for a DNSDB-less domain. `uses_https` and
/// `seed_ips` come from the ground-truth traffic (we know the device
/// spoke TLS and to which addresses).
pub fn censys_fallback(
    scans: &ScanDb,
    domain: &DomainName,
    uses_https: bool,
    seed_ips: &BTreeSet<Ipv4Addr>,
) -> Option<BTreeSet<Ipv4Addr>> {
    if !uses_https {
        return None;
    }
    for &seed in seed_ips {
        if let Some(ips) = scans.expand_domain(domain, seed) {
            if !ips.is_empty() {
                return Some(ips);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_dns::zone::RotationPolicy;
    use haystack_dns::{Resolver, ZoneDb};
    use haystack_net::SimTime;
    use haystack_scan::{Certificate, HostScan, HttpsBanner};

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 7, last)
    }

    fn infra() -> InfraKnowledge {
        InfraKnowledge::new([d("cloudnova.com")])
    }

    /// Build a DNSDB fed hourly over the first 3 days from a small zone.
    fn fed_dnsdb(zones: &ZoneDb) -> DnsDb {
        let resolver = Resolver::new(zones);
        let mut db = DnsDb::new();
        let names: Vec<DomainName> = zones.names().cloned().collect();
        for day in 0..3u64 {
            for hour in 0..24u64 {
                let t = SimTime(day * 86_400 + hour * 3_600);
                for n in &names {
                    if let Some(res) = resolver.resolve(n, t) {
                        db.record_resolution(&res, t);
                    }
                }
            }
        }
        db
    }

    #[test]
    fn dedicated_pool_is_dedicated() {
        let mut z = ZoneDb::new();
        z.insert_pool(
            d("api.deva.com"),
            (1..=6).map(ip).collect(),
            RotationPolicy {
                active_count: 3,
                period_secs: 3_600,
            },
        );
        let db = fed_dnsdb(&z);
        match dnsdb_verdict(&db, &infra(), &d("api.deva.com"), &StudyWindow::days(0, 3)) {
            DedicationVerdict::Dedicated(ips) => {
                assert!(
                    ips.len() >= 3,
                    "churn exposes most of the pool: {}",
                    ips.len()
                );
            }
            v => panic!("expected dedicated, got {v:?}"),
        }
    }

    #[test]
    fn cloud_vm_is_dedicated_via_the_ec2_allowance() {
        let mut z = ZoneDb::new();
        z.insert_cname(d("iot.devx.com"), d("devx-vm1.ec2compute.cloudnova.com"));
        z.insert_pool(
            d("devx-vm1.ec2compute.cloudnova.com"),
            vec![ip(50)],
            RotationPolicy::STABLE,
        );
        let db = fed_dnsdb(&z);
        match dnsdb_verdict(&db, &infra(), &d("iot.devx.com"), &StudyWindow::days(0, 3)) {
            DedicationVerdict::Dedicated(ips) => {
                assert_eq!(ips.into_iter().collect::<Vec<_>>(), vec![ip(50)])
            }
            v => panic!("expected dedicated, got {v:?}"),
        }
    }

    #[test]
    fn cdn_tenant_is_shared() {
        let mut z = ZoneDb::new();
        z.insert_cname(d("devb.com"), d("devb-com.akadns.net"));
        z.insert_cname(d("other.com"), d("other-com.akadns.net"));
        let edges: Vec<Ipv4Addr> = (100..=103).map(ip).collect();
        z.insert_pool(
            d("devb-com.akadns.net"),
            edges.clone(),
            RotationPolicy {
                active_count: 2,
                period_secs: 3_600,
            },
        );
        z.insert_pool(
            d("other-com.akadns.net"),
            edges,
            RotationPolicy {
                active_count: 2,
                period_secs: 3_600,
            },
        );
        let db = fed_dnsdb(&z);
        assert_eq!(
            dnsdb_verdict(&db, &infra(), &d("devb.com"), &StudyWindow::days(0, 3)),
            DedicationVerdict::Shared
        );
    }

    #[test]
    fn one_bad_day_taints_the_domain() {
        // Dedicated on days 0–2, but on day 2 the IP is also handed to a
        // foreign domain: "for all days" must fail.
        let mut z = ZoneDb::new();
        z.insert_pool(d("api.devc.com"), vec![ip(60)], RotationPolicy::STABLE);
        let mut db = fed_dnsdb(&z);
        // Inject the foreign observation directly on day 2.
        let mut z2 = ZoneDb::new();
        z2.insert_pool(d("intruder.net"), vec![ip(60)], RotationPolicy::STABLE);
        let r2 = Resolver::new(&z2);
        let res = r2
            .resolve(&d("intruder.net"), SimTime(2 * 86_400 + 60))
            .unwrap();
        db.record_resolution(&res, SimTime(2 * 86_400 + 60));
        assert_eq!(
            dnsdb_verdict(&db, &infra(), &d("api.devc.com"), &StudyWindow::days(0, 3)),
            DedicationVerdict::Shared
        );
    }

    #[test]
    fn missing_domain_is_no_record() {
        let z = ZoneDb::new();
        let db = fed_dnsdb(&z);
        assert_eq!(
            dnsdb_verdict(&db, &infra(), &d("ghost.com"), &StudyWindow::days(0, 3)),
            DedicationVerdict::NoRecord
        );
    }

    #[test]
    fn censys_fallback_requires_https_and_matching_cert() {
        let mut scans = ScanDb::new();
        let cert =
            Certificate::single(haystack_dns::DomainPattern::parse("*.deve.com").unwrap(), 1);
        let banner = HttpsBanner::new("deve", "x");
        for i in [70u8, 71, 72] {
            scans.insert(
                ip(i),
                HostScan {
                    cert: cert.clone(),
                    banner: banner.clone(),
                    port: 443,
                },
            );
        }
        let seeds: BTreeSet<_> = [ip(70)].into_iter().collect();
        let got = censys_fallback(&scans, &d("c.deve.com"), true, &seeds).unwrap();
        assert_eq!(got.len(), 3);
        // No HTTPS → no fallback.
        assert_eq!(
            censys_fallback(&scans, &d("c.deve.com"), false, &seeds),
            None
        );
        // Unknown seed → no fallback.
        let bad: BTreeSet<_> = [ip(99)].into_iter().collect();
        assert_eq!(censys_fallback(&scans, &d("c.deve.com"), true, &bad), None);
    }
}
