//! The scan database: per-IP certificate + banner observations with the
//! §4.2.2 queries.

use crate::banner::HttpsBanner;
use crate::cert::Certificate;
use crate::matcher::cert_identifies_domain;
use haystack_dns::DomainName;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// What the scanner recorded for one host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostScan {
    /// The presented leaf certificate.
    pub cert: Certificate,
    /// The HTTPS banner.
    pub banner: HttpsBanner,
    /// The TLS port scanned (443 unless a device service uses 8443).
    pub port: u16,
}

/// An Internet-wide HTTPS scan snapshot, indexed for the methodology's
/// queries.
#[derive(Debug, Default, Clone)]
pub struct ScanDb {
    hosts: HashMap<Ipv4Addr, HostScan>,
    /// fingerprint → IPs presenting that certificate.
    by_fingerprint: HashMap<u64, BTreeSet<Ipv4Addr>>,
}

impl ScanDb {
    /// New, empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one scanned host. Re-scanning an IP replaces its entry.
    pub fn insert(&mut self, ip: Ipv4Addr, scan: HostScan) {
        if let Some(old) = self.hosts.get(&ip) {
            if let Some(set) = self.by_fingerprint.get_mut(&old.cert.fingerprint) {
                set.remove(&ip);
            }
        }
        self.by_fingerprint
            .entry(scan.cert.fingerprint)
            .or_default()
            .insert(ip);
        self.hosts.insert(ip, scan);
    }

    /// The scan record for one host.
    pub fn get(&self, ip: Ipv4Addr) -> Option<&HostScan> {
        self.hosts.get(&ip)
    }

    /// §4.2.2, step 1: does the certificate presented at `ip` identify
    /// `domain` (SLD-anchored match, no foreign SAN)?
    pub fn cert_at_ip_identifies(&self, ip: Ipv4Addr, domain: &DomainName) -> bool {
        self.hosts
            .get(&ip)
            .map(|h| cert_identifies_domain(&h.cert, domain))
            .unwrap_or(false)
    }

    /// §4.2.2, step 2: all IPs presenting the **same certificate and HTTPS
    /// banner checksum** as the host at `seed_ip`. Returns an empty set if
    /// the seed was never scanned.
    pub fn ips_with_same_cert_and_banner(&self, seed_ip: Ipv4Addr) -> BTreeSet<Ipv4Addr> {
        let Some(seed) = self.hosts.get(&seed_ip) else {
            return BTreeSet::new();
        };
        self.by_fingerprint
            .get(&seed.cert.fingerprint)
            .map(|candidates| {
                candidates
                    .iter()
                    .filter(|ip| {
                        self.hosts
                            .get(ip)
                            .map(|h| h.banner.checksum == seed.banner.checksum)
                            .unwrap_or(false)
                    })
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Combined §4.2.2 query: find every IP attributable to `domain`,
    /// seeded by one IP known (from ground truth) to serve it. Returns
    /// `None` when the certificate check fails — the caller then cannot
    /// use Censys for this domain, as happened for 7 of the paper's 15
    /// DNSDB-less domains.
    pub fn expand_domain(
        &self,
        domain: &DomainName,
        seed_ip: Ipv4Addr,
    ) -> Option<BTreeSet<Ipv4Addr>> {
        if !self.cert_at_ip_identifies(seed_ip, domain) {
            return None;
        }
        Some(self.ips_with_same_cert_and_banner(seed_ip))
    }

    /// Number of scanned hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_dns::DomainPattern;

    fn pat(s: &str) -> DomainPattern {
        DomainPattern::parse(s).unwrap()
    }

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 2, last)
    }

    fn scan(cert: &Certificate, banner: &HttpsBanner) -> HostScan {
        HostScan {
            cert: cert.clone(),
            banner: banner.clone(),
            port: 443,
        }
    }

    /// Three hosts share devE's cert+banner; one host shares the cert but
    /// runs a different banner (staging box); one host is a CDN node with
    /// a multi-SAN cert.
    fn db() -> ScanDb {
        let cert_e = Certificate::single(pat("*.deve.com"), 7);
        let banner_e = HttpsBanner::new("deve-backend", "prod");
        let banner_staging = HttpsBanner::new("deve-backend", "staging");
        let cdn_cert = Certificate::new(vec![pat("*.deve.com"), pat("*.tenant2.net")], 9);

        let mut db = ScanDb::new();
        for i in [1u8, 2, 3] {
            db.insert(ip(i), scan(&cert_e, &banner_e));
        }
        db.insert(ip(4), scan(&cert_e, &banner_staging));
        db.insert(ip(5), scan(&cdn_cert, &banner_e));
        db
    }

    #[test]
    fn expand_domain_finds_matching_pool() {
        let db = db();
        let ips = db.expand_domain(&d("c.deve.com"), ip(1)).unwrap();
        assert_eq!(ips, [ip(1), ip(2), ip(3)].into_iter().collect());
    }

    #[test]
    fn banner_mismatch_excluded() {
        let db = db();
        let ips = db.expand_domain(&d("c.deve.com"), ip(1)).unwrap();
        assert!(!ips.contains(&ip(4)), "staging banner differs");
    }

    #[test]
    fn multi_san_cert_fails_match_criteria() {
        let db = db();
        assert_eq!(db.expand_domain(&d("c.deve.com"), ip(5)), None);
    }

    #[test]
    fn unscanned_seed_yields_none() {
        let db = db();
        assert_eq!(db.expand_domain(&d("c.deve.com"), ip(99)), None);
        assert!(db.ips_with_same_cert_and_banner(ip(99)).is_empty());
    }

    #[test]
    fn rescan_replaces_and_reindexes() {
        let mut db = db();
        let new_cert = Certificate::single(pat("*.newowner.com"), 1);
        let banner = HttpsBanner::new("new", "x");
        db.insert(ip(1), scan(&new_cert, &banner));
        // ip(1) no longer attributable to devE.
        let ips = db.expand_domain(&d("c.deve.com"), ip(2)).unwrap();
        assert_eq!(ips, [ip(2), ip(3)].into_iter().collect());
        assert!(db.cert_at_ip_identifies(ip(1), &d("x.newowner.com")));
    }

    #[test]
    fn len_counts_hosts() {
        assert_eq!(db().len(), 5);
        assert!(!db().is_empty());
    }
}
