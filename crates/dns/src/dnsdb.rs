//! A passive-DNS database in the style of Farsight DNSDB (\[16\], \[18\]).
//!
//! §4.2.1: *"DNSDB provides information for all domains served by an IP
//! address in a given time period and vice versa, hence it mitigates the
//! issues caused by \[churn\]. DNSDB also provides all records, including
//! CNAMEs that may have been returned in the DNS response, for a given
//! domain."*
//!
//! The store ingests full [`Resolution`]s: for every name in the response
//! chain it records an A observation against each answered address, plus
//! the CNAME links themselves, each carrying a `[first_seen, last_seen]`
//! range. Queries are window-filtered, matching how the paper restricts
//! DNSDB lookups to the experiment period.
//!
//! **Coverage gaps** are first-class: the paper found *no DNSDB record for
//! 15 of 434 domains* ("missing data since the requests for the domains may
//! not have been recorded by DNSDB, which intercepts requests for a subset
//! of the DNS hierarchy"). A blind-spot set of SLDs makes the database drop
//! those observations, forcing the §4.2.2 Censys fallback to do its job.

use crate::name::DomainName;
use crate::record::Rdata;
use crate::resolver::Resolution;
use haystack_net::{SimTime, StudyWindow};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;

/// When a (name, rdata) pair was first and last observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRange {
    /// First observation.
    pub first: SimTime,
    /// Last observation.
    pub last: SimTime,
}

impl TimeRange {
    fn observe(&mut self, t: SimTime) {
        if t < self.first {
            self.first = t;
        }
        if t > self.last {
            self.last = t;
        }
    }

    /// Whether the range intersects a query window (half-open).
    pub fn overlaps(&self, w: &StudyWindow) -> bool {
        self.first < w.end && self.last >= w.start
    }
}

/// One exported observation row (for reports and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsDbObservation {
    /// Owner name.
    pub name: DomainName,
    /// Observed record data.
    pub rdata: Rdata,
    /// Observation range.
    pub first: SimTime,
    /// Observation range.
    pub last: SimTime,
}

/// The passive-DNS store.
///
/// ```
/// use haystack_dns::zone::RotationPolicy;
/// use haystack_dns::{DnsDb, DomainName, Resolver, ZoneDb};
/// use haystack_net::{SimTime, StudyWindow};
///
/// let mut zones = ZoneDb::new();
/// let name = DomainName::parse("api.deva.com").unwrap();
/// zones.insert_pool(name.clone(), vec!["198.18.0.1".parse().unwrap()], RotationPolicy::STABLE);
///
/// let mut db = DnsDb::new();
/// let res = Resolver::new(&zones).resolve(&name, SimTime(0)).unwrap();
/// db.record_resolution(&res, SimTime(0));
/// assert_eq!(db.ips_of(&name, &StudyWindow::FULL).len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct DnsDb {
    /// name → ip → range (A observations).
    a_by_name: HashMap<DomainName, HashMap<Ipv4Addr, TimeRange>>,
    /// ip → name → range (inverse index of `a_by_name`).
    name_by_ip: HashMap<Ipv4Addr, HashMap<DomainName, TimeRange>>,
    /// alias → target → range (CNAME observations).
    cname_by_name: HashMap<DomainName, HashMap<DomainName, TimeRange>>,
    /// target → alias → range (inverse CNAME index).
    alias_by_target: HashMap<DomainName, HashMap<DomainName, TimeRange>>,
    /// SLDs invisible to this passive-DNS deployment (coverage gaps).
    blind_slds: HashSet<DomainName>,
    /// Individual FQDNs invisible to this deployment.
    blind_names: HashSet<DomainName>,
}

impl DnsDb {
    /// New, empty database with full coverage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an SLD as a coverage gap: observations for any name under it
    /// are silently dropped, reproducing the paper's 15 no-record domains.
    pub fn add_blind_sld(&mut self, sld: DomainName) {
        self.blind_slds.insert(sld);
    }

    /// Declare a single FQDN as a coverage gap (the paper's 15 no-record
    /// domains were individual names, not whole zones).
    pub fn add_blind_name(&mut self, name: DomainName) {
        self.blind_names.insert(name);
    }

    /// Whether a name falls in a declared coverage gap.
    pub fn is_blind(&self, name: &DomainName) -> bool {
        self.blind_names.contains(name) || self.blind_slds.contains(&name.sld())
    }

    fn observe_a(&mut self, name: &DomainName, ip: Ipv4Addr, t: SimTime) {
        if self.is_blind(name) {
            return;
        }
        self.a_by_name
            .entry(name.clone())
            .or_default()
            .entry(ip)
            .or_insert(TimeRange { first: t, last: t })
            .observe(t);
        self.name_by_ip
            .entry(ip)
            .or_default()
            .entry(name.clone())
            .or_insert(TimeRange { first: t, last: t })
            .observe(t);
    }

    fn observe_cname(&mut self, alias: &DomainName, target: &DomainName, t: SimTime) {
        if self.is_blind(alias) {
            return;
        }
        self.cname_by_name
            .entry(alias.clone())
            .or_default()
            .entry(target.clone())
            .or_insert(TimeRange { first: t, last: t })
            .observe(t);
        self.alias_by_target
            .entry(target.clone())
            .or_default()
            .entry(alias.clone())
            .or_insert(TimeRange { first: t, last: t })
            .observe(t);
    }

    /// Ingest one full resolver response at instant `t`: the CNAME chain
    /// and, as DNSDB does, an A observation for **every** name in the chain
    /// against each answered address.
    pub fn record_resolution(&mut self, res: &Resolution, t: SimTime) {
        for rec in &res.chain {
            if let Rdata::Cname(target) = &rec.rdata {
                self.observe_cname(&rec.name, target, t);
            }
        }
        for name in res.all_names() {
            for &ip in &res.ips {
                self.observe_a(&name, ip, t);
            }
        }
    }

    /// All addresses `name` was observed mapping to within `window`
    /// (rrset-by-name query).
    pub fn ips_of(&self, name: &DomainName, window: &StudyWindow) -> BTreeSet<Ipv4Addr> {
        self.a_by_name
            .get(name)
            .map(|m| {
                m.iter()
                    .filter(|(_, r)| r.overlaps(window))
                    .map(|(ip, _)| *ip)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All owner names observed with A records to `ip` within `window`
    /// (rdata-by-IP query). Because full chains are ingested, CNAME aliases
    /// of the canonical host appear here too — exactly the §4.2.1
    /// exclusivity evidence.
    pub fn names_of_ip(&self, ip: Ipv4Addr, window: &StudyWindow) -> BTreeSet<DomainName> {
        self.name_by_ip
            .get(&ip)
            .map(|m| {
                m.iter()
                    .filter(|(_, r)| r.overlaps(window))
                    .map(|(n, _)| n.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Distinct SLDs among [`DnsDb::names_of_ip`] — the quantity the
    /// dedicated/shared classifier thresholds on.
    pub fn slds_of_ip(&self, ip: Ipv4Addr, window: &StudyWindow) -> BTreeSet<DomainName> {
        self.names_of_ip(ip, window)
            .iter()
            .map(|n| n.sld())
            .collect()
    }

    /// CNAME targets recorded for `alias` within `window`.
    pub fn cname_targets(&self, alias: &DomainName, window: &StudyWindow) -> BTreeSet<DomainName> {
        self.cname_by_name
            .get(alias)
            .map(|m| {
                m.iter()
                    .filter(|(_, r)| r.overlaps(window))
                    .map(|(n, _)| n.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Aliases observed CNAME-ing to `target` within `window`.
    pub fn aliases_of(&self, target: &DomainName, window: &StudyWindow) -> BTreeSet<DomainName> {
        self.alias_by_target
            .get(target)
            .map(|m| {
                m.iter()
                    .filter(|(_, r)| r.overlaps(window))
                    .map(|(n, _)| n.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Whether the database holds *any* record for `name` in `window` —
    /// the §4.2.1/§4.2.2 "no record in DNSDB" predicate.
    pub fn has_records(&self, name: &DomainName, window: &StudyWindow) -> bool {
        !self.ips_of(name, window).is_empty() || !self.cname_targets(name, window).is_empty()
    }

    /// Dump all A observations (reporting/tests).
    pub fn a_observations(&self) -> Vec<DnsDbObservation> {
        let mut out: Vec<DnsDbObservation> = self
            .a_by_name
            .iter()
            .flat_map(|(name, m)| {
                m.iter().map(move |(ip, r)| DnsDbObservation {
                    name: name.clone(),
                    rdata: Rdata::A(*ip),
                    first: r.first,
                    last: r.last,
                })
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of distinct names with at least one A observation.
    pub fn num_names(&self) -> usize {
        self.a_by_name.len()
    }

    /// Number of distinct addresses with at least one observation.
    pub fn num_ips(&self) -> usize {
        self.name_by_ip.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::Resolver;
    use crate::zone::{RotationPolicy, ZoneDb};

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 1, last)
    }

    /// Paper example 1: devA.com → CNAME devA-vm.ec2compute.amazonaws.com
    /// → dedicated VM IP. Example 2: devB.com → CNAME chain into a CDN
    /// name whose IP also serves anothersite.com.
    fn populated() -> DnsDb {
        let mut zones = ZoneDb::new();
        zones.insert_cname(d("deva.com"), d("deva-vm.ec2compute.amazonaws.com"));
        zones.insert_pool(
            d("deva-vm.ec2compute.amazonaws.com"),
            vec![ip(10)],
            RotationPolicy::STABLE,
        );
        zones.insert_cname(d("devb.com"), d("devb.com.akadns.net"));
        zones.insert_cname(d("anothersite.com"), d("anothersite.com.akadns.net"));
        zones.insert_pool(
            d("devb.com.akadns.net"),
            vec![ip(20)],
            RotationPolicy::STABLE,
        );
        zones.insert_pool(
            d("anothersite.com.akadns.net"),
            vec![ip(20)],
            RotationPolicy::STABLE,
        );

        let resolver = Resolver::new(&zones);
        let mut db = DnsDb::new();
        for (q, t) in [
            ("deva.com", 100u64),
            ("devb.com", 200),
            ("anothersite.com", 300),
        ] {
            let res = resolver.resolve(&d(q), SimTime(t)).unwrap();
            db.record_resolution(&res, SimTime(t));
        }
        db
    }

    #[test]
    fn rdata_by_ip_includes_cname_aliases() {
        let db = populated();
        let names = db.names_of_ip(ip(10), &StudyWindow::FULL);
        assert!(names.contains(&d("deva.com")));
        assert!(names.contains(&d("deva-vm.ec2compute.amazonaws.com")));
    }

    #[test]
    fn shared_cdn_ip_serves_multiple_slds() {
        let db = populated();
        let slds = db.slds_of_ip(ip(20), &StudyWindow::FULL);
        assert!(slds.contains(&d("devb.com")));
        assert!(slds.contains(&d("anothersite.com")));
        assert!(slds.contains(&d("akadns.net")));
        assert_eq!(slds.len(), 3);
    }

    #[test]
    fn dedicated_vm_ip_has_two_slds_device_plus_cloud() {
        // The paper's EC2 case: the IP reverse-maps only to the VM name and
        // the device CNAME — one device SLD plus the cloud SLD.
        let db = populated();
        let slds = db.slds_of_ip(ip(10), &StudyWindow::FULL);
        assert_eq!(slds.len(), 2);
        assert!(slds.contains(&d("deva.com")));
        assert!(slds.contains(&d("amazonaws.com")));
    }

    #[test]
    fn window_filtering() {
        let db = populated();
        let early = StudyWindow {
            start: SimTime(0),
            end: SimTime(150),
        };
        let late = StudyWindow {
            start: SimTime(150),
            end: SimTime(400),
        };
        assert!(db.has_records(&d("deva.com"), &early));
        assert!(
            !db.has_records(&d("deva.com"), &late),
            "deva observed only at t=100"
        );
        assert!(db.has_records(&d("devb.com"), &late));
    }

    #[test]
    fn ips_of_name() {
        let db = populated();
        let ips = db.ips_of(&d("devb.com"), &StudyWindow::FULL);
        assert_eq!(ips.into_iter().collect::<Vec<_>>(), vec![ip(20)]);
    }

    #[test]
    fn cname_indexes_both_ways() {
        let db = populated();
        let targets = db.cname_targets(&d("devb.com"), &StudyWindow::FULL);
        assert!(targets.contains(&d("devb.com.akadns.net")));
        let aliases = db.aliases_of(&d("devb.com.akadns.net"), &StudyWindow::FULL);
        assert!(aliases.contains(&d("devb.com")));
    }

    #[test]
    fn blind_slds_drop_observations() {
        let mut zones = ZoneDb::new();
        zones.insert_pool(d("c.deve.com"), vec![ip(30)], RotationPolicy::STABLE);
        let resolver = Resolver::new(&zones);
        let res = resolver.resolve(&d("c.deve.com"), SimTime(0)).unwrap();

        let mut db = DnsDb::new();
        db.add_blind_sld(d("deve.com"));
        db.record_resolution(&res, SimTime(0));
        assert!(!db.has_records(&d("c.deve.com"), &StudyWindow::FULL));
        assert!(db.names_of_ip(ip(30), &StudyWindow::FULL).is_empty());
    }

    #[test]
    fn time_range_merging() {
        let mut zones = ZoneDb::new();
        zones.insert_pool(d("x.com"), vec![ip(1)], RotationPolicy::STABLE);
        let resolver = Resolver::new(&zones);
        let mut db = DnsDb::new();
        for t in [50u64, 500, 5] {
            let res = resolver.resolve(&d("x.com"), SimTime(t)).unwrap();
            db.record_resolution(&res, SimTime(t));
        }
        let obs = db.a_observations();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].first, SimTime(5));
        assert_eq!(obs[0].last, SimTime(500));
    }

    #[test]
    fn counts() {
        let db = populated();
        assert_eq!(db.num_ips(), 2);
        assert!(db.num_names() >= 5);
    }
}
