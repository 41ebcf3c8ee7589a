//! Ground-truth domain usage, aggregated from the Home-VP capture.
//!
//! The testbed knows which instance (and therefore which detection class)
//! produced each packet and which domain it was headed to — the
//! attribution that only exists at the Home-VP (§2). Everything §4
//! consumes about a domain is collapsed into one [`DomainUsage`] row.

use haystack_dns::DomainName;
use haystack_testbed::{ExperimentDriver, GroundTruthPacket};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// Aggregated ground-truth knowledge about one observed domain.
#[derive(Debug, Clone, Default)]
pub struct DomainUsage {
    /// Detection classes whose devices contacted the domain.
    pub classes: BTreeSet<&'static str>,
    /// Server ports observed.
    pub ports: BTreeSet<u16>,
    /// Total ground-truth packets.
    pub packets: u64,
    /// Packets during the active-experiment window.
    pub packets_active: u64,
    /// Packets during the idle-experiment window.
    pub packets_idle: u64,
    /// Service IPs the testbed actually contacted (Censys seeds).
    pub seed_ips: BTreeSet<Ipv4Addr>,
    /// Distinct hours with traffic (persistence signal).
    pub active_hours: u32,
}

impl DomainUsage {
    /// Whether the device speaks HTTPS to this domain (the §4.2.2
    /// prerequisite).
    pub fn uses_https(&self) -> bool {
        self.ports.contains(&443) || self.ports.contains(&8443)
    }

    /// §7.1's first insight: the domain is an *active-use indicator* if it
    /// is essentially silent in idle mode but speaks when the device is
    /// used. (Rates are per-window totals; the active window is ~4 days
    /// and idle ~3, close enough for a 50× ratio test.)
    pub fn is_usage_indicator(&self) -> bool {
        self.packets_active > 200 && self.packets_idle * 50 < self.packets_active
    }
}

/// Per-domain usage over the whole ground-truth capture.
#[derive(Debug, Default)]
pub struct DomainObservations {
    map: BTreeMap<DomainName, DomainUsage>,
}

impl DomainObservations {
    /// Empty observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one captured hour into the observations.
    pub fn ingest_hour(&mut self, driver: &ExperimentDriver, packets: &[GroundTruthPacket]) {
        let table = driver.domain_table();
        let mut domains_seen_this_hour: BTreeSet<u32> = BTreeSet::new();
        let mut class_cache: HashMap<u32, &'static str> = HashMap::new();
        for g in packets {
            let spec = &table[g.domain_id as usize];
            let class = *class_cache.entry(g.instance).or_insert_with(|| {
                let inst = &driver.instances()[g.instance as usize];
                driver.catalog().products[inst.product].class
            });
            let usage = self.map.entry(spec.name.clone()).or_default();
            usage.classes.insert(class);
            usage.ports.insert(g.packet.dport);
            usage.packets += 1;
            if haystack_net::StudyWindow::ACTIVE_GT.contains(g.packet.ts) {
                usage.packets_active += 1;
            } else if haystack_net::StudyWindow::IDLE_GT.contains(g.packet.ts) {
                usage.packets_idle += 1;
            }
            usage.seed_ips.insert(g.packet.dst);
            domains_seen_this_hour.insert(g.domain_id);
        }
        for id in domains_seen_this_hour {
            let name = &table[id as usize].name;
            if let Some(u) = self.map.get_mut(name) {
                u.active_hours += 1;
            }
        }
    }

    /// Usage row for one domain.
    pub fn get(&self, d: &DomainName) -> Option<&DomainUsage> {
        self.map.get(d)
    }

    /// All observed domains (sorted).
    pub fn domains(&self) -> impl Iterator<Item = (&DomainName, &DomainUsage)> {
        self.map.iter()
    }

    /// Number of observed domains (the paper's "524 domains" input).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The modal SLD among domains contacted *exclusively* by classes of
    /// one hierarchy family — used to tell Primary from Support (§4.1):
    /// Support domains sit on a third party's SLD.
    pub fn majority_sld_for(&self, family: &BTreeSet<&'static str>) -> Option<DomainName> {
        let mut histogram: HashMap<DomainName, usize> = HashMap::new();
        for (name, usage) in &self.map {
            if !usage.classes.is_empty() && usage.classes.iter().all(|c| family.contains(c)) {
                *histogram.entry(name.sld()).or_default() += 1;
            }
        }
        histogram
            .into_iter()
            .max_by_key(|(sld, n)| (*n, std::cmp::Reverse(sld.as_str().to_string())))
            .map(|(sld, _)| sld)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_net::{DayBin, StudyWindow};
    use haystack_testbed::catalog::data::standard_catalog;
    use haystack_testbed::materialize::materialize;

    fn observations() -> (ExperimentDriver, DomainObservations) {
        let driver = ExperimentDriver::new(standard_catalog(), 42);
        let world = materialize(driver.catalog());
        let mut obs = DomainObservations::new();
        // A slice of the idle window is enough for structure tests.
        for h in DayBin(8).hours().take(6) {
            let pkts = driver.generate_hour(&world, h);
            obs.ingest_hour(&driver, &pkts);
        }
        (driver, obs)
    }

    #[test]
    fn observes_most_of_the_domain_universe() {
        let (_driver, obs) = observations();
        assert!(obs.len() > 200, "observed {} domains", obs.len());
    }

    #[test]
    fn avs_domain_is_contacted_by_the_whole_alexa_family() {
        let (_d, obs) = observations();
        let avs = DomainName::parse("avs-alexa.amazon-iot.com").unwrap();
        let u = obs.get(&avs).expect("AVS observed");
        assert!(u.classes.contains("Amazon Product"));
        assert!(u.classes.contains("Fire TV"));
        assert!(u.uses_https());
        assert!(!u.seed_ips.is_empty());
    }

    #[test]
    fn ntp_domain_is_contacted_by_many_classes() {
        let (_d, obs) = observations();
        let multi = obs
            .domains()
            .filter(|(n, u)| n.as_str().starts_with("ntp") && u.classes.len() >= 3)
            .count();
        assert!(multi >= 1, "NTP pool domains span classes");
    }

    #[test]
    fn majority_sld_identifies_manufacturer_domain() {
        let (_d, obs) = observations();
        let family: BTreeSet<&'static str> = ["Samsung IoT", "Samsung TV"].into_iter().collect();
        let sld = obs.majority_sld_for(&family).unwrap();
        assert_eq!(sld.as_str(), "samsung-iot.com");
    }

    #[test]
    fn active_hours_track_persistence() {
        let (_d, obs) = observations();
        let avs = DomainName::parse("avs-alexa.amazon-iot.com").unwrap();
        assert!(
            obs.get(&avs).unwrap().active_hours >= 5,
            "hot domain seen almost every hour"
        );
        let _ = StudyWindow::IDLE_GT; // silence unused import in some cfgs
    }
}
