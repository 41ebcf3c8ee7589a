//! The device catalog: types and the full standard instantiation.
//!
//! The catalog encodes three layers of the paper's ground truth:
//!
//! 1. **Products** (Table 1): name, category, manufacturer, which testbeds
//!    hold an instance, whether only idle experiments were possible, and
//!    the product's market standing (Figure 14's rank bands) plus wild
//!    deployment penetration used by the population model.
//! 2. **Detection classes** (Figure 10's rows): the unit at which rules
//!    are generated — platform, manufacturer, or product level — arranged
//!    in the §4.3.2 hierarchies (Alexa Enabled ⊃ Amazon Product ⊃ Fire TV;
//!    Samsung IoT ⊃ Samsung TV). Excluded classes carry their §4.2.3
//!    reason instead of rules.
//! 3. **Domains** per class: synthetic FQDNs with per-domain traffic
//!    profiles (Figure 8's laconic vs gossiping split), hosting shape
//!    (dedicated / cloud VM / CDN — Figure 1's patterns A, B, C), service
//!    port, and the DNSDB-coverage / HTTPS flags that drive the §4.2.2
//!    Censys fallback.
//!
//! Domain names are synthetic (`d3.blink-iot.com` style) because the paper
//! anonymizes its domain list ("amazon domain23"); the *structure* — how
//! many domains, their rates, their hosting — is what the methodology
//! consumes, and that follows the paper's reported counts.

use haystack_dns::{DomainName, NameError};
use haystack_net::ports::Proto;

/// Table 1's device categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Cameras, doorbells.
    Surveillance,
    /// Smart hubs.
    SmartHubs,
    /// Plugs, bulbs, thermostats, sensors.
    HomeAutomation,
    /// TVs and streaming devices.
    Video,
    /// Smart speakers.
    Audio,
    /// Kitchen and white goods.
    Appliances,
}

impl Category {
    /// Label as printed in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Category::Surveillance => "Surveillance",
            Category::SmartHubs => "Smart Hubs",
            Category::HomeAutomation => "Home Automation",
            Category::Video => "Video",
            Category::Audio => "Audio",
            Category::Appliances => "Appliances",
        }
    }
}

/// §4.3's three rule granularities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DetectionLevel {
    /// Off-the-shelf platform shared by several manufacturers (Tuya-like).
    Platform,
    /// A manufacturer's shared backend.
    Manufacturer,
    /// A specific product distinguishable by extra domains.
    Product,
}

impl DetectionLevel {
    /// Figure-10-style suffix: `(Pl.)`, `(Man.)`, `(Pr.)`.
    pub fn suffix(self) -> &'static str {
        match self {
            DetectionLevel::Platform => "(Pl.)",
            DetectionLevel::Manufacturer => "(Man.)",
            DetectionLevel::Product => "(Pr.)",
        }
    }
}

/// Why a class was excluded from rule generation (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExclusionReason {
    /// All (or almost all) domains on shared infrastructure: Google Home &
    /// Mini, Apple TV, Lefun camera.
    SharedInfrastructure,
    /// Not enough identifiable domains: LG TV (1 of 4), WeMo Plug, Wink 2.
    InsufficientInfo,
}

/// Figure 1's hosting shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostingKind {
    /// Operator-run dedicated servers: a private pool with rotation.
    Dedicated {
        /// Pool size.
        pool: u32,
        /// Live addresses per rotation epoch.
        active: usize,
        /// Rotation period in seconds (0 = stable).
        period_secs: u64,
    },
    /// Tenant-exclusive cloud VM (single stable IP).
    CloudVm,
    /// CDN-fronted (shared edge IPs) — undetectable at the IP level.
    Cdn,
}

impl HostingKind {
    /// A typical dedicated pool.
    pub const DEDICATED_DEFAULT: HostingKind = HostingKind::Dedicated {
        pool: 10,
        active: 6,
        period_secs: 6 * 3_600,
    };
    /// A large anycast-ish dedicated pool for very hot services.
    pub const DEDICATED_LARGE: HostingKind = HostingKind::Dedicated {
        pool: 24,
        active: 8,
        period_secs: 3_600,
    };

    /// Whether service IPs are exclusive to the domain's SLD.
    pub fn is_dedicated(self) -> bool {
        !matches!(self, HostingKind::Cdn)
    }
}

/// The role a domain plays for its IoT service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainRole {
    /// A Primary domain contacted continuously (keep-alives, heartbeats)
    /// — the backbone of idle-mode detection.
    Primary,
    /// A Primary domain contacted only (or overwhelmingly) during active
    /// use — the §7.1 usage-detection signal.
    ActiveOnly,
    /// A Support domain (§4.1): complementary service registered to a
    /// third party (the `samsung-*.whisk.com` example).
    Support,
}

/// One backend domain of a detection class.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Synthetic FQDN.
    pub name: DomainName,
    /// Role (primary / active-only / support).
    pub role: DomainRole,
    /// Hosting shape.
    pub hosting: HostingKind,
    /// Server port the device dials.
    pub port: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// Mean packets/hour from one device instance when idle.
    pub idle_pph: f64,
    /// Additional mean packets per *interaction* during active
    /// experiments (a 2-minute burst).
    pub active_burst: f64,
    /// Mean bytes per packet.
    pub bytes_per_pkt: u32,
    /// DNSDB coverage gap (§4.2.2: the 15 no-record domains).
    pub dnsdb_blind: bool,
    /// Whether the device speaks HTTPS to this domain (prerequisite for
    /// the Censys fallback).
    pub https: bool,
}

impl DomainSpec {
    /// Mean packets/hour in an hour containing `interactions` automated
    /// interactions.
    pub fn rate_with_interactions(&self, interactions: u32) -> f64 {
        let base = match self.role {
            DomainRole::ActiveOnly => {
                if interactions == 0 {
                    self.idle_pph * 0.02 // residual chatter
                } else {
                    self.idle_pph
                }
            }
            _ => self.idle_pph,
        };
        base + f64::from(interactions) * self.active_burst
    }
}

/// One detection class — a Figure 10 row (or an excluded device group).
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Class name as printed in Figure 10 (minus the level suffix).
    pub name: &'static str,
    /// Rule granularity.
    pub level: DetectionLevel,
    /// Hierarchy parent (class name), e.g. `Fire TV` → `Amazon Product`.
    pub parent: Option<&'static str>,
    /// The class's *own* domains (the effective set of a product also
    /// includes every ancestor's domains).
    pub domains: Vec<DomainSpec>,
    /// §4.2.3 exclusion, if any.
    pub excluded: Option<ExclusionReason>,
}

impl ClassSpec {
    /// Number of dedicated (monitorable) primary domains — what Figure
    /// 10's "#domains" column counts.
    pub fn monitored_domain_count(&self) -> usize {
        self.domains
            .iter()
            .filter(|d| d.role != DomainRole::Support && d.hosting.is_dedicated())
            .count()
    }
}

/// Which physical testbed holds an instance (§2.2: one in Europe, one in
/// the US).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestbedId {
    /// The European testbed (testbed 1 in Figure 3).
    Eu,
    /// The US testbed (testbed 2 in Figure 3).
    Us,
}

/// Figure 14's market-rank bands in the ISP's country.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MarketRank {
    /// Amazon rank ≤ 10.
    Top10,
    /// ≤ 100.
    Top100,
    /// ≤ 200.
    Top200,
    /// ≤ 500.
    Top500,
    /// ≤ 2 000.
    Top2k,
    /// ≤ 10 000.
    Top10k,
    /// Not sold in the ISP's country.
    NoMarket,
    /// No ranking available.
    Other,
}

impl MarketRank {
    /// Figure-14 label.
    pub fn label(self) -> &'static str {
        match self {
            MarketRank::Top10 => "Top 10",
            MarketRank::Top100 => "Top 100",
            MarketRank::Top200 => "Top 200",
            MarketRank::Top500 => "Top 500",
            MarketRank::Top2k => "Top 2k",
            MarketRank::Top10k => "10k",
            MarketRank::NoMarket => "No Market",
            MarketRank::Other => "Other",
        }
    }
}

/// One Table-1 product.
#[derive(Debug, Clone)]
pub struct ProductSpec {
    /// Product name as in Table 1.
    pub name: &'static str,
    /// Manufacturer (the unit of the "31 of 40 manufacturers" claim).
    pub manufacturer: &'static str,
    /// Table-1 category.
    pub category: Category,
    /// Detection class this product maps to.
    pub class: &'static str,
    /// Testbeds holding an instance.
    pub testbeds: Vec<TestbedId>,
    /// Table 1's "(idle)" marker: interactions could not be automated.
    pub idle_only: bool,
    /// Market standing in the ISP's country (Figure 14).
    pub market_rank: MarketRank,
    /// Fraction of ISP subscriber lines owning this product (wild model).
    pub penetration: f64,
}

/// The full catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Detection classes (including excluded ones).
    pub classes: Vec<ClassSpec>,
    /// Products.
    pub products: Vec<ProductSpec>,
    /// Generic domains (§4.1) every household's devices also touch: big
    /// web properties, NTP pool, telemetry aggregators.
    pub generic_domains: Vec<DomainSpec>,
}

impl Catalog {
    /// Look up a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassSpec> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Look up a product by name.
    pub fn product(&self, name: &str) -> Option<&ProductSpec> {
        self.products.iter().find(|p| p.name == name)
    }

    /// The ancestor chain of a class, from itself up to the root.
    pub fn ancestry(&self, class: &str) -> Vec<&ClassSpec> {
        let mut out = Vec::new();
        let mut cur = self.class(class);
        while let Some(c) = cur {
            out.push(c);
            cur = c.parent.and_then(|p| self.class(p));
        }
        out
    }

    /// Every domain a product of `class` contacts: own + ancestors' +
    /// (separately) the generic set.
    pub fn effective_domains(&self, class: &str) -> Vec<&DomainSpec> {
        self.ancestry(class)
            .iter()
            .flat_map(|c| c.domains.iter())
            .collect()
    }

    /// Distinct manufacturers in the catalog.
    pub fn manufacturers(&self) -> Vec<&'static str> {
        let mut v: Vec<_> = self.products.iter().map(|p| p.manufacturer).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Manufacturers covered by at least one non-excluded class.
    pub fn detectable_manufacturers(&self) -> Vec<&'static str> {
        let mut v: Vec<_> = self
            .products
            .iter()
            .filter(|p| {
                self.ancestry(p.class)
                    .iter()
                    .any(|c| c.excluded.is_none() && c.monitored_domain_count() > 0)
            })
            .map(|p| p.manufacturer)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total device instances across both testbeds (the "96 devices").
    pub fn instance_count(&self) -> usize {
        self.products.iter().map(|p| p.testbeds.len()).sum()
    }

    /// All primary+support domains of all classes (the §4.1 IoT-specific
    /// universe).
    pub fn iot_domains(&self) -> Vec<&DomainSpec> {
        self.classes.iter().flat_map(|c| c.domains.iter()).collect()
    }
}

/// Build a synthetic FQDN for a class: `d<i>.<slug>-iot.com` with a few
/// specials handled by the data module.
pub(crate) fn class_domain(slug: &str, label: &str) -> Result<DomainName, NameError> {
    DomainName::parse(&format!("{label}.{slug}-iot.com"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::data::standard_catalog;

    #[test]
    fn catalog_headline_counts_match_paper() {
        let c = standard_catalog();
        // §2.2: 96 devices, 56 unique products, 40 vendors.
        assert_eq!(c.instance_count(), 96, "device instances");
        assert_eq!(c.products.len(), 56, "unique products");
        let manufacturers = c.manufacturers().len();
        assert!(
            (39..=41).contains(&manufacturers),
            "manufacturer count {manufacturers} should be ~40"
        );
    }

    #[test]
    fn detectable_manufacturer_share_is_about_77_percent() {
        let c = standard_catalog();
        let total = c.manufacturers().len() as f64;
        let detectable = c.detectable_manufacturers().len() as f64;
        let share = detectable / total;
        assert!(
            (0.70..=0.88).contains(&share),
            "detectable share {share:.2} (paper: 31/40 = 0.775)"
        );
    }

    #[test]
    fn hierarchies_are_wired() {
        let c = standard_catalog();
        let fire_tv = c.ancestry("Fire TV");
        let names: Vec<_> = fire_tv.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["Fire TV", "Amazon Product", "Alexa Enabled"]);
        let stv = c.ancestry("Samsung TV");
        assert_eq!(
            stv.iter().map(|c| c.name).collect::<Vec<_>>(),
            vec!["Samsung TV", "Samsung IoT"]
        );
    }

    #[test]
    fn fire_tv_contacts_many_more_domains_than_echo() {
        // §4.3.2: Fire TV contacts up to 67 domains, 34 more than Amazon
        // products (33 + the Alexa voice service domain). Counting primary
        // domains only (support domains are third-party, §4.1).
        let c = standard_catalog();
        let primary = |class: &str| {
            c.effective_domains(class)
                .iter()
                .filter(|d| d.role != DomainRole::Support)
                .count()
        };
        assert_eq!(primary("Amazon Product"), 34);
        assert_eq!(primary("Fire TV"), 68);
    }

    #[test]
    fn samsung_counts_match_section_4_3_2() {
        let c = standard_catalog();
        let primary = |class: &str| {
            c.class(class)
                .unwrap()
                .domains
                .iter()
                .filter(|d| d.role != DomainRole::Support)
                .count()
        };
        // "we monitor 14 domains in total" for Samsung IoT…
        assert_eq!(primary("Samsung IoT"), 14);
        // …and Samsung TVs contact 16 additional domains.
        assert_eq!(primary("Samsung TV"), 16);
    }

    #[test]
    fn excluded_classes_match_section_4_2_3() {
        let c = standard_catalog();
        for name in ["Google Home", "Apple TV", "Lefun Cam"] {
            assert_eq!(
                c.class(name).unwrap().excluded,
                Some(ExclusionReason::SharedInfrastructure),
                "{name}"
            );
        }
        for name in ["LG TV", "WeMo Plug", "Wink 2"] {
            assert_eq!(
                c.class(name).unwrap().excluded,
                Some(ExclusionReason::InsufficientInfo),
                "{name}"
            );
        }
    }

    #[test]
    fn domain_universe_shape_tracks_section_4() {
        let c = standard_catalog();
        let iot: Vec<_> = c.iot_domains();
        let primary = iot.iter().filter(|d| d.role != DomainRole::Support).count();
        let support = iot.iter().filter(|d| d.role == DomainRole::Support).count();
        let dedicated = iot.iter().filter(|d| d.hosting.is_dedicated()).count();
        let shared = iot.len() - dedicated;
        let blind = iot.iter().filter(|d| d.dnsdb_blind).count();
        // Paper: 415 primary + 19 support = 434 IoT-specific; 217
        // dedicated / 202 shared / 15 without DNSDB records. The synthetic
        // universe reproduces the *proportions* at roughly the same scale.
        assert!(primary >= 250, "primary domains: {primary}");
        assert!((15..=25).contains(&support), "support domains: {support}");
        let shared_frac = shared as f64 / iot.len() as f64;
        assert!(
            (0.35..=0.60).contains(&shared_frac),
            "shared fraction {shared_frac:.2}"
        );
        assert_eq!(blind, 15, "DNSDB-blind domains");
        // Generic domains exist and are plentiful (paper: ~90).
        assert!(c.generic_domains.len() >= 60);
    }

    #[test]
    fn every_product_maps_to_a_class() {
        let c = standard_catalog();
        for p in &c.products {
            assert!(
                c.class(p.class).is_some(),
                "product {} → missing class {}",
                p.name,
                p.class
            );
            assert!(!p.testbeds.is_empty(), "product {} in no testbed", p.name);
        }
    }

    #[test]
    fn idle_only_products_match_table_1() {
        let c = standard_catalog();
        let idle_only: Vec<_> = c
            .products
            .iter()
            .filter(|p| p.idle_only)
            .map(|p| p.name)
            .collect();
        assert!(idle_only.contains(&"Samsung Dryer"));
        assert!(idle_only.contains(&"Samsung Fridge"));
    }

    #[test]
    fn active_only_domains_rate_model() {
        let spec = DomainSpec {
            name: DomainName::parse("x.deva-iot.com").unwrap(),
            role: DomainRole::ActiveOnly,
            hosting: HostingKind::DEDICATED_DEFAULT,
            port: 443,
            proto: Proto::Tcp,
            idle_pph: 100.0,
            active_burst: 500.0,
            bytes_per_pkt: 400,
            dnsdb_blind: false,
            https: true,
        };
        assert!(spec.rate_with_interactions(0) < 5.0);
        assert!(spec.rate_with_interactions(2) > 1000.0);
    }
}

pub mod data;
