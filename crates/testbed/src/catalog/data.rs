//! The standard catalog: every Table-1 product, every Figure-10 detection
//! class, and the full synthetic domain universe.
//!
//! Structure-defining counts are taken from the paper:
//!
//! * 56 unique products, 96 instances, ~40 manufacturers (§2.2);
//! * Figure 10's per-class monitored-domain counts (1 / 2 / 3 / 4 / 5+),
//!   with exactly 20 manufacturer-level and 11 product-level rule classes;
//! * the §4.3.2 hierarchies: Alexa Enabled ⊃ Amazon Product (33 extra
//!   domains) ⊃ Fire TV (34 more); Samsung IoT (14 domains) ⊃ Samsung TV
//!   (16 more);
//! * §4.2.3 exclusions: Google Home/Mini, Apple TV, Lefun (shared
//!   infrastructure); LG TV, WeMo, Wink (insufficient information);
//! * 15 DNSDB-blind domains of which 8 (on 5 devices) are recoverable via
//!   the Censys fallback (§4.2.2);
//! * ≈19 Support domains and a rich Generic set (§4.1).
//!
//! Traffic rates are calibration inputs for Figures 8/9/10; see
//! EXPERIMENTS.md for how the resulting curves compare to the paper.

use super::{
    class_domain, Catalog, Category, ClassSpec, DetectionLevel, DomainRole, DomainSpec,
    ExclusionReason, HostingKind, MarketRank, ProductSpec, TestbedId,
};
use haystack_dns::DomainName;
use haystack_net::ports::Proto;

/// Compact class description expanded into a [`ClassSpec`].
struct Row {
    name: &'static str,
    level: DetectionLevel,
    parent: Option<&'static str>,
    /// DNS slug; classes in one hierarchy share a slug (same SLD).
    slug: &'static str,
    /// First domain index (hierarchy classes offset into the shared SLD).
    label_offset: usize,
    /// Dedicated (monitorable) primary domains — Figure 10's count.
    ded: usize,
    /// CDN-hosted (shared) primary domains.
    shr: usize,
    /// Support domains (third-party SLDs, §4.1).
    sup: usize,
    /// How many of the dedicated domains are only used actively (§7.1).
    active_only: usize,
    /// Base idle packets/hour per instance for this class's domains.
    base_pph: f64,
    /// Rate override for domain 0 (the "critical" domain, e.g. the Alexa
    /// voice service endpoint).
    critical_pph: Option<f64>,
    /// Mean extra packets per automated interaction (2-minute burst).
    burst: f64,
    /// Among dedicated domains: DNSDB-blind but HTTPS (Censys-recoverable).
    blind_recoverable: usize,
    /// Among all domains: DNSDB-blind and not HTTPS (unrecoverable).
    blind_unrecoverable: usize,
    excluded: Option<ExclusionReason>,
}

impl Row {
    #[allow(clippy::too_many_arguments)]
    fn rule(
        name: &'static str,
        level: DetectionLevel,
        slug: &'static str,
        ded: usize,
        shr: usize,
        base_pph: f64,
        burst: f64,
    ) -> Row {
        Row {
            name,
            level,
            parent: None,
            slug,
            label_offset: 0,
            ded,
            shr,
            sup: 0,
            active_only: 0,
            base_pph,
            critical_pph: None,
            burst,
            blind_recoverable: 0,
            blind_unrecoverable: 0,
            excluded: None,
        }
    }

    fn parent(mut self, p: &'static str) -> Row {
        self.parent = Some(p);
        self
    }

    fn offset(mut self, o: usize) -> Row {
        self.label_offset = o;
        self
    }

    fn support(mut self, n: usize) -> Row {
        self.sup = n;
        self
    }

    fn active_only(mut self, n: usize) -> Row {
        self.active_only = n;
        self
    }

    fn critical(mut self, pph: f64) -> Row {
        self.critical_pph = Some(pph);
        self
    }

    fn blind(mut self, recoverable: usize, unrecoverable: usize) -> Row {
        self.blind_recoverable = recoverable;
        self.blind_unrecoverable = unrecoverable;
        self
    }

    fn excluded(mut self, r: ExclusionReason) -> Row {
        self.excluded = Some(r);
        self
    }
}

/// Log-spread a base rate across a class's domains (domain 0 hottest),
/// spanning roughly 4× down to 0.25× of `base` — the within-device spread
/// visible in Figure 8.
fn spread(base: f64, i: usize, n: usize) -> f64 {
    if n <= 1 {
        return base;
    }
    let t = i as f64 / (n - 1) as f64; // 0 → hottest, 1 → coldest
    base * 4.0_f64.powf(1.0 - 2.0 * t)
}

/// Service-port cycle for dedicated domains: mostly HTTPS with the odd
/// MQTT-over-TLS / push-service port, as the testbeds observed.
const PORT_CYCLE: [(u16, Proto); 5] = [
    (443, Proto::Tcp),
    (443, Proto::Tcp),
    (8883, Proto::Tcp),
    (443, Proto::Tcp),
    (5223, Proto::Tcp),
];

fn expand(row: &Row) -> ClassSpec {
    let mut domains = Vec::with_capacity(row.ded + row.shr + row.sup);
    let mut blind_rec = row.blind_recoverable;
    let mut blind_unrec = row.blind_unrecoverable;
    for i in 0..row.ded {
        let label = if row.name == "Alexa Enabled" && i == 0 {
            "avs-alexa".to_string()
        } else {
            format!("d{}", row.label_offset + i)
        };
        let name = class_domain(row.slug, &label).expect("valid generated domain");
        let (port, proto) = PORT_CYCLE[i % PORT_CYCLE.len()];
        let role = if i >= row.ded - row.active_only {
            DomainRole::ActiveOnly
        } else {
            DomainRole::Primary
        };
        let pph = if i == 0 {
            row.critical_pph
                .unwrap_or_else(|| spread(row.base_pph, 0, row.ded))
        } else {
            spread(row.base_pph, i, row.ded)
        };
        // Every third dedicated domain sits on a rented cloud VM instead
        // of operator-run servers (both are "dedicated" per §4.2.1).
        let hosting = if i % 3 == 2 {
            HostingKind::CloudVm
        } else if i == 0 && pph > 500.0 {
            HostingKind::DEDICATED_LARGE
        } else {
            HostingKind::DEDICATED_DEFAULT
        };
        let (dnsdb_blind, https, port) = if blind_rec > 0 {
            blind_rec -= 1;
            (true, true, 443)
        } else if blind_unrec > 0 {
            // Unrecoverable coverage gaps speak plain MQTT: without TLS
            // the §4.2.2 certificate fallback has nothing to match.
            blind_unrec -= 1;
            (true, false, 1883)
        } else {
            (false, port == 443 || port == 8443, port)
        };
        // Interactions exercise the device's *interactive* endpoints: the
        // active-only domains and the hottest one or two primaries — not
        // the whole backend (keeps §3's active-mode IP visibility near
        // the paper's 16 %).
        let burst = if role == DomainRole::ActiveOnly || i <= 1 {
            row.burst
        } else {
            row.burst * 0.1
        };
        domains.push(DomainSpec {
            name,
            role,
            hosting,
            port,
            proto,
            idle_pph: pph,
            active_burst: burst,
            bytes_per_pkt: 150 + ((row.label_offset + i) as u32 * 83) % 700,
            dnsdb_blind,
            https,
        });
    }
    for i in 0..row.shr {
        let label = format!("s{}", row.label_offset + i);
        let name = class_domain(row.slug, &label).expect("valid generated domain");
        let (dnsdb_blind, _) = if blind_unrec > 0 {
            blind_unrec -= 1;
            (true, false)
        } else {
            (false, true)
        };
        domains.push(DomainSpec {
            name,
            role: DomainRole::Primary,
            hosting: HostingKind::Cdn,
            port: 443,
            proto: Proto::Tcp,
            idle_pph: spread(row.base_pph * 0.6, i, row.shr.max(1)),
            active_burst: row.burst * 0.5,
            bytes_per_pkt: 300 + (i as u32 * 47) % 500,
            dnsdb_blind,
            https: true,
        });
    }
    for i in 0..row.sup {
        let name = DomainName::parse(&format!(
            "{}{}.svc-partner{}.com",
            row.slug.replace('.', "-"),
            i,
            i % 4
        ))
        .expect("valid support domain");
        domains.push(DomainSpec {
            name,
            role: DomainRole::Support,
            hosting: HostingKind::Cdn,
            port: 443,
            proto: Proto::Tcp,
            idle_pph: row.base_pph * 0.1,
            active_burst: row.burst * 0.3,
            bytes_per_pkt: 500,
            dnsdb_blind: false,
            https: true,
        });
    }
    ClassSpec {
        name: row.name,
        level: row.level,
        parent: row.parent,
        domains,
        excluded: row.excluded,
    }
}

fn classes() -> Vec<ClassSpec> {
    use DetectionLevel::{Manufacturer as Man, Platform as Pl, Product as Pr};
    use ExclusionReason::{InsufficientInfo, SharedInfrastructure};
    let rows = vec![
        // ---- 1 monitored domain (Figure 10, "1 Domain" panel) ----
        // The AVS endpoint: hot even when idle; a voice interaction
        // streams audio — thousands of packets in a two-minute burst
        // (drives §7.1's 10-sampled-packets usage threshold).
        Row::rule("Alexa Enabled", Pl, "amazon", 1, 0, 600.0, 4000.0).critical(600.0),
        Row::rule("Anova Sousvide", Pr, "anova", 1, 1, 120.0, 300.0),
        Row::rule("iKettle", Pl, "smarter-ikettle", 1, 1, 140.0, 400.0),
        Row::rule("Insteon Hub", Pr, "insteon", 1, 1, 200.0, 350.0),
        Row::rule("Magichome Stripe", Pr, "magichome", 1, 1, 6.0, 600.0),
        Row::rule("Meross Dooropener", Man, "meross", 1, 1, 150.0, 300.0),
        Row::rule("Microseven Cam.", Pr, "microseven", 1, 1, 320.0, 500.0),
        Row::rule("Netatmo Weather St.", Man, "netatmo", 1, 1, 180.0, 200.0).blind(1, 0),
        Row::rule("Smarter Coffee", Pl, "smarter-coffee", 1, 1, 9.0, 600.0),
        // ---- 2 monitored domains ----
        Row::rule("AppKettle", Pr, "appkettle", 2, 1, 7.0, 600.0),
        Row::rule("Blink Hub & Cam.", Man, "blink", 2, 2, 260.0, 800.0).active_only(1),
        Row::rule("Flux Bulb", Pl, "flux", 2, 1, 7.0, 500.0),
        Row::rule("GE Microwave", Man, "ge-appliance", 2, 1, 8.0, 400.0).support(1),
        Row::rule("Icsee Doorbell", Pr, "icsee", 2, 1, 140.0, 600.0),
        Row::rule("Lightify Hub", Pl, "lightify", 2, 1, 160.0, 300.0),
        Row::rule("Luohe Cam.", Pr, "luohe", 2, 1, 230.0, 500.0),
        Row::rule("Reolink Cam.", Pr, "reolink", 2, 2, 300.0, 900.0).blind(1, 0),
        Row::rule("Sengled Dev.", Man, "sengled", 2, 1, 120.0, 250.0),
        Row::rule("Smartthings Dev.", Man, "smartthings", 2, 2, 350.0, 600.0).support(2),
        Row::rule("Wansview Cam.", Man, "wansview", 2, 1, 260.0, 700.0),
        // ---- 3 monitored domains ----
        Row::rule("Honeywell T-stat", Man, "honeywell", 3, 2, 130.0, 250.0).support(1),
        Row::rule("Xiaomi Dev.", Man, "xiaomi", 3, 3, 220.0, 500.0).support(2),
        // ---- 4 monitored domains ----
        Row::rule("Nest Device", Man, "nest", 4, 3, 60.0, 200.0)
            .support(1)
            .active_only(1),
        Row::rule("Ring Doorbell", Man, "ring", 4, 3, 240.0, 900.0)
            .support(1)
            .active_only(1)
            .blind(2, 0),
        Row::rule("Smartlife", Pl, "smartlife", 4, 2, 70.0, 220.0),
        Row::rule("Ubell Doorbell", Man, "ubell", 4, 2, 150.0, 500.0),
        Row::rule("Yi Camera", Man, "yi", 4, 3, 280.0, 800.0)
            .active_only(1)
            .blind(2, 0),
        // ---- 5+ monitored domains ----
        Row::rule("Amazon Product", Man, "amazon", 20, 13, 110.0, 600.0)
            .parent("Alexa Enabled")
            .offset(1)
            .support(3)
            .active_only(3),
        Row::rule("Amcrest Cam.", Man, "amcrest", 6, 3, 270.0, 700.0).blind(2, 0),
        Row::rule("Dlink Motion Sens.", Man, "dlink", 5, 3, 100.0, 300.0),
        Row::rule("Fire TV", Pr, "amazon", 21, 13, 160.0, 900.0)
            .parent("Amazon Product")
            .offset(40)
            .active_only(4),
        Row::rule("Philips Dev.", Man, "philips", 4, 3, 310.0, 500.0).support(2),
        Row::rule("Roku TV", Pr, "roku", 8, 4, 290.0, 800.0)
            .support(2)
            .active_only(2),
        // §4.3.2/§6.2: 14 domains monitored but few matter — the OTN-like
        // update endpoint dominates, contacted infrequently; evening TV
        // usage lights up the top two, which is what gives Samsung its
        // modest hourly detectability and the ~×6 day/hour gain.
        Row::rule("Samsung IoT", Man, "samsung", 5, 9, 28.0, 1200.0)
            .critical(130.0)
            .support(2),
        Row::rule("Samsung TV", Pr, "samsung", 10, 6, 70.0, 700.0)
            .parent("Samsung IoT")
            .offset(20)
            .active_only(3),
        Row::rule("TP-link Dev.", Man, "tplink", 6, 3, 35.0, 120.0)
            .support(2)
            .active_only(1),
        Row::rule("ZModo Doorbell", Man, "zmodo", 5, 2, 170.0, 600.0),
        // ---- §4.2.3 exclusions: shared backend infrastructure ----
        Row::rule("Google Home", Man, "google-home", 0, 10, 500.0, 900.0)
            .blind(0, 2)
            .excluded(SharedInfrastructure),
        Row::rule("Apple TV", Man, "apple-tv", 0, 11, 700.0, 1200.0)
            .blind(0, 1)
            .excluded(SharedInfrastructure),
        Row::rule("Lefun Cam", Man, "lefun", 0, 2, 260.0, 500.0).excluded(SharedInfrastructure),
        // ---- §4.2.3 exclusions: insufficient information ----
        Row::rule("LG TV", Man, "lg-tv", 1, 3, 280.0, 700.0).excluded(InsufficientInfo),
        Row::rule("WeMo Plug", Man, "wemo", 2, 0, 40.0, 150.0)
            .blind(0, 2)
            .excluded(InsufficientInfo),
        Row::rule("Wink 2", Man, "wink", 2, 0, 60.0, 180.0)
            .blind(0, 2)
            .excluded(InsufficientInfo),
    ];
    rows.iter().map(expand).collect()
}

/// Generic (non-IoT) domains: NTP pool, big web properties, telemetry.
/// These never become rules (§4.1 filters them) but generate the traffic
/// the domain classifier must reject, and the NTP entries feed Figure
/// 5(c)'s port breakdown.
fn generic_domains() -> Vec<DomainSpec> {
    let mut v = Vec::new();
    for i in 0..6 {
        v.push(DomainSpec {
            name: DomainName::parse(&format!("ntp{i}.pool-time.org")).unwrap(),
            role: DomainRole::Primary,
            hosting: HostingKind::Dedicated {
                pool: 4,
                active: 2,
                period_secs: 12 * 3_600,
            },
            port: 123,
            proto: Proto::Udp,
            idle_pph: 14.0,
            active_burst: 10.0,
            bytes_per_pkt: 76,
            dnsdb_blind: false,
            https: false,
        });
    }
    // Streaming/content properties (heavy for TVs).
    for i in 0..12 {
        v.push(DomainSpec {
            name: DomainName::parse(&format!("cdn{i}.videostream.tv")).unwrap(),
            role: DomainRole::Primary,
            hosting: HostingKind::Cdn,
            port: 443,
            proto: Proto::Tcp,
            idle_pph: 400.0 + 300.0 * f64::from(i % 4),
            active_burst: 3_000.0,
            bytes_per_pkt: 1_200,
            dnsdb_blind: false,
            https: true,
        });
    }
    // General web / telemetry / ads / time services.
    for i in 0..62 {
        let sld = match i % 5 {
            0 => "webmail-portal.com",
            1 => "global-search.com",
            2 => "ad-metrics.net",
            3 => "oswald-updates.com",
            _ => "wiki-knowledge.org",
        };
        v.push(DomainSpec {
            name: DomainName::parse(&format!("g{i}.{sld}")).unwrap(),
            role: DomainRole::Primary,
            hosting: if i % 2 == 0 {
                HostingKind::Cdn
            } else {
                HostingKind::Dedicated {
                    pool: 6,
                    active: 3,
                    period_secs: 6 * 3_600,
                }
            },
            port: if i % 7 == 3 { 80 } else { 443 },
            proto: Proto::Tcp,
            idle_pph: 20.0 + f64::from(i % 9) * 30.0,
            active_burst: 200.0,
            bytes_per_pkt: 200 + (i as u32 * 59) % 800,
            dnsdb_blind: false,
            https: true,
        });
    }
    v
}

fn products() -> Vec<ProductSpec> {
    use Category::*;
    use MarketRank::*;
    use TestbedId::{Eu, Us};
    let both = || vec![Eu, Us];
    let eu = || vec![Eu];
    let us = || vec![Us];
    let p = |name: &'static str,
             manufacturer: &'static str,
             category: Category,
             class: &'static str,
             testbeds: Vec<TestbedId>,
             idle_only: bool,
             market_rank: MarketRank,
             penetration: f64| ProductSpec {
        name,
        manufacturer,
        category,
        class,
        testbeds,
        idle_only,
        market_rank,
        penetration,
    };
    vec![
        // ---- Surveillance (13) ----
        p(
            "Amcrest Cam",
            "Amcrest",
            Surveillance,
            "Amcrest Cam.",
            both(),
            false,
            Top2k,
            0.0012,
        ),
        p(
            "Blink Cam",
            "Blink",
            Surveillance,
            "Blink Hub & Cam.",
            both(),
            false,
            Top500,
            0.0030,
        ),
        p(
            "Blink Hub",
            "Blink",
            Surveillance,
            "Blink Hub & Cam.",
            both(),
            false,
            Top500,
            0.0030,
        ),
        p(
            "Icsee Doorbell",
            "Icsee",
            Surveillance,
            "Icsee Doorbell",
            us(),
            false,
            Top10k,
            0.0006,
        ),
        p(
            "Lefun Cam",
            "Lefun",
            Surveillance,
            "Lefun Cam",
            both(),
            false,
            Top10k,
            0.0004,
        ),
        p(
            "Luohe Cam",
            "Luohe",
            Surveillance,
            "Luohe Cam.",
            us(),
            false,
            NoMarket,
            0.00008,
        ),
        p(
            "Microseven Cam",
            "Microseven",
            Surveillance,
            "Microseven Cam.",
            us(),
            false,
            NoMarket,
            0.00004,
        ),
        p(
            "Reolink Cam",
            "Reolink",
            Surveillance,
            "Reolink Cam.",
            both(),
            false,
            Top500,
            0.0016,
        ),
        p(
            "Ring Doorbell",
            "Ring",
            Surveillance,
            "Ring Doorbell",
            both(),
            false,
            Top100,
            0.0056,
        ),
        p(
            "Ubell Doorbell",
            "Ubell",
            Surveillance,
            "Ubell Doorbell",
            eu(),
            false,
            Top10k,
            0.0005,
        ),
        p(
            "Wansview Cam",
            "Wansview",
            Surveillance,
            "Wansview Cam.",
            both(),
            false,
            Top200,
            0.0022,
        ),
        p(
            "Yi Cam",
            "Yi",
            Surveillance,
            "Yi Camera",
            both(),
            false,
            Top500,
            0.0020,
        ),
        p(
            "ZModo Doorbell",
            "ZModo",
            Surveillance,
            "ZModo Doorbell",
            both(),
            false,
            Top2k,
            0.0008,
        ),
        // ---- Smart Hubs (8) ----
        p(
            "Insteon",
            "Insteon",
            SmartHubs,
            "Insteon Hub",
            both(),
            false,
            Top2k,
            0.0006,
        ),
        p(
            "Lightify",
            "Osram",
            SmartHubs,
            "Lightify Hub",
            both(),
            false,
            Top2k,
            0.0014,
        ),
        p(
            "Philips Hue",
            "Philips",
            SmartHubs,
            "Philips Dev.",
            both(),
            false,
            Top10,
            0.0080,
        ),
        p(
            "Sengled",
            "Sengled",
            SmartHubs,
            "Sengled Dev.",
            both(),
            false,
            Top2k,
            0.0010,
        ),
        p(
            "Smartthings",
            "SmartThings",
            SmartHubs,
            "Smartthings Dev.",
            both(),
            false,
            Top200,
            0.0032,
        ),
        p(
            "SwitchBot",
            "SwitchBot",
            SmartHubs,
            "Smartlife",
            eu(),
            false,
            Top2k,
            0.0008,
        ),
        p(
            "Wink 2",
            "Wink",
            SmartHubs,
            "Wink 2",
            us(),
            false,
            Top10k,
            0.0003,
        ),
        p(
            "Xiaomi Home",
            "Xiaomi",
            SmartHubs,
            "Xiaomi Dev.",
            both(),
            false,
            Top500,
            0.0036,
        ),
        // ---- Home Automation (14) ----
        p(
            "D-Link Mov Sensor",
            "D-Link",
            HomeAutomation,
            "Dlink Motion Sens.",
            both(),
            false,
            Top2k,
            0.0015,
        ),
        p(
            "Flux Bulb",
            "Flux",
            HomeAutomation,
            "Flux Bulb",
            both(),
            false,
            Top2k,
            0.0009,
        ),
        p(
            "Honeywell T-stat",
            "Honeywell",
            HomeAutomation,
            "Honeywell T-stat",
            both(),
            false,
            Top500,
            0.0020,
        ),
        p(
            "Magichome Strip",
            "Magichome",
            HomeAutomation,
            "Magichome Stripe",
            both(),
            false,
            Top2k,
            0.0011,
        ),
        p(
            "Meross Door Opener",
            "Meross",
            HomeAutomation,
            "Meross Dooropener",
            both(),
            false,
            Top100,
            0.0025,
        ),
        p(
            "Nest T-stat",
            "Nest",
            HomeAutomation,
            "Nest Device",
            both(),
            false,
            Top200,
            0.0042,
        ),
        p(
            "Philips Bulb",
            "Philips",
            HomeAutomation,
            "Philips Dev.",
            both(),
            false,
            Top10,
            0.0042,
        ),
        p(
            "Smartlife Bulb",
            "Tuya",
            HomeAutomation,
            "Smartlife",
            both(),
            false,
            Top500,
            0.0040,
        ),
        p(
            "Smartlife Remote",
            "Tuya",
            HomeAutomation,
            "Smartlife",
            eu(),
            false,
            Top2k,
            0.0010,
        ),
        p(
            "TP-Link Bulb",
            "TP-Link",
            HomeAutomation,
            "TP-link Dev.",
            both(),
            false,
            Top100,
            0.0036,
        ),
        p(
            "TP-Link Plug",
            "TP-Link",
            HomeAutomation,
            "TP-link Dev.",
            both(),
            false,
            Top100,
            0.0042,
        ),
        p(
            "WeMo Plug",
            "Belkin",
            HomeAutomation,
            "WeMo Plug",
            both(),
            false,
            Top500,
            0.0020,
        ),
        p(
            "Xiaomi Strip",
            "Xiaomi",
            HomeAutomation,
            "Xiaomi Dev.",
            both(),
            false,
            Top2k,
            0.0012,
        ),
        p(
            "Xiaomi Plug",
            "Xiaomi",
            HomeAutomation,
            "Xiaomi Dev.",
            both(),
            false,
            Top2k,
            0.0014,
        ),
        // ---- Video (5) ----
        p(
            "Apple TV",
            "Apple",
            Video,
            "Apple TV",
            both(),
            false,
            Top100,
            0.0250,
        ),
        p(
            "Fire TV",
            "Amazon",
            Video,
            "Fire TV",
            both(),
            false,
            Top10,
            0.0400,
        ),
        p("LG TV", "LG", Video, "LG TV", eu(), false, Top100, 0.0300),
        p(
            "Roku TV",
            "Roku",
            Video,
            "Roku TV",
            us(),
            false,
            NoMarket,
            0.0012,
        ),
        p(
            "Samsung TV",
            "Samsung",
            Video,
            "Samsung TV",
            both(),
            false,
            Top10,
            0.0380,
        ),
        // ---- Audio (7) ----
        // Allure stands in for *all* third-party Alexa integrations in the
        // wild (fridges, alarm clocks — §4.3.1), hence the outsized
        // penetration relative to the single testbed unit.
        p(
            "Allure with Alexa",
            "Allure",
            Audio,
            "Alexa Enabled",
            eu(),
            false,
            Top10k,
            0.0220,
        ),
        p(
            "Echo Dot",
            "Amazon",
            Audio,
            "Amazon Product",
            both(),
            false,
            Top10,
            0.0720,
        ),
        p(
            "Echo Spot",
            "Amazon",
            Audio,
            "Amazon Product",
            both(),
            false,
            Top200,
            0.0100,
        ),
        p(
            "Echo Plus",
            "Amazon",
            Audio,
            "Amazon Product",
            both(),
            false,
            Top100,
            0.0250,
        ),
        p(
            "Google Home Mini",
            "Google",
            Audio,
            "Google Home",
            both(),
            false,
            Top10,
            0.0400,
        ),
        p(
            "Google Home",
            "Google",
            Audio,
            "Google Home",
            both(),
            false,
            Top100,
            0.0250,
        ),
        // ---- Appliances (9) ----
        p(
            "Anova Sousvide",
            "Anova",
            Appliances,
            "Anova Sousvide",
            both(),
            false,
            Top500,
            0.0010,
        ),
        p(
            "Appkettle",
            "AppKettle",
            Appliances,
            "AppKettle",
            eu(),
            false,
            Top10k,
            0.0004,
        ),
        p(
            "GE Microwave",
            "GE",
            Appliances,
            "GE Microwave",
            us(),
            false,
            NoMarket,
            0.0002,
        ),
        p(
            "Netatmo Weather",
            "Netatmo",
            Appliances,
            "Netatmo Weather St.",
            both(),
            false,
            Top200,
            0.0030,
        ),
        p(
            "Samsung Dryer",
            "Samsung",
            Appliances,
            "Samsung IoT",
            eu(),
            true,
            Top500,
            0.0062,
        ),
        p(
            "Samsung Fridge",
            "Samsung",
            Appliances,
            "Samsung IoT",
            eu(),
            true,
            Top500,
            0.0055,
        ),
        p(
            "Smarter Brewer",
            "Smarter",
            Appliances,
            "Smarter Coffee",
            eu(),
            false,
            Top10k,
            0.0003,
        ),
        p(
            "Smarter Coffee Machine",
            "Smarter",
            Appliances,
            "Smarter Coffee",
            both(),
            false,
            Top10k,
            0.0004,
        ),
        p(
            "Smarter iKettle",
            "Smarter",
            Appliances,
            "iKettle",
            both(),
            false,
            Top2k,
            0.0007,
        ),
        // ---- Rice cooker rounds out Xiaomi's Table-1 presence ----
        p(
            "Xiaomi Rice Cooker",
            "Xiaomi",
            Appliances,
            "Xiaomi Dev.",
            eu(),
            true,
            NoMarket,
            0.0003,
        ),
    ]
}

/// Build the standard catalog. Deterministic; no I/O.
pub fn standard_catalog() -> Catalog {
    Catalog {
        classes: classes(),
        products: products(),
        generic_domains: generic_domains(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_level_counts_match_section_4_3_2() {
        let c = standard_catalog();
        let active: Vec<_> = c.classes.iter().filter(|k| k.excluded.is_none()).collect();
        let man = active
            .iter()
            .filter(|k| k.level == DetectionLevel::Manufacturer)
            .count();
        let pr = active
            .iter()
            .filter(|k| k.level == DetectionLevel::Product)
            .count();
        let pl = active
            .iter()
            .filter(|k| k.level == DetectionLevel::Platform)
            .count();
        assert_eq!(man, 20, "manufacturer-level rules (paper: 20)");
        assert_eq!(pr, 11, "product-level rules (paper: 11)");
        assert!(
            pl >= 3,
            "at least 3 platforms (paper text: 3; figure shows more)"
        );
    }

    #[test]
    fn figure_10_monitored_domain_counts() {
        let c = standard_catalog();
        let count = |n: &str| c.class(n).unwrap().monitored_domain_count();
        assert_eq!(count("Alexa Enabled"), 1);
        assert_eq!(count("Meross Dooropener"), 1);
        assert_eq!(count("Blink Hub & Cam."), 2);
        assert_eq!(count("Honeywell T-stat"), 3);
        assert_eq!(count("Xiaomi Dev."), 3);
        assert_eq!(count("Ring Doorbell"), 4);
        assert_eq!(count("Yi Camera"), 4);
        assert!(count("Amazon Product") >= 5);
        assert!(count("Fire TV") >= 5);
        assert!(count("Samsung IoT") >= 5);
    }

    #[test]
    fn blind_budget_is_15_with_8_recoverable() {
        let c = standard_catalog();
        let all: Vec<_> = c.classes.iter().flat_map(|k| k.domains.iter()).collect();
        let blind: Vec<_> = all.iter().filter(|d| d.dnsdb_blind).collect();
        assert_eq!(blind.len(), 15, "15 domains without DNSDB records");
        let recoverable = blind
            .iter()
            .filter(|d| d.https && d.hosting.is_dedicated())
            .count();
        assert_eq!(recoverable, 8, "Censys identifies data for 8 of 15");
    }

    #[test]
    fn excluded_classes_have_no_monitorable_rule_base() {
        let c = standard_catalog();
        for name in ["Google Home", "Apple TV", "Lefun Cam"] {
            assert_eq!(c.class(name).unwrap().monitored_domain_count(), 0, "{name}");
        }
        // LG TV keeps exactly one usable domain ("we are left with only
        // one out of 4") — still excluded as insufficient.
        assert_eq!(c.class("LG TV").unwrap().monitored_domain_count(), 1);
    }

    #[test]
    fn alexa_critical_domain_is_the_avs_endpoint() {
        let c = standard_catalog();
        let avs = &c.class("Alexa Enabled").unwrap().domains[0];
        assert_eq!(avs.name.as_str(), "avs-alexa.amazon-iot.com");
        assert!(avs.idle_pph >= 500.0, "AVS endpoint is hot");
    }

    #[test]
    fn hierarchy_shares_slds() {
        let c = standard_catalog();
        let alexa_sld = c.class("Alexa Enabled").unwrap().domains[0].name.sld();
        let amazon_sld = c.class("Amazon Product").unwrap().domains[0].name.sld();
        let fire_sld = c.class("Fire TV").unwrap().domains[0].name.sld();
        assert_eq!(alexa_sld, amazon_sld);
        assert_eq!(amazon_sld, fire_sld);
    }

    #[test]
    fn no_duplicate_domains_across_classes() {
        let c = standard_catalog();
        let mut seen = std::collections::HashSet::new();
        for k in &c.classes {
            for d in &k.domains {
                assert!(seen.insert(d.name.clone()), "duplicate domain {}", d.name);
            }
        }
        for d in &c.generic_domains {
            assert!(
                seen.insert(d.name.clone()),
                "generic duplicates IoT domain {}",
                d.name
            );
        }
    }

    #[test]
    fn spread_is_monotone_and_bounded() {
        for n in [2usize, 5, 20] {
            let rates: Vec<f64> = (0..n).map(|i| spread(100.0, i, n)).collect();
            for w in rates.windows(2) {
                assert!(w[0] > w[1], "rates must decrease");
            }
            assert!((rates[0] - 400.0).abs() < 1e-9);
            assert!((rates[n - 1] - 25.0).abs() < 1e-9);
        }
    }
}
