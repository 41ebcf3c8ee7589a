//! The §2.3 experiment driver and Home-VP capture.
//!
//! Reproduces the paper's schedule:
//!
//! * **Active experiments** (Nov 15–18): automated voice / companion-app /
//!   power interactions, 9 810 in total, against every automatable
//!   instance. Testbed 1 (EU) starts a day after testbed 2 (US) — the
//!   paper notes "all devices are not active during the same period".
//! * **Idle experiments** (Nov 22–25): devices connected but untouched.
//!
//! All traffic exits through the Home-VP: a /28 of the ISP's residential
//! space hosting the two VPN tunnel endpoints (§2.1). The driver emits
//! [`GroundTruthPacket`]s — the packet plus the instance/domain identity
//! that only the testbed side knows; vantage points see just the packet.

use crate::catalog::{Catalog, Category, DomainSpec, TestbedId};
use crate::materialize::MaterializedWorld;
use crate::traffic::device_domain_hour;
use haystack_backend::AddressPlan;
use haystack_flow::Packet;
use haystack_net::{HourBin, Prefix4, StudyWindow};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Idle vs active experiment (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// Automated interactions running.
    Active,
    /// Devices connected but untouched.
    Idle,
}

/// A packet with its ground-truth attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruthPacket {
    /// The on-the-wire packet (what vantage points observe).
    pub packet: Packet,
    /// Testbed instance that produced it.
    pub instance: u32,
    /// Index into [`ExperimentDriver::domain_table`].
    pub domain_id: u32,
}

/// One physical device instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance id (0..96).
    pub id: u32,
    /// Index into the catalog's product list.
    pub product: usize,
    /// Which testbed holds it.
    pub testbed: TestbedId,
}

/// One entry of an instance's contact list.
#[derive(Debug, Clone)]
struct ContactEntry {
    domain_id: u32,
    spec: DomainSpec,
    rate_scale: f64,
    /// Whether interaction bursts apply to this domain for this instance.
    interactive: bool,
}

/// The experiment driver. Deterministic given `seed`.
#[derive(Debug)]
pub struct ExperimentDriver {
    catalog: Catalog,
    seed: u64,
    instances: Vec<Instance>,
    /// Global domain table: id ↔ name.
    domain_table: Vec<DomainSpec>,
    contacts: Vec<Vec<ContactEntry>>,
    home_vp: Prefix4,
    tunnel_ips: [Ipv4Addr; 2],
}

impl ExperimentDriver {
    /// Build the driver for a catalog.
    pub fn new(catalog: Catalog, seed: u64) -> Self {
        // The Home-VP /28 out of the residential space (§2.1).
        let home_vp = AddressPlan::subscribers()
            .subnet(28, 77)
            .expect("home-vp subnet");
        let tunnel_ips = [home_vp.nth(1), home_vp.nth(2)];

        let mut instances = Vec::new();
        for (pi, p) in catalog.products.iter().enumerate() {
            for tb in &p.testbeds {
                instances.push(Instance {
                    id: instances.len() as u32,
                    product: pi,
                    testbed: *tb,
                });
            }
        }

        // Global domain table and per-instance contact lists.
        let mut domain_table: Vec<DomainSpec> = Vec::new();
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut intern = |spec: &DomainSpec, table: &mut Vec<DomainSpec>| -> u32 {
            if let Some(&id) = index.get(spec.name.as_str()) {
                return id;
            }
            let id = table.len() as u32;
            index.insert(spec.name.as_str().to_string(), id);
            table.push(spec.clone());
            id
        };

        let mut contacts = Vec::with_capacity(instances.len());
        for inst in &instances {
            let product = &catalog.products[inst.product];
            let mut list = Vec::new();
            for spec in catalog.effective_domains(product.class) {
                list.push(ContactEntry {
                    domain_id: intern(spec, &mut domain_table),
                    spec: spec.clone(),
                    rate_scale: 1.0,
                    interactive: true,
                });
            }
            // Generic contacts: one NTP server plus a couple of web
            // domains for everyone; streaming properties for video gear.
            let g = &catalog.generic_domains;
            let h = inst.id as usize;
            let ntp_idx = h % 6;
            list.push(ContactEntry {
                domain_id: intern(&g[ntp_idx], &mut domain_table),
                spec: g[ntp_idx].clone(),
                rate_scale: 1.0,
                interactive: false,
            });
            for k in 0..2 {
                let web_idx = 18 + (h * 7 + k * 13) % 62;
                list.push(ContactEntry {
                    domain_id: intern(&g[web_idx], &mut domain_table),
                    spec: g[web_idx].clone(),
                    rate_scale: 0.4,
                    interactive: false,
                });
            }
            if product.category == Category::Video {
                for k in 0..2 {
                    let stream_idx = 6 + (h * 5 + k * 3) % 12;
                    list.push(ContactEntry {
                        domain_id: intern(&g[stream_idx], &mut domain_table),
                        spec: g[stream_idx].clone(),
                        rate_scale: 1.0,
                        interactive: true,
                    });
                }
            }
            contacts.push(list);
        }

        ExperimentDriver {
            catalog,
            seed,
            instances,
            domain_table,
            contacts,
            home_vp,
            tunnel_ips,
        }
    }

    /// The catalog driving the experiments.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// All instances (96 for the standard catalog).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The global domain table; [`GroundTruthPacket::domain_id`] indexes
    /// into it.
    pub fn domain_table(&self) -> &[DomainSpec] {
        &self.domain_table
    }

    /// The Home-VP /28.
    pub fn home_vp(&self) -> Prefix4 {
        self.home_vp
    }

    /// Which experiment (if any) covers an hour.
    pub fn kind_of_hour(hour: HourBin) -> Option<ExperimentKind> {
        if StudyWindow::ACTIVE_GT.contains(hour.start()) {
            Some(ExperimentKind::Active)
        } else if StudyWindow::IDLE_GT.contains(hour.start()) {
            Some(ExperimentKind::Idle)
        } else {
            None
        }
    }

    /// Whether the instance is live in this hour (testbed 1 / EU starts
    /// its active experiments one day late).
    fn live(&self, inst: &Instance, hour: HourBin, kind: ExperimentKind) -> bool {
        match (kind, inst.testbed) {
            (ExperimentKind::Active, TestbedId::Eu) => hour.day().0 >= 1,
            _ => true,
        }
    }

    /// Deterministic interaction count for an instance-hour (0 outside
    /// active experiments and for idle-only products). Calibrated so the
    /// catalog-wide total lands near the paper's 9 810 experiments.
    pub fn interactions(&self, instance: u32, hour: HourBin) -> u32 {
        let Some(ExperimentKind::Active) = Self::kind_of_hour(hour) else {
            return 0;
        };
        let inst = &self.instances[instance as usize];
        if !self.live(inst, hour, ExperimentKind::Active) {
            return 0;
        }
        let product = &self.catalog.products[inst.product];
        if product.idle_only {
            return 0;
        }
        let mut z = self.seed ^ (u64::from(instance) << 32) ^ u64::from(hour.0);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z.is_multiple_of(2) {
            2 + (z >> 8) as u32 % 2 // 2 or 3 interactions
        } else {
            0
        }
    }

    /// Total interactions across the whole active window (the paper's
    /// 9 810 figure).
    pub fn total_interactions(&self) -> u64 {
        let mut total = 0u64;
        for h in StudyWindow::ACTIVE_GT.hour_bins() {
            for inst in &self.instances {
                total += u64::from(self.interactions(inst.id, h));
            }
        }
        total
    }

    /// Whether `hour` is the instance's start-of-experiment hour: devices
    /// boot at the beginning of each window ("the spike indicates the
    /// action of starting the device", §3/Figure 5a) — a burst that
    /// touches the whole domain set (config, updates, re-resolution).
    fn startup_hour(&self, inst: &Instance, hour: HourBin, kind: ExperimentKind) -> bool {
        match kind {
            ExperimentKind::Idle => hour.start() == StudyWindow::IDLE_GT.start,
            ExperimentKind::Active => match inst.testbed {
                TestbedId::Us => hour.start() == StudyWindow::ACTIVE_GT.start,
                TestbedId::Eu => hour == haystack_net::DayBin(1).first_hour(),
            },
        }
    }

    /// Generate the Home-VP capture for one hour. Empty outside the
    /// ground-truth windows.
    pub fn generate_hour(
        &self,
        world: &MaterializedWorld,
        hour: HourBin,
    ) -> Vec<GroundTruthPacket> {
        let Some(kind) = Self::kind_of_hour(hour) else {
            return Vec::new();
        };
        let resolver = world.resolver();
        let mut out = Vec::new();
        for inst in &self.instances {
            if !self.live(inst, hour, kind) {
                continue;
            }
            let src = match inst.testbed {
                TestbedId::Eu => self.tunnel_ips[0],
                TestbedId::Us => self.tunnel_ips[1],
            };
            let inter = self.interactions(inst.id, hour);
            let startup = self.startup_hour(inst, hour, kind);
            for (ci, entry) in self.contacts[inst.id as usize].iter().enumerate() {
                let inter_here = if entry.interactive { inter } else { 0 };
                let pkts = device_domain_hour(
                    self.seed,
                    inst.id,
                    ci,
                    &entry.spec,
                    src,
                    &resolver,
                    hour,
                    inter_here,
                    startup,
                    entry.rate_scale,
                );
                out.extend(pkts.into_iter().map(|packet| GroundTruthPacket {
                    packet,
                    instance: inst.id,
                    domain_id: entry.domain_id,
                }));
            }
        }
        out.sort_by_key(|g| g.packet.ts);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::data::standard_catalog;
    use crate::materialize::materialize;

    fn driver() -> ExperimentDriver {
        ExperimentDriver::new(standard_catalog(), 42)
    }

    #[test]
    fn ninety_six_instances() {
        assert_eq!(driver().instances().len(), 96);
    }

    #[test]
    fn total_interactions_near_9810() {
        let t = driver().total_interactions();
        assert!(
            (8_500..=11_500).contains(&t),
            "total interactions {t}, paper performed 9 810"
        );
    }

    #[test]
    fn idle_only_products_never_interact() {
        let d = driver();
        let idle_only: Vec<u32> = d
            .instances()
            .iter()
            .filter(|i| d.catalog().products[i.product].idle_only)
            .map(|i| i.id)
            .collect();
        assert!(!idle_only.is_empty());
        for h in StudyWindow::ACTIVE_GT.hour_bins() {
            for &i in &idle_only {
                assert_eq!(d.interactions(i, h), 0);
            }
        }
    }

    #[test]
    fn eu_testbed_starts_one_day_late() {
        let d = driver();
        let eu: Vec<u32> = d
            .instances()
            .iter()
            .filter(|i| i.testbed == TestbedId::Eu)
            .map(|i| i.id)
            .collect();
        for h in haystack_net::DayBin(0).hours() {
            for &i in &eu {
                assert_eq!(d.interactions(i, h), 0, "EU instance {i} active on day 0");
            }
        }
    }

    #[test]
    fn hours_outside_windows_are_silent() {
        let d = driver();
        let world = materialize(d.catalog());
        // Day 5 (Nov 20) is between the active and idle windows.
        let pkts = d.generate_hour(&world, haystack_net::DayBin(5).first_hour());
        assert!(pkts.is_empty());
    }

    #[test]
    fn idle_hour_has_traffic_from_most_instances() {
        let d = driver();
        let world = materialize(d.catalog());
        let hour = haystack_net::DayBin(8).first_hour(); // idle window
        let pkts = d.generate_hour(&world, hour);
        assert!(!pkts.is_empty());
        let active_instances: std::collections::HashSet<u32> =
            pkts.iter().map(|g| g.instance).collect();
        assert!(
            active_instances.len() > 80,
            "only {} instances produced idle traffic",
            active_instances.len()
        );
        // All traffic exits through the two tunnel endpoints.
        let srcs: std::collections::HashSet<_> = pkts.iter().map(|g| g.packet.src).collect();
        assert!(srcs.len() <= 2);
        assert!(srcs.iter().all(|s| d.home_vp().contains(*s)));
    }

    #[test]
    fn active_hour_is_busier_than_idle_hour() {
        let d = driver();
        let world = materialize(d.catalog());
        let active: usize = haystack_net::DayBin(2)
            .hours()
            .take(4)
            .map(|h| d.generate_hour(&world, h).len())
            .sum();
        let idle: usize = haystack_net::DayBin(8)
            .hours()
            .take(4)
            .map(|h| d.generate_hour(&world, h).len())
            .sum();
        assert!(active > idle, "active {active} <= idle {idle}");
    }

    #[test]
    fn idle_window_opens_with_a_startup_spike() {
        // §3/Figure 5a: "the spike indicates the action of starting the
        // device (only at the beginning)".
        let d = driver();
        let world = materialize(d.catalog());
        let first = haystack_net::DayBin(7).first_hour(); // idle window start
        let later = haystack_net::DayBin(8).first_hour();
        let unique_ips = |pkts: &[GroundTruthPacket]| {
            pkts.iter()
                .map(|g| g.packet.dst)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let spike = d.generate_hour(&world, first);
        let steady = d.generate_hour(&world, later);
        assert!(
            spike.len() as f64 > steady.len() as f64 * 1.15,
            "startup hour {} packets should exceed steady idle {}",
            spike.len(),
            steady.len()
        );
        // The paper's Figure 5a panel counts *unique service IPs*: the
        // boot burst touches every domain, so the IP spread spikes too.
        assert!(
            unique_ips(&spike) as f64 > unique_ips(&steady) as f64 * 1.05,
            "startup IPs {} vs steady {}",
            unique_ips(&spike),
            unique_ips(&steady)
        );
    }

    #[test]
    fn domain_table_covers_all_ground_truth_packets() {
        let d = driver();
        let world = materialize(d.catalog());
        let pkts = d.generate_hour(&world, haystack_net::DayBin(8).first_hour());
        for g in &pkts {
            assert!((g.domain_id as usize) < d.domain_table().len());
        }
    }
}
