//! The IXP vantage point (§2.1, §6.3, Figures 4/15/16).
//!
//! Differences from the ISP, all reproduced here:
//!
//! * **Sampling an order of magnitude lower** (default 1-in-10 000 IPFIX).
//! * **Many member ASes**: a few large eyeballs hold most subscriber
//!   lines; a long tail of small/transit members hosts the occasional IoT
//!   device ("some IoT devices may not only be used at home") — the skew
//!   Figure 16 plots.
//! * **Routing asymmetry / partial visibility**: not every
//!   (member, destination) pair crosses the IXP fabric; a deterministic
//!   half of them is invisible.
//! * **Spoofing**: members cannot be assumed to filter; a spoofed SYN
//!   component is injected, and consumers must apply the §6.3
//!   established-TCP filter ([`IxpVantage::established_only`]) to avoid
//!   over-counting.

use crate::degrade::{degrade_records, DegradeStream};
use crate::gen::{generate_hour, HourStream, HourTraffic};
use crate::plan::ContactPlan;
use crate::population::{Population, PopulationConfig};
use crate::record::WildRecord;
use crate::stream::{FilterStream, RecordChunk, RecordStream, VantagePoint, VecStream};
use haystack_backend::AddressPlan;
use haystack_flow::ChaosConfig;
use haystack_net::ports::Proto;
use haystack_net::{Anonymizer, AsCategory, Asn, HourBin, Prefix4};
use haystack_testbed::catalog::Catalog;
use haystack_testbed::materialize::MaterializedWorld;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One IXP member network.
#[derive(Debug, Clone)]
pub struct MemberAs {
    /// Member ASN.
    pub asn: Asn,
    /// Display name.
    pub name: String,
    /// Category (eyeball members hold the subscriber lines).
    pub category: AsCategory,
    /// Subscriber lines behind this member.
    pub lines: u32,
    /// Address block its clients appear from.
    pub block: Prefix4,
}

/// IXP configuration.
#[derive(Debug, Clone)]
pub struct IxpConfig {
    /// 1-in-N sampling; §2.1 says an order of magnitude lower than the
    /// ISP's.
    pub sampling: u64,
    /// RNG seed.
    pub seed: u64,
    /// Number of large eyeball members.
    pub big_eyeballs: u32,
    /// Lines behind each large eyeball.
    pub big_lines: u32,
    /// Number of small/tail members.
    pub tail_members: u32,
    /// Lines behind each tail member.
    pub tail_lines: u32,
    /// Fraction of (member, destination /16) pairs routed through the
    /// fabric (routing asymmetry / partial visibility).
    pub route_visibility: f64,
    /// Spoofed TCP-SYN records injected per hour.
    pub spoofed_per_hour: u32,
}

impl Default for IxpConfig {
    fn default() -> Self {
        IxpConfig {
            sampling: 10_000,
            seed: 0x1C90_0002,
            big_eyeballs: 6,
            big_lines: 12_000,
            tail_members: 34,
            tail_lines: 400,
            route_visibility: 0.5,
            spoofed_per_hour: 2_000,
        }
    }
}

/// The IXP vantage point.
#[derive(Debug)]
pub struct IxpVantage {
    config: IxpConfig,
    members: Vec<MemberAs>,
    populations: Vec<Population>,
    plan: ContactPlan,
    anonymizer: Anonymizer,
    chaos: Option<ChaosConfig>,
}

impl IxpVantage {
    /// Build the member set and their populations.
    pub fn new(catalog: &Catalog, config: IxpConfig) -> Self {
        let base = AddressPlan::remote_eyeballs();
        let mut members = Vec::new();
        let mut populations = Vec::new();
        let total = config.big_eyeballs + config.tail_members;
        for m in 0..total {
            let big = m < config.big_eyeballs;
            let block = base.subnet(16, m).expect("member block");
            let lines = if big {
                config.big_lines
            } else {
                config.tail_lines
            };
            // Tail members are mostly non-eyeball: devices show up there
            // rarely (offices, hosting with odd deployments).
            let (category, pen_scale) = if big {
                (AsCategory::Eyeball, 1.0)
            } else if m % 3 == 0 {
                (AsCategory::Eyeball, 0.4)
            } else {
                (AsCategory::Transit, 0.05)
            };
            members.push(MemberAs {
                asn: Asn(65_000 + m),
                name: format!("{}{}", if big { "eyeball" } else { "member" }, m),
                category,
                lines,
                block,
            });
            populations.push(Population::new(
                catalog,
                PopulationConfig {
                    lines,
                    seed: config.seed ^ (u64::from(m) << 17),
                    churn_within_24: 0.04,
                    churn_cross: 0.004,
                    block,
                    penetration_scale: pen_scale,
                    tech_fraction: 0.5,
                },
            ));
        }
        let plan = ContactPlan::new(catalog);
        let anonymizer = Anonymizer::new(config.seed ^ 0x1C9, config.seed ^ 0xFAB);
        IxpVantage {
            config,
            members,
            populations,
            plan,
            anonymizer,
            chaos: None,
        }
    }

    /// Run every member's export feed through record-level chaos (see
    /// [`crate::degrade`]). Each member is its own exporter, so
    /// impairments (including a configured restart) hit members
    /// independently.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The member table.
    pub fn members(&self) -> &[MemberAs] {
        &self.members
    }

    /// Which member an observed client address belongs to.
    pub fn member_of(&self, ip: std::net::Ipv4Addr) -> Option<&MemberAs> {
        self.members.iter().find(|m| m.block.contains(ip))
    }

    /// Routing asymmetry: whether flows from `member` toward `dst`'s /16
    /// cross the fabric at all.
    fn route_visible(&self, member_idx: usize, dst: std::net::Ipv4Addr) -> bool {
        let key = (self.config.seed ^ 0x9017)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((member_idx as u64) << 32) | u64::from(u32::from(dst) >> 16));
        let mut z = key;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        (z % 10_000) < (self.config.route_visibility * 10_000.0) as u64
    }

    /// One hour of sampled IPFIX records across all members, including the
    /// spoofed component. Apply [`IxpVantage::established_only`] before
    /// detection, as §6.3 does.
    pub fn capture_hour(&self, world: &MaterializedWorld, hour: HourBin) -> HourTraffic {
        let mut out = HourTraffic::default();
        for (mi, pop) in self.populations.iter().enumerate() {
            let t = generate_hour(
                pop,
                &self.plan,
                world,
                hour,
                self.config.sampling,
                self.config.seed ^ ((mi as u64) << 40),
                &self.anonymizer,
                false,
            );
            out.sampled_packets += t.sampled_packets;
            let mut visible: Vec<WildRecord> = t
                .records
                .into_iter()
                .filter(|r| self.route_visible(mi, r.dst))
                .collect();
            if let Some(chaos) = &self.chaos {
                let salt = u64::from(hour.0) ^ ((mi as u64) << 16);
                let (survived, deg) = degrade_records(visible, chaos, salt);
                visible = survived;
                out.degradation.absorb(deg);
            }
            out.records.extend(visible);
        }
        out.records.extend(self.spoofed_records(world, hour));
        out
    }

    /// The spoofed component: SYN-only records with random source
    /// addresses (inside and outside member space) aimed at real service
    /// IPs — what backscatter and blind floods look like in sampled IPFIX.
    fn spoofed_records(&self, world: &MaterializedWorld, hour: HourBin) -> Vec<WildRecord> {
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ 0x5F00F ^ u64::from(hour.0));
        let resolver = world.resolver();
        // Aim at a handful of hot IoT service IPs.
        let mut targets = Vec::new();
        for d in self.plan.domains.iter().take(40) {
            if let Some(r) = resolver.resolve(&d.name, hour.start()) {
                targets.extend(r.ips.into_iter().take(2).map(|ip| (ip, d.port)));
            }
        }
        if targets.is_empty() {
            return Vec::new();
        }
        (0..self.config.spoofed_per_hour)
            .map(|_| {
                let member = &self.members[rng.gen_range(0..self.members.len())];
                let src_ip = member.block.nth(rng.gen_range(0..member.block.size()));
                let (dst, dport) = targets[rng.gen_range(0..targets.len())];
                WildRecord {
                    line: self.anonymizer.anonymize(src_ip),
                    line_slash24: Prefix4::slash24_of(src_ip),
                    src_ip,
                    dst,
                    dport,
                    proto: Proto::Tcp,
                    packets: 1,
                    bytes: 40,
                    established: false, // SYN-only: fails the §6.3 filter
                    hour,
                }
            })
            .collect()
    }

    /// The §6.3 anti-spoofing filter: keep UDP and established-evidence
    /// TCP records only.
    pub fn established_only(records: Vec<WildRecord>) -> Vec<WildRecord> {
        records
            .into_iter()
            .filter(|r| r.proto == Proto::Udp || r.established)
            .collect()
    }

    /// One member's export feed as a stream: line-major generation,
    /// routing-asymmetry filter, then (if configured) per-member chaos —
    /// the exact pipeline [`IxpVantage::capture_hour`] runs eagerly.
    fn member_stream<'a>(
        &'a self,
        mi: usize,
        world: &'a MaterializedWorld,
        hour: HourBin,
        chunk_records: usize,
    ) -> Box<dyn RecordStream + 'a> {
        let inner = HourStream::new(
            &self.populations[mi],
            &self.plan,
            world,
            hour,
            self.config.sampling,
            self.config.seed ^ ((mi as u64) << 40),
            &self.anonymizer,
            false,
            chunk_records,
        );
        let visible = FilterStream::new(inner, move |r: &WildRecord| self.route_visible(mi, r.dst));
        match &self.chaos {
            Some(chaos) => {
                let salt = u64::from(hour.0) ^ ((mi as u64) << 16);
                Box::new(DegradeStream::new(
                    visible,
                    chaos.clone(),
                    salt,
                    chunk_records,
                ))
            }
            None => Box::new(visible),
        }
    }
}

/// The IXP hour as a stream: every member's feed in member order, then
/// the spoofed component — matching [`IxpVantage::capture_hour`]'s
/// concatenation exactly. Member streams are opened lazily, so at most
/// one member's generator state is resident at a time.
struct IxpHourStream<'a> {
    ixp: &'a IxpVantage,
    world: &'a MaterializedWorld,
    hour: HourBin,
    chunk_records: usize,
    mi: usize,
    current: Option<Box<dyn RecordStream + 'a>>,
    spoofed: Option<VecStream>,
}

impl RecordStream for IxpHourStream<'_> {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        loop {
            if let Some(cur) = &mut self.current {
                if cur.next_chunk(out) {
                    return true;
                }
                self.current = None;
                self.mi += 1;
            }
            if self.mi < self.ixp.populations.len() {
                self.current = Some(self.ixp.member_stream(
                    self.mi,
                    self.world,
                    self.hour,
                    self.chunk_records,
                ));
                continue;
            }
            let spoofed = self.spoofed.get_or_insert_with(|| {
                VecStream::new(
                    self.ixp.spoofed_records(self.world, self.hour),
                    self.chunk_records,
                )
            });
            return spoofed.next_chunk(out);
        }
    }
}

impl VantagePoint for IxpVantage {
    fn stream_hour<'a>(
        &'a self,
        world: &'a MaterializedWorld,
        hour: HourBin,
        chunk_records: usize,
    ) -> Box<dyn RecordStream + 'a> {
        Box::new(IxpHourStream {
            ixp: self,
            world,
            hour,
            chunk_records,
            mi: 0,
            current: None,
            spoofed: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_testbed::catalog::data::standard_catalog;
    use haystack_testbed::materialize::materialize;

    fn small_config() -> IxpConfig {
        IxpConfig {
            sampling: 2_000,
            seed: 5,
            big_eyeballs: 3,
            big_lines: 4_000,
            tail_members: 9,
            tail_lines: 200,
            route_visibility: 0.5,
            spoofed_per_hour: 500,
        }
    }

    #[test]
    fn members_partition_address_space() {
        let catalog = standard_catalog();
        let ixp = IxpVantage::new(&catalog, small_config());
        assert_eq!(ixp.members().len(), 12);
        for (i, a) in ixp.members().iter().enumerate() {
            for b in ixp.members().iter().skip(i + 1) {
                assert!(!a.block.covers(&b.block));
            }
        }
    }

    #[test]
    fn spoofed_records_are_filtered_by_established_only() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let ixp = IxpVantage::new(&catalog, small_config());
        let t = ixp.capture_hour(&world, HourBin(20));
        let spoofed = t
            .records
            .iter()
            .filter(|r| !r.established && r.proto == Proto::Tcp)
            .count();
        assert!(spoofed >= 400, "spoofed component present: {spoofed}");
        let filtered = IxpVantage::established_only(t.records);
        assert!(filtered
            .iter()
            .all(|r| r.proto == Proto::Udp || r.established));
    }

    #[test]
    fn stream_hour_matches_capture_hour_with_and_without_chaos() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        for chaos in [None, Some(ChaosConfig::at_severity(0.5, 13))] {
            let mut ixp = IxpVantage::new(&catalog, small_config());
            if let Some(c) = chaos {
                ixp = ixp.with_chaos(c);
            }
            let want = ixp.capture_hour(&world, HourBin(20));
            for chunk in [64usize, usize::MAX] {
                let got =
                    crate::stream::materialize(&mut *ixp.stream_hour(&world, HourBin(20), chunk));
                assert_eq!(got.records, want.records, "chunk {chunk}");
                assert_eq!(got.sampled_packets, want.sampled_packets);
                assert_eq!(got.degradation, want.degradation);
            }
        }
    }

    #[test]
    fn eyeballs_dominate_iot_client_ips() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let ixp = IxpVantage::new(&catalog, small_config());
        let mut by_category: std::collections::HashMap<&str, usize> = Default::default();
        for h in [12u32, 13, 14, 20, 21] {
            let t = IxpVantage::established_only(ixp.capture_hour(&world, HourBin(h)).records);
            for r in t {
                if let Some(m) = ixp.member_of(r.src_ip) {
                    *by_category.entry(m.category.label()).or_default() += 1;
                }
            }
        }
        let eyeball = by_category.get("eyeball").copied().unwrap_or(0);
        let transit = by_category.get("transit").copied().unwrap_or(0);
        assert!(
            eyeball > transit * 3,
            "eyeball {eyeball} vs transit {transit}"
        );
        assert!(transit > 0, "the long tail exists");
    }

    #[test]
    fn asymmetry_hides_a_fraction_of_routes() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let full = IxpVantage::new(
            &catalog,
            IxpConfig {
                route_visibility: 1.0,
                spoofed_per_hour: 0,
                ..small_config()
            },
        );
        let half = IxpVantage::new(
            &catalog,
            IxpConfig {
                route_visibility: 0.5,
                spoofed_per_hour: 0,
                ..small_config()
            },
        );
        let f = full.capture_hour(&world, HourBin(20)).records.len();
        let h = half.capture_hour(&world, HourBin(20)).records.len();
        let ratio = h as f64 / f as f64;
        assert!((0.3..0.7).contains(&ratio), "visibility ratio {ratio:.2}");
    }
}
