//! The population-scale flow generator.
//!
//! For one hour it produces the **sampled** flow records a vantage point
//! would export, without materializing individual packets:
//!
//! 1. For each (owning line, product), the line's total packet rate this
//!    hour is `Λ = idle + [active-use] · surplus`; under 1-in-`s` packet
//!    sampling the sampled count is `Poisson(Λ/s)` (Poisson thinning).
//! 2. Each sampled packet is attributed to a domain by the plan's weight
//!    table (exact Poisson splitting), then to one of the addresses the
//!    domain resolves to *this hour* (live DNS rotation).
//! 3. Sampled packets aggregate into per-(line, dst, port) records; a
//!    record earns `established` evidence if any of its sampled TCP
//!    packets was a non-SYN segment (probability `1 − 1/session_len`),
//!    reproducing what cumulative flags look like under sparse sampling.
//!
//! The procedure is distribution-identical to generating every packet and
//! sampling 1-in-`s` (see `benches/sampling_equivalence`), but costs
//! O(lines·products + sampled packets) instead of O(all packets).

use crate::diurnal::active_use_probability;
use crate::plan::{ContactPlan, ProductPlan};
use crate::population::Population;
use crate::record::WildRecord;
use crate::stream::{RecordChunk, RecordStream};
use haystack_dns::Resolver;
use haystack_net::ports::Proto;
use haystack_net::{Anonymizer, HourBin, Prefix4};
use haystack_testbed::catalog::DomainSpec;
use haystack_testbed::materialize::MaterializedWorld;
use haystack_testbed::traffic::poisson;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Probability that a sampled TCP packet is the session-opening SYN.
const P_SYN: f64 = 0.06;

/// One hour of sampled traffic at a vantage point.
#[derive(Debug, Default)]
pub struct HourTraffic {
    /// The exported records.
    pub records: Vec<WildRecord>,
    /// Total sampled packets (≥ records).
    pub sampled_packets: u64,
    /// What an impaired export feed cost this hour (all-zero when the
    /// vantage point runs without chaos).
    pub degradation: crate::degrade::FeedDegradation,
}

/// Resolve the live address set of every plan domain for this hour.
fn live_sets(plan: &ContactPlan, world: &MaterializedWorld, hour: HourBin) -> Vec<Vec<Ipv4Addr>> {
    let resolver: Resolver<'_> = world.resolver();
    plan.domains
        .iter()
        .map(|d| {
            resolver
                .resolve(&d.name, hour.start())
                .map(|r| r.ips)
                .unwrap_or_default()
        })
        .collect()
}

#[derive(Debug)]
struct Acc {
    packets: u64,
    bytes: u64,
    established: bool,
    proto: Proto,
}

/// Sample one (line, product-plan) cell of the hour: the active-use
/// coin, the Poisson sampled-packet count, and per-packet domain/address
/// attribution. `touch(dst, spec, established_evidence)` is called once
/// per attributed packet; the return value is the *sampled* packet count
/// (attributed or not).
///
/// Both the product-major materialized path ([`generate_hour`]) and the
/// line-major streaming path ([`HourStream`]) run their packets through
/// this one function with identical per-cell RNG seeding, which is what
/// keeps the two paths record-for-record identical.
#[allow(clippy::too_many_arguments)]
fn sample_line_plan<F>(
    p: &ProductPlan,
    plan: &ContactPlan,
    live: &[Vec<Ipv4Addr>],
    hod: u32,
    weekend_boost: f64,
    s: f64,
    rng: &mut SmallRng,
    mut touch: F,
) -> u64
where
    F: FnMut(Ipv4Addr, &DomainSpec, bool),
{
    let active = p.active_extra_lambda > 0.0
        && rng.gen::<f64>() < active_use_probability(p.shape, p.peak_use * weekend_boost, hod);
    let lambda = (p.idle_lambda + if active { p.active_extra_lambda } else { 0.0 }) / s;
    let k = poisson(lambda, rng);
    if k == 0 {
        return 0;
    }
    // Split the k sampled packets between the idle and active-surplus
    // components proportionally to their rates.
    let idle_share = if active {
        p.idle_lambda / (p.idle_lambda + p.active_extra_lambda)
    } else {
        1.0
    };
    for _ in 0..k {
        let di = if rng.gen::<f64>() < idle_share {
            p.pick_idle(rng.gen::<f64>() * p.idle_lambda)
        } else {
            p.pick_active(rng.gen::<f64>() * p.active_extra_lambda)
        };
        let domain_id = p.domain_ids[di] as usize;
        let ips = &live[domain_id];
        if ips.is_empty() {
            continue;
        }
        let spec = &plan.domains[domain_id];
        let dst = ips[rng.gen_range(0..ips.len())];
        let syn = spec.proto == Proto::Tcp && rng.gen::<f64>() < P_SYN;
        touch(dst, spec, spec.proto == Proto::Udp || !syn);
    }
    k
}

/// Generate one vantage-point hour for `pop`.
///
/// `sampling` is the 1-in-N packet sampling denominator; `seed` must
/// differ between vantage points so the ISP and IXP draw independent
/// samples of the same underlying population behaviour.
#[allow(clippy::too_many_arguments)]
pub fn generate_hour(
    pop: &Population,
    plan: &ContactPlan,
    world: &MaterializedWorld,
    hour: HourBin,
    sampling: u64,
    seed: u64,
    anonymizer: &Anonymizer,
    include_background: bool,
) -> HourTraffic {
    assert!(sampling >= 1, "sampling denominator must be >= 1");
    let live = live_sets(plan, world, hour);
    let day = hour.day().0;
    let slots = pop.slots_for_day(day);
    let hod = hour.hour_of_day();
    let s = sampling as f64;

    let mut acc: HashMap<(u32, Ipv4Addr, u16), Acc> = HashMap::new();
    let mut sampled_packets = 0u64;

    // §7.1/Figure 18: usage peaks "during the day and weekends".
    let weekend_boost = if hour.day().is_weekend() { 1.35 } else { 1.0 };
    let mut emit_line_plan = |line: u32, p: &ProductPlan, rng: &mut SmallRng| {
        sampled_packets +=
            sample_line_plan(p, plan, &live, hod, weekend_boost, s, rng, |dst, spec, est| {
                let e = acc.entry((line, dst, spec.port)).or_insert(Acc {
                    packets: 0,
                    bytes: 0,
                    established: false,
                    proto: spec.proto,
                });
                e.packets += 1;
                e.bytes += u64::from(spec.bytes_per_pkt);
                e.established |= est;
            });
    };

    for p in &plan.products {
        for &line in pop.owners_of(p.product) {
            let mut rng = SmallRng::seed_from_u64(
                seed ^ (u64::from(line) << 24) ^ ((p.product as u64) << 8) ^ u64::from(hour.0),
            );
            emit_line_plan(line, p, &mut rng);
        }
    }
    if include_background {
        for line in 0..pop.lines() {
            let mut rng = SmallRng::seed_from_u64(
                seed ^ 0xBACC ^ (u64::from(line) << 24) ^ u64::from(hour.0),
            );
            emit_line_plan(line, &plan.background, &mut rng);
        }
    }

    let mut records = Vec::with_capacity(acc.len());
    for ((line, dst, dport), a) in acc {
        let src_ip = pop.addr_of_slot(slots[line as usize]);
        let proto = a.proto;
        records.push(WildRecord {
            line: anonymizer.anonymize(src_ip),
            line_slash24: Prefix4::slash24_of(src_ip),
            src_ip,
            dst,
            dport,
            proto,
            packets: a.packets,
            bytes: a.bytes,
            established: a.established,
            hour,
        });
    }
    records.sort_by_key(|r| (r.line, r.dst, r.dport));
    HourTraffic { records, sampled_packets, degradation: Default::default() }
}

/// The streaming, line-major twin of [`generate_hour`].
///
/// Emits the exact records [`generate_hour`] would, in the exact same
/// order, but incrementally: one subscriber line at a time, packed into
/// bounded [`RecordChunk`]s. Peak resident state is one line's record
/// set plus one chunk — never the hour.
///
/// Equivalence rests on three invariants (pinned by the
/// `stream_equivalence` tests):
///
/// 1. **Same draws** — every (line, product) cell seeds its own RNG from
///    `(seed, line, product, hour)` and samples through
///    `sample_line_plan`, so iteration order (product-major there,
///    line-major here) cannot change any draw.
/// 2. **Same aggregation** — per-line accumulation keyed by
///    `(dst, dport)` with plans visited in plan order (background last)
///    reproduces `generate_hour`'s first-writer-wins `proto` and
///    commutative packet/byte/established folds.
/// 3. **Same order** — `generate_hour` sorts globally by
///    `(AnonId, dst, dport)`; here lines are visited in ascending
///    [`AnonId`](haystack_net::AnonId) order and each line's records are
///    sorted by `(dst, dport)`, so the concatenation is that same global
///    order.
#[derive(Debug)]
pub struct HourStream<'a> {
    pop: &'a Population,
    plan: &'a ContactPlan,
    live: Vec<Vec<Ipv4Addr>>,
    slots: Rc<Vec<u32>>,
    hour: HourBin,
    hod: u32,
    weekend_boost: f64,
    s: f64,
    seed: u64,
    anonymizer: Anonymizer,
    include_background: bool,
    chunk_records: usize,
    /// Subscriber lines in ascending anonymized-id order — the global
    /// record order of the materialized path.
    order: Vec<u32>,
    next_line: usize,
    staged: Vec<WildRecord>,
    staged_pos: usize,
    pending_packets: u64,
    acc: HashMap<(Ipv4Addr, u16), Acc>,
}

impl<'a> HourStream<'a> {
    /// Open one vantage-point hour as a stream. Arguments mirror
    /// [`generate_hour`]; `chunk_records` bounds the emitted chunks.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pop: &'a Population,
        plan: &'a ContactPlan,
        world: &MaterializedWorld,
        hour: HourBin,
        sampling: u64,
        seed: u64,
        anonymizer: &Anonymizer,
        include_background: bool,
        chunk_records: usize,
    ) -> Self {
        assert!(sampling >= 1, "sampling denominator must be >= 1");
        let live = live_sets(plan, world, hour);
        let slots = pop.slots_for_day(hour.day().0);
        // Background traffic reaches every line; without it only owners
        // of at least one product can emit records.
        let mut order: Vec<u32> = (0..pop.lines())
            .filter(|&l| include_background || !pop.products_of(l).is_empty())
            .collect();
        order.sort_by_key(|&l| anonymizer.anonymize(pop.addr_of_slot(slots[l as usize])));
        HourStream {
            pop,
            plan,
            live,
            slots,
            hour,
            hod: hour.hour_of_day(),
            weekend_boost: if hour.day().is_weekend() { 1.35 } else { 1.0 },
            s: sampling as f64,
            seed,
            anonymizer: *anonymizer,
            include_background,
            chunk_records: chunk_records.max(1),
            order,
            next_line: 0,
            staged: Vec::new(),
            staged_pos: 0,
            pending_packets: 0,
            acc: HashMap::new(),
        }
    }

    /// Generate one line's records into the staging buffer (sorted by
    /// `(dst, dport)`; the line id is constant).
    fn generate_line(&mut self, line: u32) {
        let plan = self.plan;
        let pop = self.pop;
        let mut packets = 0u64;
        {
            let live = &self.live;
            let acc = &mut self.acc;
            let mut touch = |dst: Ipv4Addr, spec: &DomainSpec, est: bool| {
                let e = acc.entry((dst, spec.port)).or_insert(Acc {
                    packets: 0,
                    bytes: 0,
                    established: false,
                    proto: spec.proto,
                });
                e.packets += 1;
                e.bytes += u64::from(spec.bytes_per_pkt);
                e.established |= est;
            };
            for &pi in pop.products_of(line) {
                let p = &plan.products[pi as usize];
                let mut rng = SmallRng::seed_from_u64(
                    self.seed
                        ^ (u64::from(line) << 24)
                        ^ ((p.product as u64) << 8)
                        ^ u64::from(self.hour.0),
                );
                packets += sample_line_plan(
                    p,
                    plan,
                    live,
                    self.hod,
                    self.weekend_boost,
                    self.s,
                    &mut rng,
                    &mut touch,
                );
            }
            if self.include_background {
                let mut rng = SmallRng::seed_from_u64(
                    self.seed ^ 0xBACC ^ (u64::from(line) << 24) ^ u64::from(self.hour.0),
                );
                packets += sample_line_plan(
                    &plan.background,
                    plan,
                    live,
                    self.hod,
                    self.weekend_boost,
                    self.s,
                    &mut rng,
                    &mut touch,
                );
            }
        }
        self.pending_packets += packets;
        let src_ip = pop.addr_of_slot(self.slots[line as usize]);
        let anon = self.anonymizer.anonymize(src_ip);
        let slash24 = Prefix4::slash24_of(src_ip);
        let base = self.staged.len();
        for ((dst, dport), a) in self.acc.drain() {
            self.staged.push(WildRecord {
                line: anon,
                line_slash24: slash24,
                src_ip,
                dst,
                dport,
                proto: a.proto,
                packets: a.packets,
                bytes: a.bytes,
                established: a.established,
                hour: self.hour,
            });
        }
        self.staged[base..].sort_by_key(|r| (r.dst, r.dport));
    }
}

impl RecordStream for HourStream<'_> {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        out.clear();
        loop {
            while out.records.len() < self.chunk_records && self.staged_pos < self.staged.len() {
                out.records.push(self.staged[self.staged_pos]);
                self.staged_pos += 1;
            }
            if self.staged_pos >= self.staged.len() {
                self.staged.clear();
                self.staged_pos = 0;
            }
            if out.records.len() == self.chunk_records {
                out.sampled_packets = std::mem::take(&mut self.pending_packets);
                return true;
            }
            if self.next_line >= self.order.len() {
                if out.records.is_empty() && self.pending_packets == 0 {
                    return false;
                }
                out.sampled_packets = std::mem::take(&mut self.pending_packets);
                return true;
            }
            let line = self.order[self.next_line];
            self.next_line += 1;
            self.generate_line(line);
        }
    }
}

/// One resolver-side query observation: which line asked for which plan
/// domain this hour. The §7.4 DNS-assisted analysis consumes these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsQueryEvent {
    /// Anonymized line identity (resolver logs are anonymized the same
    /// way flow exports are).
    pub line: haystack_net::AnonId,
    /// Index into the plan's domain table.
    pub domain_id: u32,
    /// The hour.
    pub hour: HourBin,
}

/// Generate the ISP resolver's query log for one hour.
///
/// Devices re-resolve a backend domain roughly once per connection setup
/// — we model P(query in hour) = 1 − exp(−rate/200) per owned domain.
/// `resolver_share` is §7.4's caveat: the fraction of lines still using
/// the ISP resolver (the rest run DoT/DoH or public resolvers and are
/// invisible here).
pub fn generate_dns_hour(
    pop: &Population,
    plan: &ContactPlan,
    hour: HourBin,
    resolver_share: f64,
    seed: u64,
    anonymizer: &Anonymizer,
) -> Vec<DnsQueryEvent> {
    let day = hour.day().0;
    let slots = pop.slots_for_day(day);
    let hod = hour.hour_of_day();
    let mut out = Vec::new();
    for p in &plan.products {
        for &line in pop.owners_of(p.product) {
            // Which resolver a household uses is a stable property of the
            // household, not a per-hour coin: gate on (seed, line) only.
            let mut gate = SmallRng::seed_from_u64(seed ^ 0x6A7E ^ u64::from(line));
            if gate.gen::<f64>() >= resolver_share {
                continue; // this household uses DoH / a public resolver
            }
            let mut rng = SmallRng::seed_from_u64(
                seed ^ 0xD2D2 ^ (u64::from(line) << 24) ^ ((p.product as u64) << 8)
                    ^ u64::from(hour.0),
            );
            let active = p.active_extra_lambda > 0.0
                && rng.gen::<f64>() < active_use_probability(p.shape, p.peak_use, hod);
            for (di, &domain_id) in p.domain_ids.iter().enumerate() {
                let idle = p.idle_cum[di] - if di == 0 { 0.0 } else { p.idle_cum[di - 1] };
                let surplus = if active && !p.active_cum.is_empty() {
                    p.active_cum[di] - if di == 0 { 0.0 } else { p.active_cum[di - 1] }
                } else {
                    0.0
                };
                let p_query = 1.0 - (-(idle + surplus) / 200.0).exp();
                if rng.gen::<f64>() < p_query {
                    let src = pop.addr_of_slot(slots[line as usize]);
                    out.push(DnsQueryEvent {
                        line: anonymizer.anonymize(src),
                        domain_id,
                        hour,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use haystack_testbed::catalog::data::standard_catalog;
    use haystack_testbed::materialize::materialize;

    fn setup() -> (Population, ContactPlan, MaterializedWorld) {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let plan = ContactPlan::new(&catalog);
        let pop = Population::new(&catalog, PopulationConfig::isp(20_000, 3));
        (pop, plan, world)
    }

    #[test]
    fn hour_generation_is_deterministic() {
        let (pop, plan, world) = setup();
        let anon = Anonymizer::new(1, 2);
        let a = generate_hour(&pop, &plan, &world, HourBin(10), 1_000, 7, &anon, false);
        let b = generate_hour(&pop, &plan, &world, HourBin(10), 1_000, 7, &anon, false);
        assert_eq!(a.records, b.records);
        assert!(!a.records.is_empty());
    }

    #[test]
    fn hour_stream_matches_generate_hour_for_any_chunking() {
        let (pop, plan, world) = setup();
        let anon = Anonymizer::new(1, 2);
        for background in [false, true] {
            let want =
                generate_hour(&pop, &plan, &world, HourBin(10), 1_000, 7, &anon, background);
            for chunk in [1usize, 7, 1024, usize::MAX] {
                let mut s = HourStream::new(
                    &pop,
                    &plan,
                    &world,
                    HourBin(10),
                    1_000,
                    7,
                    &anon,
                    background,
                    chunk,
                );
                let got = crate::stream::materialize(&mut s);
                assert_eq!(got.records, want.records, "background {background} chunk {chunk}");
                assert_eq!(got.sampled_packets, want.sampled_packets);
            }
        }
    }

    #[test]
    fn sampling_rate_scales_volume() {
        let (pop, plan, world) = setup();
        let anon = Anonymizer::new(1, 2);
        let dense = generate_hour(&pop, &plan, &world, HourBin(10), 100, 7, &anon, false);
        let sparse = generate_hour(&pop, &plan, &world, HourBin(10), 1_000, 7, &anon, false);
        let ratio = dense.sampled_packets as f64 / sparse.sampled_packets.max(1) as f64;
        assert!((7.0..14.0).contains(&ratio), "10× sampling ratio, got {ratio:.1}");
    }

    #[test]
    fn evening_hours_are_busier_than_night() {
        let (pop, plan, world) = setup();
        let anon = Anonymizer::new(1, 2);
        // Hour 20 (evening) vs hour 3 (night) of day 1.
        let evening =
            generate_hour(&pop, &plan, &world, HourBin(24 + 20), 1_000, 7, &anon, false);
        let night = generate_hour(&pop, &plan, &world, HourBin(24 + 3), 1_000, 7, &anon, false);
        assert!(
            evening.sampled_packets > night.sampled_packets,
            "evening {} <= night {}",
            evening.sampled_packets,
            night.sampled_packets
        );
    }

    #[test]
    fn records_point_at_live_service_ips() {
        let (pop, plan, world) = setup();
        let anon = Anonymizer::new(1, 2);
        let t = generate_hour(&pop, &plan, &world, HourBin(10), 500, 7, &anon, false);
        let live = live_sets(&plan, &world, HourBin(10));
        let all_live: std::collections::HashSet<_> =
            live.iter().flatten().copied().collect();
        assert!(t.records.iter().all(|r| all_live.contains(&r.dst)));
    }

    #[test]
    fn background_adds_generic_traffic_from_deviceless_lines() {
        let (pop, plan, world) = setup();
        let anon = Anonymizer::new(1, 2);
        let without = generate_hour(&pop, &plan, &world, HourBin(10), 1_000, 7, &anon, false);
        let with = generate_hour(&pop, &plan, &world, HourBin(10), 1_000, 7, &anon, true);
        assert!(with.records.len() > without.records.len());
        let lines_with: std::collections::HashSet<_> =
            with.records.iter().map(|r| r.line).collect();
        let lines_without: std::collections::HashSet<_> =
            without.records.iter().map(|r| r.line).collect();
        assert!(lines_with.len() > lines_without.len() * 2, "background reaches most lines");
    }

    #[test]
    fn most_tcp_records_carry_established_evidence() {
        let (pop, plan, world) = setup();
        let anon = Anonymizer::new(1, 2);
        let t = generate_hour(&pop, &plan, &world, HourBin(10), 1_000, 7, &anon, false);
        let tcp: Vec<_> = t.records.iter().filter(|r| r.proto == Proto::Tcp).collect();
        let established = tcp.iter().filter(|r| r.established).count();
        let frac = established as f64 / tcp.len().max(1) as f64;
        assert!(frac > 0.85, "established fraction {frac:.2}");
    }

    #[test]
    fn dns_log_respects_resolver_share() {
        let (pop, plan, _world) = setup();
        let anon = Anonymizer::new(1, 2);
        let full = generate_dns_hour(&pop, &plan, HourBin(10), 1.0, 7, &anon);
        let half = generate_dns_hour(&pop, &plan, HourBin(10), 0.5, 7, &anon);
        let none = generate_dns_hour(&pop, &plan, HourBin(10), 0.0, 7, &anon);
        assert!(!full.is_empty());
        assert!(none.is_empty());
        let ratio = half.len() as f64 / full.len() as f64;
        assert!((0.3..0.7).contains(&ratio), "resolver share ratio {ratio:.2}");
    }

    #[test]
    fn dns_log_covers_shared_domains_too() {
        // Unlike flows, DNS sees CDN-hosted domains — the §7.4 point.
        let (pop, plan, _world) = setup();
        let anon = Anonymizer::new(1, 2);
        let events = generate_dns_hour(&pop, &plan, HourBin(20), 1.0, 7, &anon);
        use haystack_testbed::catalog::HostingKind;
        let shared_queried = events.iter().any(|e| {
            matches!(plan.domains[e.domain_id as usize].hosting, HostingKind::Cdn)
        });
        assert!(shared_queried, "CDN-hosted domains must appear in the resolver log");
    }

    #[test]
    fn anonymization_is_stable_across_hours_same_day() {
        let (pop, plan, world) = setup();
        let anon = Anonymizer::new(1, 2);
        let a = generate_hour(&pop, &plan, &world, HourBin(10), 200, 7, &anon, false);
        let b = generate_hour(&pop, &plan, &world, HourBin(11), 200, 7, &anon, false);
        let la: std::collections::HashSet<_> = a.records.iter().map(|r| r.line).collect();
        let lb: std::collections::HashSet<_> = b.records.iter().map(|r| r.line).collect();
        let overlap = la.intersection(&lb).count();
        assert!(overlap > la.len() / 3, "line identities unstable: {overlap}/{}", la.len());
    }
}
