//! §3 — what survives sampling at the ISP vantage point.
//!
//! Machinery behind Figures 5, 6, 8, 9, and 17: summarize the Home-VP's
//! full capture and the ISP's sampled view of the *same* packets, then
//! compare. DNS traffic is excluded throughout ("We explicitly exclude
//! DNS traffic, since it is not IoT-specific"); the simulation generates
//! none, and the summarizer filters port 53 defensively anyway.

use haystack_flow::sampling::PacketSampler;
use haystack_net::ports::PortClass;
use haystack_testbed::GroundTruthPacket;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// Summary of one hour of traffic at one vantage point.
#[derive(Debug, Default, Clone)]
pub struct HourVisibility {
    /// Unique service IPs contacted (Figure 5a).
    pub service_ips: BTreeSet<Ipv4Addr>,
    /// Unique domains contacted, by id (Figure 5b).
    pub domains: BTreeSet<u32>,
    /// Unique devices with ≥ 1 packet (Figure 5d).
    pub devices: BTreeSet<u32>,
    /// Bytes per service IP (heavy-hitter ranking, Figure 6).
    pub bytes_per_ip: HashMap<Ipv4Addr, u64>,
    /// Service IPs per §3 port class (Figure 5c).
    pub ips_by_class: BTreeMap<PortClass, BTreeSet<Ipv4Addr>>,
    /// Packets per (device, domain) (Figures 8, 9, 17).
    pub packets_by_device_domain: HashMap<(u32, u32), u64>,
}

impl HourVisibility {
    /// Summarize a packet stream (full or sampled).
    pub fn summarize(packets: &[GroundTruthPacket]) -> HourVisibility {
        let mut v = HourVisibility::default();
        for g in packets {
            if g.packet.dport == 53 {
                continue; // DNS excluded per §3
            }
            v.service_ips.insert(g.packet.dst);
            v.domains.insert(g.domain_id);
            v.devices.insert(g.instance);
            *v.bytes_per_ip.entry(g.packet.dst).or_default() += u64::from(g.packet.bytes);
            v.ips_by_class
                .entry(PortClass::of(g.packet.dport))
                .or_default()
                .insert(g.packet.dst);
            *v.packets_by_device_domain
                .entry((g.instance, g.domain_id))
                .or_default() += 1;
        }
        v
    }
}

/// Apply a packet sampler to a ground-truth stream (the ISP's view of the
/// Home-VP traffic).
pub fn sample_stream(
    packets: &[GroundTruthPacket],
    sampler: &mut impl PacketSampler,
) -> Vec<GroundTruthPacket> {
    packets
        .iter()
        .filter(|_| sampler.sample())
        .copied()
        .collect()
}

/// Figure 6: of the top `top_frac` service IPs by byte volume at the
/// home vantage point, the fraction also visible at the sampled vantage
/// point. Returns `None` when the home side saw nothing.
pub fn heavy_hitter_visibility(
    home: &HourVisibility,
    sampled: &HourVisibility,
    top_frac: f64,
) -> Option<f64> {
    if home.bytes_per_ip.is_empty() {
        return None;
    }
    let mut ranked: Vec<(&Ipv4Addr, &u64)> = home.bytes_per_ip.iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let take = ((ranked.len() as f64 * top_frac).ceil() as usize).max(1);
    let top = &ranked[..take.min(ranked.len())];
    let visible = top
        .iter()
        .filter(|(ip, _)| sampled.service_ips.contains(ip))
        .count();
    Some(visible as f64 / top.len() as f64)
}

/// Empirical CDF of a sample: sorted `(value, F(value))` pairs.
pub fn ecdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, (i + 1) as f64 / n))
        .collect()
}

/// Interpolated ECDF evaluation: fraction of the sample ≤ `x`.
pub fn ecdf_at(curve: &[(f64, f64)], x: f64) -> f64 {
    match curve.binary_search_by(|(v, _)| v.partial_cmp(&x).expect("finite")) {
        Ok(i) => curve[i].1,
        Err(0) => 0.0,
        Err(i) => curve[i - 1].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_flow::{Packet, SystematicSampler, TcpFlags};
    use haystack_net::ports::Proto;
    use haystack_net::SimTime;

    fn gt(instance: u32, domain: u32, dst_last: u8, dport: u16, bytes: u32) -> GroundTruthPacket {
        GroundTruthPacket {
            packet: Packet {
                ts: SimTime(10),
                src: Ipv4Addr::new(100, 64, 4, 49),
                dst: Ipv4Addr::new(198, 18, 0, dst_last),
                sport: 40_000,
                dport,
                proto: Proto::Tcp,
                bytes,
                flags: TcpFlags::ACK,
            },
            instance,
            domain_id: domain,
        }
    }

    #[test]
    fn summarize_counts_uniques_and_excludes_dns() {
        let packets = vec![
            gt(0, 0, 1, 443, 100),
            gt(0, 0, 1, 443, 100),
            gt(1, 2, 2, 123, 76),
            gt(2, 3, 3, 53, 60), // DNS → excluded
        ];
        let v = HourVisibility::summarize(&packets);
        assert_eq!(v.service_ips.len(), 2);
        assert_eq!(v.domains.len(), 2);
        assert_eq!(v.devices.len(), 2);
        assert_eq!(v.bytes_per_ip[&Ipv4Addr::new(198, 18, 0, 1)], 200);
        assert_eq!(v.ips_by_class[&PortClass::Web].len(), 1);
        assert_eq!(v.ips_by_class[&PortClass::Ntp].len(), 1);
        assert_eq!(v.packets_by_device_domain[&(0, 0)], 2);
    }

    #[test]
    fn sampling_reduces_the_view() {
        let packets: Vec<_> = (0..1000u32)
            .map(|i| gt(i % 8, i % 16, (i % 50) as u8, 443, 100))
            .collect();
        let mut sampler = SystematicSampler::new(10, 0).unwrap();
        let sampled = sample_stream(&packets, &mut sampler);
        assert_eq!(sampled.len(), 100);
        let full = HourVisibility::summarize(&packets);
        let thin = HourVisibility::summarize(&sampled);
        assert!(thin.service_ips.len() <= full.service_ips.len());
        assert!(thin.devices.len() <= full.devices.len());
    }

    #[test]
    fn heavy_hitters_more_visible_than_tail() {
        // 10 heavy IPs (200 pkts each), 90 light IPs (2 pkts each).
        let mut packets = Vec::new();
        for ip in 0..10u8 {
            for _ in 0..200 {
                packets.push(gt(0, u32::from(ip), ip, 443, 500));
            }
        }
        for ip in 10..100u8 {
            for _ in 0..2 {
                packets.push(gt(0, u32::from(ip), ip, 443, 500));
            }
        }
        let home = HourVisibility::summarize(&packets);
        let mut sampler = SystematicSampler::new(50, 7).unwrap();
        let sampled = HourVisibility::summarize(&sample_stream(&packets, &mut sampler));
        let top10 = heavy_hitter_visibility(&home, &sampled, 0.10).unwrap();
        let all = heavy_hitter_visibility(&home, &sampled, 1.0).unwrap();
        assert!(top10 > 0.9, "top-10% visibility {top10}");
        assert!(
            all < top10,
            "overall visibility {all} below heavy-hitter visibility"
        );
        assert!(heavy_hitter_visibility(&HourVisibility::default(), &sampled, 0.1).is_none());
    }

    #[test]
    fn ecdf_basics() {
        let curve = ecdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(curve.first().unwrap().0, 1.0);
        assert_eq!(curve.last().unwrap(), &(3.0, 1.0));
        assert!((ecdf_at(&curve, 2.0) - 0.75).abs() < 1e-9);
        assert_eq!(ecdf_at(&curve, 0.5), 0.0);
        assert_eq!(ecdf_at(&curve, 99.0), 1.0);
    }
}
