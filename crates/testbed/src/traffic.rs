//! Per-instance packet generation.
//!
//! One device instance talking to one domain in one hour produces a
//! Poisson-distributed number of packets around the domain's rate
//! (idle rate, plus interaction bursts in active hours — §2.3), organized
//! into TCP/UDP sessions against the addresses the domain resolves to at
//! that hour. TCP sessions open with a SYN and continue with ACK/PSH data
//! segments, so flow records downstream carry realistic cumulative flags
//! (the IXP's §6.3 filter depends on this).

use crate::catalog::DomainSpec;
use haystack_dns::Resolver;
use haystack_flow::{Packet, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::{HourBin, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Draw from Poisson(λ): inversion for small λ, normal approximation with
/// continuity correction for large λ. Deterministic given the RNG.
pub fn poisson<R: Rng>(lambda: f64, rng: &mut R) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = rng.gen::<f64>();
        while p > l {
            k += 1;
            p *= rng.gen::<f64>();
            if k > 10_000 {
                break; // numeric safety
            }
        }
        k
    } else {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (lambda + lambda.sqrt() * z + 0.5).max(0.0) as u64
    }
}

/// Deterministic per-(instance, domain, hour) RNG seed.
fn seed_for(seed: u64, instance: u32, domain_idx: usize, hour: HourBin) -> u64 {
    let mut z =
        seed ^ (u64::from(instance) << 40) ^ ((domain_idx as u64) << 24) ^ u64::from(hour.0);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate the packets one instance sends to one domain within one hour.
///
/// * `interactions` — automated interactions scheduled in this hour
///   (drives [`DomainSpec::rate_with_interactions`]).
/// * `startup` — the device booted this hour: a modest burst (config
///   fetch, re-resolution, time sync) touches every domain — Figure 5a's
///   leading spike, far smaller than a functional interaction.
/// * `rate_scale` — instance-level multiplier (e.g. generic streaming
///   domains are damped for non-video devices).
///
/// Returns packets sorted by timestamp.
#[allow(clippy::too_many_arguments)]
pub fn device_domain_hour(
    global_seed: u64,
    instance: u32,
    domain_idx: usize,
    spec: &DomainSpec,
    src: Ipv4Addr,
    resolver: &Resolver<'_>,
    hour: HourBin,
    interactions: u32,
    startup: bool,
    rate_scale: f64,
) -> Vec<Packet> {
    let mut rng = SmallRng::seed_from_u64(seed_for(global_seed, instance, domain_idx, hour));
    // An interaction exercises *some* of the device's interactive
    // endpoints, not all of them every time: regular primaries see the
    // burst in about half their interaction hours (active-only domains
    // always do — they exist only for this).
    let eff_interactions = if interactions > 0
        && spec.role != crate::catalog::DomainRole::ActiveOnly
        && rng.gen_bool(0.5)
    {
        0
    } else {
        interactions
    };
    let startup_pph = if startup {
        40.0 + (spec.idle_pph * 0.5).min(80.0)
    } else {
        0.0
    };
    let lambda = (spec.rate_with_interactions(eff_interactions) + startup_pph) * rate_scale;
    let n = poisson(lambda, &mut rng);
    if n == 0 {
        return Vec::new();
    }
    let Some(resolution) = resolver.resolve(&spec.name, hour.start()) else {
        return Vec::new();
    };
    let ips = &resolution.ips;
    // Busier device-hours touch more of the domain's live addresses
    // (re-resolution + connection churn): this is what dilutes per-IP
    // packet counts and caps the §3 service-IP visibility near the
    // paper's ~16 % under 1/1000 sampling.
    let endpoints = if n > 1_500 {
        // Very hot services (voice endpoints, streaming) keep long-lived
        // connections to few addresses — these are Figure 6's heavy
        // hitters and must stay concentrated enough to survive sampling.
        3.min(ips.len())
    } else {
        (1 + n as usize / 30).min(6).min(ips.len())
    };
    let mut out = Vec::with_capacity(n as usize + endpoints * 2);
    let hour_start = hour.start().0;
    let mut remaining = n;
    for e in 0..endpoints {
        let dst = ips[rng.gen_range(0..ips.len())];
        let sport = 32_768 + (rng.gen::<u16>() % 28_000);
        let share = remaining / (endpoints - e) as u64;
        let share = if e == endpoints - 1 { remaining } else { share };
        remaining -= share;
        if share == 0 {
            continue;
        }
        // Sessions of ~8–40 packets spread across the hour.
        let mut sent = 0u64;
        while sent < share {
            let sess = (8 + rng.gen_range(0u64..32)).min(share - sent) as u32;
            let t0 = hour_start + rng.gen_range(0u64..3_400);
            for k in 0..sess {
                let ts = SimTime(t0 + u64::from(k) / 4); // ~4 pkts/sec within a session
                let flags = match spec.proto {
                    Proto::Udp => TcpFlags::NONE,
                    Proto::Tcp if k == 0 => TcpFlags::SYN,
                    Proto::Tcp => {
                        if rng.gen_bool(0.5) {
                            TcpFlags::ACK
                        } else {
                            TcpFlags::ACK | TcpFlags::PSH
                        }
                    }
                };
                let jitter = rng.gen_range(0..(spec.bytes_per_pkt / 4 + 1));
                out.push(Packet {
                    ts,
                    src,
                    dst,
                    sport,
                    dport: spec.port,
                    proto: spec.proto,
                    bytes: spec.bytes_per_pkt + jitter,
                    flags,
                });
            }
            sent += u64::from(sess);
        }
    }
    out.sort_by_key(|p| p.ts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{DomainRole, HostingKind};
    use haystack_dns::zone::RotationPolicy;
    use haystack_dns::{DomainName, ZoneDb};

    fn spec(pph: f64, proto: Proto) -> DomainSpec {
        DomainSpec {
            name: DomainName::parse("d0.test-iot.com").unwrap(),
            role: DomainRole::Primary,
            hosting: HostingKind::DEDICATED_DEFAULT,
            port: if proto == Proto::Udp { 123 } else { 443 },
            proto,
            idle_pph: pph,
            active_burst: 500.0,
            bytes_per_pkt: 300,
            dnsdb_blind: false,
            https: true,
        }
    }

    fn zones() -> ZoneDb {
        let mut z = ZoneDb::new();
        z.insert_pool(
            DomainName::parse("d0.test-iot.com").unwrap(),
            (1..=8).map(|i| Ipv4Addr::new(198, 18, 9, i)).collect(),
            RotationPolicy {
                active_count: 4,
                period_secs: 3_600,
            },
        );
        z
    }

    const SRC: Ipv4Addr = Ipv4Addr::new(100, 64, 4, 49);

    #[test]
    fn deterministic_given_seed() {
        let z = zones();
        let r = Resolver::new(&z);
        let s = spec(200.0, Proto::Tcp);
        let a = device_domain_hour(7, 3, 0, &s, SRC, &r, HourBin(5), 0, false, 1.0);
        let b = device_domain_hour(7, 3, 0, &s, SRC, &r, HourBin(5), 0, false, 1.0);
        assert_eq!(a, b);
        let c = device_domain_hour(8, 3, 0, &s, SRC, &r, HourBin(5), 0, false, 1.0);
        assert_ne!(a, c, "different seed, different traffic");
    }

    #[test]
    fn packet_volume_tracks_rate() {
        let z = zones();
        let r = Resolver::new(&z);
        let s = spec(300.0, Proto::Tcp);
        let total: usize = (0..50)
            .map(|h| device_domain_hour(1, 0, 0, &s, SRC, &r, HourBin(h), 0, false, 1.0).len())
            .sum();
        let mean = total as f64 / 50.0;
        assert!(
            (250.0..350.0).contains(&mean),
            "mean {mean} pkts/hour for rate 300"
        );
    }

    #[test]
    fn interactions_add_bursts() {
        let z = zones();
        let r = Resolver::new(&z);
        let s = spec(50.0, Proto::Tcp);
        let idle = device_domain_hour(1, 0, 0, &s, SRC, &r, HourBin(5), 0, false, 1.0).len();
        let active = device_domain_hour(1, 0, 0, &s, SRC, &r, HourBin(5), 2, false, 1.0).len();
        assert!(active > idle + 500, "idle {idle}, active {active}");
    }

    #[test]
    fn tcp_sessions_start_with_syn_and_carry_data() {
        let z = zones();
        let r = Resolver::new(&z);
        let s = spec(120.0, Proto::Tcp);
        let pkts = device_domain_hour(2, 1, 0, &s, SRC, &r, HourBin(3), 0, false, 1.0);
        assert!(pkts.iter().any(|p| p.flags.contains(TcpFlags::SYN)));
        assert!(pkts.iter().any(|p| p.flags.is_established_evidence()));
        assert!(
            pkts.windows(2).all(|w| w[0].ts <= w[1].ts),
            "sorted by time"
        );
        assert!(pkts.iter().all(|p| p.dport == 443 && p.src == SRC));
    }

    #[test]
    fn udp_packets_have_no_flags() {
        let z = zones();
        let r = Resolver::new(&z);
        let s = spec(60.0, Proto::Udp);
        let pkts = device_domain_hour(2, 1, 0, &s, SRC, &r, HourBin(3), 0, false, 1.0);
        assert!(!pkts.is_empty());
        assert!(pkts
            .iter()
            .all(|p| p.flags == TcpFlags::NONE && p.dport == 123));
    }

    #[test]
    fn destinations_come_from_live_resolution() {
        let z = zones();
        let r = Resolver::new(&z);
        let s = spec(400.0, Proto::Tcp);
        let live: std::collections::HashSet<_> = r
            .resolve(&s.name, HourBin(3).start())
            .unwrap()
            .ips
            .into_iter()
            .collect();
        let pkts = device_domain_hour(2, 1, 0, &s, SRC, &r, HourBin(3), 0, false, 1.0);
        assert!(pkts.iter().all(|p| live.contains(&p.dst)));
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let z = zones();
        let r = Resolver::new(&z);
        let s = spec(0.0, Proto::Tcp);
        assert!(device_domain_hour(1, 0, 0, &s, SRC, &r, HourBin(0), 0, false, 1.0).is_empty());
    }

    #[test]
    fn poisson_mean() {
        let mut rng = SmallRng::seed_from_u64(42);
        for lambda in [0.5f64, 5.0, 25.0, 80.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| poisson(lambda, &mut rng)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.sqrt() * 0.2 + 0.05,
                "lambda {lambda}, mean {mean}"
            );
        }
    }
}
