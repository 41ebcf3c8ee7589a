//! The simulated resolver: CNAME chasing plus churn.
//!
//! §4.2.1 motivates DNSDB precisely because *"DNS domain to IP address
//! mappings are dynamic"*. The resolver reproduces that dynamism: a pooled
//! domain with a [`RotationPolicy`](crate::zone::RotationPolicy) of, say,
//! 4 live addresses re-drawn hourly from a pool of 12 will hand different
//! answers to queries an hour apart — so a detector that memorizes a single
//! resolution goes stale, while the passive-DNS view accumulates the whole
//! pool.
//!
//! The live subset is a deterministic function of `(domain, epoch)`, so
//! every component of the simulation (device traffic, DNSDB feeding,
//! hitlist building) observes a consistent DNS at any instant.

use crate::name::DomainName;
use crate::record::{DnsRecord, Rdata};
use crate::zone::{ZoneDb, ZoneEntry};
use haystack_net::SimTime;
use std::net::Ipv4Addr;

/// Maximum CNAME chain length before resolution is abandoned (mirrors
/// resolver loop protection).
pub const MAX_CHAIN: usize = 8;

/// The outcome of resolving one name at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The name queried.
    pub qname: DomainName,
    /// CNAME records followed, in order (empty for directly-hosted names).
    pub chain: Vec<DnsRecord>,
    /// The owner name of the final A records (equal to `qname` when
    /// `chain` is empty).
    pub canonical: DomainName,
    /// The A-record addresses served at the query instant.
    pub ips: Vec<Ipv4Addr>,
}

impl Resolution {
    /// Every owner name that appeared in the response: the qname, each
    /// CNAME target, ending at the canonical name.
    pub fn all_names(&self) -> Vec<DomainName> {
        let mut names = vec![self.qname.clone()];
        for rec in &self.chain {
            if let Rdata::Cname(t) = &rec.rdata {
                names.push(t.clone());
            }
        }
        names
    }
}

/// A resolver over a [`ZoneDb`].
#[derive(Debug, Clone, Copy)]
pub struct Resolver<'a> {
    zones: &'a ZoneDb,
}

/// Deterministically select `k` distinct indices out of `n` as a function
/// of `seed` — the rotation's subset draw. Uses a Feistel-free
/// multiplicative shuffle: repeatedly hash to pick, quadratic probing on
/// collisions. O(k) expected.
fn select_subset(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    if k == n {
        return (0..n).collect();
    }
    let mut picked = vec![false; n];
    let mut out = Vec::with_capacity(k);
    let mut state = seed;
    while out.len() < k {
        // SplitMix64 step.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut idx = (z % n as u64) as usize;
        while picked[idx] {
            idx = (idx + 1) % n;
        }
        picked[idx] = true;
        out.push(idx);
    }
    out.sort_unstable();
    out
}

fn name_seed(name: &DomainName) -> u64 {
    // FNV-1a over the canonical text.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_str().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl<'a> Resolver<'a> {
    /// Build a resolver over the given zones.
    pub fn new(zones: &'a ZoneDb) -> Self {
        Resolver { zones }
    }

    /// Resolve `qname` at instant `t`. Returns `None` if the name (or a
    /// CNAME target) is not in the zone, or the chain exceeds
    /// [`MAX_CHAIN`].
    pub fn resolve(&self, qname: &DomainName, t: SimTime) -> Option<Resolution> {
        let mut chain = Vec::new();
        let mut current = qname.clone();
        for _ in 0..=MAX_CHAIN {
            match self.zones.get(&current)? {
                ZoneEntry::Cname(target) => {
                    chain.push(DnsRecord {
                        name: current.clone(),
                        rdata: Rdata::Cname(target.clone()),
                    });
                    current = target.clone();
                }
                ZoneEntry::Pool { addrs, rotation } => {
                    if addrs.is_empty() {
                        return None;
                    }
                    let epoch = rotation.epoch(t.0);
                    let seed = name_seed(&current) ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let k = rotation.active_count.min(addrs.len());
                    let ips = select_subset(addrs.len(), k, seed)
                        .into_iter()
                        .map(|i| addrs[i])
                        .collect();
                    return Some(Resolution {
                        qname: qname.clone(),
                        chain,
                        canonical: current,
                        ips,
                    });
                }
            }
        }
        None // CNAME loop or over-long chain.
    }

    /// The union of every address a pooled domain can ever serve (chasing
    /// CNAMEs) — what a *complete* passive-DNS database would eventually
    /// accumulate. Used by tests and by the hitlist oracle.
    pub fn full_pool(&self, qname: &DomainName) -> Option<Vec<Ipv4Addr>> {
        let mut current = qname.clone();
        for _ in 0..=MAX_CHAIN {
            match self.zones.get(&current)? {
                ZoneEntry::Cname(t) => current = t.clone(),
                ZoneEntry::Pool { addrs, .. } => return Some(addrs.clone()),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::RotationPolicy;

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 0, last)
    }

    fn zones() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.insert_pool(
            d("edge.cdn.net"),
            (1..=12).map(ip).collect(),
            RotationPolicy {
                active_count: 4,
                period_secs: 3_600,
            },
        );
        db.insert_cname(d("devb.com"), d("devb.com.cdn.net"));
        db.insert_cname(d("devb.com.cdn.net"), d("edge.cdn.net"));
        db.insert_pool(d("api.deva.com"), vec![ip(100)], RotationPolicy::STABLE);
        db
    }

    #[test]
    fn direct_resolution() {
        let z = zones();
        let r = Resolver::new(&z);
        let res = r.resolve(&d("api.deva.com"), SimTime(0)).unwrap();
        assert!(res.chain.is_empty());
        assert_eq!(res.canonical, d("api.deva.com"));
        assert_eq!(res.ips, vec![ip(100)]);
    }

    #[test]
    fn cname_chain_resolution() {
        let z = zones();
        let r = Resolver::new(&z);
        let res = r.resolve(&d("devb.com"), SimTime(0)).unwrap();
        assert_eq!(res.chain.len(), 2);
        assert_eq!(res.canonical, d("edge.cdn.net"));
        assert_eq!(res.ips.len(), 4);
        assert_eq!(
            res.all_names(),
            vec![d("devb.com"), d("devb.com.cdn.net"), d("edge.cdn.net")]
        );
    }

    #[test]
    fn rotation_changes_answers_across_epochs() {
        let z = zones();
        let r = Resolver::new(&z);
        let a = r.resolve(&d("edge.cdn.net"), SimTime(0)).unwrap().ips;
        let b = r.resolve(&d("edge.cdn.net"), SimTime(3_600)).unwrap().ips;
        let c = r.resolve(&d("edge.cdn.net"), SimTime(1_800)).unwrap().ips;
        assert_eq!(a, c, "same epoch, same answer");
        assert_ne!(a, b, "different epochs rotate the live subset");
    }

    #[test]
    fn rotation_covers_full_pool_over_time() {
        let z = zones();
        let r = Resolver::new(&z);
        let mut seen = std::collections::HashSet::new();
        for h in 0..200u64 {
            for i in r
                .resolve(&d("edge.cdn.net"), SimTime(h * 3_600))
                .unwrap()
                .ips
            {
                seen.insert(i);
            }
        }
        assert_eq!(seen.len(), 12, "churn eventually exposes the whole pool");
    }

    #[test]
    fn unknown_name_fails() {
        let z = zones();
        assert!(Resolver::new(&z)
            .resolve(&d("nosuch.com"), SimTime(0))
            .is_none());
    }

    #[test]
    fn cname_loop_detected() {
        let mut db = ZoneDb::new();
        db.insert_cname(d("a.com"), d("b.com"));
        db.insert_cname(d("b.com"), d("a.com"));
        assert!(Resolver::new(&db)
            .resolve(&d("a.com"), SimTime(0))
            .is_none());
    }

    #[test]
    fn empty_pool_fails() {
        let mut db = ZoneDb::new();
        db.insert_pool(d("hollow.com"), vec![], RotationPolicy::STABLE);
        assert!(Resolver::new(&db)
            .resolve(&d("hollow.com"), SimTime(0))
            .is_none());
    }

    #[test]
    fn full_pool_chases_cnames() {
        let z = zones();
        let pool = Resolver::new(&z).full_pool(&d("devb.com")).unwrap();
        assert_eq!(pool.len(), 12);
    }

    #[test]
    fn chain_of_max_depth_resolves_but_longer_fails() {
        let mut db = ZoneDb::new();
        // a0 -> a1 -> ... -> a{MAX_CHAIN-1} -> pool  (MAX_CHAIN links).
        for i in 0..MAX_CHAIN {
            let from = d(&format!("a{i}.chain.com"));
            let to = if i + 1 == MAX_CHAIN {
                d("end.chain.com")
            } else {
                d(&format!("a{}.chain.com", i + 1))
            };
            db.insert_cname(from, to);
        }
        db.insert_pool(d("end.chain.com"), vec![ip(9)], RotationPolicy::STABLE);
        let r = Resolver::new(&db);
        let res = r.resolve(&d("a0.chain.com"), SimTime(0)).unwrap();
        assert_eq!(res.chain.len(), MAX_CHAIN);
        assert_eq!(res.ips, vec![ip(9)]);
        // One more link exceeds the loop guard.
        db.insert_cname(d("pre.chain.com"), d("a0.chain.com"));
        let r = Resolver::new(&db);
        assert!(r.resolve(&d("pre.chain.com"), SimTime(0)).is_none());
    }

    #[test]
    fn active_count_larger_than_pool_serves_everything() {
        let mut db = ZoneDb::new();
        db.insert_pool(
            d("tiny.com"),
            vec![ip(1), ip(2)],
            RotationPolicy {
                active_count: 10,
                period_secs: 60,
            },
        );
        let r = Resolver::new(&db);
        let res = r.resolve(&d("tiny.com"), SimTime(0)).unwrap();
        assert_eq!(res.ips.len(), 2);
    }

    #[test]
    fn select_subset_is_deterministic_and_distinct() {
        let a = select_subset(10, 4, 42);
        let b = select_subset(10, 4, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert_eq!(select_subset(3, 7, 1).len(), 3, "k clamps to n");
    }
}
