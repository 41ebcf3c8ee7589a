//! CIDR prefixes and prefix-level aggregation.
//!
//! Two uses in the paper:
//!
//! * the Home-VP is a **/28 inside a /22 reserved for residential users**
//!   (§2.1), so the simulation needs prefix containment and sub-allocation;
//! * Figure 13's churn analysis aggregates detected subscriber lines to
//!   **/24 granularity** because subscriber identifiers rotate but their
//!   /24s are far more stable.

use crate::error::NetError;
use std::collections::HashSet;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix, stored in canonical form (host bits zeroed).
///
/// ```
/// use haystack_net::Prefix4;
/// use std::net::Ipv4Addr;
///
/// let p: Prefix4 = "100.64.4.0/22".parse().unwrap();
/// assert!(p.contains(Ipv4Addr::new(100, 64, 7, 255)));
/// let home_vp = p.subnet(28, 3).unwrap(); // the paper's /28 out of a /22
/// assert_eq!(home_vp.to_string(), "100.64.4.48/28");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix4 {
    net: u32,
    len: u8,
}

impl Prefix4 {
    /// Build a prefix from an address and length; host bits are masked off,
    /// so `Prefix4::new(10.0.0.7, 24)` is `10.0.0.0/24`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, NetError> {
        if len > 32 {
            return Err(NetError::InvalidPrefixLen(len));
        }
        Ok(Prefix4 {
            net: u32::from(addr) & Self::mask(len),
            len,
        })
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// Network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.net)
    }

    /// Prefix length.
    #[allow(clippy::len_without_is_empty)] // a /32 is a 1-address prefix, never "empty"
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered (saturates at `u32::MAX` for /0).
    pub fn size(&self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - u32::from(self.len))
        }
    }

    /// Whether `ip` falls inside this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask(self.len) == self.net
    }

    /// Whether `other` is fully contained in `self`.
    pub fn covers(&self, other: &Prefix4) -> bool {
        other.len >= self.len && (other.net & Self::mask(self.len)) == self.net
    }

    /// The `i`-th address of the prefix (panics if `i >= size()`), used by
    /// the population model to hand out subscriber addresses.
    pub fn nth(&self, i: u32) -> Ipv4Addr {
        debug_assert!(
            i < self.size(),
            "address index {i} out of /{} prefix",
            self.len
        );
        Ipv4Addr::from(self.net + i)
    }

    /// Carve the `i`-th sub-prefix of length `sub_len` out of this prefix,
    /// e.g. the /28 assigned to the Home-VP out of the residential /22.
    pub fn subnet(&self, sub_len: u8, i: u32) -> Result<Prefix4, NetError> {
        if sub_len > 32 || sub_len < self.len {
            return Err(NetError::InvalidPrefixLen(sub_len));
        }
        let step = 1u32 << (32 - u32::from(sub_len));
        Prefix4::new(Ipv4Addr::from(self.net + i * step), sub_len)
    }

    /// The enclosing /24 of an address — Figure 13's aggregation level.
    pub fn slash24_of(ip: Ipv4Addr) -> Prefix4 {
        Prefix4 {
            net: u32::from(ip) & 0xFFFF_FF00,
            len: 24,
        }
    }
}

impl fmt::Display for Prefix4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix4 {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| NetError::InvalidPrefixSyntax(s.to_string()))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| NetError::InvalidPrefixSyntax(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| NetError::InvalidPrefixSyntax(s.to_string()))?;
        Prefix4::new(addr, len)
    }
}

/// Accumulates unique addresses and reports unique /24 counts — the Figure
/// 13 lower panel ("/24 Subscribers") in streaming form.
#[derive(Debug, Default, Clone)]
pub struct PrefixAggregator {
    addrs: HashSet<u32>,
    slash24s: HashSet<u32>,
}

impl PrefixAggregator {
    /// New, empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observed subscriber address.
    pub fn observe(&mut self, ip: Ipv4Addr) {
        let v = u32::from(ip);
        self.addrs.insert(v);
        self.slash24s.insert(v & 0xFFFF_FF00);
    }

    /// Unique addresses observed so far (Figure 13 upper panel).
    pub fn unique_addrs(&self) -> usize {
        self.addrs.len()
    }

    /// Unique /24s observed so far (Figure 13 lower panel).
    pub fn unique_slash24s(&self) -> usize {
        self.slash24s.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_host_bits() {
        let p = Prefix4::new(Ipv4Addr::new(10, 0, 0, 7), 24).unwrap();
        assert_eq!(p.network(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(p.to_string(), "10.0.0.0/24");
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(Prefix4::new(Ipv4Addr::UNSPECIFIED, 33).is_err());
        assert!("10.0.0.0/33".parse::<Prefix4>().is_err());
        assert!("notanip/8".parse::<Prefix4>().is_err());
        assert!("10.0.0.0".parse::<Prefix4>().is_err());
    }

    #[test]
    fn containment() {
        let p: Prefix4 = "192.0.2.0/24".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 255)));
        assert!(!p.contains(Ipv4Addr::new(192, 0, 3, 0)));
        let slash22: Prefix4 = "192.0.0.0/22".parse().unwrap();
        assert!(slash22.covers(&p));
        assert!(!p.covers(&slash22));
        assert!(p.covers(&p));
    }

    #[test]
    fn home_vp_slash28_out_of_slash22() {
        // §2.1: a /28 reserved out of a /22 residential prefix.
        let residential: Prefix4 = "100.64.4.0/22".parse().unwrap();
        let home = residential.subnet(28, 3).unwrap();
        assert_eq!(home.to_string(), "100.64.4.48/28");
        assert_eq!(home.size(), 16);
        assert!(residential.covers(&home));
    }

    #[test]
    fn subnet_rejects_shorter_than_parent() {
        let p: Prefix4 = "10.0.0.0/16".parse().unwrap();
        assert!(p.subnet(8, 0).is_err());
    }

    #[test]
    fn nth_enumerates_addresses() {
        let p: Prefix4 = "198.51.100.16/28".parse().unwrap();
        assert_eq!(p.nth(0), Ipv4Addr::new(198, 51, 100, 16));
        assert_eq!(p.nth(15), Ipv4Addr::new(198, 51, 100, 31));
    }

    #[test]
    fn aggregator_counts_slash24s() {
        let mut agg = PrefixAggregator::new();
        agg.observe(Ipv4Addr::new(10, 0, 0, 1));
        agg.observe(Ipv4Addr::new(10, 0, 0, 2));
        agg.observe(Ipv4Addr::new(10, 0, 1, 1));
        agg.observe(Ipv4Addr::new(10, 0, 0, 1)); // duplicate
        assert_eq!(agg.unique_addrs(), 3);
        assert_eq!(agg.unique_slash24s(), 2);
    }

    #[test]
    fn size_of_zero_len_saturates() {
        let p = Prefix4::new(Ipv4Addr::UNSPECIFIED, 0).unwrap();
        assert_eq!(p.size(), u32::MAX);
        assert!(p.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }
}
