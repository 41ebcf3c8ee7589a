//! IPv4 address helpers and the user-vs-server IP split.
//!
//! The vantage points never export raw subscriber addresses: §2.1 states
//! *"We distinguish user IPs from server IPs and anonymize by hashing all
//! user IPs. We call an IP a server IP if it receives or transmits traffic
//! on well-known ports or if it belongs to ASes of cloud or CDN
//! providers."* This module implements exactly that decision rule; the
//! hashing itself lives in [`crate::anonymize`].

use crate::asn::{AsCategory, AsRegistry};
use crate::ports::is_well_known_server_port;
use std::net::Ipv4Addr;

/// Extension helpers on [`std::net::Ipv4Addr`] used throughout the
/// workspace. IPv4 is sufficient for the reproduction: the paper's flow
/// analysis is address-family agnostic and the testbed devices are v4-only.
pub trait Ipv4AddrExt {
    /// The address as a big-endian `u32` (how it is carried in NetFlow).
    fn to_u32(self) -> u32;
    /// Inverse of [`Ipv4AddrExt::to_u32`].
    fn from_u32(v: u32) -> Self;
    /// The enclosing /24 network address, used for the Figure 13 prefix
    /// aggregation.
    fn slash24(self) -> Ipv4Addr;
}

impl Ipv4AddrExt for Ipv4Addr {
    fn to_u32(self) -> u32 {
        u32::from(self)
    }

    fn from_u32(v: u32) -> Self {
        Ipv4Addr::from(v)
    }

    fn slash24(self) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self) & 0xFFFF_FF00)
    }
}

/// Result of the §2.1 user/server classification of one flow endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpClass {
    /// A subscriber-side address — must be anonymized before leaving the
    /// vantage point.
    User,
    /// A service-side address — kept in the clear; these are what the
    /// detection rules index.
    Server,
}

/// Classify one endpoint of a flow.
///
/// An endpoint is a *server* if (a) its port is well-known
/// ([`crate::ports::WELL_KNOWN_SERVER_PORTS`]) or (b) its address belongs to
/// an AS registered as a cloud or CDN provider. Everything else is treated
/// as a user endpoint.
pub fn classify_endpoint(ip: Ipv4Addr, port: u16, registry: &AsRegistry) -> IpClass {
    if is_well_known_server_port(port) {
        return IpClass::Server;
    }
    match registry.lookup(ip).map(|a| a.category) {
        Some(AsCategory::Cloud) | Some(AsCategory::Cdn) => IpClass::Server,
        _ => IpClass::User,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsCategory, AsRegistry, Asn};
    use crate::prefix::Prefix4;

    fn registry() -> AsRegistry {
        let mut r = AsRegistry::new();
        r.register(
            Asn(64500),
            "cloudco",
            AsCategory::Cloud,
            vec![Prefix4::new(Ipv4Addr::new(198, 18, 0, 0), 16).unwrap()],
        );
        r.register(
            Asn(64501),
            "eyeball",
            AsCategory::Eyeball,
            vec![Prefix4::new(Ipv4Addr::new(100, 64, 0, 0), 10).unwrap()],
        );
        r.finalize();
        r
    }

    #[test]
    fn u32_round_trip() {
        let ip = Ipv4Addr::new(192, 0, 2, 77);
        assert_eq!(Ipv4Addr::from_u32(ip.to_u32()), ip);
    }

    #[test]
    fn slash24_masks_low_octet() {
        assert_eq!(
            Ipv4Addr::new(10, 1, 2, 200).slash24(),
            Ipv4Addr::new(10, 1, 2, 0)
        );
    }

    #[test]
    fn well_known_port_makes_server() {
        let r = registry();
        // Even an eyeball-space IP on port 443 is a server endpoint.
        assert_eq!(
            classify_endpoint(Ipv4Addr::new(100, 64, 1, 1), 443, &r),
            IpClass::Server
        );
    }

    #[test]
    fn cloud_as_makes_server_regardless_of_port() {
        let r = registry();
        assert_eq!(
            classify_endpoint(Ipv4Addr::new(198, 18, 5, 5), 49152, &r),
            IpClass::Server
        );
    }

    #[test]
    fn eyeball_high_port_is_user() {
        let r = registry();
        assert_eq!(
            classify_endpoint(Ipv4Addr::new(100, 64, 1, 1), 49152, &r),
            IpClass::User
        );
        // Unregistered space on a high port is also user by default.
        assert_eq!(
            classify_endpoint(Ipv4Addr::new(203, 0, 113, 9), 40000, &r),
            IpClass::User
        );
    }
}
