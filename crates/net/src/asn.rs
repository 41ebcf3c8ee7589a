//! Autonomous systems and the AS taxonomy used at the IXP vantage point.
//!
//! §6.3 / Figure 16: *"While the IXP offers network connectivity for every
//! AS, only a few member ASes are large eyeballs … a small number of member
//! ASes are responsible for a large fraction of the IoT activity. Manual
//! checks showed that these are all eyeball ASes."* The reproduction needs
//! (a) an AS registry mapping prefixes to member ASes and (b) a category
//! per AS so the ECDF of Figure 16 can be grouped and so the user/server IP
//! split can recognize cloud/CDN space (§2.1).
//!
//! Lookup is by longest-prefix match over the registered prefixes, backed
//! by a sorted interval table — O(log n) per lookup, no per-lookup
//! allocation, which matters because the IXP pipeline classifies both ends
//! of every sampled flow.

use crate::prefix::Prefix4;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Coarse category of an AS, following the paper's discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsCategory {
    /// Residential access network ("eyeball AS", \[29\] in the paper).
    Eyeball,
    /// Cloud/hosting provider (AWS-like); dedicated IoT backends often rent
    /// VMs here with exclusive public IPs (§4.2.1).
    Cloud,
    /// Content delivery network (Akamai-like); *shared* infrastructure that
    /// defeats IP-level attribution (§4.2.3).
    Cdn,
    /// Enterprise/content network running its own servers — the dedicated
    /// IoT-operator backends of Figure 1.
    Enterprise,
    /// Transit / other networks.
    Transit,
}

impl AsCategory {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AsCategory::Eyeball => "eyeball",
            AsCategory::Cloud => "cloud",
            AsCategory::Cdn => "cdn",
            AsCategory::Enterprise => "enterprise",
            AsCategory::Transit => "transit",
        }
    }
}

/// Metadata for one registered AS.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Human-readable name ("org" field).
    pub name: String,
    /// Category used by the IXP analysis and the endpoint classifier.
    pub category: AsCategory,
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    start: u32,
    /// Inclusive end of the covered range.
    end: u32,
    len: u8,
    asn: Asn,
}

/// A registry of ASes and their originated prefixes with longest-prefix
/// match lookup.
///
/// ```
/// use haystack_net::{AsCategory, AsRegistry, Asn, Prefix4};
///
/// let mut reg = AsRegistry::new();
/// reg.register(Asn(64500), "cdn-co", AsCategory::Cdn, vec!["23.0.0.0/10".parse().unwrap()]);
/// reg.finalize();
/// let hit = reg.lookup("23.1.2.3".parse().unwrap()).unwrap();
/// assert_eq!(hit.asn, Asn(64500));
/// assert_eq!(hit.category, AsCategory::Cdn);
/// assert!(reg.lookup("24.0.0.1".parse().unwrap()).is_none());
/// ```
#[derive(Debug, Default, Clone)]
pub struct AsRegistry {
    info: HashMap<Asn, AsInfo>,
    intervals: Vec<Interval>,
    sorted: bool,
}

impl AsRegistry {
    /// New, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an AS with the prefixes it originates. Registering the same
    /// ASN again extends its prefix set and overwrites its metadata.
    pub fn register(
        &mut self,
        asn: Asn,
        name: impl Into<String>,
        category: AsCategory,
        prefixes: Vec<Prefix4>,
    ) {
        self.info.insert(asn, AsInfo { asn, name: name.into(), category });
        for p in prefixes {
            let start = u32::from(p.network());
            let end = start + (p.size() - 1);
            self.intervals.push(Interval { start, end, len: p.len(), asn });
        }
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Sort by start, then by descending length so that for equal
            // starts the most specific prefix comes first.
            self.intervals
                .sort_by(|a, b| a.start.cmp(&b.start).then(b.len.cmp(&a.len)));
            self.sorted = true;
        }
    }

    /// Freeze the registry for lookups. Called automatically by the
    /// builder-style constructors in higher layers; exposed for callers
    /// that interleave registration and lookup.
    pub fn finalize(&mut self) {
        self.ensure_sorted();
    }

    /// Longest-prefix match. Returns the AS metadata of the most specific
    /// registered prefix covering `ip`, or `None` for unregistered space.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<&AsInfo> {
        debug_assert!(self.sorted || self.intervals.is_empty(), "AsRegistry::finalize not called");
        let v = u32::from(ip);
        // Partition point: first interval with start > v. Candidates are
        // before it; walk backwards until intervals can no longer cover v.
        let idx = self.intervals.partition_point(|i| i.start <= v);
        let mut best: Option<&Interval> = None;
        for i in self.intervals[..idx].iter().rev() {
            if i.end >= v {
                // CIDR prefixes are nested or disjoint, so any
                // earlier-starting interval that also covers `v` is wider
                // (less specific); keeping the max length is sufficient.
                match best {
                    Some(b) if b.len >= i.len => {}
                    _ => best = Some(i),
                }
            } else if best.is_some() {
                // A gap below the current match: every earlier covering
                // interval would be wider than the match we already hold.
                break;
            }
        }
        best.and_then(|i| self.info.get(&i.asn))
    }

    /// Metadata for a specific ASN.
    pub fn get(&self, asn: Asn) -> Option<&AsInfo> {
        self.info.get(&asn)
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.info.len()
    }

    /// Whether no AS is registered.
    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn registry() -> AsRegistry {
        let mut r = AsRegistry::new();
        r.register(Asn(100), "eyeball-a", AsCategory::Eyeball, vec![p("100.64.0.0/10")]);
        r.register(Asn(200), "cloud-x", AsCategory::Cloud, vec![p("198.18.0.0/16"), p("198.19.0.0/16")]);
        r.register(Asn(300), "cdn-y", AsCategory::Cdn, vec![p("198.18.128.0/17")]);
        r.finalize();
        r
    }

    #[test]
    fn basic_lookup() {
        let r = registry();
        assert_eq!(r.lookup(Ipv4Addr::new(100, 64, 3, 4)).unwrap().asn, Asn(100));
        assert_eq!(r.lookup(Ipv4Addr::new(198, 19, 0, 1)).unwrap().asn, Asn(200));
        assert!(r.lookup(Ipv4Addr::new(203, 0, 113, 1)).is_none());
    }

    #[test]
    fn longest_prefix_wins() {
        let r = registry();
        // 198.18.128.0/17 (CDN) is more specific than 198.18.0.0/16 (cloud).
        assert_eq!(r.lookup(Ipv4Addr::new(198, 18, 200, 1)).unwrap().asn, Asn(300));
        assert_eq!(r.lookup(Ipv4Addr::new(198, 18, 1, 1)).unwrap().asn, Asn(200));
    }

    #[test]
    fn boundaries_are_inclusive() {
        let r = registry();
        assert_eq!(r.lookup(Ipv4Addr::new(100, 64, 0, 0)).unwrap().asn, Asn(100));
        assert_eq!(r.lookup(Ipv4Addr::new(100, 127, 255, 255)).unwrap().asn, Asn(100));
        assert!(r.lookup(Ipv4Addr::new(100, 128, 0, 0)).is_none());
    }

    #[test]
    fn reregistering_extends_prefixes() {
        let mut r = registry();
        r.register(Asn(100), "eyeball-a", AsCategory::Eyeball, vec![p("203.0.113.0/24")]);
        r.finalize();
        assert_eq!(r.lookup(Ipv4Addr::new(203, 0, 113, 50)).unwrap().asn, Asn(100));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn display_format() {
        assert_eq!(Asn(64500).to_string(), "AS64500");
    }
}
