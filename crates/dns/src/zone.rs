//! Authoritative zone model.
//!
//! Every domain in the synthetic universe is backed by one [`ZoneEntry`]:
//! either a **pool of A records** with a rotation policy (modelling the
//! DNS→IP churn of §4.2.1) or a **CNAME** to another domain (modelling the
//! `devB.com → devB.com.akadns.net` CDN indirection of the paper's second
//! example).

use crate::name::DomainName;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How a pooled domain rotates through its candidate addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationPolicy {
    /// How many of the pool's addresses are live at any instant.
    pub active_count: usize,
    /// How often (seconds) the live subset is re-drawn. `0` disables
    /// rotation (a stable mapping).
    pub period_secs: u64,
}

impl RotationPolicy {
    /// A mapping that never changes.
    pub const STABLE: RotationPolicy = RotationPolicy {
        active_count: usize::MAX,
        period_secs: 0,
    };

    /// The rotation epoch at time `t_secs`.
    pub fn epoch(&self, t_secs: u64) -> u64 {
        t_secs.checked_div(self.period_secs).unwrap_or(0)
    }
}

/// Authoritative data for one domain.
#[derive(Debug, Clone)]
pub enum ZoneEntry {
    /// Hosted directly on a set of addresses; the resolver serves a
    /// rotating subset.
    Pool {
        /// All candidate addresses for this domain over the study period.
        addrs: Vec<Ipv4Addr>,
        /// Rotation policy.
        rotation: RotationPolicy,
    },
    /// Alias to another domain (which must itself be registered for
    /// resolution to terminate in addresses).
    Cname(DomainName),
}

/// The authoritative zone database for the entire synthetic Internet.
#[derive(Debug, Default, Clone)]
pub struct ZoneDb {
    entries: HashMap<DomainName, ZoneEntry>,
}

impl ZoneDb {
    /// New, empty zone database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a pooled domain. Replaces any previous entry.
    pub fn insert_pool(
        &mut self,
        name: DomainName,
        addrs: Vec<Ipv4Addr>,
        rotation: RotationPolicy,
    ) {
        self.entries
            .insert(name, ZoneEntry::Pool { addrs, rotation });
    }

    /// Register a CNAME. Replaces any previous entry.
    pub fn insert_cname(&mut self, name: DomainName, target: DomainName) {
        self.entries.insert(name, ZoneEntry::Cname(target));
    }

    /// Look up the authoritative entry for `name`.
    pub fn get(&self, name: &DomainName) -> Option<&ZoneEntry> {
        self.entries.get(name)
    }

    /// Whether the name exists in the zone.
    pub fn contains(&self, name: &DomainName) -> bool {
        self.entries.contains_key(name)
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the zone is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate all registered names.
    pub fn names(&self) -> impl Iterator<Item = &DomainName> {
        self.entries.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = ZoneDb::new();
        db.insert_pool(
            d("api.deva.com"),
            vec![Ipv4Addr::new(198, 18, 0, 1)],
            RotationPolicy::STABLE,
        );
        db.insert_cname(d("devb.com"), d("devb.com.akadns.net"));
        assert!(db.contains(&d("api.deva.com")));
        assert!(
            matches!(db.get(&d("devb.com")), Some(ZoneEntry::Cname(t)) if *t == d("devb.com.akadns.net"))
        );
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn rotation_epochs() {
        let r = RotationPolicy {
            active_count: 2,
            period_secs: 3600,
        };
        assert_eq!(r.epoch(0), 0);
        assert_eq!(r.epoch(3599), 0);
        assert_eq!(r.epoch(3600), 1);
        assert_eq!(RotationPolicy::STABLE.epoch(99_999), 0);
    }

    #[test]
    fn reinsert_replaces() {
        let mut db = ZoneDb::new();
        db.insert_pool(
            d("x.com"),
            vec![Ipv4Addr::new(1, 1, 1, 1)],
            RotationPolicy::STABLE,
        );
        db.insert_cname(d("x.com"), d("y.com"));
        assert!(matches!(db.get(&d("x.com")), Some(ZoneEntry::Cname(_))));
        assert_eq!(db.len(), 1);
    }
}
