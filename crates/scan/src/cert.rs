//! X.509-lite certificates.
//!
//! Only the fields the §4.2.2 matcher consumes are modelled: the subject
//! Name patterns (CN + SANs, uniformly represented as
//! [`DomainPattern`]s) and a fingerprint that stands in for the
//! certificate hash Censys indexes by.

use haystack_dns::{DomainName, DomainPattern};
use std::fmt;

/// A leaf certificate as recorded by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject names: the CN and every SAN, as name patterns.
    pub names: Vec<DomainPattern>,
    /// Stand-in for the SHA-256 certificate fingerprint.
    pub fingerprint: u64,
}

impl Certificate {
    /// Build a certificate for a set of name patterns. The fingerprint is
    /// derived deterministically from the names plus a serial, so re-keyed
    /// certs for the same names can be distinguished.
    pub fn new(names: Vec<DomainPattern>, serial: u64) -> Certificate {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ serial.wrapping_mul(0x100_0000_01B3);
        for n in &names {
            for b in n.to_string().bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h = h.rotate_left(7);
        }
        Certificate {
            names,
            fingerprint: h,
        }
    }

    /// Convenience: single-name certificate.
    pub fn single(pattern: DomainPattern, serial: u64) -> Certificate {
        Certificate::new(vec![pattern], serial)
    }

    /// Whether any subject name matches `domain`.
    pub fn covers(&self, domain: &DomainName) -> bool {
        self.names.iter().any(|p| p.matches(domain))
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cert[{:016x}:", self.fingerprint)?;
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, " {n}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(s: &str) -> DomainPattern {
        DomainPattern::parse(s).unwrap()
    }

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn covers_wildcard_and_exact() {
        let c = Certificate::new(vec![pat("*.deve.com"), pat("deve.com")], 1);
        assert!(c.covers(&d("c.deve.com")));
        assert!(c.covers(&d("deve.com")));
        assert!(!c.covers(&d("a.b.deve.com")));
        assert!(!c.covers(&d("other.com")));
    }

    #[test]
    fn fingerprint_depends_on_names_and_serial() {
        let a = Certificate::single(pat("*.deve.com"), 1);
        let b = Certificate::single(pat("*.deve.com"), 2);
        let c = Certificate::single(pat("*.other.com"), 1);
        assert_ne!(
            a.fingerprint, b.fingerprint,
            "serial re-key changes fingerprint"
        );
        assert_ne!(a.fingerprint, c.fingerprint, "names change fingerprint");
        assert_eq!(
            a,
            Certificate::single(pat("*.deve.com"), 1),
            "deterministic"
        );
    }
}
