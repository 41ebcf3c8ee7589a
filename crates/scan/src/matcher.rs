//! The §4.2.2 certificate-to-domain match criteria.
//!
//! A certificate *identifies* a domain when both hold:
//!
//! 1. some subject name matches the domain **at the SLD or higher** — i.e.
//!    the matching pattern is anchored within the domain's own registrable
//!    domain (`c.devE.com` or `*.devE.com` for the domain `c.devE.com`),
//!    not at a hosting provider's name; and
//! 2. there is **no other SAN**: every subject name on the certificate is
//!    anchored in that same SLD. A multi-tenant certificate (CDN-style,
//!    SANs across several registrable domains) identifies nobody.

use crate::cert::Certificate;
use haystack_dns::DomainName;

/// Apply the match criteria of §4.2.2.
pub fn cert_identifies_domain(cert: &Certificate, domain: &DomainName) -> bool {
    let sld = domain.sld();
    // Criterion 1: a subject name matches the domain, anchored in its SLD.
    let covered = cert
        .names
        .iter()
        .any(|p| p.matches(domain) && p.base().sld() == sld);
    if !covered {
        return false;
    }
    // Criterion 2: no foreign SAN.
    cert.names.iter().all(|p| p.base().sld() == sld)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_dns::DomainPattern;

    fn pat(s: &str) -> DomainPattern {
        DomainPattern::parse(s).unwrap()
    }

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn paper_example_positive() {
        // c.devE.com with a cert for *.devE.com and no other SAN.
        let cert = Certificate::single(pat("*.deve.com"), 0);
        assert!(cert_identifies_domain(&cert, &d("c.deve.com")));
        // Exact-name cert also matches.
        let cert = Certificate::single(pat("c.deve.com"), 0);
        assert!(cert_identifies_domain(&cert, &d("c.deve.com")));
    }

    #[test]
    fn multiple_sans_same_sld_ok() {
        let cert = Certificate::new(
            vec![pat("*.deve.com"), pat("api.deve.com"), pat("deve.com")],
            0,
        );
        assert!(cert_identifies_domain(&cert, &d("c.deve.com")));
    }

    #[test]
    fn foreign_san_disqualifies() {
        // CDN-style multi-tenant certificate.
        let cert = Certificate::new(vec![pat("*.deve.com"), pat("*.othertenant.net")], 0);
        assert!(!cert_identifies_domain(&cert, &d("c.deve.com")));
    }

    #[test]
    fn hosting_provider_cert_does_not_identify_tenant() {
        // The name matches nothing of the tenant: a cert for
        // *.cloudhost.com does not identify c.deve.com even if it is what
        // the server presents.
        let cert = Certificate::single(pat("*.cloudhost.com"), 0);
        assert!(!cert_identifies_domain(&cert, &d("c.deve.com")));
    }

    #[test]
    fn non_matching_name_same_sld_fails_criterion_one() {
        // Cert anchored in the right SLD but whose pattern does not cover
        // the queried FQDN (wildcard covers one label only).
        let cert = Certificate::single(pat("*.deve.com"), 0);
        assert!(!cert_identifies_domain(&cert, &d("a.b.deve.com")));
        assert!(!cert_identifies_domain(&cert, &d("deve.com")));
    }
}
