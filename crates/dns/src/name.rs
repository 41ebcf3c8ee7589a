//! Domain names, SLD extraction, and wildcard patterns.
//!
//! The methodology repeatedly reasons at two granularities:
//!
//! * **FQDN** — the unit of the §3 visibility analysis ("number of observed
//!   domains (FQDNs)") and of the per-device domain sets;
//! * **SLD** ("second-level domain") — the unit of the §4.2.1 exclusivity
//!   test ("a service IP is exclusively used if it only serves domains from
//!   a single second-level domain and its CNAMEs") and of the §4.2.2
//!   certificate match ("match at least the SLD or higher").
//!
//! SLD extraction consults an embedded, intentionally small public-suffix
//! list: the synthetic universe only mints names under these suffixes, and
//! the unit tests pin the behaviour for multi-label suffixes (`co.uk`).

use std::fmt;
use std::str::FromStr;

/// Errors from parsing a domain name or pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// The name was empty or had an empty label (`a..b`, leading/trailing
    /// dot).
    EmptyLabel(String),
    /// A label contained a character outside `[a-z0-9-_*]`.
    BadCharacter(String),
    /// A wildcard appeared somewhere other than as the full leftmost label.
    MisplacedWildcard(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel(s) => write!(f, "empty label in {s:?}"),
            NameError::BadCharacter(s) => write!(f, "invalid character in {s:?}"),
            NameError::MisplacedWildcard(s) => write!(f, "misplaced wildcard in {s:?}"),
        }
    }
}

impl std::error::Error for NameError {}

/// Public suffixes known to the synthetic universe. Order matters only for
/// readability; matching always prefers the longest suffix.
const PUBLIC_SUFFIXES: &[&str] = &[
    "com", "net", "org", "io", "tv", "de", "cn", "uk", "co.uk", "com.cn", "cloud", "info",
];

fn is_public_suffix(labels: &[&str]) -> bool {
    let joined = labels.join(".");
    PUBLIC_SUFFIXES.contains(&joined.as_str())
}

fn validate_label(label: &str, original: &str, allow_wildcard: bool) -> Result<(), NameError> {
    if label.is_empty() {
        return Err(NameError::EmptyLabel(original.to_string()));
    }
    if label == "*" {
        if allow_wildcard {
            return Ok(());
        }
        return Err(NameError::BadCharacter(original.to_string()));
    }
    if label.contains('*') {
        return Err(NameError::MisplacedWildcard(original.to_string()));
    }
    if label
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
    {
        Ok(())
    } else {
        Err(NameError::BadCharacter(original.to_string()))
    }
}

/// A fully-qualified domain name in canonical (lowercase, no trailing dot)
/// form, e.g. `avs-alexa.na.amazon.com`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName(String);

impl DomainName {
    /// Parse and canonicalize. Accepts mixed case and a trailing dot.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let lower = s.trim_end_matches('.').to_ascii_lowercase();
        if lower.is_empty() {
            return Err(NameError::EmptyLabel(s.to_string()));
        }
        for label in lower.split('.') {
            validate_label(label, s, false)?;
        }
        Ok(DomainName(lower))
    }

    /// The canonical textual form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Labels from leftmost (host) to rightmost (TLD).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.0.split('.').count()
    }

    /// The registrable "second-level domain" per the embedded public-suffix
    /// list: one label more than the longest matching public suffix.
    ///
    /// `devA-vm.ec2compute.amazonaws.com` → `amazonaws.com`;
    /// `cam.vendor.co.uk` → `vendor.co.uk`. Names that *are* a public
    /// suffix (or shorter) return themselves.
    pub fn sld(&self) -> DomainName {
        let labels: Vec<&str> = self.0.split('.').collect();
        // Longest public suffix: try suffixes of decreasing length.
        for take in (1..labels.len()).rev() {
            let suffix = &labels[labels.len() - take..];
            if is_public_suffix(suffix) {
                let sld = &labels[labels.len() - take - 1..];
                return DomainName(sld.join("."));
            }
        }
        self.clone()
    }

    /// Whether `self` equals `ancestor` or is a subdomain of it.
    pub fn is_subdomain_of(&self, ancestor: &DomainName) -> bool {
        self.0 == ancestor.0
            || (self.0.len() > ancestor.0.len()
                && self.0.ends_with(&ancestor.0)
                && self.0.as_bytes()[self.0.len() - ancestor.0.len() - 1] == b'.')
    }

    /// Prepend a label, e.g. `DomainName::parse("amazon.com")?.child("avs")`
    /// → `avs.amazon.com`.
    pub fn child(&self, label: &str) -> Result<DomainName, NameError> {
        validate_label(&label.to_ascii_lowercase(), label, false)?;
        Ok(DomainName(format!(
            "{}.{}",
            label.to_ascii_lowercase(),
            self.0
        )))
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for DomainName {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

/// A certificate-style name pattern: either an exact FQDN or a single
/// leftmost wildcard (`*.devE.com`), as used by the §4.2.2 match criteria.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DomainPattern {
    /// Matches exactly one FQDN.
    Exact(DomainName),
    /// `*.base` — matches any name exactly one label below `base` (the
    /// X.509 wildcard rule: the wildcard covers a single label).
    Wildcard(DomainName),
}

impl DomainPattern {
    /// Parse a pattern string.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let lower = s.trim_end_matches('.').to_ascii_lowercase();
        if let Some(rest) = lower.strip_prefix("*.") {
            if rest.contains('*') {
                return Err(NameError::MisplacedWildcard(s.to_string()));
            }
            Ok(DomainPattern::Wildcard(DomainName::parse(rest)?))
        } else if lower.contains('*') {
            Err(NameError::MisplacedWildcard(s.to_string()))
        } else {
            Ok(DomainPattern::Exact(DomainName::parse(&lower)?))
        }
    }

    /// Whether `name` matches this pattern.
    pub fn matches(&self, name: &DomainName) -> bool {
        match self {
            DomainPattern::Exact(e) => e == name,
            DomainPattern::Wildcard(base) => {
                name.is_subdomain_of(base) && name.label_count() == base.label_count() + 1
            }
        }
    }

    /// The base name the pattern is anchored at (`devE.com` for
    /// `*.devE.com`).
    pub fn base(&self) -> &DomainName {
        match self {
            DomainPattern::Exact(d) | DomainPattern::Wildcard(d) => d,
        }
    }
}

impl fmt::Display for DomainPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainPattern::Exact(d) => write!(f, "{d}"),
            DomainPattern::Wildcard(d) => write!(f, "*.{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn parse_canonicalizes() {
        assert_eq!(
            d("AVS-Alexa.NA.Amazon.COM.").as_str(),
            "avs-alexa.na.amazon.com"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DomainName::parse("").is_err());
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse(".a.com").is_err());
        assert!(DomainName::parse("spaced out.com").is_err());
        assert!(DomainName::parse("star*.com").is_err());
        assert!(
            DomainName::parse("*.wild.com").is_err(),
            "wildcards only in patterns"
        );
    }

    #[test]
    fn sld_extraction_matches_paper_examples() {
        // §4.2.1 example: EC2-hosted VM name.
        assert_eq!(
            d("deva-vm.ec2compute.amazonaws.com").sld(),
            d("amazonaws.com")
        );
        assert_eq!(d("avs-alexa.na.amazon.com").sld(), d("amazon.com"));
        assert_eq!(d("samsungotn.net").sld(), d("samsungotn.net"));
        assert_eq!(d("cam.vendor.co.uk").sld(), d("vendor.co.uk"));
        // A bare public suffix maps to itself.
        assert_eq!(d("com").sld(), d("com"));
        assert_eq!(d("co.uk").sld(), d("co.uk"));
    }

    #[test]
    fn subdomain_relation() {
        assert!(d("a.b.com").is_subdomain_of(&d("b.com")));
        assert!(d("b.com").is_subdomain_of(&d("b.com")));
        assert!(
            !d("ab.com").is_subdomain_of(&d("b.com")),
            "label boundary respected"
        );
        assert!(!d("b.com").is_subdomain_of(&d("a.b.com")));
    }

    #[test]
    fn child_builds_subdomains() {
        assert_eq!(d("amazon.com").child("avs").unwrap(), d("avs.amazon.com"));
        assert!(d("amazon.com").child("bad label").is_err());
    }

    #[test]
    fn wildcard_pattern_single_label() {
        let p = DomainPattern::parse("*.devE.com").unwrap();
        assert!(p.matches(&d("c.deve.com")));
        assert!(
            !p.matches(&d("deve.com")),
            "wildcard does not match the base"
        );
        assert!(
            !p.matches(&d("a.b.deve.com")),
            "wildcard covers exactly one label"
        );
        assert!(!p.matches(&d("deve.net")));
    }

    #[test]
    fn exact_pattern() {
        let p = DomainPattern::parse("c.devE.com").unwrap();
        assert!(p.matches(&d("c.deve.com")));
        assert!(!p.matches(&d("x.deve.com")));
        assert_eq!(p.to_string(), "c.deve.com");
    }

    #[test]
    fn pattern_rejects_inner_wildcards() {
        assert!(DomainPattern::parse("a.*.com").is_err());
        assert!(DomainPattern::parse("**.com").is_err());
        assert!(DomainPattern::parse("*.*.com").is_err());
    }

    #[test]
    fn pattern_display_round_trips() {
        for s in ["*.deve.com", "c.deve.com"] {
            assert_eq!(DomainPattern::parse(s).unwrap().to_string(), s);
        }
    }
}
