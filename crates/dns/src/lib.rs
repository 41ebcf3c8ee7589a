//! # haystack-dns
//!
//! The DNS substrate of the reproduction. Three roles:
//!
//! 1. **Naming** ([`name`]) — fully-qualified domain names, label
//!    manipulation, second-level-domain (SLD) extraction against an
//!    embedded public-suffix list, and the `*.example.com`-style patterns
//!    used by the certificate matcher (§4.2.2).
//! 2. **Resolution** ([`zone`], [`resolver`]) — an authoritative zone model
//!    (A records and CNAME indirection) plus a resolver that reproduces the
//!    *churn* the paper works around: "the specific IP addresses mapping to
//!    specific domains can change often" (§4.2.1). Domains are backed by IP
//!    pools and the resolver rotates through them over time.
//! 3. **Passive DNS** ([`dnsdb`]) — a DNSDB-style database (Farsight \[16\])
//!    that records every observed resolution and answers the two §4.2.1
//!    queries: *all IPs a domain mapped to* and *all domains an IP served*
//!    within a time window, CNAMEs included.
//!
//! Everything is synthetic and deterministic; no sockets, no real DNS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dnsdb;
pub mod name;
pub mod record;
pub mod resolver;
pub mod zone;

pub use dnsdb::{DnsDb, DnsDbObservation};
pub use name::{DomainName, DomainPattern, NameError};
pub use record::{DnsRecord, Rdata, RrType};
pub use resolver::{Resolution, Resolver};
pub use zone::{ZoneDb, ZoneEntry};
