//! # haystack-scan
//!
//! The Censys substrate (\[9\] in the paper): a queryable snapshot of
//! TLS certificates and HTTPS banners per scanned IP, plus the §4.2.2
//! match criteria the methodology applies when DNSDB has no record for a
//! domain:
//!
//! > *"For a certificate to be associated with a domain, we require that
//! > the domain name and the Name field entry in the certificate match at
//! > least the SLD or higher … and that there is no other Subject
//! > Alternative Name (SAN) in the certificate. Next, we query the Censys
//! > dataset for all IPs with the same certificate and HTTPS banner
//! > checksum for the domain."*
//!
//! The snapshot is static over the study window — the synthetic backend
//! pools do not re-key mid-study, matching how the paper uses a dataset
//! "within the same period".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banner;
pub mod cert;
pub mod database;
pub mod matcher;

pub use banner::HttpsBanner;
pub use cert::Certificate;
pub use database::{HostScan, ScanDb};
pub use matcher::cert_identifies_domain;
