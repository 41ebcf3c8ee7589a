//! # haystack-testbed
//!
//! The ground-truth side of the paper (§2): two IoT testbeds — 96 device
//! instances, 56 unique products, ~40 manufacturers (Table 1) — whose
//! traffic is tunneled through one ISP subscriber line (the Home-VP, a /28
//! out of a residential /22).
//!
//! * [`catalog`] — the device/class/domain type model and the full
//!   standard catalog: every Table-1 product, its detection class as
//!   annotated in Figure 10 (platform / manufacturer / product level), its
//!   backend domain set with per-domain traffic profiles, hosting shapes,
//!   and the devices excluded in §4.2.3 (shared infrastructure /
//!   insufficient information).
//! * [`materialize`](mod@materialize) — registers every catalog domain with the
//!   [`haystack_backend::UniverseBuilder`], producing the DNS/cert/AS
//!   world the experiments run against.
//! * [`traffic`] — the per-instance packet generator: laconic vs gossiping
//!   rate profiles (Figure 8), idle vs active behaviour, interaction
//!   bursts (§2.3's 9 810 automated experiments), TCP/UDP session shapes.
//! * [`experiment`] — the §2.3 schedules (idle: Nov 22–25; active:
//!   Nov 15–18) and the Home-VP full packet capture.
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod catalog;
pub mod countermeasures;
pub mod experiment;
pub mod materialize;
pub mod traffic;

pub use catalog::{
    Catalog, Category, ClassSpec, DetectionLevel, DomainRole, DomainSpec, ExclusionReason,
    HostingKind, ProductSpec, TestbedId,
};
pub use experiment::{ExperimentDriver, ExperimentKind, GroundTruthPacket};
pub use materialize::{materialize, MaterializedWorld};
