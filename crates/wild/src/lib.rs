//! # haystack-wild
//!
//! The population-scale side of the paper (§6): what the methodology sees
//! when pointed at a whole ISP and a whole IXP rather than one subscriber
//! line.
//!
//! * [`population`] — subscriber lines with product ownership drawn from
//!   per-product penetration, stable addresses with daily churn
//!   (rotation mostly within the /24, as ISPs re-assign regionally — the
//!   effect Figure 13 quantifies).
//! * [`diurnal`] — the human-activity curves behind Figure 11(a)'s
//!   patterns: entertainment devices peak in the evening, most device
//!   chatter is flat.
//! * [`plan`] — per-product contact plans compiled from the catalog:
//!   domain weights for idle chatter and for active-use hours.
//! * [`gen`] — the flow-level generator. Packet sampling is applied as
//!   Poisson/Binomial thinning per (line, product, hour), then sampled
//!   packets are attributed to domains by exact Poisson splitting —
//!   statistically identical to per-packet sampling of the aggregate
//!   stream (see the `sampling_equivalence` bench) and feasible at
//!   millions of lines.
//! * [`isp`] — the ISP vantage point: all subscriber traffic, NetFlow-style
//!   sampling (default 1/1000), user IPs anonymized (§2.1).
//! * [`ixp`] — the IXP vantage point: member ASes of very different sizes,
//!   sampling an order of magnitude lower (1/10000), routing asymmetry,
//!   spoofed traffic, and the §6.3 established-TCP filter.
//! * [`degrade`] — record-level feed impairment: re-interprets
//!   `haystack-flow`'s chaos configuration at population scale so
//!   detection quality under a lossy export path can be measured
//!   (DESIGN.md, "Fault model").
//! * [`stream`] — the chunked streaming contract ([`RecordStream`],
//!   [`RecordChunk`], [`VantagePoint`]): vantage points hand traffic to
//!   consumers one bounded chunk at a time instead of materializing an
//!   hour (DESIGN.md, "Streaming architecture").
//! * [`soak`] — the stateless wild-scale soak generator: ≥10⁶ lines of
//!   ~99%-miss traffic for the `haystack soak` harness and
//!   `benchmark/`'s soak workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degrade;
pub mod diurnal;
pub mod gen;
pub mod isp;
pub mod ixp;
pub mod plan;
pub mod population;
pub mod record;
pub mod soak;
pub mod stream;

pub use degrade::{degrade_records, DegradeStream, FeedDegradation};
pub use gen::{DnsQueryEvent, HourStream, HourTraffic};
pub use isp::{IspConfig, IspVantage};
pub use ixp::{IxpConfig, IxpVantage, MemberAs};
pub use plan::ContactPlan;
pub use population::{Population, PopulationConfig};
pub use record::WildRecord;
pub use soak::{SoakConfig, SoakStream};
pub use stream::{
    materialize, skip_chunks, FilterStream, RecordChunk, RecordStream, VantagePoint, VecStream,
    Watermark, DEFAULT_CHUNK_RECORDS,
};
