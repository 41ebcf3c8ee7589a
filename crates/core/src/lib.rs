//! # haystack-core
//!
//! The paper's contribution (Figure 7's pipeline), stage by stage:
//!
//! 1. [`observations`] — collect per-domain ground-truth usage from the
//!    testbed capture (which device classes contact it, on which ports,
//!    toward which service IPs).
//! 2. [`domains`] — §4.1: classify observed domains into IoT-specific
//!    **Primary** / **Support** vs **Generic**.
//! 3. [`dedicated`] — §4.2.1: DNSDB-based dedicated-vs-shared inference
//!    (single-SLD exclusivity with the cloud-VM allowance), §4.2.2: the
//!    Censys certificate/banner fallback for DNSDB-less domains, §4.2.3:
//!    removal of shared-infrastructure services.
//! 4. [`rules`] — §4.3: detection rules at platform / manufacturer /
//!    product level with the evidence threshold `D`, including the
//!    Amazon and Samsung hierarchies.
//! 5. [`hitlist`] — the *daily* (service IP, port) → rule index that
//!    absorbs DNS churn.
//! 6. [`detector`] — the streaming detector: constant state per
//!    (line, rule), O(1) per record via the hitlist index.
//! 7. [`usage`] — §7.1: distinguishing active use from idle presence.
//! 8. [`visibility`] — §3: what survives sampling (Figures 5, 6, 9, 17).
//! 9. [`crosscheck`] — §5: time-to-detection on ground truth (Figure 10).
//! 10. [`report`] — §6: wild-scale aggregation (Figures 11–16, 18).
//! 11. [`pipeline`] — end-to-end orchestration and the §4 funnel counts.
//!
//! Supporting systems around the pipeline: [`parallel`] (sharded
//! multi-core detection), [`fasthash`] (the hot-path hasher), [`reference`](mod@reference)
//! (the pre-optimization detector kept as the equivalence oracle),
//! [`mitigation`] (§7.2 block/redirect/notify), [`dns_assisted`] (§7.4's
//! resolver-log variant), [`staleness`] (§7.3 rule-health monitoring),
//! [`baseline`] (the §8 traffic-feature comparator), and [`quality`]
//! (precision/recall against the simulation oracle). [`checkpoint`] is
//! the crash-safe snapshot/restore of all long-lived state (DESIGN.md
//! §12). [`telemetry`] is
//! the pipeline-wide metrics/span substrate (DESIGN.md §11): a no-op
//! unless compiled with the `telemetry` feature *and* enabled at
//! runtime, so the hot path pays nothing by default. [`classes`] interns
//! device-class names into compact ids shared by every rule-indexed
//! structure; [`pack`] is the versioned, checksummed signature-pack
//! codec that externalizes the rule layer (DESIGN.md §14); [`events`]
//! derives the NDJSON detection-event stream from detector state.
//! [`procpool`] is [`parallel`]'s process link: the pool's shards as
//! `haystack shard-worker` children, spoken to over checksummed pipe
//! frames under the same supervisor (DESIGN.md §15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod checkpoint;
pub mod classes;
pub mod crosscheck;
pub mod dedicated;
pub mod detector;
pub mod dns_assisted;
pub mod domains;
pub mod events;
pub mod fasthash;
mod gate;
pub mod hitlist;
pub mod mitigation;
pub mod observations;
pub mod pack;
pub mod parallel;
pub mod pipeline;
pub mod procpool;
pub mod quality;
pub mod reference;
pub mod report;
pub mod rules;
pub mod staleness;
pub mod telemetry;
pub mod usage;
pub mod visibility;

pub use checkpoint::{
    CheckpointDir, CheckpointError, DetectorDelta, DetectorSnapshot, DetectorState, StalenessState,
    UsageState,
};
pub use classes::{ClassId, ClassTable};
pub use crosscheck::{GroundTruthVantage, HOME_LINE};
pub use dedicated::{DedicationVerdict, InfraKnowledge};
pub use detector::{DetectionQuery, Detector, DetectorConfig, RuleHandle};
pub use domains::{DomainClass, WebIntelligence};
pub use events::DetectionEvent;
pub use fasthash::{FastMap, FastSet, FxBuildHasher, FxHasher};
pub use hitlist::{HitList, MapHitList};
pub use observations::{DomainObservations, DomainUsage};
pub use pack::{PackError, SignaturePack};
pub use parallel::{
    DetectorPool, PoolError, RespawnPolicy, ShardHealth, ShardStatus, ShardStatusReport,
};
pub use pipeline::{Pipeline, PipelineStats};
pub use reference::ReferenceDetector;
pub use rules::{DetectionRule, RuleSet, RuleSetBuilder};
pub use telemetry::{Counter, Gauge, Histogram, HotStats, InstrumentedStream, Scope, Snapshot};

#[cfg(test)]
pub(crate) mod testutil {
    use crate::pipeline::{Pipeline, PipelineConfig};
    use std::sync::OnceLock;

    /// One shared fast pipeline for the whole test binary — building it
    /// costs tens of seconds, and every §5/§6 test needs the same one.
    pub fn shared_pipeline() -> &'static Pipeline {
        static PIPELINE: OnceLock<Pipeline> = OnceLock::new();
        PIPELINE.get_or_init(|| Pipeline::run(PipelineConfig::fast(13)))
    }
}
