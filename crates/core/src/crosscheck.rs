//! §5 — crosschecking the rules against the ground truth.
//!
//! The Home-VP's packets are run through the *full* measurement pipeline
//! — packet sampling at the border router, the flow cache, NetFlow v9
//! encoding, collection, decoding — and the resulting records are fed to
//! the detector. The output is Figure 10: per detection class and
//! threshold `D`, the time until the class is detected at the Home-VP
//! subscriber line (or "not detected" within the window).
//!
//! The same machinery powers the false-positive crosscheck ("another
//! experiment where we only enable a small subset of IoT devices … we do
//! not identify any devices that are not explicitly part of the
//! experiment"): pass an instance filter and assert on
//! [`detected_classes`].

use crate::detector::{Detector, DetectorConfig};
use crate::hitlist::HitList;
use crate::pipeline::Pipeline;
use haystack_flow::cache::{FlowCache, FlowCacheConfig};
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::sampling::{PacketSampler, SystematicSampler};
use haystack_flow::{Collector, FlowRecord};
use haystack_net::{AnonId, HourBin, Prefix4, StudyWindow};
use haystack_testbed::materialize::MaterializedWorld;
use haystack_testbed::ExperimentKind;
use haystack_wild::{
    RecordChunk, RecordStream, VantagePoint, VecStream, WildRecord, DEFAULT_CHUNK_RECORDS,
};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The Home-VP is one subscriber line; this is its detector identity.
pub const HOME_LINE: AnonId = AnonId(0x000A_11CE);

/// Crosscheck configuration.
#[derive(Debug, Clone)]
pub struct CrosscheckConfig {
    /// 1-in-N border-router sampling (ISP default 1/1000).
    pub sampling: u64,
    /// Which experiment to replay.
    pub kind: ExperimentKind,
    /// Limit the replay to the first `hours` of the window (whole window
    /// if `None`).
    pub hours: Option<u32>,
}

/// Per-class detection timing at one threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionTime {
    /// Detection class name (owned — resolved from the rule set's
    /// interned table).
    pub class: String,
    /// Threshold `D`.
    pub threshold: f64,
    /// Hours from window start until detection (`None` = not detected).
    pub hours_to_detect: Option<u32>,
}

/// Replay the ground truth through sampling + NetFlow and return the
/// decoded flow records per hour.
pub fn replay_flows(
    pipeline: &Pipeline,
    config: &CrosscheckConfig,
) -> Vec<(HourBin, Vec<FlowRecord>)> {
    let window = match config.kind {
        ExperimentKind::Active => StudyWindow::ACTIVE_GT,
        ExperimentKind::Idle => StudyWindow::IDLE_GT,
    };
    let mut sampler = SystematicSampler::new(
        config.sampling,
        pipeline.driver.catalog().products.len() as u64,
    )
    .expect("valid sampling rate");
    let mut cache = FlowCache::new(FlowCacheConfig::default());
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 1);
    let mut collector = Collector::new();
    let mut out = Vec::new();
    let hours: Vec<HourBin> = match config.hours {
        Some(h) => window.hour_bins().take(h as usize).collect(),
        None => window.hour_bins().collect(),
    };
    for hour in hours {
        let packets = pipeline.driver.generate_hour(&pipeline.world, hour);
        for g in &packets {
            if sampler.sample() {
                cache.on_packet(&g.packet);
            }
        }
        cache.advance(hour.next().start());
        let expired = cache.drain_expired();
        let mut decoded = Vec::with_capacity(expired.len());
        for msg in exporter
            .export(&expired, hour.start().0 as u32)
            .expect("export never fails on valid records")
        {
            decoded.extend(collector.feed(msg).expect("self-produced datagrams decode"));
        }
        out.push((hour, decoded));
    }
    out
}

/// The ground-truth testbed capture as a [`VantagePoint`]: each streamed
/// hour is the Home-VP's packets run through border sampling, the flow
/// cache, NetFlow v9 export, and collection, with the decoded flows
/// surfacing as [`WildRecord`]s attributed to [`HOME_LINE`].
///
/// The measurement chain is stateful (the flow cache carries flows
/// across hour boundaries, the sampler its phase), so hours must be
/// replayed in order. Streaming the window's first hour — or any hour
/// at or before the last one served — resets the chain and fast-forwards
/// from the window start, which keeps the interface random-access at the
/// cost of a re-replay.
pub struct GroundTruthVantage<'p> {
    pipeline: &'p Pipeline,
    config: CrosscheckConfig,
    state: RefCell<ReplayState>,
}

/// The sequential measurement chain between the testbed and the records.
struct ReplayState {
    sampler: SystematicSampler,
    cache: FlowCache,
    exporter: Exporter,
    collector: Collector,
    /// The hour the chain expects to replay next.
    next_hour: HourBin,
}

impl std::fmt::Debug for GroundTruthVantage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroundTruthVantage")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'p> GroundTruthVantage<'p> {
    /// A vantage point replaying `config.kind`'s experiment window.
    pub fn new(pipeline: &'p Pipeline, config: CrosscheckConfig) -> Self {
        let window_start = Self::window_of(&config)
            .hour_bins()
            .next()
            .expect("non-empty window");
        let state = RefCell::new(Self::fresh_state(pipeline, &config, window_start));
        GroundTruthVantage {
            pipeline,
            config,
            state,
        }
    }

    fn window_of(config: &CrosscheckConfig) -> StudyWindow {
        match config.kind {
            ExperimentKind::Active => StudyWindow::ACTIVE_GT,
            ExperimentKind::Idle => StudyWindow::IDLE_GT,
        }
    }

    fn fresh_state(pipeline: &Pipeline, config: &CrosscheckConfig, start: HourBin) -> ReplayState {
        ReplayState {
            sampler: SystematicSampler::new(
                config.sampling,
                pipeline.driver.catalog().products.len() as u64,
            )
            .expect("valid sampling rate"),
            cache: FlowCache::new(FlowCacheConfig::default()),
            exporter: Exporter::new(ExportProtocol::NetflowV9, 1),
            collector: Collector::new(),
            next_hour: start,
        }
    }

    /// Run one hour through the measurement chain, returning the decoded
    /// records and the number of border-sampled packets.
    fn replay_one(
        &self,
        state: &mut ReplayState,
        world: &MaterializedWorld,
        hour: HourBin,
    ) -> (Vec<WildRecord>, u64) {
        let packets = self.pipeline.driver.generate_hour(world, hour);
        let mut sampled = 0u64;
        for g in &packets {
            if state.sampler.sample() {
                sampled += 1;
                state.cache.on_packet(&g.packet);
            }
        }
        state.cache.advance(hour.next().start());
        let expired = state.cache.drain_expired();
        let mut decoded = Vec::with_capacity(expired.len());
        for msg in state
            .exporter
            .export(&expired, hour.start().0 as u32)
            .expect("export never fails on valid records")
        {
            decoded.extend(
                state
                    .collector
                    .feed(msg)
                    .expect("self-produced datagrams decode"),
            );
        }
        state.next_hour = hour.next();
        (
            decoded.iter().map(|r| home_record(r, hour)).collect(),
            sampled,
        )
    }
}

/// Attribute a decoded flow to the Home-VP subscriber line.
fn home_record(r: &FlowRecord, hour: HourBin) -> WildRecord {
    WildRecord {
        line: HOME_LINE,
        line_slash24: Prefix4::slash24_of(r.key.src),
        src_ip: r.key.src,
        dst: r.key.dst,
        dport: r.key.dport,
        proto: r.key.proto,
        packets: r.packets,
        bytes: r.bytes,
        established: r.is_established_evidence(),
        hour,
    }
}

impl VantagePoint for GroundTruthVantage<'_> {
    fn stream_hour<'a>(
        &'a self,
        world: &'a MaterializedWorld,
        hour: HourBin,
        chunk_records: usize,
    ) -> Box<dyn RecordStream + 'a> {
        let mut state = self.state.borrow_mut();
        if hour < state.next_hour {
            *state = Self::fresh_state(
                self.pipeline,
                &self.config,
                Self::window_of(&self.config)
                    .hour_bins()
                    .next()
                    .expect("non-empty window"),
            );
        }
        // Fast-forward the chain through any skipped hours so the flow
        // cache and sampler phase match a strictly sequential replay.
        while state.next_hour < hour {
            let skipped = state.next_hour;
            let _ = self.replay_one(&mut state, world, skipped);
        }
        let (records, sampled) = self.replay_one(&mut state, world, hour);
        let mut stream = VecStream::new(records, chunk_records);
        stream.set_sampled_packets(sampled);
        Box::new(stream)
    }
}

/// Figure 10: detection times for every rule class across thresholds.
///
/// Single pass: the window is streamed once through the ground-truth
/// vantage point and every threshold's detector observes each chunk.
pub fn detection_times(
    pipeline: &Pipeline,
    config: &CrosscheckConfig,
    thresholds: &[f64],
) -> Vec<DetectionTime> {
    let vantage = GroundTruthVantage::new(pipeline, config.clone());
    let window = GroundTruthVantage::window_of(config);
    let hours: Vec<HourBin> = match config.hours {
        Some(h) => window.hour_bins().take(h as usize).collect(),
        None => window.hour_bins().collect(),
    };
    let window_start = hours.first().map(|h| h.0).unwrap_or(0);
    let mut dets: Vec<Detector<'_>> = thresholds
        .iter()
        .map(|&threshold| {
            Detector::new(
                &pipeline.rules,
                HitList::whole_window(&pipeline.rules),
                DetectorConfig {
                    threshold,
                    require_established: false,
                },
            )
        })
        .collect();
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    for hour in hours {
        let mut stream = vantage.stream_hour(&pipeline.world, hour, DEFAULT_CHUNK_RECORDS);
        while stream.next_chunk(&mut chunk) {
            for det in &mut dets {
                det.observe_chunk(&chunk.records);
            }
        }
    }
    let mut out = Vec::new();
    for (det, &threshold) in dets.iter().zip(thresholds) {
        // Rule handles equal rule positions, so enumerating resolves each
        // class once instead of per query.
        for (ri, rule) in pipeline.rules.rules.iter().enumerate() {
            let hours_to_detect = det
                .first_detection_rule(HOME_LINE, ri as u16)
                .map(|h| h.0 - window_start);
            out.push(DetectionTime {
                class: pipeline.rules.class_name(rule.class).to_string(),
                threshold,
                hours_to_detect,
            });
        }
    }
    out
}

/// False-positive crosscheck: replay only the given instances' traffic
/// and report which classes the detector claims.
pub fn detected_classes(
    pipeline: &Pipeline,
    instances: &BTreeSet<u32>,
    config: &CrosscheckConfig,
    threshold: f64,
) -> BTreeSet<String> {
    let window = match config.kind {
        ExperimentKind::Active => StudyWindow::ACTIVE_GT,
        ExperimentKind::Idle => StudyWindow::IDLE_GT,
    };
    let mut sampler = SystematicSampler::new(config.sampling, 3).expect("valid sampling rate");
    let hitlist = HitList::whole_window(&pipeline.rules);
    let mut det = Detector::new(
        &pipeline.rules,
        hitlist,
        DetectorConfig {
            threshold,
            require_established: false,
        },
    );
    let hours: Vec<HourBin> = match config.hours {
        Some(h) => window.hour_bins().take(h as usize).collect(),
        None => window.hour_bins().collect(),
    };
    for hour in hours {
        let packets = pipeline.driver.generate_hour(&pipeline.world, hour);
        for g in &packets {
            if instances.contains(&g.instance) && sampler.sample() {
                det.observe(
                    HOME_LINE,
                    g.packet.dst,
                    g.packet.dport,
                    g.packet.proto,
                    g.packet.flags.is_established_evidence(),
                    hour,
                );
            }
        }
    }
    pipeline
        .rules
        .rules
        .iter()
        .enumerate()
        .filter(|(ri, _)| det.is_detected_rule(HOME_LINE, *ri as u16))
        .map(|(_, r)| pipeline.rules.class_name(r.class).to_string())
        .collect()
}

/// Summary used by the §5 headline claim: the fraction of rule classes
/// (optionally restricted by level) detected within `within_hours`.
pub fn fraction_detected_within(
    times: &[DetectionTime],
    threshold: f64,
    within_hours: u32,
    classes: &BTreeSet<&str>,
) -> f64 {
    let relevant: Vec<&DetectionTime> = times
        .iter()
        .filter(|t| (t.threshold - threshold).abs() < 1e-9 && classes.contains(t.class.as_str()))
        .collect();
    if relevant.is_empty() {
        return 0.0;
    }
    let hit = relevant
        .iter()
        .filter(|t| t.hours_to_detect.map(|h| h < within_hours).unwrap_or(false))
        .count();
    hit as f64 / relevant.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> &'static Pipeline {
        crate::testutil::shared_pipeline()
    }

    #[test]
    fn replay_produces_flow_records() {
        let p = pipeline();
        let flows = replay_flows(
            p,
            &CrosscheckConfig {
                sampling: 100,
                kind: ExperimentKind::Idle,
                hours: Some(3),
            },
        );
        assert_eq!(flows.len(), 3);
        let total: usize = flows.iter().map(|(_, r)| r.len()).sum();
        assert!(total > 50, "sampled flows: {total}");
    }

    #[test]
    fn vantage_stream_matches_replay_flows() {
        let p = pipeline();
        let config = CrosscheckConfig {
            sampling: 100,
            kind: ExperimentKind::Idle,
            hours: Some(3),
        };
        let flows = replay_flows(p, &config);
        let vantage = GroundTruthVantage::new(p, config);
        let mut chunk = RecordChunk::default();
        for (hour, records) in &flows {
            let expected: Vec<WildRecord> = records.iter().map(|r| home_record(r, *hour)).collect();
            let mut got = Vec::new();
            let mut stream = vantage.stream_hour(&p.world, *hour, 64);
            while stream.next_chunk(&mut chunk) {
                got.extend_from_slice(&chunk.records);
            }
            assert_eq!(got, expected, "hour {hour:?}");
        }
        // Re-streaming an earlier hour resets the measurement chain and
        // replays deterministically from the window start.
        let (h0, r0) = &flows[0];
        let again = vantage.materialize_hour(&p.world, *h0);
        let expected0: Vec<WildRecord> = r0.iter().map(|r| home_record(r, *h0)).collect();
        assert_eq!(again.records, expected0, "reset replay diverged");
    }

    #[test]
    fn hot_classes_detected_quickly_at_low_threshold() {
        let p = pipeline();
        let times = detection_times(
            p,
            &CrosscheckConfig {
                sampling: 1_000,
                kind: ExperimentKind::Active,
                hours: Some(12),
            },
            &[0.4],
        );
        let alexa = times.iter().find(|t| t.class == "Alexa Enabled").unwrap();
        assert!(
            alexa.hours_to_detect.map(|h| h <= 2).unwrap_or(false),
            "Alexa detected almost instantly, got {:?}",
            alexa.hours_to_detect
        );
    }

    #[test]
    fn higher_threshold_never_detects_earlier() {
        let p = pipeline();
        let times = detection_times(
            p,
            &CrosscheckConfig {
                sampling: 500,
                kind: ExperimentKind::Active,
                hours: Some(8),
            },
            &[0.2, 1.0],
        );
        for rule in &p.rules.rules {
            let class = p.rules.class_name(rule.class);
            let low = times
                .iter()
                .find(|t| t.class == class && t.threshold == 0.2)
                .unwrap();
            let high = times
                .iter()
                .find(|t| t.class == class && t.threshold == 1.0)
                .unwrap();
            match (low.hours_to_detect, high.hours_to_detect) {
                (None, Some(_)) => panic!("{class}: high-D detected but low-D missed"),
                (Some(l), Some(h)) => assert!(l <= h, "{class}: low {l} > high {h}"),
                _ => {}
            }
        }
    }

    #[test]
    fn subset_experiment_has_no_false_positives() {
        let p = pipeline();
        // Enable only the Yi Camera instances.
        let yi: BTreeSet<u32> = p
            .driver
            .instances()
            .iter()
            .filter(|i| p.catalog.products[i.product].class == "Yi Camera")
            .map(|i| i.id)
            .collect();
        assert!(!yi.is_empty());
        let detected = detected_classes(
            p,
            &yi,
            &CrosscheckConfig {
                sampling: 100,
                kind: ExperimentKind::Active,
                hours: Some(10),
            },
            0.4,
        );
        for class in &detected {
            assert_eq!(*class, "Yi Camera", "false positive: {class}");
        }
    }

    #[test]
    fn fraction_helper() {
        let times = vec![
            DetectionTime {
                class: "A".to_string(),
                threshold: 0.4,
                hours_to_detect: Some(0),
            },
            DetectionTime {
                class: "B".to_string(),
                threshold: 0.4,
                hours_to_detect: Some(30),
            },
            DetectionTime {
                class: "C".to_string(),
                threshold: 0.4,
                hours_to_detect: None,
            },
        ];
        let classes: BTreeSet<&'static str> = ["A", "B", "C"].into_iter().collect();
        assert!((fraction_detected_within(&times, 0.4, 1, &classes) - 1.0 / 3.0).abs() < 1e-9);
        assert!((fraction_detected_within(&times, 0.4, 48, &classes) - 2.0 / 3.0).abs() < 1e-9);
    }
    /// Regression: the flow cache used to drain in per-instance-random
    /// hash order, making two identical replays disagree record-by-record
    /// (and `GroundTruthVantage`'s reset-replay impossible to pin).
    #[test]
    fn replay_flows_is_call_stable() {
        let p = pipeline();
        let config = CrosscheckConfig {
            sampling: 100,
            kind: ExperimentKind::Idle,
            hours: Some(1),
        };
        let a = replay_flows(p, &config);
        let b = replay_flows(p, &config);
        assert_eq!(a, b);
    }
}
