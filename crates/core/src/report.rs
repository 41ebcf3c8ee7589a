//! §6 — applying the rules in the wild and aggregating the results.
//!
//! Two studies, mirroring the paper's two vantage points:
//!
//! * [`run_isp_study`] — Figures 11, 12, 13, 14, 18: per-hour and per-day
//!   unique subscriber lines per detection class, cumulative lines and
//!   /24s across the window, and per-hour *active-use* counts.
//! * [`run_ixp_study`] — Figures 15, 16: per-day unique client IPs per
//!   device-type group after the §6.3 established-TCP filter, plus the
//!   per-member-AS breakdown.
//!
//! Both rebuild the hitlist daily from passive DNS, exactly as Figure 7's
//! "Daily Hitlist & Detection Rules" box prescribes.

use crate::detector::{Detector, DetectorConfig};
use crate::hitlist::HitList;
use crate::pipeline::Pipeline;
use crate::usage::{UsageConfig, UsageTracker};
use haystack_net::ports::Proto;
use haystack_net::{AnonId, Asn, DayBin, Prefix4, StudyWindow};
use haystack_testbed::materialize::MaterializedWorld;
use haystack_wild::{IspVantage, IxpVantage, RecordChunk, VantagePoint, DEFAULT_CHUNK_RECORDS};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// The three headline device-type groups of Figures 11/15/16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceGroup {
    /// The Alexa Enabled hierarchy.
    Alexa,
    /// The Samsung IoT hierarchy.
    Samsung,
    /// Everything else ("Other 32 IoT device types").
    Other,
}

impl DeviceGroup {
    /// Group a detection class by its hierarchy root.
    pub fn of(pipeline: &Pipeline, class: &str) -> DeviceGroup {
        let root = pipeline
            .catalog
            .ancestry(class)
            .last()
            .map(|c| c.name)
            .unwrap_or(class);
        match root {
            "Alexa Enabled" => DeviceGroup::Alexa,
            "Samsung IoT" => DeviceGroup::Samsung,
            _ => DeviceGroup::Other,
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceGroup::Alexa => "Alexa Enabled",
            DeviceGroup::Samsung => "Samsung IoT",
            DeviceGroup::Other => "Other 32 IoT Device types",
        }
    }
}

/// ISP study configuration.
#[derive(Debug, Clone)]
pub struct IspStudyConfig {
    /// Evidence threshold `D` (§6.2 uses the conservative 0.4).
    pub threshold: f64,
    /// The window to study (the paper's full two weeks by default).
    pub window: StudyWindow,
    /// §7.1 usage-detection settings.
    pub usage: UsageConfig,
}

impl Default for IspStudyConfig {
    fn default() -> Self {
        IspStudyConfig {
            threshold: 0.4,
            window: StudyWindow::FULL,
            usage: UsageConfig::default(),
        }
    }
}

/// ISP study output.
#[derive(Debug, Default)]
pub struct IspStudyResult {
    /// Unique lines per (class, hour) — Figure 11(a)/12 hourly.
    pub hourly: BTreeMap<(String, u32), u64>,
    /// Unique lines per (class, day) — Figures 11(b)/12/14.
    pub daily: BTreeMap<(String, u32), u64>,
    /// Cumulative unique lines per (class, day) — Figure 13 upper.
    pub cumulative_lines: BTreeMap<(String, u32), u64>,
    /// Cumulative unique /24s per (class, day) — Figure 13 lower.
    pub cumulative_slash24: BTreeMap<(String, u32), u64>,
    /// Lines with *active use* per (class, hour) — Figure 18.
    pub active_hourly: BTreeMap<(String, u32), u64>,
    /// Unique lines per (group, hour/day) — Figure 11's three series.
    pub group_hourly: BTreeMap<(DeviceGroup, u32), u64>,
    /// See [`IspStudyResult::group_hourly`].
    pub group_daily: BTreeMap<(DeviceGroup, u32), u64>,
    /// Lines with ≥1 detected class per day ("20 % of subscriber lines").
    pub any_iot_daily: BTreeMap<u32, u64>,
    /// Total sampled packets processed.
    pub sampled_packets: u64,
}

/// Run the ISP study.
pub fn run_isp_study(
    pipeline: &Pipeline,
    world: &MaterializedWorld,
    isp: &IspVantage,
    config: &IspStudyConfig,
) -> IspStudyResult {
    let rules = &pipeline.rules;
    let det_cfg = DetectorConfig {
        threshold: config.threshold,
        require_established: false,
    };
    let mut hourly_det = Detector::new(rules, HitList::default(), det_cfg);
    let mut daily_det = Detector::new(rules, HitList::default(), det_cfg);
    let mut usage = UsageTracker::new(pipeline.rules.clone(), HitList::default(), config.usage);

    let mut result = IspStudyResult::default();
    let mut cum_lines: HashMap<u16, BTreeSet<AnonId>> = HashMap::new();
    let mut cum_slash24: HashMap<u16, BTreeSet<Prefix4>> = HashMap::new();
    // Rule handles equal rule positions; resolve each class name and its
    // device group once, not per hour × rule query.
    let rule_meta: Vec<(u16, String, DeviceGroup)> = rules
        .rules
        .iter()
        .enumerate()
        .map(|(ri, r)| {
            let class = rules.class_name(r.class);
            (
                ri as u16,
                class.to_string(),
                DeviceGroup::of(pipeline, class),
            )
        })
        .collect();
    // One chunk buffer for the whole study — the streaming vantage point
    // refills it per chunk, so no hour is ever materialized.
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);

    for day in config.window.day_bins() {
        let hitlist = HitList::for_day(rules, &pipeline.dnsdb, day);
        hourly_det.set_hitlist(hitlist.clone());
        daily_det.set_hitlist(hitlist.clone());
        usage.set_hitlist(hitlist);
        daily_det.reset();
        // The /24 of each line seen today (kept on-premises, §6.1).
        let mut slash24_of: HashMap<AnonId, Prefix4> = HashMap::new();

        for hour in day.hours() {
            hourly_det.reset();
            usage.reset();
            let mut stream = isp.stream_hour(world, hour, DEFAULT_CHUNK_RECORDS);
            while stream.next_chunk(&mut chunk) {
                result.sampled_packets += chunk.sampled_packets;
                for r in &chunk.records {
                    hourly_det.observe_wild(r);
                    daily_det.observe_wild(r);
                    usage.observe(r);
                    slash24_of.insert(r.line, r.line_slash24);
                }
            }
            let mut group_lines: BTreeMap<DeviceGroup, BTreeSet<AnonId>> = BTreeMap::new();
            for (ri, class, group) in &rule_meta {
                let lines = hourly_det.detected_lines_rule(*ri);
                result
                    .hourly
                    .insert((class.clone(), hour.0), lines.len() as u64);
                group_lines.entry(*group).or_default().extend(lines);
                let active = usage.active_lines_rule(*ri);
                result
                    .active_hourly
                    .insert((class.clone(), hour.0), active.len() as u64);
            }
            for (g, lines) in group_lines {
                result.group_hourly.insert((g, hour.0), lines.len() as u64);
            }
        }

        // Day-end aggregation.
        let mut group_lines: BTreeMap<DeviceGroup, BTreeSet<AnonId>> = BTreeMap::new();
        let mut any_iot: BTreeSet<AnonId> = BTreeSet::new();
        for (ri, class, group) in &rule_meta {
            let lines = daily_det.detected_lines_rule(*ri);
            result
                .daily
                .insert((class.clone(), day.0), lines.len() as u64);
            group_lines
                .entry(*group)
                .or_default()
                .extend(lines.iter().copied());
            any_iot.extend(lines.iter().copied());
            let cl = cum_lines.entry(*ri).or_default();
            let cs = cum_slash24.entry(*ri).or_default();
            for l in lines {
                cl.insert(l);
                if let Some(p) = slash24_of.get(&l) {
                    cs.insert(*p);
                }
            }
            result
                .cumulative_lines
                .insert((class.clone(), day.0), cl.len() as u64);
            result
                .cumulative_slash24
                .insert((class.clone(), day.0), cs.len() as u64);
        }
        for (g, lines) in group_lines {
            result.group_daily.insert((g, day.0), lines.len() as u64);
        }
        result.any_iot_daily.insert(day.0, any_iot.len() as u64);
    }
    result
}

/// IXP study configuration.
#[derive(Debug, Clone)]
pub struct IxpStudyConfig {
    /// Evidence threshold `D`.
    pub threshold: f64,
    /// Study window.
    pub window: StudyWindow,
    /// Apply the §6.3 established-TCP filter (on by default; turning it
    /// off shows the spoofing over-count, the ablation the paper argues
    /// against).
    pub established_filter: bool,
}

impl Default for IxpStudyConfig {
    fn default() -> Self {
        IxpStudyConfig {
            threshold: 0.4,
            window: StudyWindow::FULL,
            established_filter: true,
        }
    }
}

/// IXP study output.
#[derive(Debug, Default)]
pub struct IxpStudyResult {
    /// Unique detected client IPs per (group, day) — Figure 15.
    pub daily_ips: BTreeMap<(DeviceGroup, u32), u64>,
    /// Per (member ASN, group): unique detected IPs on the first study
    /// day — Figure 16's raw data.
    pub per_as_day0: BTreeMap<(Asn, DeviceGroup), u64>,
    /// Total records before/after the established filter (spoofing
    /// ablation).
    pub records_before_filter: u64,
    /// See [`IxpStudyResult::records_before_filter`].
    pub records_after_filter: u64,
}

/// Run the IXP study.
pub fn run_ixp_study(
    pipeline: &Pipeline,
    world: &MaterializedWorld,
    ixp: &IxpVantage,
    config: &IxpStudyConfig,
) -> IxpStudyResult {
    let rules = &pipeline.rules;
    let det_cfg = DetectorConfig {
        threshold: config.threshold,
        require_established: config.established_filter,
    };
    let mut daily_det = Detector::new(rules, HitList::default(), det_cfg);
    let mut result = IxpStudyResult::default();
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);

    for day in config.window.day_bins() {
        daily_det.set_hitlist(HitList::for_day(rules, &pipeline.dnsdb, day));
        daily_det.reset();
        let mut ip_of: HashMap<AnonId, Ipv4Addr> = HashMap::new();
        for hour in day.hours() {
            let mut stream = ixp.stream_hour(world, hour, DEFAULT_CHUNK_RECORDS);
            while stream.next_chunk(&mut chunk) {
                result.records_before_filter += chunk.records.len() as u64;
                for r in &chunk.records {
                    // The §6.3 established-TCP filter, applied per record.
                    if config.established_filter && r.proto == Proto::Tcp && !r.established {
                        continue;
                    }
                    result.records_after_filter += 1;
                    daily_det.observe_wild(r);
                    ip_of.insert(r.line, r.src_ip);
                }
            }
        }
        let mut group_ips: BTreeMap<DeviceGroup, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for (ri, rule) in rules.rules.iter().enumerate() {
            let group = DeviceGroup::of(pipeline, rules.class_name(rule.class));
            for line in daily_det.detected_lines_rule(ri as u16) {
                if let Some(ip) = ip_of.get(&line) {
                    group_ips.entry(group).or_default().insert(*ip);
                }
            }
        }
        for (g, ips) in &group_ips {
            result.daily_ips.insert((*g, day.0), ips.len() as u64);
        }
        if day == config.window.day_bins().next().unwrap_or(DayBin(0)) {
            for (g, ips) in &group_ips {
                for ip in ips {
                    if let Some(m) = ixp.member_of(*ip) {
                        *result.per_as_day0.entry((m.asn, *g)).or_default() += 1;
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use haystack_wild::{IspConfig, IxpConfig};

    fn pipeline() -> &'static Pipeline {
        crate::testutil::shared_pipeline()
    }

    #[test]
    fn isp_study_produces_sane_shapes() {
        let p = pipeline();
        let isp = IspVantage::new(
            &p.catalog,
            IspConfig {
                lines: 8_000,
                sampling: 1_000,
                seed: 3,
                background: false,
            },
        );
        let cfg = IspStudyConfig {
            window: StudyWindow::days(0, 2),
            ..Default::default()
        };
        let r = run_isp_study(p, &p.world, &isp, &cfg);
        // Alexa daily detections beat hourly ones (§6.2's ×2 gain).
        let alexa_daily = r
            .daily
            .get(&("Alexa Enabled".to_string(), 0))
            .copied()
            .unwrap_or(0);
        let alexa_hour = r
            .hourly
            .get(&("Alexa Enabled".to_string(), 12))
            .copied()
            .unwrap_or(0);
        assert!(alexa_daily > 0, "Alexa detected in the wild");
        assert!(
            alexa_daily >= alexa_hour,
            "daily {alexa_daily} >= hourly {alexa_hour}"
        );
        // Cumulative counts are monotone.
        let c0 = r
            .cumulative_lines
            .get(&("Alexa Enabled".to_string(), 0))
            .copied()
            .unwrap_or(0);
        let c1 = r
            .cumulative_lines
            .get(&("Alexa Enabled".to_string(), 1))
            .copied()
            .unwrap_or(0);
        assert!(c1 >= c0);
        // Any-IoT share is a plausible fraction of 8 000 lines.
        let any = r.any_iot_daily[&0] as f64 / 8_000.0;
        assert!((0.05..0.40).contains(&any), "any-IoT daily share {any:.3}");
    }

    #[test]
    fn ixp_study_counts_ips_and_filters_spoofing() {
        let p = pipeline();
        let ixp = IxpVantage::new(
            &p.catalog,
            IxpConfig {
                sampling: 2_000,
                seed: 9,
                big_eyeballs: 3,
                big_lines: 3_000,
                tail_members: 6,
                tail_lines: 200,
                route_visibility: 0.6,
                spoofed_per_hour: 300,
            },
        );
        let cfg = IxpStudyConfig {
            window: StudyWindow::days(0, 1),
            ..Default::default()
        };
        let r = run_ixp_study(p, &p.world, &ixp, &cfg);
        assert!(
            r.records_before_filter > r.records_after_filter,
            "filter drops spoofed records"
        );
        let alexa = r
            .daily_ips
            .get(&(DeviceGroup::Alexa, 0))
            .copied()
            .unwrap_or(0);
        assert!(alexa > 0, "Alexa visible at the IXP");
        assert!(!r.per_as_day0.is_empty());
    }

    #[test]
    fn window_semantics_are_nested() {
        // hourly <= daily <= cumulative, for every class and day.
        let p = pipeline();
        let isp = IspVantage::new(
            &p.catalog,
            IspConfig {
                lines: 6_000,
                sampling: 1_000,
                seed: 8,
                background: false,
            },
        );
        let cfg = IspStudyConfig {
            window: StudyWindow::days(0, 2),
            ..Default::default()
        };
        let r = run_isp_study(p, &p.world, &isp, &cfg);
        for rule in &p.rules.rules {
            let class = p.rules.class_name(rule.class).to_string();
            for day in 0..2u32 {
                let daily = r.daily.get(&(class.clone(), day)).copied().unwrap_or(0);
                let max_hourly = (day * 24..(day + 1) * 24)
                    .filter_map(|h| r.hourly.get(&(class.clone(), h)))
                    .max()
                    .copied()
                    .unwrap_or(0);
                assert!(
                    max_hourly <= daily,
                    "{class} day {day}: hourly {max_hourly} > daily {daily}"
                );
                let cumulative = r
                    .cumulative_lines
                    .get(&(class.clone(), day))
                    .copied()
                    .unwrap_or(0);
                assert!(
                    daily <= cumulative,
                    "{class} day {day}: daily {daily} > cumulative {cumulative}"
                );
                let slash24 = r
                    .cumulative_slash24
                    .get(&(class.clone(), day))
                    .copied()
                    .unwrap_or(0);
                assert!(
                    slash24 <= cumulative,
                    "{class}: /24s {slash24} > lines {cumulative}"
                );
            }
        }
    }

    #[test]
    fn active_usage_is_a_subset_of_presence() {
        let p = pipeline();
        let isp = IspVantage::new(
            &p.catalog,
            IspConfig {
                lines: 6_000,
                sampling: 1_000,
                seed: 8,
                background: false,
            },
        );
        let cfg = IspStudyConfig {
            window: StudyWindow::days(0, 1),
            ..Default::default()
        };
        let r = run_isp_study(p, &p.world, &isp, &cfg);
        for hour in 0..24u32 {
            let active = r
                .active_hourly
                .get(&("Alexa Enabled".to_string(), hour))
                .copied()
                .unwrap_or(0);
            let present = r
                .group_hourly
                .get(&(DeviceGroup::Alexa, hour))
                .copied()
                .unwrap_or(0);
            // Active use needs >= 10 sampled packets, which all but
            // guarantees the single-domain presence rule also fired; allow
            // a sliver of indicator-only slack.
            assert!(
                active <= present + present / 10 + 2,
                "hour {hour}: active {active} vs present {present}"
            );
        }
    }

    #[test]
    fn group_labels() {
        let p = pipeline();
        assert_eq!(DeviceGroup::of(p, "Fire TV"), DeviceGroup::Alexa);
        assert_eq!(DeviceGroup::of(p, "Samsung TV"), DeviceGroup::Samsung);
        assert_eq!(DeviceGroup::of(p, "Yi Camera"), DeviceGroup::Other);
        assert_eq!(DeviceGroup::Other.label(), "Other 32 IoT Device types");
    }
}
