//! §7.1 — distinguishing active use from mere presence.
//!
//! Two independent signals, both from the ground truth:
//!
//! 1. **Usage-indicator domains**: some domains only speak when the
//!    device is used (flagged on the rule during §4.3 generation from the
//!    active/idle rate contrast). Any sampled flow to one is direct
//!    evidence of active use.
//! 2. **Volume**: the paper "used the threshold of 10 for packet counts
//!    per hour to filter out subscribers that actively used Alexa-enabled
//!    devices" — active use multiplies traffic enough to survive
//!    sampling at that level, idle chatter does not (Figure 17).
//!
//! The tracker is windowed per hour: callers reset it at hour boundaries.

use crate::checkpoint::{CheckpointError, UsageState};
use crate::fasthash::{FastMap, FastSet};
use crate::hitlist::HitList;
use crate::rules::RuleSet;
use crate::telemetry::HotStats;
use haystack_net::AnonId;
use haystack_wild::WildRecord;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Usage-detection configuration.
#[derive(Debug, Clone, Copy)]
pub struct UsageConfig {
    /// Sampled packets/hour to a rule's service IPs that imply active use.
    pub packet_threshold: u64,
}

impl Default for UsageConfig {
    fn default() -> Self {
        UsageConfig { packet_threshold: 10 }
    }
}

/// Per-hour active-use tracker.
#[derive(Debug)]
pub struct UsageTracker {
    rules: Arc<RuleSet>,
    hitlist: HitList,
    config: UsageConfig,
    /// Per-rule: line → sampled packets this hour.
    packets: Vec<FastMap<AnonId, u64>>,
    /// Per-rule: lines that touched a usage-indicator domain.
    indicator: Vec<FastSet<AnonId>>,
    /// Plain hot-path tallies (`detections` counts indicator hits).
    stats: HotStats,
}

impl UsageTracker {
    /// Create a tracker sharing the detector's rule set and hitlist.
    pub fn new(rules: Arc<RuleSet>, hitlist: HitList, config: UsageConfig) -> Self {
        let n = rules.rules.len();
        UsageTracker {
            rules,
            hitlist,
            config,
            packets: (0..n).map(|_| FastMap::default()).collect(),
            indicator: (0..n).map(|_| FastSet::default()).collect(),
            stats: HotStats::default(),
        }
    }

    /// Swap the daily hitlist.
    pub fn set_hitlist(&mut self, hitlist: HitList) {
        self.hitlist = hitlist;
    }

    /// The rule set this tracker observes against.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }

    /// Swap the rule set (and matching hitlist) after a hot reload. The
    /// per-rule hour windows are re-sized to the new rule count and
    /// cleared; callers that want to carry evidence across the swap
    /// migrate the exported state and restore it afterwards.
    pub fn set_rules(&mut self, rules: Arc<RuleSet>, hitlist: HitList) {
        let n = rules.rules.len();
        self.rules = rules;
        self.hitlist = hitlist;
        self.packets = (0..n).map(|_| FastMap::default()).collect();
        self.indicator = (0..n).map(|_| FastSet::default()).collect();
    }

    /// Observe one record of the current hour. Allocation-free on the
    /// steady-state matching path: the hitlist and the per-rule maps are
    /// disjoint fields, so entries are iterated in place.
    pub fn observe(&mut self, r: &WildRecord) {
        let UsageTracker { rules, hitlist, packets, indicator, stats, .. } = self;
        stats.records += 1;
        stats.probes += 1;
        for &(ri, di) in hitlist.lookup(r.dst, r.dport) {
            stats.matches += 1;
            *packets[ri as usize].entry(r.line).or_default() += r.packets;
            if rules.rules[ri as usize].domains[di as usize].usage_indicator {
                stats.detections += 1;
                indicator[ri as usize].insert(r.line);
            }
        }
    }

    /// Lines actively using `class` this hour (either signal).
    pub fn active_lines(&self, class: &str) -> BTreeSet<AnonId> {
        self.rules
            .rule_index(class)
            .map_or_else(BTreeSet::new, |ri| self.active_lines_rule(ri as u16))
    }

    /// [`UsageTracker::active_lines`] by rule index (the rule's position
    /// in the rule set), for callers that already enumerate the rules.
    pub fn active_lines_rule(&self, ri: u16) -> BTreeSet<AnonId> {
        let mut out: BTreeSet<AnonId> = self.packets[ri as usize]
            .iter()
            .filter(|(_, pkts)| **pkts >= self.config.packet_threshold)
            .map(|(l, _)| *l)
            .collect();
        out.extend(self.indicator[ri as usize].iter().copied());
        out
    }

    /// Start the next hour.
    pub fn reset(&mut self) {
        for m in &mut self.packets {
            m.clear();
        }
        for s in &mut self.indicator {
            s.clear();
        }
    }

    /// Cumulative hot-path tallies (records, probes, matches, indicator
    /// hits in `detections`). Not cleared by [`UsageTracker::reset`].
    pub fn hot_stats(&self) -> HotStats {
        self.stats
    }

    /// Export the current hour window for checkpointing, sorted for
    /// deterministic encoding.
    pub fn export_state(&self) -> UsageState {
        let packets = self
            .packets
            .iter()
            .map(|m| {
                let mut entries: Vec<(AnonId, u64)> =
                    m.iter().map(|(l, p)| (*l, *p)).collect();
                entries.sort_unstable();
                entries
            })
            .collect();
        let indicator = self
            .indicator
            .iter()
            .map(|s| {
                let mut lines: Vec<AnonId> = s.iter().copied().collect();
                lines.sort_unstable();
                lines
            })
            .collect();
        UsageState { packets, indicator }
    }

    /// Replace the hour window with a checkpointed state. A state taken
    /// under a different rule count is rejected.
    pub fn restore_state(&mut self, state: &UsageState) -> Result<(), CheckpointError> {
        if state.packets.len() != self.packets.len()
            || state.indicator.len() != self.indicator.len()
        {
            return Err(CheckpointError::StateMismatch("usage tracker rule count"));
        }
        for (m, entries) in self.packets.iter_mut().zip(&state.packets) {
            m.clear();
            m.extend(entries.iter().copied());
        }
        for (s, lines) in self.indicator.iter_mut().zip(&state.indicator) {
            s.clear();
            s.extend(lines.iter().copied());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{RuleDomain, RuleSetBuilder};
    use haystack_dns::DomainName;
    use haystack_net::ports::Proto;
    use haystack_net::{HourBin, Prefix4};
    use haystack_testbed::catalog::DetectionLevel;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 6, last)
    }

    fn ruleset() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.rule(
            "Alexa Enabled",
            DetectionLevel::Platform,
            None,
            vec![
                RuleDomain {
                    name: DomainName::parse("avs.a.com").unwrap(),
                    ports: [443u16].into_iter().collect(),
                    ips: [ip(1)].into_iter().collect(),
                    usage_indicator: false,
                },
                RuleDomain {
                    name: DomainName::parse("voice-upload.a.com").unwrap(),
                    ports: [443u16].into_iter().collect(),
                    ips: [ip(2)].into_iter().collect(),
                    usage_indicator: true,
                },
            ],
        );
        b.build()
    }

    fn rec(line: u64, dst: Ipv4Addr, packets: u64) -> WildRecord {
        WildRecord {
            line: AnonId(line),
            line_slash24: Prefix4::slash24_of(Ipv4Addr::new(100, 64, 0, 1)),
            src_ip: Ipv4Addr::new(100, 64, 0, 1),
            dst,
            dport: 443,
            proto: Proto::Tcp,
            packets,
            bytes: packets * 500,
            established: true,
            hour: HourBin(0),
        }
    }

    #[test]
    fn volume_threshold() {
        let rules = Arc::new(ruleset());
        let mut t =
            UsageTracker::new(rules.clone(), HitList::whole_window(&rules), UsageConfig::default());
        t.observe(&rec(1, ip(1), 4));
        t.observe(&rec(1, ip(1), 7)); // cumulative 11 ≥ 10
        t.observe(&rec(2, ip(1), 3)); // idle-level
        let active = t.active_lines("Alexa Enabled");
        assert!(active.contains(&AnonId(1)));
        assert!(!active.contains(&AnonId(2)));
    }

    #[test]
    fn indicator_domain_wins_regardless_of_volume() {
        let rules = Arc::new(ruleset());
        let mut t =
            UsageTracker::new(rules.clone(), HitList::whole_window(&rules), UsageConfig::default());
        t.observe(&rec(3, ip(2), 1));
        assert!(t.active_lines("Alexa Enabled").contains(&AnonId(3)));
    }

    #[test]
    fn reset_clears_the_hour() {
        let rules = Arc::new(ruleset());
        let mut t =
            UsageTracker::new(rules.clone(), HitList::whole_window(&rules), UsageConfig::default());
        t.observe(&rec(1, ip(1), 50));
        t.reset();
        assert!(t.active_lines("Alexa Enabled").is_empty());
    }

    #[test]
    fn non_rule_traffic_ignored() {
        let rules = Arc::new(ruleset());
        let mut t =
            UsageTracker::new(rules.clone(), HitList::whole_window(&rules), UsageConfig::default());
        t.observe(&rec(1, ip(99), 1_000));
        assert!(t.active_lines("Alexa Enabled").is_empty());
    }
}
