//! §7.3 — rule staleness.
//!
//! > *"If the IoT devices change their backend infrastructure, e.g.,
//! > after an update, we may have to update our detection rules too."*
//!
//! An operator notices the change as a silent decay: flows stop matching
//! a rule domain's hitlist entries while the device population obviously
//! has not vanished. The monitor keeps an exponentially-decayed per-domain
//! match rate, compares each day against the domain's own baseline, and
//! flags domains (and whole rules) whose evidence collapsed — the signal
//! to re-run the testbed pipeline for that vendor.

use crate::checkpoint::StalenessState;
use crate::fasthash::FastMap;
use crate::hitlist::HitList;
use crate::rules::RuleSet;
use haystack_net::DayBin;
use haystack_wild::WildRecord;

/// Decay factor per day for the baseline average (≈ two-week memory).
const DECAY: f64 = 0.85;
/// A domain is stale when today's matches drop below this fraction of its
/// baseline.
const STALE_FRACTION: f64 = 0.2;
/// Days of warm-up before staleness verdicts are issued.
const WARMUP_DAYS: u32 = 3;

/// Per-domain staleness verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct StaleDomain {
    /// Rule class name (owned — resolved from the rule set's interned
    /// table at verdict time, so verdicts outlive a rules hot-reload).
    pub class: String,
    /// Domain index within the rule.
    pub domain_index: usize,
    /// Domain name.
    pub domain: String,
    /// Baseline (decayed mean) daily matches.
    pub baseline: f64,
    /// Today's matches.
    pub today: u64,
}

/// Tracks per-(rule, domain) match volume day over day.
#[derive(Debug)]
pub struct StalenessMonitor {
    hitlist: HitList,
    /// (rule, domain) → today's matched packets.
    today: FastMap<(u16, u16), u64>,
    /// (rule, domain) → decayed baseline.
    baseline: FastMap<(u16, u16), f64>,
    days_seen: u32,
}

impl StalenessMonitor {
    /// New monitor over the day's hitlist.
    pub fn new(hitlist: HitList) -> Self {
        StalenessMonitor {
            hitlist,
            today: FastMap::default(),
            baseline: FastMap::default(),
            days_seen: 0,
        }
    }

    /// Observe one record of the current day. Allocation-free on the
    /// steady-state matching path (disjoint hitlist/count borrows).
    pub fn observe(&mut self, r: &WildRecord) {
        let StalenessMonitor { hitlist, today, .. } = self;
        for &(ri, di) in hitlist.lookup(r.dst, r.dport) {
            *today.entry((ri, di)).or_default() += r.packets;
        }
    }

    /// Close the day: fold counts into baselines, emit staleness verdicts,
    /// and arm the next day's hitlist.
    pub fn end_of_day(
        &mut self,
        rules: &RuleSet,
        next_hitlist: HitList,
        _day: DayBin,
    ) -> Vec<StaleDomain> {
        let mut verdicts = Vec::new();
        self.days_seen += 1;
        // Every (rule, domain) pair is assessed, including those with zero
        // matches today (the interesting case).
        for (ri, rule) in rules.rules.iter().enumerate() {
            for (di, dom) in rule.domains.iter().enumerate() {
                let key = (ri as u16, di as u16);
                let today = self.today.get(&key).copied().unwrap_or(0);
                let baseline = self.baseline.entry(key).or_insert(today as f64);
                if self.days_seen > WARMUP_DAYS
                    && *baseline > 10.0
                    && (today as f64) < STALE_FRACTION * *baseline
                {
                    verdicts.push(StaleDomain {
                        class: rules.class_name(rule.class).to_string(),
                        domain_index: di,
                        domain: dom.name.as_str().to_string(),
                        baseline: *baseline,
                        today,
                    });
                }
                *baseline = DECAY * *baseline + (1.0 - DECAY) * today as f64;
            }
        }
        self.today.clear();
        self.hitlist = next_hitlist;
        verdicts
    }

    /// Days folded so far.
    pub fn days_seen(&self) -> u32 {
        self.days_seen
    }

    /// Export counts and baselines for checkpointing, sorted for
    /// deterministic encoding. Baselines are exported as exact `f64`s —
    /// the snapshot codec carries them as raw bits, so a restored
    /// monitor continues from bit-identical decayed means.
    pub fn export_state(&self) -> StalenessState {
        let mut today: Vec<((u16, u16), u64)> =
            self.today.iter().map(|(k, v)| (*k, *v)).collect();
        today.sort_unstable();
        let mut baseline: Vec<((u16, u16), f64)> =
            self.baseline.iter().map(|(k, v)| (*k, *v)).collect();
        baseline.sort_unstable_by_key(|(k, _)| *k);
        StalenessState { today, baseline, days_seen: self.days_seen }
    }

    /// Replace counts and baselines with a checkpointed state.
    pub fn restore_state(&mut self, state: &StalenessState) {
        self.today.clear();
        self.today.extend(state.today.iter().copied());
        self.baseline.clear();
        self.baseline.extend(state.baseline.iter().copied());
        self.days_seen = state.days_seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{RuleDomain, RuleSetBuilder};
    use haystack_dns::DomainName;
    use haystack_net::ports::Proto;
    use haystack_net::{AnonId, HourBin, Prefix4};
    use haystack_testbed::catalog::DetectionLevel;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 13, last)
    }

    fn ruleset() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.rule(
            "Cam",
            DetectionLevel::Manufacturer,
            None,
            vec![
                RuleDomain {
                    name: DomainName::parse("api.cam.com").unwrap(),
                    ports: [443u16].into_iter().collect(),
                    ips: [ip(1)].into_iter().collect(),
                    usage_indicator: false,
                },
                RuleDomain {
                    name: DomainName::parse("upload.cam.com").unwrap(),
                    ports: [443u16].into_iter().collect(),
                    ips: [ip(2)].into_iter().collect(),
                    usage_indicator: false,
                },
            ],
        );
        b.build()
    }

    fn rec(dst: Ipv4Addr, packets: u64) -> WildRecord {
        let src = Ipv4Addr::new(100, 64, 0, 1);
        WildRecord {
            line: AnonId(1),
            line_slash24: Prefix4::slash24_of(src),
            src_ip: src,
            dst,
            dport: 443,
            proto: Proto::Tcp,
            packets,
            bytes: packets * 400,
            established: true,
            hour: HourBin(0),
        }
    }

    #[test]
    fn healthy_rules_stay_quiet_then_migration_is_flagged() {
        let rules = ruleset();
        let hl = || HitList::whole_window(&rules);
        let mut mon = StalenessMonitor::new(hl());
        // 6 healthy days: both domains see traffic.
        for day in 0..6u32 {
            for _ in 0..50 {
                mon.observe(&rec(ip(1), 3));
                mon.observe(&rec(ip(2), 2));
            }
            let v = mon.end_of_day(&rules, hl(), DayBin(day));
            assert!(v.is_empty(), "day {day} flagged {v:?}");
        }
        // The vendor migrates upload.cam.com away: its IP goes silent.
        for _ in 0..50 {
            mon.observe(&rec(ip(1), 3));
        }
        let v = mon.end_of_day(&rules, hl(), DayBin(6));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].domain, "upload.cam.com");
        assert_eq!(v[0].today, 0);
        assert!(v[0].baseline > 50.0);
    }

    #[test]
    fn warmup_suppresses_early_verdicts() {
        let rules = ruleset();
        let hl = || HitList::whole_window(&rules);
        let mut mon = StalenessMonitor::new(hl());
        // Day 1 busy, day 2 silent — still inside warm-up: no verdict.
        for _ in 0..50 {
            mon.observe(&rec(ip(1), 5));
        }
        assert!(mon.end_of_day(&rules, hl(), DayBin(0)).is_empty());
        assert!(mon.end_of_day(&rules, hl(), DayBin(1)).is_empty());
    }

    #[test]
    fn low_volume_domains_never_flagged() {
        // A domain averaging < 10 packets/day has no usable baseline —
        // silence is expected under sampling, not staleness.
        let rules = ruleset();
        let hl = || HitList::whole_window(&rules);
        let mut mon = StalenessMonitor::new(hl());
        for day in 0..10u32 {
            if day % 3 == 0 {
                mon.observe(&rec(ip(2), 1));
            }
            mon.observe(&rec(ip(1), 200));
            let v = mon.end_of_day(&rules, hl(), DayBin(day));
            assert!(
                v.iter().all(|s| s.domain != "upload.cam.com"),
                "sparse domain misflagged on day {day}"
            );
        }
    }
}
