//! §7.2 — acting on detections: the ISP-side security workflow.
//!
//! > *"If there are known security problems with an IoT device, the
//! > ISP/IXP can block access to certain domains/IP ranges or redirect
//! > their traffic to benign servers … Once identified, their owner can
//! > be notified."*
//!
//! Three primitives, all built on the same daily hitlist the detector
//! uses:
//!
//! * [`block_plan`] — the (service IP, port) combinations to block or
//!   redirect for a vulnerable device class on a given day;
//! * [`NotificationList`] — the affected subscriber lines (anonymized;
//!   the ISP's subscriber-management system maps ids to customers
//!   on-premises);
//! * [`enforce`] — apply a plan to a record stream, producing the passed
//!   traffic plus an enforcement log (what a BNG filter would do).

use crate::detector::Detector;
use crate::rules::RuleSet;
use haystack_dns::DnsDb;
use haystack_net::{AnonId, DayBin, StudyWindow};
use haystack_wild::WildRecord;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// What to do with matching traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Drop matching flows (botnet control traffic).
    Block,
    /// Rewrite the destination to a benign server (privacy notices,
    /// patches for abandoned devices — the paper's example).
    Redirect(Ipv4Addr),
}

/// A per-class, per-day enforcement plan.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    /// The targeted detection class.
    pub class: &'static str,
    /// Day of validity (plans follow the daily hitlist).
    pub day: DayBin,
    /// The (service IP, port) combinations to act on.
    pub targets: BTreeSet<(Ipv4Addr, u16)>,
    /// The action.
    pub action: Action,
}

/// Build the enforcement plan for `class` on `day`: every service
/// IP/port combination of the class's rule domains, as passive DNS maps
/// them that day (falling back to the whole-window union exactly like
/// the hitlist does).
pub fn block_plan(
    rules: &RuleSet,
    dnsdb: &DnsDb,
    class: &'static str,
    day: DayBin,
    action: Action,
) -> Option<BlockPlan> {
    let rule = rules.rule(class)?;
    let day_window = StudyWindow::days(day.0, day.0 + 1);
    let mut targets = BTreeSet::new();
    for dom in &rule.domains {
        let daily = dnsdb.ips_of(&dom.name, &day_window);
        let ips: Vec<Ipv4Addr> = if daily.is_empty() {
            dom.ips.iter().copied().collect()
        } else {
            daily.into_iter().collect()
        };
        for ip in ips {
            for &port in &dom.ports {
                targets.insert((ip, port));
            }
        }
    }
    if targets.is_empty() {
        return None;
    }
    Some(BlockPlan { class, day, targets, action })
}

/// The owner-notification list (§7.2 / \[31\]): lines where the class is
/// currently detected.
#[derive(Debug, Clone)]
pub struct NotificationList {
    /// The device class the notification concerns.
    pub class: &'static str,
    /// Affected (anonymized) subscriber lines.
    pub lines: Vec<AnonId>,
}

/// Build the notification list from a detector's current state.
pub fn notification_list(detector: &Detector<'_>, class: &'static str) -> NotificationList {
    NotificationList { class, lines: detector.detected_lines(class) }
}

/// Outcome of enforcing a plan over one batch of records.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EnforcementLog {
    /// Records dropped.
    pub blocked: u64,
    /// Records rewritten to the benign server.
    pub redirected: u64,
    /// Distinct lines whose traffic was touched.
    pub affected_lines: BTreeSet<AnonId>,
}

/// Apply `plan` to a record batch: returns the surviving records (with
/// redirects rewritten) and the enforcement log.
pub fn enforce(plan: &BlockPlan, records: Vec<WildRecord>) -> (Vec<WildRecord>, EnforcementLog) {
    let mut log = EnforcementLog::default();
    let mut out = Vec::with_capacity(records.len());
    for mut r in records {
        if plan.targets.contains(&(r.dst, r.dport)) {
            log.affected_lines.insert(r.line);
            match plan.action {
                Action::Block => {
                    log.blocked += r.packets;
                    continue;
                }
                Action::Redirect(benign) => {
                    log.redirected += r.packets;
                    r.dst = benign;
                }
            }
        }
        out.push(r);
    }
    (out, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use crate::hitlist::HitList;
    use crate::rules::{RuleDomain, RuleSetBuilder};
    use haystack_dns::DomainName;
    use haystack_net::ports::Proto;
    use haystack_net::{HourBin, Prefix4};
    use haystack_testbed::catalog::DetectionLevel;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 9, last)
    }

    fn ruleset() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.rule(
            "Vuln Cam",
            DetectionLevel::Manufacturer,
            None,
            vec![RuleDomain {
                name: DomainName::parse("c2.vulncam.com").unwrap(),
                ports: [443u16, 8883].into_iter().collect(),
                ips: [ip(1), ip(2)].into_iter().collect(),
                usage_indicator: false,
            }],
        );
        b.build()
    }

    fn rec(line: u64, dst: Ipv4Addr, dport: u16) -> WildRecord {
        let src = Ipv4Addr::new(100, 64, 0, line as u8);
        WildRecord {
            line: AnonId(line),
            line_slash24: Prefix4::slash24_of(src),
            src_ip: src,
            dst,
            dport,
            proto: Proto::Tcp,
            packets: 3,
            bytes: 300,
            established: true,
            hour: HourBin(0),
        }
    }

    #[test]
    fn plan_covers_all_rule_combos() {
        let rules = ruleset();
        let plan =
            block_plan(&rules, &DnsDb::new(), "Vuln Cam", DayBin(0), Action::Block).unwrap();
        assert_eq!(plan.targets.len(), 4, "2 IPs × 2 ports");
        assert!(block_plan(&rules, &DnsDb::new(), "Nope", DayBin(0), Action::Block).is_none());
    }

    #[test]
    fn block_drops_only_matching_traffic() {
        let rules = ruleset();
        let plan =
            block_plan(&rules, &DnsDb::new(), "Vuln Cam", DayBin(0), Action::Block).unwrap();
        let records = vec![rec(1, ip(1), 443), rec(2, ip(9), 443), rec(1, ip(2), 8883)];
        let (passed, log) = enforce(&plan, records);
        assert_eq!(passed.len(), 1);
        assert_eq!(passed[0].dst, ip(9));
        assert_eq!(log.blocked, 6);
        assert_eq!(log.affected_lines.len(), 1, "only line 1 touched the C2");
    }

    #[test]
    fn redirect_rewrites_destination() {
        let rules = ruleset();
        let benign = Ipv4Addr::new(198, 18, 99, 99);
        let plan =
            block_plan(&rules, &DnsDb::new(), "Vuln Cam", DayBin(0), Action::Redirect(benign))
                .unwrap();
        let (passed, log) = enforce(&plan, vec![rec(1, ip(1), 443), rec(2, ip(9), 80)]);
        assert_eq!(passed.len(), 2);
        assert_eq!(passed[0].dst, benign);
        assert_eq!(passed[1].dst, ip(9));
        assert_eq!(log.redirected, 3);
        assert_eq!(log.blocked, 0);
    }

    #[test]
    fn notification_list_matches_detections() {
        let rules = ruleset();
        let mut det = Detector::new(
            &rules,
            HitList::whole_window(&rules),
            DetectorConfig::default(),
        );
        det.observe(AnonId(5), ip(1), 443, Proto::Tcp, true, HourBin(0));
        det.observe(AnonId(9), ip(2), 8883, Proto::Tcp, true, HourBin(1));
        det.observe(AnonId(3), ip(50), 443, Proto::Tcp, true, HourBin(1)); // unrelated
        let list = notification_list(&det, "Vuln Cam");
        assert_eq!(list.lines, vec![AnonId(5), AnonId(9)]);
    }

    #[test]
    fn enforcement_starves_the_detector() {
        // After blocking, the device class becomes invisible — the
        // "hide by blocking" corollary of §7.2/§7.4.
        let rules = ruleset();
        let plan =
            block_plan(&rules, &DnsDb::new(), "Vuln Cam", DayBin(0), Action::Block).unwrap();
        let records = vec![rec(1, ip(1), 443), rec(1, ip(2), 8883)];
        let (passed, _) = enforce(&plan, records);
        let mut det = Detector::new(
            &rules,
            HitList::whole_window(&rules),
            DetectorConfig::default(),
        );
        for r in &passed {
            det.observe_wild(r);
        }
        assert!(!det.is_detected(AnonId(1), "Vuln Cam"));
    }
}
