//! §7.4 — the DNS-assisted alternative.
//!
//! > *"Our analysis could be simplified if an ISP/IXP had access to all
//! > DNS queries and responses. Even having a partial list, e.g., from
//! > the local DNS resolver of the ISP, could improve our methodology.
//! > Yet, this raises many privacy challenges."*
//!
//! This module quantifies both halves of that sentence. DNS rules skip
//! the whole §4.2 dedicated-infrastructure machinery — a query names the
//! domain directly, so even **CDN-hosted services become detectable**
//! (Google Home, Apple TV, Lefun — flow-level detection's blind spot).
//! In exchange, coverage is gated on who still uses the ISP resolver
//! (`resolver_share`), which is precisely the paper's DoT/DoH caveat —
//! and the same analysis run by a *public* resolver operator is the
//! privacy threat the paper warns about.

use crate::domains::DomainClass;
use crate::observations::DomainObservations;
use crate::rules::common_ancestor;
use haystack_dns::DomainName;
use haystack_net::AnonId;
use haystack_testbed::catalog::Catalog;
use haystack_wild::DnsQueryEvent;
use std::collections::{BTreeMap, HashMap};

/// Detection rules over resolver logs: per class, the primary domains
/// (dedicated **and** shared — hosting is irrelevant to a query log).
#[derive(Debug, Clone, Default)]
pub struct DnsRuleSet {
    /// class → its primary query names.
    pub rules: BTreeMap<&'static str, Vec<DomainName>>,
}

impl DnsRuleSet {
    /// §4.3.2's evidence requirement, unchanged.
    pub fn required(&self, class: &str, threshold: f64) -> usize {
        let n = self.rules.get(class).map(Vec::len).unwrap_or(0);
        ((threshold * n as f64).floor() as usize).max(1)
    }
}

/// Build DNS rules from the same §4.1 classification the flow pipeline
/// uses — minus the dedication filter.
pub fn dns_rules(
    catalog: &Catalog,
    observations: &DomainObservations,
    classification: &HashMap<DomainName, DomainClass>,
) -> DnsRuleSet {
    let mut out = DnsRuleSet::default();
    for (name, usage) in observations.domains() {
        if classification.get(name) != Some(&DomainClass::Primary) {
            continue;
        }
        let Some(owner) = common_ancestor(catalog, &usage.classes) else {
            continue;
        };
        out.rules.entry(owner).or_default().push(name.clone());
    }
    out
}

/// A streaming detector over resolver query events.
#[derive(Debug)]
pub struct DnsDetector<'r> {
    rules: &'r DnsRuleSet,
    threshold: f64,
    /// query name → (class, domain index) entries.
    index: HashMap<DomainName, Vec<(u16, u16)>>,
    classes: Vec<&'static str>,
    /// (line, class idx) → evidence mask (rules can have up to 68
    /// domains — Fire TV's effective set — so the mask is 128-bit).
    state: HashMap<(AnonId, u16), u128>,
}

impl<'r> DnsDetector<'r> {
    /// Build the detector and its name index.
    pub fn new(rules: &'r DnsRuleSet, threshold: f64) -> Self {
        let mut index: HashMap<DomainName, Vec<(u16, u16)>> = HashMap::new();
        let mut classes = Vec::new();
        for (ci, (class, domains)) in rules.rules.iter().enumerate() {
            assert!(domains.len() <= 128, "rule {class} exceeds 128 domains");
            classes.push(*class);
            for (di, d) in domains.iter().enumerate() {
                index
                    .entry(d.clone())
                    .or_default()
                    .push((ci as u16, di as u16));
            }
        }
        DnsDetector {
            rules,
            threshold,
            index,
            classes,
            state: HashMap::new(),
        }
    }

    /// Observe one query event (callers translate domain ids to names).
    pub fn observe(&mut self, line: AnonId, qname: &DomainName) {
        let Some(entries) = self.index.get(qname) else {
            return;
        };
        for (ci, di) in entries.clone() {
            *self.state.entry((line, ci)).or_insert(0) |= 1u128 << di;
        }
    }

    /// Convenience: observe a wild [`DnsQueryEvent`] given the plan's
    /// domain table.
    pub fn observe_event(
        &mut self,
        event: &DnsQueryEvent,
        domain_table: &[haystack_testbed::catalog::DomainSpec],
    ) {
        let name = domain_table[event.domain_id as usize].name.clone();
        self.observe(event.line, &name);
    }

    /// Whether `class` is detected for `line`.
    pub fn is_detected(&self, line: AnonId, class: &str) -> bool {
        let Some(ci) = self.classes.iter().position(|c| *c == class) else {
            return false;
        };
        let required = self.rules.required(class, self.threshold) as u32;
        self.state
            .get(&(line, ci as u16))
            .map(|m| m.count_ones() >= required)
            .unwrap_or(false)
    }

    /// Lines detected for `class`.
    pub fn detected_lines(&self, class: &str) -> Vec<AnonId> {
        let Some(ci) = self.classes.iter().position(|c| *c == class) else {
            return Vec::new();
        };
        let required = self.rules.required(class, self.threshold) as u32;
        let mut out: Vec<AnonId> = self
            .state
            .iter()
            .filter(|((_, c), m)| *c == ci as u16 && m.count_ones() >= required)
            .map(|((l, _), _)| *l)
            .collect();
        out.sort_unstable();
        out
    }

    /// Clear state (new window).
    pub fn reset(&mut self) {
        self.state.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;

    fn pipeline() -> &'static Pipeline {
        crate::testutil::shared_pipeline()
    }

    #[test]
    fn dns_rules_cover_shared_only_classes() {
        let p = pipeline();
        let rules = dns_rules(&p.catalog, &p.observations, &p.classification);
        // Flow-level §4.2.3 excludes these; DNS rules include them.
        for class in ["Google Home", "Apple TV", "Lefun Cam"] {
            assert!(
                rules
                    .rules
                    .get(class)
                    .map(|d| !d.is_empty())
                    .unwrap_or(false),
                "{class} must be DNS-detectable"
            );
            assert!(
                p.rules.rule(class).is_none(),
                "{class} must not have a flow rule"
            );
        }
    }

    #[test]
    fn dns_rules_superset_flow_rules() {
        let p = pipeline();
        let rules = dns_rules(&p.catalog, &p.observations, &p.classification);
        for flow_rule in &p.rules.rules {
            let class = p.rules.class_name(flow_rule.class);
            let dns_domains = rules.rules.get(class).map(Vec::len).unwrap_or(0);
            assert!(
                dns_domains >= flow_rule.domains.len(),
                "{}: dns {} < flow {}",
                class,
                dns_domains,
                flow_rule.domains.len()
            );
        }
    }

    #[test]
    fn detector_thresholds_queries() {
        let p = pipeline();
        let rules = dns_rules(&p.catalog, &p.observations, &p.classification);
        let mut det = DnsDetector::new(&rules, 0.4);
        let class = "Google Home";
        let domains = rules.rules.get(class).unwrap().clone();
        let required = rules.required(class, 0.4);
        let line = AnonId(9);
        for d in domains.iter().take(required - 1) {
            det.observe(line, d);
        }
        if required > 1 {
            assert!(!det.is_detected(line, class));
        }
        det.observe(line, &domains[required - 1]);
        assert!(det.is_detected(line, class));
        assert_eq!(det.detected_lines(class), vec![line]);
        det.reset();
        assert!(!det.is_detected(line, class));
    }

    #[test]
    fn unknown_queries_cost_nothing() {
        let p = pipeline();
        let rules = dns_rules(&p.catalog, &p.observations, &p.classification);
        let mut det = DnsDetector::new(&rules, 0.4);
        det.observe(
            AnonId(1),
            &DomainName::parse("g3.global-search.com").unwrap(),
        );
        assert_eq!(det.state.len(), 0);
    }
}
