//! §4.3 — from IoT services to device detection rules.
//!
//! A rule exists per detection class (Figure 10's rows). Its domain list
//! is derived from the ground truth by the *most-specific-common-ancestor*
//! assignment: a domain contacted by Echo Dot **and** Fire TV devices
//! belongs to the `Amazon Product` rule; one contacted by every
//! Alexa-speaking device (the AVS endpoint) belongs to the `Alexa
//! Enabled` platform rule; Fire TV's private domains stay with `Fire TV`.
//! That is precisely how §4.3.2 breaks the Amazon hierarchy into
//! 1 / 33 / 34 domains.
//!
//! Only **Primary, dedicated** domains become rule evidence (§4.3.2:
//! "we require that a subscriber contacts at least one IP/port
//! combination associated with a Primary domain"); shared and support
//! domains never do. A class whose rule ends up with zero monitorable
//! domains is reported undetectable — this is where §4.2.3's exclusions
//! (Google Home, Apple TV, Lefun, …) fall out of the pipeline rather
//! than being assumed.
//!
//! Class names are *interned*: a [`RuleSet`] owns a [`ClassTable`] and
//! every rule carries a [`ClassId`], so a rule set loaded from a
//! signature pack at runtime (see [`crate::pack`]) is indistinguishable
//! from one generated by the compiled-in catalog.

use crate::classes::{ClassId, ClassTable};
use crate::dedicated::DedicationVerdict;
use crate::domains::DomainClass;
use crate::fasthash::FastMap;
use crate::observations::DomainObservations;
use haystack_dns::DomainName;
use haystack_testbed::catalog::{Catalog, DetectionLevel};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// One monitorable domain inside a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDomain {
    /// The domain.
    pub name: DomainName,
    /// Server ports the devices use toward it.
    pub ports: BTreeSet<u16>,
    /// Whole-window union of its dedicated service IPs (daily hitlists
    /// re-derive the per-day subset from passive DNS).
    pub ips: BTreeSet<Ipv4Addr>,
    /// §7.1: domain only speaks when the device is actively used.
    pub usage_indicator: bool,
}

/// A detection rule for one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionRule {
    /// Interned class (Figure 10 row) — resolve through the owning
    /// [`RuleSet::classes`] table.
    pub class: ClassId,
    /// Granularity.
    pub level: DetectionLevel,
    /// Hierarchy parent class, if any.
    pub parent: Option<ClassId>,
    /// Monitorable domains.
    pub domains: Vec<RuleDomain>,
}

impl DetectionRule {
    /// §4.3.2's evidence requirement: `max(1, ⌊D·N⌋)` distinct domains.
    pub fn required(&self, threshold: f64) -> usize {
        let n = self.domains.len();
        ((threshold * n as f64).floor() as usize).max(1)
    }
}

/// Why a class ended up without a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Undetectable {
    /// All primary domains rely on shared infrastructure (§4.2.3).
    SharedInfrastructure,
    /// Not enough usable information (no DNSDB record, no Censys match,
    /// or the ground truth never saw a primary domain).
    InsufficientInfo,
}

/// The full rule set plus the §4.2.3 casualty list.
///
/// Construct via [`RuleSet::from_parts`] or [`RuleSetBuilder`] — the
/// class→rule index is derived once at construction, which is also what
/// keeps [`RuleSet::rule_index`] O(1) on the hoisted CLI/report loops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// Interned class names (covers both ruled and undetectable classes).
    pub classes: ClassTable,
    /// Generated rules, indexed by position (the detector's rule ids).
    pub rules: Vec<DetectionRule>,
    /// Classes for which no rule could be generated.
    pub undetectable: Vec<(ClassId, Undetectable)>,
    /// class → position in `rules`, built once at construction.
    index: FastMap<ClassId, usize>,
}

impl RuleSet {
    /// Assemble a rule set, building the class→rule index. Every
    /// [`ClassId`] in `rules`/`undetectable` must come from `classes`.
    /// Duplicate rule classes keep the last occurrence in the index
    /// (`haystack rules lint` reports them as pack defects).
    pub fn from_parts(
        classes: ClassTable,
        rules: Vec<DetectionRule>,
        undetectable: Vec<(ClassId, Undetectable)>,
    ) -> RuleSet {
        let index = rules
            .iter()
            .enumerate()
            .map(|(i, r)| (r.class, i))
            .collect();
        RuleSet {
            classes,
            rules,
            undetectable,
            index,
        }
    }

    /// The name behind an interned class id.
    ///
    /// # Panics
    /// When `id` was not minted by this rule set's table.
    pub fn class_name(&self, id: ClassId) -> &str {
        self.classes.name(id)
    }

    /// The interned id of a class name, if the name is known to this
    /// rule set (ruled *or* undetectable).
    pub fn class_id(&self, class: &str) -> Option<ClassId> {
        self.classes.id(class)
    }

    /// Index of a class's rule, by interned id. O(1).
    pub fn rule_index_of(&self, class: ClassId) -> Option<usize> {
        self.index.get(&class).copied()
    }

    /// Index of a class's rule, by name. O(1): a table lookup plus an
    /// index probe (this used to be a linear scan over the rules).
    pub fn rule_index(&self, class: &str) -> Option<usize> {
        self.rule_index_of(self.classes.id(class)?)
    }

    /// The rule for a class name.
    pub fn rule(&self, class: &str) -> Option<&DetectionRule> {
        self.rule_index(class).map(|i| &self.rules[i])
    }

    /// Rules by level, for the §4.3.2 counts (platforms / manufacturers /
    /// products).
    pub fn count_by_level(&self, level: DetectionLevel) -> usize {
        self.rules.iter().filter(|r| r.level == level).count()
    }
}

/// Incremental [`RuleSet`] construction from class *names* — the
/// convenient front door for loaders (JSON, signature packs) and tests,
/// which think in names while the rule set stores interned ids.
#[derive(Debug, Default)]
pub struct RuleSetBuilder {
    classes: ClassTable,
    rules: Vec<DetectionRule>,
    undetectable: Vec<(ClassId, Undetectable)>,
}

impl RuleSetBuilder {
    /// An empty builder.
    pub fn new() -> RuleSetBuilder {
        RuleSetBuilder::default()
    }

    /// Intern `name` without attaching a rule (stabilizes ids for
    /// classes that may only appear as parents or undetectable).
    pub fn class(&mut self, name: &str) -> ClassId {
        self.classes.intern(name)
    }

    /// Append a rule for `class`, interning it (and `parent`) as needed.
    pub fn rule(
        &mut self,
        class: &str,
        level: DetectionLevel,
        parent: Option<&str>,
        domains: Vec<RuleDomain>,
    ) -> ClassId {
        let class = self.classes.intern(class);
        let parent = parent.map(|p| self.classes.intern(p));
        self.rules.push(DetectionRule {
            class,
            level,
            parent,
            domains,
        });
        class
    }

    /// Record `class` as undetectable.
    pub fn undetectable(&mut self, class: &str, reason: Undetectable) -> ClassId {
        let class = self.classes.intern(class);
        self.undetectable.push((class, reason));
        class
    }

    /// Finish: build the indexed [`RuleSet`].
    pub fn build(self) -> RuleSet {
        RuleSet::from_parts(self.classes, self.rules, self.undetectable)
    }
}

/// The most specific class (by ancestry depth) that is an ancestor of —
/// or equal to — every contacting class. `None` if the classes span
/// unrelated families. (Also used by the §7.4 DNS-assisted variant,
/// which assigns domains to classes the same way but skips the
/// dedicated-infrastructure filter.)
pub fn common_ancestor(
    catalog: &Catalog,
    classes: &BTreeSet<&'static str>,
) -> Option<&'static str> {
    let mut iter = classes.iter();
    let first = iter.next()?;
    // Ancestor chain of the first class, most specific first.
    let mut chain: Vec<&'static str> = catalog.ancestry(first).iter().map(|c| c.name).collect();
    for c in iter {
        let ancestors: BTreeSet<&'static str> =
            catalog.ancestry(c).iter().map(|k| k.name).collect();
        chain.retain(|a| ancestors.contains(a));
        if chain.is_empty() {
            return None;
        }
    }
    chain.first().copied()
}

/// Inputs to rule generation, as produced by the earlier pipeline stages.
pub struct RuleInputs<'a> {
    /// The analyst's device knowledge (classes, levels, hierarchy).
    pub catalog: &'a Catalog,
    /// Ground-truth domain usage.
    pub observations: &'a DomainObservations,
    /// §4.1 classification per observed domain.
    pub classification: &'a HashMap<DomainName, DomainClass>,
    /// §4.2 verdict per IoT-specific domain (Censys recoveries already
    /// folded in as `Dedicated`).
    pub dedication: &'a HashMap<DomainName, DedicationVerdict>,
}

/// Minimum fraction of a class's observed primary domains that must be
/// monitorable for a rule to be emitted. The paper dropped LG TV after
/// being "left with only one out of 4 domains" while keeping genuinely
/// single-domain services; a one-third floor reproduces both decisions.
pub const MIN_USABLE_FRACTION: f64 = 0.30;

#[derive(Default)]
struct ClassTally {
    domains: Vec<RuleDomain>,
    primary_observed: usize,
    shared: usize,
}

/// Generate the rule set.
///
/// Every catalog class is interned first, in catalog order, so the
/// resulting [`ClassId`]s are stable across runs and cover undetectable
/// classes too — the determinism the exported default signature pack
/// depends on.
pub fn generate(inputs: &RuleInputs<'_>) -> RuleSet {
    let mut per_class: BTreeMap<&'static str, ClassTally> = BTreeMap::new();

    for (name, usage) in inputs.observations.domains() {
        if inputs.classification.get(name) != Some(&DomainClass::Primary) {
            continue;
        }
        let Some(owner) = common_ancestor(inputs.catalog, &usage.classes) else {
            continue; // spans unrelated families: not attributable
        };
        let tally = per_class.entry(owner).or_default();
        tally.primary_observed += 1;
        match inputs.dedication.get(name) {
            Some(DedicationVerdict::Dedicated(ips)) => tally.domains.push(RuleDomain {
                name: name.clone(),
                ports: usage.ports.clone(),
                ips: ips.clone(),
                usage_indicator: usage.is_usage_indicator(),
            }),
            Some(DedicationVerdict::Shared) => tally.shared += 1,
            _ => {} // NoRecord / never analyzed
        }
    }

    let mut classes = ClassTable::new();
    for class in &inputs.catalog.classes {
        classes.intern(class.name);
    }
    let mut rules = Vec::new();
    let mut undetectable = Vec::new();
    for class in &inputs.catalog.classes {
        let id = classes
            .id(class.name)
            .expect("all catalog classes interned");
        let tally = per_class.remove(class.name).unwrap_or_default();
        let usable = tally.domains.len();
        let enough =
            usable > 0 && usable as f64 >= MIN_USABLE_FRACTION * tally.primary_observed as f64;
        if enough {
            let mut domains = tally.domains;
            domains.sort_by(|a, b| a.name.cmp(&b.name));
            rules.push(DetectionRule {
                class: id,
                level: class.level,
                parent: class.parent.map(|p| classes.intern(p)),
                domains,
            });
        } else {
            // §4.2.3: services whose backends are overwhelmingly shared
            // vs. services we simply lack usable information for.
            let reason = if usable == 0
                && tally.primary_observed > 0
                && tally.shared as f64 >= (2.0 / 3.0) * tally.primary_observed as f64
            {
                Undetectable::SharedInfrastructure
            } else {
                Undetectable::InsufficientInfo
            };
            undetectable.push((id, reason));
        }
    }
    RuleSet::from_parts(classes, rules, undetectable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_testbed::catalog::data::standard_catalog;

    #[test]
    fn common_ancestor_walks_hierarchies() {
        let c = standard_catalog();
        let set = |v: &[&'static str]| v.iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(
            common_ancestor(&c, &set(&["Amazon Product", "Fire TV"])),
            Some("Amazon Product")
        );
        assert_eq!(
            common_ancestor(&c, &set(&["Alexa Enabled", "Amazon Product", "Fire TV"])),
            Some("Alexa Enabled")
        );
        assert_eq!(common_ancestor(&c, &set(&["Fire TV"])), Some("Fire TV"));
        assert_eq!(common_ancestor(&c, &set(&["Fire TV", "Yi Camera"])), None);
        assert_eq!(
            common_ancestor(&c, &set(&["Samsung TV", "Samsung IoT"])),
            Some("Samsung IoT")
        );
    }

    #[test]
    fn required_matches_paper_formula() {
        let mut b = RuleSetBuilder::new();
        b.rule(
            "X",
            DetectionLevel::Manufacturer,
            None,
            (0..10)
                .map(|i| RuleDomain {
                    name: DomainName::parse(&format!("d{i}.x.com")).unwrap(),
                    ports: [443].into_iter().collect(),
                    ips: Default::default(),
                    usage_indicator: false,
                })
                .collect(),
        );
        let rules = b.build();
        let rule = rules.rule("X").unwrap();
        assert_eq!(rule.required(0.4), 4);
        assert_eq!(rule.required(0.05), 1, "max(1, ·) floor");
        assert_eq!(rule.required(1.0), 10);
        let single = DetectionRule {
            domains: rule.domains[..1].to_vec(),
            ..rule.clone()
        };
        assert_eq!(single.required(0.1), 1);
        assert_eq!(single.required(1.0), 1);
    }

    #[test]
    fn index_is_consistent_and_o1_paths_agree() {
        let mut b = RuleSetBuilder::new();
        b.rule("A", DetectionLevel::Platform, None, vec![]);
        b.rule("B", DetectionLevel::Product, Some("A"), vec![]);
        b.undetectable("C", Undetectable::SharedInfrastructure);
        let rs = b.build();
        assert_eq!(rs.rule_index("A"), Some(0));
        assert_eq!(rs.rule_index("B"), Some(1));
        assert_eq!(
            rs.rule_index("C"),
            None,
            "undetectable classes have no rule"
        );
        assert_eq!(rs.rule_index("missing"), None);
        let b_id = rs.class_id("B").unwrap();
        assert_eq!(rs.rule_index_of(b_id), Some(1));
        assert_eq!(rs.rules[1].parent, rs.class_id("A"));
        assert_eq!(rs.class_name(rs.undetectable[0].0), "C");
    }
}
