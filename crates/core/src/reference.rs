//! The reference detector: the pre-optimization implementation, kept
//! verbatim as the equivalence oracle.
//!
//! [`ReferenceDetector`] is the detector as it stood before the hot-path
//! flattening: SipHash'd `HashMap`s keyed by `(line, rule)` tuples, a
//! [`MapHitList`] lookup that clones its entry slice per matching record,
//! and full-state scans in `detected_lines`. It is deliberately *not*
//! fast — its job is to be obviously correct so `tests/prop_hotpath.rs`
//! can pin the optimized [`Detector`](crate::detector::Detector) against
//! it on random rulesets and flow streams, so `benchmark/` can hold every
//! run's detections to it, and so the `detector_throughput` bench can
//! show a genuine before/after ratio in one run.

use crate::checkpoint::{DetectorState, LineEvidence};
use crate::hitlist::MapHitList;
use crate::rules::RuleSet;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin};
use haystack_wild::WildRecord;
use std::collections::HashMap;

pub use crate::detector::DetectorConfig;

/// The pre-optimization streaming detector (see module docs).
#[derive(Debug)]
pub struct ReferenceDetector<'r> {
    rules: &'r RuleSet,
    config: DetectorConfig,
    hitlist: MapHitList,
    required: Vec<u32>,
    /// (line, rule) → evidence bitmask over the rule's domains.
    state: HashMap<(AnonId, u16), u64>,
    /// (line, rule) → hour the rule's own threshold was first met.
    first_met: HashMap<(AnonId, u16), HourBin>,
}

impl<'r> ReferenceDetector<'r> {
    /// Create a reference detector. Panics if any rule has more than 64
    /// domains (the evidence mask is a `u64`).
    pub fn new(rules: &'r RuleSet, hitlist: MapHitList, config: DetectorConfig) -> Self {
        let required = rules
            .rules
            .iter()
            .map(|r| {
                assert!(
                    r.domains.len() <= 64,
                    "rule {} exceeds 64 domains",
                    rules.class_name(r.class)
                );
                r.required(config.threshold) as u32
            })
            .collect();
        ReferenceDetector {
            rules,
            config,
            hitlist,
            required,
            state: HashMap::new(),
            first_met: HashMap::new(),
        }
    }

    /// Swap in the next day's hitlist, keeping accumulated evidence.
    pub fn set_hitlist(&mut self, hitlist: MapHitList) {
        self.hitlist = hitlist;
    }

    /// Observe one flow record's worth of evidence.
    pub fn observe(
        &mut self,
        line: AnonId,
        dst: std::net::Ipv4Addr,
        dport: u16,
        proto: Proto,
        established: bool,
        hour: HourBin,
    ) {
        if self.config.require_established && proto == Proto::Tcp && !established {
            return;
        }
        let entries = self.hitlist.lookup(dst, dport);
        if entries.is_empty() {
            return;
        }
        // The allocation the optimized path exists to remove: clone the
        // entry slice so the state map can be borrowed mutably.
        let entries = entries.to_vec();
        for (ri, di) in entries {
            let mask = self.state.entry((line, ri)).or_insert(0);
            let bit = 1u64 << di;
            if *mask & bit != 0 {
                continue;
            }
            *mask |= bit;
            if mask.count_ones() == self.required[ri as usize] {
                self.first_met.entry((line, ri)).or_insert(hour);
            }
        }
    }

    /// Observe a wild vantage-point record.
    pub fn observe_wild(&mut self, r: &WildRecord) {
        self.observe(r.line, r.dst, r.dport, r.proto, r.established, r.hour);
    }

    /// Whether the rule's own evidence threshold is met (ignoring
    /// hierarchy gating).
    fn own_threshold_met(&self, line: AnonId, ri: u16) -> bool {
        self.state
            .get(&(line, ri))
            .map(|m| m.count_ones() >= self.required[ri as usize])
            .unwrap_or(false)
    }

    /// Whether `class` is detected for `line`, including hierarchy gating.
    pub fn is_detected(&self, line: AnonId, class: &str) -> bool {
        let Some(mut ri) = self.rules.rule_index(class) else {
            return false;
        };
        loop {
            if !self.own_threshold_met(line, ri as u16) {
                return false;
            }
            match self.rules.rules[ri].parent.and_then(|p| self.rules.rule_index_of(p)) {
                Some(p) => ri = p,
                None => return true,
            }
        }
    }

    /// Graded detection confidence for `(line, class)` in `[0, 1]`.
    pub fn confidence(&self, line: AnonId, class: &str) -> f64 {
        let Some(mut ri) = self.rules.rule_index(class) else {
            return 0.0;
        };
        let mut conf = 1.0f64;
        loop {
            let required = self.required[ri].max(1) as f64;
            let have = self
                .state
                .get(&(line, ri as u16))
                .map(|m| f64::from(m.count_ones()))
                .unwrap_or(0.0);
            conf = conf.min((have / required).min(1.0));
            match self.rules.rules[ri].parent.and_then(|p| self.rules.rule_index_of(p)) {
                Some(p) => ri = p,
                None => return conf,
            }
        }
    }

    /// First hour the full (hierarchy-gated) detection held for
    /// (line, class): the max of the chain's own first-met hours.
    pub fn first_detection(&self, line: AnonId, class: &str) -> Option<HourBin> {
        let mut ri = self.rules.rule_index(class)?;
        let mut latest: Option<HourBin> = None;
        loop {
            let h = *self.first_met.get(&(line, ri as u16))?;
            latest = Some(latest.map_or(h, |l: HourBin| l.max(h)));
            match self.rules.rules[ri].parent.and_then(|p| self.rules.rule_index_of(p)) {
                Some(p) => ri = p,
                None => return latest,
            }
        }
    }

    /// All lines for which `class` is currently detected.
    pub fn detected_lines(&self, class: &str) -> Vec<AnonId> {
        let Some(ri) = self.rules.rule_index(class) else {
            return Vec::new();
        };
        let mut out: Vec<AnonId> = self
            .state
            .keys()
            .filter(|(_, r)| *r == ri as u16)
            .map(|(l, _)| *l)
            .filter(|l| self.is_detected(*l, class))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of (line, rule) states held.
    pub fn state_size(&self) -> usize {
        self.state.len()
    }

    /// The evidence state in checkpoint form, entries sorted by line per
    /// rule — what [`Detector::export_state`] of an equivalent detector
    /// encodes to, byte for byte.
    ///
    /// [`Detector::export_state`]: crate::detector::Detector::export_state
    pub fn export_state(&self) -> DetectorState {
        let mut rules = vec![Vec::new(); self.rules.rules.len()];
        for (&(line, ri), &mask) in &self.state {
            let first_met = self.first_met.get(&(line, ri)).copied();
            rules[ri as usize].push(LineEvidence { line, mask, first_met });
        }
        for entries in &mut rules {
            entries.sort_unstable_by_key(|e: &LineEvidence| e.line);
        }
        DetectorState { rules }
    }
}
