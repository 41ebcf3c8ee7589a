//! The streaming detector.
//!
//! State per (subscriber line, rule) is one 64-bit evidence mask — which
//! of the rule's primary domains the line has touched. Each record costs
//! one hitlist lookup plus a few bit operations, which is what lets the
//! methodology run against an ISP's full NetFlow feed ("able to identify
//! millions of IoT devices within minutes", §1; `benchmark/` measures it
//! as `core.detector.ns_per_record` on every `serve_*` workload).
//!
//! Detection semantics (§4.3.2): rule `r` fires for a line once the line
//! has contacted IP/port combinations of at least `max(1, ⌊D·N⌋)` of the
//! rule's `N` domains. Hierarchies gate children (§5: "for Samsung TV we
//! require to observe enough domains to confirm the presence of a
//! Samsung IoT device before moving forward"): a child rule only *counts
//! as detected* while every ancestor rule is also detected for that line.
//!
//! Hot-path layout (DESIGN.md §10): per-line state lives in *one map per
//! rule* (`Vec<FastMap<AnonId, LineState>>`, FxHash-keyed) rather than a
//! SipHash'd map keyed by `(line, rule)` tuples. That makes
//! [`Detector::observe`] allocation-free — the compiled
//! [`HitList`] slice and the state maps live in
//! disjoint fields, so no defensive clone is needed — and lets
//! [`Detector::detected_lines`] walk only the queried rule's map instead
//! of scanning every (line, rule) pair. Ancestor chains and class → rule
//! resolution are precomputed at construction; the `*_rule` methods
//! accept the resulting [`RuleHandle`] so query loops resolve a class
//! string once, not per line.
//!
//! The wild workload is *miss-dominated* — the overwhelming majority of
//! sampled records match no IoT rule — so [`Detector::observe_chunk`]
//! runs in two struct-of-arrays passes per `SOA_BLOCK`-record block,
//! over detector-owned scratch columns: a fused *gate pass*
//! (`gate::gate_block`) packs, hashes, and fingerprint-tests every
//! record, branchlessly emitting the survivors' positions and hashes;
//! then a *probe pass* runs full hitlist probes and state updates over
//! survivors only. A miss costs one hash and one L1 fingerprint byte —
//! it never reaches the probe table or the state maps.

use crate::checkpoint::{
    CheckpointError, DetectorDelta, DetectorSnapshot, DetectorState, LineEvidence,
};
use crate::fasthash::{mix64, FastMap, FastSet};
use crate::gate::{self, SOA_BLOCK};
use crate::hitlist::{self, HitList};
use crate::rules::RuleSet;
use crate::telemetry::HotStats;
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin};
use haystack_wild::WildRecord;

/// An index into the rule set, resolved once per query loop via
/// [`Detector::rule_handle`]. Equal to the rule's position in
/// `RuleSet::rules` (classes are unique), so callers that already
/// enumerate the rules can use the position directly.
pub type RuleHandle = u16;

/// The query surface shared by every detector shape — the single
/// [`Detector`] and the persistent
/// [`DetectorPool`](crate::parallel::DetectorPool). Evaluation code
/// (`quality::evaluate`) is generic over this, so the same scoring runs
/// against any of them. `&mut self` because pooled implementations must
/// flush in-flight records before answering.
pub trait DetectionQuery {
    /// All lines for which `class` is currently detected, sorted.
    fn query_detected_lines(&mut self, class: &str) -> Vec<AnonId>;
}

impl DetectionQuery for Detector<'_> {
    fn query_detected_lines(&mut self, class: &str) -> Vec<AnonId> {
        self.detected_lines(class)
    }
}

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// The evidence threshold `D` (paper's conservative choice: 0.4).
    pub threshold: f64,
    /// §6.3: require established-TCP evidence (IXP deployments).
    pub require_established: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { threshold: 0.4, require_established: false }
    }
}

/// Per-(line, rule) evidence: the domain bitmask plus the hour the
/// rule's own threshold was first met. One entry in the rule's line map.
#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    /// Evidence bitmask over the rule's domains.
    mask: u64,
    /// Hour the rule's own threshold was first met, if ever.
    first_met: Option<HourBin>,
}


/// Struct-of-arrays scratch for [`Detector::observe_chunk`], owned by
/// the detector so steady-state chunks reuse the same allocations (the
/// columns are sized to [`SOA_BLOCK`] on first use, then stay put —
/// `tests/alloc_free.rs` pins this at both all-hit and all-miss
/// workloads).
///
/// Only gate *survivors* are materialized. An earlier shape stored a
/// full per-record hash column (pass A) and gated it in a second pass
/// (pass B); measuring showed the column round-trip — 8 B stored and
/// reloaded per record — cost more than it saved, and the branchy
/// survivor push stalled the pipeline (~300 M rec/s vs ~400 M for the
/// fused branchless loop on the 99 %-miss mix). The packed key is not
/// stored either: re-packing from the record is two ALU ops and only
/// the few survivors need it.
#[derive(Debug, Default)]
struct Scratch {
    /// Chunk positions that passed the fingerprint gate; pass C probes
    /// only these. Sized [`SOA_BLOCK`]: the branchless emit writes
    /// `surv[len]` unconditionally and bumps `len` only on gate pass.
    surv: Vec<u32>,
    /// `mix64` of the packed key for the survivor at the same column
    /// position — pass C reuses it as the probe index instead of
    /// re-hashing.
    shash: Vec<u64>,
}

impl Scratch {
    /// Size the columns for a block (first call allocates; steady state
    /// is a no-op).
    #[inline]
    fn ensure(&mut self) {
        if self.surv.len() < SOA_BLOCK {
            self.surv.resize(SOA_BLOCK, 0);
            self.shash.resize(SOA_BLOCK, 0);
        }
    }
}

/// The streaming detector. Lifetime-bound to its rule set.
///
/// ```
/// use haystack_core::detector::{Detector, DetectorConfig};
/// use haystack_core::hitlist::HitList;
/// use haystack_core::rules::{RuleDomain, RuleSetBuilder};
/// use haystack_dns::DomainName;
/// use haystack_net::ports::Proto;
/// use haystack_net::{AnonId, HourBin};
///
/// let mut b = RuleSetBuilder::new();
/// b.rule(
///     "Example Cam",
///     haystack_testbed::catalog::DetectionLevel::Manufacturer,
///     None,
///     vec![RuleDomain {
///         name: DomainName::parse("api.example-cam.com").unwrap(),
///         ports: [443u16].into_iter().collect(),
///         ips: ["198.18.0.1".parse().unwrap()].into_iter().collect(),
///         usage_indicator: false,
///     }],
/// );
/// let rules = b.build();
/// let mut det = Detector::new(
///     &rules,
///     HitList::whole_window(&rules),
///     DetectorConfig::default(),
/// );
/// let line = AnonId(7);
/// det.observe(line, "198.18.0.1".parse().unwrap(), 443, Proto::Tcp, true, HourBin(0));
/// assert!(det.is_detected(line, "Example Cam"));
/// ```
#[derive(Debug)]
pub struct Detector<'r> {
    rules: &'r RuleSet,
    config: DetectorConfig,
    hitlist: HitList,
    required: Vec<u32>,
    /// Rule index of each rule's parent, resolved at construction.
    parent: Vec<Option<u16>>,
    /// Per-rule line state: `state[ri]` maps line → evidence for rule
    /// `ri`. Indexed by rule so class queries touch one map.
    state: Vec<FastMap<AnonId, LineState>>,
    /// Per-rule lines mutated since the last snapshot — the working set
    /// of [`Detector::take_snapshot_delta`]. Only *actual* mutations
    /// insert here (re-observed evidence takes the mask early-out), so
    /// steady-state hot loops stay allocation-free.
    dirty: Vec<FastSet<AnonId>>,
    /// Set when the dirty sets cannot bound the mutations since the last
    /// snapshot (fresh detector, reset, restore, rule swap) — the next
    /// snapshot must be full.
    dirty_all: bool,
    /// Reusable struct-of-arrays buffers for the batched observe path.
    scratch: Scratch,
    /// Plain (non-atomic) hot-path tallies; owners flush them into
    /// telemetry counters at chunk granularity.
    stats: HotStats,
}

impl<'r> Detector<'r> {
    /// Create a detector. Panics if any rule has more than 64 domains
    /// (the evidence mask is a `u64`; the paper's largest rule has 34).
    pub fn new(rules: &'r RuleSet, hitlist: HitList, config: DetectorConfig) -> Self {
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
        let parent = rules
            .rules
            .iter()
            .map(|r| r.parent.and_then(|p| rules.rule_index_of(p)).map(|p| p as u16))
            .collect();
        let state = rules.rules.iter().map(|_| FastMap::default()).collect();
        let dirty = rules.rules.iter().map(|_| FastSet::default()).collect();
        Detector {
            rules,
            config,
            hitlist,
            required,
            parent,
            state,
            dirty,
            dirty_all: true,
            scratch: Scratch::default(),
            stats: HotStats::default(),
        }
    }

    /// Swap in the next day's hitlist, keeping accumulated evidence.
    pub fn set_hitlist(&mut self, hitlist: HitList) {
        self.hitlist = hitlist;
    }

    /// The rule set.
    pub fn rules(&self) -> &RuleSet {
        self.rules
    }

    /// Resolve a class string to its [`RuleHandle`], for hoisting out of
    /// query loops. The handle equals the rule's position in
    /// `RuleSet::rules`.
    #[inline]
    pub fn rule_handle(&self, class: &str) -> Option<RuleHandle> {
        self.rules.rule_index(class).map(|i| i as RuleHandle)
    }

    /// Observe one flow record's worth of evidence.
    ///
    /// Allocation-free on the matching path: the hitlist and the state
    /// maps are disjoint fields, so the entry slice is iterated in place
    /// (no defensive clone), and re-observed evidence only flips bits in
    /// existing map entries (`tests/alloc_free.rs` pins this). The
    /// fingerprint front gate retires the no-match majority on one cache
    /// line before any table probe; `observe_chunk` is the same pipeline
    /// restructured into batched column passes and is what the shard workers
    /// feed — this scalar form keeps identical stats semantics.
    #[inline]
    pub fn observe(
        &mut self,
        line: AnonId,
        dst: std::net::Ipv4Addr,
        dport: u16,
        proto: Proto,
        established: bool,
        hour: HourBin,
    ) {
        self.stats.records += 1;
        if self.config.require_established && proto == Proto::Tcp && !established {
            return;
        }
        // Disjoint borrows: the hitlist slice must not alias the state
        // maps, which destructuring proves to the borrow checker.
        let Detector { hitlist, state, required, stats, dirty, dirty_all, .. } = self;
        let key = HitList::pack_key(dst, dport);
        let h = mix64(key);
        if !hitlist.prefilter_pass(h) {
            stats.prefilter_misses += 1;
            return;
        }
        stats.prefilter_hits += 1;
        stats.probes += 1;
        for &(ri, di) in hitlist.lookup_hashed(key, h) {
            stats.matches += 1;
            let entry = state[ri as usize].entry(line).or_default();
            let bit = 1u64 << di;
            if entry.mask & bit != 0 {
                continue;
            }
            entry.mask |= bit;
            if !*dirty_all {
                dirty[ri as usize].insert(line);
            }
            if entry.mask.count_ones() == required[ri as usize] && entry.first_met.is_none() {
                entry.first_met = Some(hour);
                stats.detections += 1;
            }
        }
    }

    /// Observe a wild vantage-point record.
    #[inline]
    pub fn observe_wild(&mut self, r: &WildRecord) {
        self.observe(r.line, r.dst, r.dport, r.proto, r.established, r.hour);
    }

    /// Observe a batch of wild records — the entry point `DetectorPool`
    /// shards and the crosscheck/ground-truth consumers feed.
    ///
    /// Structured as struct-of-arrays passes over the detector-owned
    /// scratch columns (DESIGN.md §10): a fused gate pass packs,
    /// hashes, and fingerprint-tests every record in one branchless
    /// loop, emitting survivor positions + hashes into the columns
    /// (unconditional store, conditional length bump — nothing for the
    /// branch predictor to miss, so the loop schedules as a straight
    /// line); a
    /// probe pass then runs full probes and `LineState` updates on
    /// survivors only. In a miss-dominated wild workload the gate pass
    /// is the whole per-record cost — no table probe, no state-map
    /// touch. The passes run over `SOA_BLOCK`-record blocks so the
    /// scratch columns are fixed-size and L1-resident however large the
    /// caller's chunk is. Detections are byte-identical to per-record
    /// [`Detector::observe`] across all chunk sizes, and steady-state
    /// chunks allocate nothing.
    pub fn observe_chunk(&mut self, records: &[WildRecord]) {
        for block in records.chunks(SOA_BLOCK) {
            self.observe_block(block);
        }
    }

    /// One [`SOA_BLOCK`]-bounded struct-of-arrays round of
    /// [`Detector::observe_chunk`].
    fn observe_block(&mut self, records: &[WildRecord]) {
        self.stats.records += records.len() as u64;
        let Detector { hitlist, state, required, stats, scratch, config, dirty, dirty_all, .. } =
            self;
        let filtered = config.require_established;
        let fp = hitlist.prefilter();
        if fp.is_empty() {
            // Empty hitlist: every eligible record is a gate miss.
            let eligible = if filtered {
                records.iter().filter(|r| r.proto != Proto::Tcp || r.established).count()
            } else {
                records.len()
            };
            stats.prefilter_misses += eligible as u64;
            return;
        }
        scratch.ensure();
        // Constant-length views + masked column indices in the filtered
        // loop prove every store in-bounds, so the emit loop carries no
        // bounds checks (the mask is semantically a no-op: `len` trails
        // the record index, which `observe_chunk` bounds at
        // `SOA_BLOCK`).
        let surv = &mut scratch.surv[..SOA_BLOCK];
        let shash = &mut scratch.shash[..SOA_BLOCK];
        // Gate pass (fused pack + hash + fingerprint test): branchless
        // survivor emit — store position and hash unconditionally, bump
        // the column length only when the gate bit is set. A miss costs
        // the hash and one L1 byte test. The unfiltered common case
        // dispatches to [`gate::gate_block`]; the established filter
        // (IXP deployments only) folds its predicate into a variant of
        // the same loop here.
        let mut len = 0usize;
        let eligible = if filtered {
            let mut eligible = 0u64;
            for (j, r) in records.iter().enumerate() {
                let elig = u8::from(r.proto != Proto::Tcp || r.established);
                let h = mix64(HitList::pack_key(r.dst, r.dport));
                let pass = elig & hitlist::fp_bit(fp, h);
                surv[len & (SOA_BLOCK - 1)] = j as u32;
                shash[len & (SOA_BLOCK - 1)] = h;
                len += pass as usize;
                eligible += u64::from(elig);
            }
            eligible
        } else {
            len = gate::gate_block(records, fp, surv, shash);
            records.len() as u64
        };
        stats.prefilter_hits += len as u64;
        stats.prefilter_misses += eligible - len as u64;
        stats.probes += len as u64;
        // Probe pass: full probes + state updates, survivors only. The
        // packed key is rebuilt from the record — two ALU ops on the
        // few survivors, instead of a whole stored column in the gate
        // pass.
        for (&j, &h) in surv[..len].iter().zip(&shash[..len]) {
            let r = &records[j as usize];
            let key = HitList::pack_key(r.dst, r.dport);
            let entries = hitlist.lookup_hashed(key, h);
            if entries.is_empty() {
                // Fingerprint false positive: probe rejected it.
                continue;
            }
            for &(ri, di) in entries {
                stats.matches += 1;
                let entry = state[ri as usize].entry(r.line).or_default();
                let bit = 1u64 << di;
                if entry.mask & bit != 0 {
                    continue;
                }
                entry.mask |= bit;
                if !*dirty_all {
                    dirty[ri as usize].insert(r.line);
                }
                if entry.mask.count_ones() == required[ri as usize] && entry.first_met.is_none() {
                    entry.first_met = Some(r.hour);
                    stats.detections += 1;
                }
            }
        }
    }

    /// Whether the rule's own evidence threshold is met (ignoring
    /// hierarchy gating).
    #[inline]
    fn own_threshold_met(&self, line: AnonId, ri: u16) -> bool {
        self.state[ri as usize]
            .get(&line)
            .map(|s| s.mask.count_ones() >= self.required[ri as usize])
            .unwrap_or(false)
    }

    /// Whether `class` is detected for `line`, including hierarchy gating.
    pub fn is_detected(&self, line: AnonId, class: &str) -> bool {
        self.rule_handle(class).is_some_and(|ri| self.is_detected_rule(line, ri))
    }

    /// [`Detector::is_detected`] by pre-resolved [`RuleHandle`].
    pub fn is_detected_rule(&self, line: AnonId, handle: RuleHandle) -> bool {
        let mut ri = handle;
        loop {
            if !self.own_threshold_met(line, ri) {
                return false;
            }
            match self.parent[ri as usize] {
                Some(p) => ri = p,
                None => return true,
            }
        }
    }

    /// Graded detection confidence for `(line, class)` in `[0, 1]`.
    ///
    /// The minimum, over the rule and its ancestors, of
    /// `evidence / required` (capped at 1). Exactly 1.0 iff
    /// [`Detector::is_detected`] holds; partial evidence — e.g. domains
    /// whose flows were lost to an impaired export feed — lowers the
    /// score smoothly instead of flipping the verdict for downstream
    /// consumers that want ranking rather than a hard cut.
    pub fn confidence(&self, line: AnonId, class: &str) -> f64 {
        self.rule_handle(class).map_or(0.0, |ri| self.confidence_rule(line, ri))
    }

    /// [`Detector::confidence`] by pre-resolved [`RuleHandle`].
    pub fn confidence_rule(&self, line: AnonId, handle: RuleHandle) -> f64 {
        let mut ri = handle;
        let mut conf = 1.0f64;
        loop {
            let required = self.required[ri as usize].max(1) as f64;
            let have = self.state[ri as usize]
                .get(&line)
                .map(|s| f64::from(s.mask.count_ones()))
                .unwrap_or(0.0);
            conf = conf.min((have / required).min(1.0));
            match self.parent[ri as usize] {
                Some(p) => ri = p,
                None => return conf,
            }
        }
    }

    /// First hour the full (hierarchy-gated) detection held for
    /// (line, class): the max of the chain's own first-met hours.
    pub fn first_detection(&self, line: AnonId, class: &str) -> Option<HourBin> {
        self.rule_handle(class).and_then(|ri| self.first_detection_rule(line, ri))
    }

    /// [`Detector::first_detection`] by pre-resolved [`RuleHandle`].
    pub fn first_detection_rule(&self, line: AnonId, handle: RuleHandle) -> Option<HourBin> {
        let mut ri = handle;
        let mut latest: Option<HourBin> = None;
        loop {
            let h = self.state[ri as usize].get(&line)?.first_met?;
            latest = Some(latest.map_or(h, |l: HourBin| l.max(h)));
            match self.parent[ri as usize] {
                Some(p) => ri = p,
                None => return latest,
            }
        }
    }

    /// All lines for which `class` is currently detected, sorted.
    pub fn detected_lines(&self, class: &str) -> Vec<AnonId> {
        self.rule_handle(class).map_or_else(Vec::new, |ri| self.detected_lines_rule(ri))
    }

    /// [`Detector::detected_lines`] by pre-resolved [`RuleHandle`]: walks
    /// only the queried rule's line map, not every (line, rule) pair.
    pub fn detected_lines_rule(&self, handle: RuleHandle) -> Vec<AnonId> {
        let mut out: Vec<AnonId> = self.state[handle as usize]
            .keys()
            .copied()
            .filter(|l| self.is_detected_rule(*l, handle))
            .collect();
        out.sort_unstable();
        out
    }

    /// Clear accumulated evidence (start a new aggregation window).
    /// Deltas cannot express removal, so the next snapshot is full.
    pub fn reset(&mut self) {
        for m in &mut self.state {
            m.clear();
        }
        self.dirty_all = true;
        for s in &mut self.dirty {
            s.clear();
        }
    }

    /// Number of (line, rule) states held.
    pub fn state_size(&self) -> usize {
        self.state.iter().map(FastMap::len).sum()
    }

    /// The configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Cumulative hot-path tallies (records offered, hitlist probes,
    /// entry matches, rule thresholds newly met). Plain counters — take
    /// deltas with [`HotStats::since`] and flush them into telemetry at
    /// chunk granularity. Not cleared by [`Detector::reset`].
    pub fn hot_stats(&self) -> HotStats {
        self.stats
    }

    /// Export the accumulated per-line evidence for checkpointing.
    /// Entries are sorted by line, so equal detectors export equal
    /// (and byte-identical, once encoded) states.
    pub fn export_state(&self) -> DetectorState {
        let rules = self
            .state
            .iter()
            .map(|m| {
                let mut entries: Vec<LineEvidence> = m
                    .iter()
                    .map(|(line, s)| LineEvidence {
                        line: *line,
                        mask: s.mask,
                        first_met: s.first_met,
                    })
                    .collect();
                entries.sort_unstable_by_key(|e| e.line);
                entries
            })
            .collect();
        DetectorState { rules }
    }

    /// Replace the accumulated evidence with a checkpointed state.
    /// Configuration, rules, and hitlist are the caller's to rebuild —
    /// a state taken under a different rule count is rejected.
    pub fn restore_state(&mut self, state: &DetectorState) -> Result<(), CheckpointError> {
        if state.rules.len() != self.state.len() {
            return Err(CheckpointError::StateMismatch("detector rule count"));
        }
        for (m, entries) in self.state.iter_mut().zip(&state.rules) {
            m.clear();
            for e in entries {
                m.insert(e.line, LineState { mask: e.mask, first_met: e.first_met });
            }
        }
        // The restored state replaces whatever the dirty sets were
        // bounding — force the next snapshot full.
        self.dirty_all = true;
        for s in &mut self.dirty {
            s.clear();
        }
        Ok(())
    }

    /// Mark every entry clean: the next
    /// [`Detector::take_snapshot_delta`] covers only mutations made
    /// after this point.
    fn mark_clean(&mut self) {
        self.dirty_all = false;
        for s in &mut self.dirty {
            s.clear();
        }
    }

    /// Export the full state *and* mark everything clean — the
    /// checkpointing counterpart of the read-only
    /// [`Detector::export_state`]. Use this when the export is actually
    /// persisted as the base of a delta chain.
    pub fn checkpoint_full(&mut self) -> DetectorState {
        let state = self.export_state();
        self.mark_clean();
        state
    }

    /// Take an incremental snapshot: the dirty (line, rule) entries
    /// mutated since the previous snapshot, as absolute-value upserts —
    /// or the full state when the dirty sets cannot bound the mutations
    /// (fresh detector, reset, restore). Clears the dirty tracking
    /// either way.
    pub fn take_snapshot_delta(&mut self) -> DetectorSnapshot {
        if self.dirty_all {
            return DetectorSnapshot::Full(self.checkpoint_full());
        }
        let rules = self
            .dirty
            .iter()
            .zip(&self.state)
            .map(|(dirty, m)| {
                let mut entries: Vec<LineEvidence> = dirty
                    .iter()
                    .map(|line| {
                        let s = m.get(line).copied().unwrap_or_default();
                        LineEvidence { line: *line, mask: s.mask, first_met: s.first_met }
                    })
                    .collect();
                entries.sort_unstable_by_key(|e| e.line);
                entries
            })
            .collect();
        self.mark_clean();
        DetectorSnapshot::Delta(DetectorDelta { rules })
    }

    /// Dirty (line, rule) entries accumulated since the last snapshot,
    /// or `None` when the next snapshot must be full.
    pub fn dirty_entries(&self) -> Option<usize> {
        if self.dirty_all {
            None
        } else {
            Some(self.dirty.iter().map(FastSet::len).sum())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{RuleDomain, RuleSetBuilder};
    use haystack_dns::DomainName;
    use haystack_testbed::catalog::DetectionLevel;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 5, last)
    }

    fn dom(name: &str, ips: &[u8]) -> RuleDomain {
        RuleDomain {
            name: DomainName::parse(name).unwrap(),
            ports: [443u16].into_iter().collect(),
            ips: ips.iter().map(|i| ip(*i)).collect(),
            usage_indicator: false,
        }
    }

    /// Parent rule "Fam" (2 domains), child rule "Kid" (2 domains).
    fn ruleset() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.rule(
            "Fam",
            DetectionLevel::Manufacturer,
            None,
            vec![dom("d0.fam.com", &[1]), dom("d1.fam.com", &[2])],
        );
        b.rule(
            "Kid",
            DetectionLevel::Product,
            Some("Fam"),
            vec![dom("d0.kid.com", &[10]), dom("d1.kid.com", &[11])],
        );
        b.build()
    }

    fn detector(rules: &RuleSet, threshold: f64) -> Detector<'_> {
        let hl = HitList::whole_window(rules);
        Detector::new(rules, hl, DetectorConfig { threshold, require_established: false })
    }

    const LINE: AnonId = AnonId(77);

    fn hit(det: &mut Detector<'_>, addr: Ipv4Addr, hour: u32) {
        det.observe(LINE, addr, 443, Proto::Tcp, true, HourBin(hour));
    }

    #[test]
    fn threshold_counts_distinct_domains() {
        let rules = ruleset();
        let mut det = detector(&rules, 1.0); // need both domains
        hit(&mut det, ip(1), 0);
        assert!(!det.is_detected(LINE, "Fam"));
        hit(&mut det, ip(1), 1); // same domain again: no new evidence
        assert!(!det.is_detected(LINE, "Fam"));
        hit(&mut det, ip(2), 2);
        assert!(det.is_detected(LINE, "Fam"));
        assert_eq!(det.first_detection(LINE, "Fam"), Some(HourBin(2)));
    }

    #[test]
    fn low_threshold_needs_one_domain() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4); // ⌊0.4·2⌋ = 0 → max(1,·) = 1
        hit(&mut det, ip(2), 5);
        assert!(det.is_detected(LINE, "Fam"));
        assert_eq!(det.first_detection(LINE, "Fam"), Some(HourBin(5)));
    }

    #[test]
    fn child_requires_parent() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4);
        hit(&mut det, ip(10), 0);
        assert!(!det.is_detected(LINE, "Kid"), "child gated on parent");
        hit(&mut det, ip(1), 3);
        assert!(det.is_detected(LINE, "Kid"));
        // First *gated* detection is when the chain completed (hour 3).
        assert_eq!(det.first_detection(LINE, "Kid"), Some(HourBin(3)));
    }

    #[test]
    fn established_filter_drops_syn_only_records() {
        let rules = ruleset();
        let hl = HitList::whole_window(&rules);
        let mut det = Detector::new(
            &rules,
            hl,
            DetectorConfig { threshold: 0.4, require_established: true },
        );
        det.observe(LINE, ip(1), 443, Proto::Tcp, false, HourBin(0));
        assert!(!det.is_detected(LINE, "Fam"), "spoofable evidence rejected");
        det.observe(LINE, ip(1), 443, Proto::Tcp, true, HourBin(1));
        assert!(det.is_detected(LINE, "Fam"));
    }

    #[test]
    fn non_rule_traffic_is_free() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4);
        for i in 0..100 {
            det.observe(AnonId(i), ip(200), 443, Proto::Tcp, true, HourBin(0));
        }
        assert_eq!(det.state_size(), 0, "irrelevant flows allocate nothing");
    }

    #[test]
    fn detected_lines_and_reset() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4);
        hit(&mut det, ip(1), 0);
        det.observe(AnonId(5), ip(2), 443, Proto::Tcp, true, HourBin(0));
        let mut lines = det.detected_lines("Fam");
        lines.sort_unstable();
        assert_eq!(lines, vec![AnonId(5), LINE]);
        det.reset();
        assert!(det.detected_lines("Fam").is_empty());
    }

    #[test]
    fn confidence_degrades_smoothly_with_partial_evidence() {
        let rules = ruleset();
        // Threshold 1.0: both domains required.
        let mut det = detector(&rules, 1.0);
        assert_eq!(det.confidence(LINE, "Fam"), 0.0);
        // Half the evidence (as if the other domain's flows were lost in
        // transit): confidence is 0.5, verdict stays negative — no flip.
        hit(&mut det, ip(1), 0);
        assert!((det.confidence(LINE, "Fam") - 0.5).abs() < 1e-12);
        assert!(!det.is_detected(LINE, "Fam"));
        hit(&mut det, ip(2), 1);
        assert_eq!(det.confidence(LINE, "Fam"), 1.0);
        assert!(det.is_detected(LINE, "Fam"));
    }

    #[test]
    fn confidence_is_gated_by_the_hierarchy() {
        let rules = ruleset();
        let mut det = detector(&rules, 1.0);
        // Full child evidence, half parent evidence: the chain minimum
        // carries the parent's uncertainty down to the child.
        hit(&mut det, ip(10), 0);
        hit(&mut det, ip(11), 1);
        hit(&mut det, ip(1), 2);
        assert!((det.confidence(LINE, "Kid") - 0.5).abs() < 1e-12);
        assert!(!det.is_detected(LINE, "Kid"));
        // Confidence 1.0 coincides exactly with the boolean verdict.
        hit(&mut det, ip(2), 3);
        assert_eq!(det.confidence(LINE, "Kid"), 1.0);
        assert!(det.is_detected(LINE, "Kid"));
        assert_eq!(det.confidence(LINE, "NoSuchClass"), 0.0);
    }

    #[test]
    fn monotone_in_threshold() {
        // Property: anything detected at high D is detected at lower D
        // given the same evidence stream.
        let rules = ruleset();
        let mut hi = detector(&rules, 1.0);
        let mut lo = detector(&rules, 0.4);
        for (addr, h) in [(ip(1), 0u32), (ip(2), 1)] {
            hit(&mut hi, addr, h);
            hit(&mut lo, addr, h);
        }
        assert!(hi.is_detected(LINE, "Fam"));
        assert!(lo.is_detected(LINE, "Fam"));
        assert!(
            lo.first_detection(LINE, "Fam").unwrap() <= hi.first_detection(LINE, "Fam").unwrap()
        );
    }

    #[test]
    fn rule_handles_match_rule_positions_and_string_queries() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4);
        assert_eq!(det.rule_handle("Fam"), Some(0));
        assert_eq!(det.rule_handle("Kid"), Some(1));
        assert_eq!(det.rule_handle("NoSuchClass"), None);
        hit(&mut det, ip(10), 0);
        hit(&mut det, ip(1), 3);
        for (ri, rule) in rules.rules.iter().enumerate() {
            let ri = ri as RuleHandle;
            let class = rules.class_name(rule.class);
            assert_eq!(det.is_detected_rule(LINE, ri), det.is_detected(LINE, class));
            assert_eq!(det.confidence_rule(LINE, ri), det.confidence(LINE, class));
            assert_eq!(
                det.first_detection_rule(LINE, ri),
                det.first_detection(LINE, class)
            );
            assert_eq!(det.detected_lines_rule(ri), det.detected_lines(class));
        }
    }

    #[test]
    fn hot_stats_tally_probes_matches_and_detections() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4);
        let before = det.hot_stats();
        assert_eq!(before, crate::telemetry::HotStats::default());
        hit(&mut det, ip(200), 0); // non-rule traffic: gated or probed-empty
        hit(&mut det, ip(1), 1); // matches Fam d0, fires Fam (required 1)
        hit(&mut det, ip(1), 2); // re-observed evidence: match, no detection
        let s = det.hot_stats().since(&before);
        assert_eq!(s.records, 3);
        // Every record is accounted to exactly one side of the gate, and
        // only gate survivors probe. The two rule hits must survive; the
        // non-rule record may survive only as a fingerprint false
        // positive (in which case its probe matches nothing).
        assert_eq!(s.prefilter_hits + s.prefilter_misses, 3);
        assert!(s.prefilter_hits >= 2);
        assert_eq!(s.probes, s.prefilter_hits);
        assert_eq!(s.matches, 2);
        assert_eq!(s.detections, 1);
    }

    #[test]
    fn chunked_and_scalar_paths_tally_identical_stats() {
        let rules = ruleset();
        let mut scalar = detector(&rules, 0.4);
        let mut chunked = detector(&rules, 0.4);
        let records: Vec<WildRecord> = [(ip(200), 0u32), (ip(1), 1), (ip(1), 2), (ip(10), 3)]
            .into_iter()
            .map(|(dst, h)| WildRecord {
                line: LINE,
                line_slash24: haystack_net::Prefix4::slash24_of(Ipv4Addr::new(100, 64, 0, 1)),
                src_ip: Ipv4Addr::new(100, 64, 0, 1),
                dst,
                dport: 443,
                proto: Proto::Tcp,
                packets: 1,
                bytes: 64,
                established: true,
                hour: HourBin(h),
            })
            .collect();
        for r in &records {
            scalar.observe_wild(r);
        }
        chunked.observe_chunk(&records);
        assert_eq!(scalar.hot_stats(), chunked.hot_stats());
    }

    #[test]
    fn first_snapshot_is_full_then_deltas_track_only_mutations() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4);
        hit(&mut det, ip(1), 0);
        // Fresh detector: dirty sets can't bound anything yet.
        assert_eq!(det.dirty_entries(), None);
        let snap = det.take_snapshot_delta();
        assert!(snap.is_full(), "first snapshot must be full");
        // Re-observed evidence is not a mutation.
        hit(&mut det, ip(1), 1);
        assert_eq!(det.dirty_entries(), Some(0));
        // New evidence dirties exactly the touched (rule, line) entries.
        hit(&mut det, ip(2), 2);
        det.observe(AnonId(5), ip(10), 443, Proto::Tcp, true, HourBin(2));
        assert_eq!(det.dirty_entries(), Some(2));
        let snap = det.take_snapshot_delta();
        let crate::checkpoint::DetectorSnapshot::Delta(delta) = &snap else {
            panic!("expected a delta");
        };
        assert_eq!(delta.entry_count(), 2);
        assert_eq!(det.dirty_entries(), Some(0), "taking the snapshot clears dirty");
    }

    #[test]
    fn full_plus_delta_chain_reconstructs_the_full_state() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4);
        hit(&mut det, ip(1), 0);
        let base = det.checkpoint_full();
        hit(&mut det, ip(2), 1);
        det.observe(AnonId(5), ip(1), 443, Proto::Tcp, true, HourBin(2));
        let snap1 = det.take_snapshot_delta();
        det.observe(AnonId(5), ip(2), 443, Proto::Tcp, true, HourBin(3));
        let snap2 = det.take_snapshot_delta();
        // Replay the chain onto the base: must equal a fresh full export.
        let mut replayed = base;
        snap1.apply_to(&mut replayed).unwrap();
        snap2.apply_to(&mut replayed).unwrap();
        assert_eq!(replayed, det.export_state());
    }

    #[test]
    fn reset_and_restore_force_the_next_snapshot_full() {
        let rules = ruleset();
        let mut det = detector(&rules, 0.4);
        det.take_snapshot_delta();
        hit(&mut det, ip(1), 0);
        det.reset();
        assert_eq!(det.dirty_entries(), None);
        assert!(det.take_snapshot_delta().is_full());
        hit(&mut det, ip(1), 0);
        let state = det.export_state();
        det.restore_state(&state).unwrap();
        assert_eq!(det.dirty_entries(), None);
        assert!(det.take_snapshot_delta().is_full());
    }

    #[test]
    fn observe_chunk_matches_record_at_a_time() {
        use haystack_wild::WildRecord;
        let rules = ruleset();
        let mut chunked = detector(&rules, 1.0);
        let mut single = detector(&rules, 1.0);
        let records: Vec<WildRecord> = [(ip(1), 0u32), (ip(10), 1), (ip(2), 2), (ip(11), 3)]
            .into_iter()
            .map(|(dst, h)| WildRecord {
                line: LINE,
                line_slash24: haystack_net::Prefix4::slash24_of(Ipv4Addr::new(100, 64, 0, 1)),
                src_ip: Ipv4Addr::new(100, 64, 0, 1),
                dst,
                dport: 443,
                proto: Proto::Tcp,
                packets: 1,
                bytes: 64,
                established: true,
                hour: HourBin(h),
            })
            .collect();
        chunked.observe_chunk(&records);
        for r in &records {
            single.observe_wild(r);
        }
        for class in ["Fam", "Kid"] {
            assert_eq!(chunked.detected_lines(class), single.detected_lines(class));
            assert_eq!(chunked.first_detection(LINE, class), single.first_detection(LINE, class));
        }
        assert_eq!(chunked.state_size(), single.state_size());
    }
}
