//! The stateful flow collector.
//!
//! Holds the template cache keyed by `(source id, template id)` — templates
//! from one exporter must never describe another exporter's data — decodes
//! data sets against it, and surfaces per-message decode problems without
//! aborting the feed (a collector that dies on one malformed datagram is
//! useless at an IXP).
//!
//! The collector is hardened against the impairments
//! [`chaos`](crate::chaos) injects (see DESIGN.md, "Fault model"):
//!
//! * **Loss** — per-source sequence tracking turns gaps into
//!   [`missed_datagrams`](Collector::missed_datagrams) /
//!   [`missed_records`](Collector::missed_records) counters instead of
//!   silent undercounting.
//! * **Exporter restart** — a sequence number falling back to zero (or a
//!   huge backward jump) flushes that source's templates, so stale
//!   layouts never decode a new process's data.
//! * **Cache exhaustion** — template and options caches are bounded with
//!   least-recently-used eviction; a misbehaving exporter announcing
//!   endless template ids cannot grow collector memory without bound.
//! * **Malformed floods** — a source producing repeated malformed
//!   messages is quarantined; other sources are unaffected. Quarantine is
//!   not one-way: after the discard window the source enters *probation*
//!   (half-open — traffic flows again but is monitored), and a single
//!   malformed message during probation re-quarantines it with an
//!   exponentially longer window, while a run of clean messages restores
//!   it to full health and resets the backoff.

use crate::error::FlowError;
use crate::ipfix;
use crate::netflow_v5 as v5;
use crate::netflow_v9 as v9;
use crate::record::FlowRecord;
use crate::wire::{
    DecodePlan, OptionsTemplate, SamplingOptions, Set, Sets, Template, TemplateField, TemplateRef,
};
use bytes::Bytes;
use haystack_net::snapshot::{open, seal, SnapError, SnapReader, SnapWriter, MAGIC_LEN};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-source health counters, as a copyable snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Sequence gaps observed (each is ≥ 1 lost datagram).
    pub missed_datagrams: u64,
    /// Flow records the gaps account for (sequence numbers count
    /// exported records in both v9 and IPFIX).
    pub missed_records: u64,
    /// Datagrams that arrived late or duplicated (small backward jumps).
    pub out_of_order: u64,
    /// Exporter restarts detected (sequence reset).
    pub restarts: u64,
    /// Data sets dropped because their template was never announced.
    pub dropped_unknown_template: u64,
    /// Times this source entered quarantine.
    pub quarantines: u64,
    /// Datagrams discarded while quarantined.
    pub quarantined_dropped: u64,
    /// Times this source was re-quarantined out of probation (each one
    /// doubles the next quarantine window, up to the backoff cap).
    pub requarantines: u64,
}

/// Where a source stands in the quarantine lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceHealth {
    /// Decoding normally; malformed streaks are below the threshold.
    Healthy,
    /// Feed is being discarded; `remaining` datagrams left to drop.
    Quarantined {
        /// Datagrams still to be discarded before probation.
        remaining: u32,
    },
    /// Half-open: traffic flows again, but one malformed message
    /// re-quarantines with a doubled window. `clean_needed` more clean
    /// messages restore full health.
    Probation {
        /// Clean messages still required to return to `Healthy`.
        clean_needed: u32,
    },
}

impl SourceHealth {
    /// Stable lowercase label (`healthy` / `quarantined` / `probation`)
    /// for telemetry and the daemon's source endpoint.
    pub fn label(&self) -> &'static str {
        match self {
            SourceHealth::Healthy => "healthy",
            SourceHealth::Quarantined { .. } => "quarantined",
            SourceHealth::Probation { .. } => "probation",
        }
    }
}

/// Internal per-source state (the snapshot plus bookkeeping).
#[derive(Debug, Default)]
struct SourceState {
    stats: SourceStats,
    /// Sequence value the next datagram should carry.
    expected_seq: Option<u32>,
    /// Consecutive malformed messages (header- or set-level).
    malformed_streak: u32,
    /// Datagrams left to discard while quarantined.
    quarantine_remaining: u32,
    /// Clean messages still required to graduate from probation
    /// (0 = not on probation).
    probation_remaining: u32,
    /// How many times quarantine has recurred without an intervening
    /// clean probation; scales the next window as
    /// `QUARANTINE_DATAGRAMS << backoff_level` (capped).
    backoff_level: u32,
}

/// A collector accepting NetFlow v5/v9 and IPFIX feeds.
#[derive(Debug)]
pub struct Collector {
    /// Each cached template with the decode plan compiled from it when it
    /// was announced (derived state: dropped with the template, rebuilt
    /// on restore, never serialized).
    templates: HashMap<(u32, u16), (Template, DecodePlan)>,
    options_templates: HashMap<(u32, u16), OptionsTemplate>,
    /// Last-use stamps for LRU eviction, one per cache.
    template_lru: HashMap<(u32, u16), u64>,
    options_lru: HashMap<(u32, u16), u64>,
    lru_clock: u64,
    template_cache_cap: usize,
    options_cache_cap: usize,
    /// Per-source sequence/health tracking.
    sources: HashMap<u32, SourceState>,
    /// Per-source sampling configuration learned from options data.
    sampling: HashMap<u32, SamplingOptions>,
    /// Data sets that referenced a template not yet announced. Real
    /// collectors buffer or drop; we drop and count, which the tests
    /// assert on.
    dropped_unknown_template: u64,
    /// Messages that failed to parse at the datagram level.
    malformed_messages: u64,
    /// Sets inside parsable messages whose bodies failed to decode.
    malformed_sets: u64,
    /// Templates evicted by the LRU bound.
    templates_evicted: u64,
    /// Datagrams offered to any `feed*` entry point (including ones that
    /// later fail to parse or are discarded under quarantine).
    datagrams_received: u64,
    /// Flow records successfully decoded and returned to the caller.
    records_decoded: u64,
    /// Data sets whose (data or options) template was in the cache.
    template_hits: u64,
    /// Template records accepted (data + options announcements).
    template_announcements: u64,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            templates: HashMap::new(),
            options_templates: HashMap::new(),
            template_lru: HashMap::new(),
            options_lru: HashMap::new(),
            lru_clock: 0,
            template_cache_cap: Self::DEFAULT_TEMPLATE_CACHE_CAP,
            options_cache_cap: Self::DEFAULT_OPTIONS_CACHE_CAP,
            sources: HashMap::new(),
            sampling: HashMap::new(),
            dropped_unknown_template: 0,
            malformed_messages: 0,
            malformed_sets: 0,
            templates_evicted: 0,
            datagrams_received: 0,
            records_decoded: 0,
            template_hits: 0,
            template_announcements: 0,
        }
    }
}

impl Collector {
    /// Default bound on cached data templates.
    pub const DEFAULT_TEMPLATE_CACHE_CAP: usize = 4096;
    /// Default bound on cached options templates.
    pub const DEFAULT_OPTIONS_CACHE_CAP: usize = 1024;
    /// Consecutive malformed messages before a source is quarantined.
    pub const QUARANTINE_THRESHOLD: u32 = 4;
    /// Datagrams a quarantined source has discarded before probation.
    pub const QUARANTINE_DATAGRAMS: u32 = 32;
    /// Clean messages a probationary source must deliver to return to
    /// full health (and reset its backoff).
    pub const PROBATION_CLEAN: u32 = 8;
    /// Cap on the exponential backoff: the discard window never exceeds
    /// `QUARANTINE_DATAGRAMS << MAX_BACKOFF_LEVEL`.
    pub const MAX_BACKOFF_LEVEL: u32 = 6;
    /// A backward sequence jump larger than this is a restart even when
    /// the new sequence is not zero.
    const RESTART_BACKJUMP: u32 = 100_000;
    /// Forward jumps larger than this are treated as out-of-order noise
    /// (e.g. a pre-restart datagram arriving late), not as loss.
    const MAX_PLAUSIBLE_GAP: u32 = 100_000;

    /// New collector with an empty template cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the template-cache bound (tests exercise eviction with
    /// tiny caps).
    pub fn with_template_cache_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "template cache cap must be positive");
        self.template_cache_cap = cap;
        self
    }

    /// Feed one datagram of any supported protocol (v5, v9, IPFIX),
    /// dispatching on the version word, and append to the caller's
    /// (reusable) buffer the records whose raw `(dst, dport)` the
    /// admission predicate `keep` accepts; returns how many records the
    /// datagram carried, kept or not. Once `out` has grown to a
    /// datagram's worth, a data-only datagram is decoded without
    /// allocating; a v9 / IPFIX datagram whose records `keep` all turns
    /// away allocates nothing whatever `out`'s capacity (v5 decodes into
    /// a `Vec` of its own first).
    ///
    /// The contract every `feed*` entry point shares (DESIGN.md §8): a
    /// message is validated whole before any of it is applied. A
    /// datagram that fails to parse — even in its last set — changes
    /// nothing but `datagrams_received`, `malformed_messages` and the
    /// source's malformed streak, and leaves `out` as it was. `keep`
    /// filters only what reaches `out`: `records_decoded`, sequence
    /// accounting and every per-source book count every record, so the
    /// collector's state does not depend on the predicate.
    pub fn feed_into(
        &mut self,
        datagram: &[u8],
        out: &mut Vec<FlowRecord>,
        mut keep: impl FnMut(Ipv4Addr, u16) -> bool,
    ) -> Result<usize, FlowError> {
        match peek_version(datagram) {
            Some(v5::VERSION) => self.feed_v5(datagram, out, &mut keep),
            Some(version @ (v9::VERSION | ipfix::VERSION)) => {
                self.feed_templated(version, datagram, out, &mut keep, false)
            }
            found => {
                self.datagrams_received += 1;
                self.malformed_messages += 1;
                Err(FlowError::BadVersion {
                    expected: 9,
                    found: found.unwrap_or(0),
                })
            }
        }
    }

    /// [`Collector::feed_into`], returning the records in a fresh `Vec`.
    pub fn feed(&mut self, datagram: Bytes) -> Result<Vec<FlowRecord>, FlowError> {
        let mut out = Vec::new();
        self.feed_into(&datagram, &mut out, |_, _| true)
            .map(|_| out)
    }

    /// Like [`Collector::feed`], but data referencing an unannounced
    /// template is an error ([`FlowError::UnknownTemplate`]) instead of a
    /// counted drop. Useful in controlled replays where template loss
    /// must be loud.
    pub fn feed_strict(&mut self, datagram: Bytes) -> Result<Vec<FlowRecord>, FlowError> {
        match peek_version(&datagram) {
            Some(version @ (v9::VERSION | ipfix::VERSION)) => {
                let mut out = Vec::new();
                self.feed_templated(version, &datagram, &mut out, &mut |_, _| true, true)
                    .map(|_| out)
            }
            _ => self.feed(datagram),
        }
    }

    /// The one v9 / IPFIX path: quarantine, validate the whole message,
    /// then sequence tracking, the sets in wire order, and the
    /// per-message books.
    fn feed_templated(
        &mut self,
        version: u16,
        datagram: &[u8],
        out: &mut Vec<FlowRecord>,
        keep: &mut impl FnMut(Ipv4Addr, u16) -> bool,
        strict: bool,
    ) -> Result<usize, FlowError> {
        self.datagrams_received += 1;
        let source_hint = peek_source(datagram)
            .filter(|(v, _)| *v == version)
            .map(|(_, s)| s);
        if let Some(source) = source_hint {
            if self.consume_quarantine(source) {
                return Ok(0);
            }
        }
        let split = if version == v9::VERSION {
            v9::split(datagram).map(|(h, _, sets)| (h.source_id, h.sequence, sets))
        } else {
            ipfix::split(datagram).map(|(h, sets)| (h.domain_id, h.sequence, sets))
        };
        let checked = split.and_then(|(source, sequence, sets)| {
            sets.validate()?;
            Ok((source, sequence, sets))
        });
        let (source, sequence, sets) = match checked {
            Ok(msg) => msg,
            Err(e) => {
                self.note_malformed_message(source_hint);
                return Err(e);
            }
        };
        self.track_sequence(source, sequence);
        let start = out.len();
        let mut clean = true;
        let decoded = match self.apply_sets(source, sets, out, keep, strict, &mut clean) {
            Ok(decoded) => decoded,
            Err(e) => {
                // Strict mode's unknown template: the message's records
                // are neither handed out nor counted.
                out.truncate(start);
                return Err(e);
            }
        };
        self.finish_message(source, sequence, decoded, clean);
        self.records_decoded += decoded as u64;
        Ok(decoded)
    }

    /// Apply a validated message's sets in wire order: templates into the
    /// caches, data through them into `out`. Returns the data records
    /// decoded, kept or not.
    fn apply_sets(
        &mut self,
        source: u32,
        sets: Sets<'_>,
        out: &mut Vec<FlowRecord>,
        keep: &mut impl FnMut(Ipv4Addr, u16) -> bool,
        strict: bool,
        clean: &mut bool,
    ) -> Result<usize, FlowError> {
        let mut decoded = 0;
        for set in sets {
            match set? {
                Set::Templates(ts) => {
                    for t in ts {
                        self.insert_template(source, t?);
                    }
                }
                Set::OptionsTemplates(ts) => {
                    for t in ts {
                        self.insert_options_template(source, t?);
                    }
                }
                Set::Data { template_id, body } => {
                    let key = (source, template_id);
                    decoded += self.decode_data(key, body, out, keep, strict, clean)?;
                }
            }
        }
        Ok(decoded)
    }

    /// One legacy NetFlow v5 datagram (fixed format, no templates).
    /// The header's sampling announcement, if present, is recorded under
    /// the engine id as source; `keep` filters the decoded records.
    fn feed_v5(
        &mut self,
        datagram: &[u8],
        out: &mut Vec<FlowRecord>,
        keep: &mut impl FnMut(Ipv4Addr, u16) -> bool,
    ) -> Result<usize, FlowError> {
        self.datagrams_received += 1;
        let mut msg = match v5::decode(datagram) {
            Ok(m) => m,
            Err(e) => {
                self.malformed_messages += 1;
                return Err(e);
            }
        };
        if let Some(interval) = msg.header.sampling_interval() {
            self.sampling.insert(
                u32::from(msg.header.engine),
                SamplingOptions {
                    interval: u32::from(interval),
                    algorithm: 1,
                },
            );
        }
        let decoded = msg.records.len();
        self.records_decoded += decoded as u64;
        msg.records.retain(|r| keep(r.key.dst, r.key.dport));
        out.append(&mut msg.records);
        Ok(decoded)
    }

    /// True (and consumes one quarantine slot) when the source's feed is
    /// currently being discarded. Exhausting the window moves the source
    /// to probation rather than straight back to full health.
    fn consume_quarantine(&mut self, source: u32) -> bool {
        let Some(st) = self.sources.get_mut(&source) else {
            return false;
        };
        if st.quarantine_remaining == 0 {
            return false;
        }
        st.quarantine_remaining -= 1;
        st.stats.quarantined_dropped += 1;
        if st.quarantine_remaining == 0 {
            st.probation_remaining = Self::PROBATION_CLEAN;
        }
        true
    }

    /// Attribute a datagram-level parse failure, possibly quarantining
    /// the source.
    fn note_malformed_message(&mut self, source_hint: Option<u32>) {
        self.malformed_messages += 1;
        if let Some(source) = source_hint {
            self.bump_malformed_streak(source);
        }
    }

    fn bump_malformed_streak(&mut self, source: u32) {
        let st = self.sources.entry(source).or_default();
        if st.probation_remaining > 0 {
            // Half-open: a single malformed message during probation
            // trips the source straight back, with a doubled window.
            st.probation_remaining = 0;
            st.malformed_streak = 0;
            st.backoff_level = (st.backoff_level + 1).min(Self::MAX_BACKOFF_LEVEL);
            st.quarantine_remaining = Self::QUARANTINE_DATAGRAMS << st.backoff_level;
            st.stats.quarantines += 1;
            st.stats.requarantines += 1;
            return;
        }
        st.malformed_streak += 1;
        if st.malformed_streak >= Self::QUARANTINE_THRESHOLD {
            st.malformed_streak = 0;
            st.quarantine_remaining = Self::QUARANTINE_DATAGRAMS << st.backoff_level;
            st.stats.quarantines += 1;
        }
    }

    /// Classify the incoming sequence number against the expected one:
    /// a match is silent; a plausible forward jump is loss; zero (or a
    /// huge backward jump) is an exporter restart, flushing the source's
    /// templates; a small backward jump is reordering/duplication.
    fn track_sequence(&mut self, source: u32, seq: u32) {
        let restart = {
            let st = self.sources.entry(source).or_default();
            match st.expected_seq {
                None => false,
                Some(expected) if seq == expected => false,
                Some(expected) => {
                    let ahead = seq.wrapping_sub(expected);
                    if ahead < Self::MAX_PLAUSIBLE_GAP {
                        st.stats.missed_datagrams += 1;
                        st.stats.missed_records += u64::from(ahead);
                        false
                    } else if seq == 0 || expected.wrapping_sub(seq) > Self::RESTART_BACKJUMP {
                        st.stats.restarts += 1;
                        st.expected_seq = None;
                        true
                    } else {
                        st.stats.out_of_order += 1;
                        false
                    }
                }
            }
        };
        if restart {
            self.flush_source(source);
        }
    }

    /// Advance the expected sequence (sequence numbers count data
    /// records) and settle the malformed streak. Out-of-order datagrams
    /// leave the expectation untouched.
    fn finish_message(&mut self, source: u32, seq: u32, data_records: usize, clean: bool) {
        let st = self.sources.entry(source).or_default();
        let candidate = seq.wrapping_add(data_records as u32);
        match st.expected_seq {
            // Only move forward: a late duplicate must not rewind.
            Some(expected) if candidate.wrapping_sub(expected) >= Self::MAX_PLAUSIBLE_GAP => {}
            _ => st.expected_seq = Some(candidate),
        }
        if clean {
            st.malformed_streak = 0;
            if st.probation_remaining > 0 {
                st.probation_remaining -= 1;
                if st.probation_remaining == 0 {
                    // Probation served cleanly: full health, backoff
                    // forgiven.
                    st.backoff_level = 0;
                }
            }
        } else {
            self.bump_malformed_streak(source);
        }
    }

    /// Drop all templates a restarted source announced in its previous
    /// life (its sampling announcement is kept as last-known-good until
    /// re-announced).
    fn flush_source(&mut self, source: u32) {
        self.templates.retain(|(s, _), _| *s != source);
        self.template_lru.retain(|(s, _), _| *s != source);
        self.options_templates.retain(|(s, _), _| *s != source);
        self.options_lru.retain(|(s, _), _| *s != source);
    }

    fn insert_template(&mut self, source: u32, t: TemplateRef<'_>) {
        let key = (source, t.id);
        self.template_announcements += 1;
        self.lru_clock += 1;
        self.template_lru.insert(key, self.lru_clock);
        // The periodic refresh of a layout already cached keeps the
        // template and its plan; only a new layout is copied and compiled.
        if self
            .templates
            .get(&key)
            .is_some_and(|(cached, _)| t.describes(cached))
        {
            return;
        }
        let t = t.to_template();
        let plan = t.plan();
        self.templates.insert(key, (t, plan));
        if self.templates.len() > self.template_cache_cap {
            if let Some(victim) = lru_victim(&self.template_lru, key) {
                self.templates.remove(&victim);
                self.template_lru.remove(&victim);
                self.templates_evicted += 1;
            }
        }
    }

    fn insert_options_template(&mut self, source: u32, t: OptionsTemplate) {
        let key = (source, t.id);
        self.template_announcements += 1;
        self.lru_clock += 1;
        self.options_lru.insert(key, self.lru_clock);
        self.options_templates.insert(key, t);
        if self.options_templates.len() > self.options_cache_cap {
            if let Some(victim) = lru_victim(&self.options_lru, key) {
                self.options_templates.remove(&victim);
                self.options_lru.remove(&victim);
                self.templates_evicted += 1;
            }
        }
    }

    fn decode_data(
        &mut self,
        key: (u32, u16),
        body: &[u8],
        out: &mut Vec<FlowRecord>,
        keep: &mut impl FnMut(Ipv4Addr, u16) -> bool,
        strict: bool,
        clean: &mut bool,
    ) -> Result<usize, FlowError> {
        // Options data takes priority: options templates and data
        // templates share the ≥256 id space, but an exporter never reuses
        // an id across the two.
        let (source, template_id) = key;
        if self.options_templates.contains_key(&key) {
            self.template_hits += 1;
            self.lru_clock += 1;
            self.options_lru.insert(key, self.lru_clock);
            let ot = &self.options_templates[&key];
            let mut b = body;
            while b.len() >= ot.record_len() && ot.record_len() > 0 {
                match ot.decode_sampling(&mut b) {
                    Ok(s) => {
                        self.sampling.insert(source, s);
                    }
                    Err(_) => {
                        self.malformed_sets += 1;
                        *clean = false;
                        return Ok(0);
                    }
                }
            }
            return Ok(0);
        }
        match self.templates.get(&key) {
            Some((_, plan)) => {
                self.template_hits += 1;
                // RFC 3954/7011 allow at most 3 bytes of padding to the
                // next 4-byte boundary; a longer remainder means the set
                // was truncated or corrupted mid-record.
                let rlen = plan.record_len();
                if rlen > 0 && body.len() % rlen > 3 {
                    self.malformed_sets += 1;
                    *clean = false;
                }
                let decoded = plan.decode_into(body, out, keep);
                self.lru_clock += 1;
                self.template_lru.insert(key, self.lru_clock);
                Ok(decoded)
            }
            None => {
                self.dropped_unknown_template += 1;
                self.sources
                    .entry(source)
                    .or_default()
                    .stats
                    .dropped_unknown_template += 1;
                if strict {
                    Err(FlowError::UnknownTemplate {
                        source_id: source,
                        template_id,
                    })
                } else {
                    Ok(0)
                }
            }
        }
    }

    /// The sampling configuration a source announced via options data
    /// (§2.1's "consistent sampling rate", as a collector learns it).
    pub fn sampling_of(&self, source_id: u32) -> Option<SamplingOptions> {
        self.sampling.get(&source_id).copied()
    }

    /// Data sets dropped because their template was never announced.
    pub fn dropped_unknown_template(&self) -> u64 {
        self.dropped_unknown_template
    }

    /// [`Collector::dropped_unknown_template`], restricted to one source.
    pub fn dropped_unknown_template_by_source(&self, source_id: u32) -> u64 {
        self.sources
            .get(&source_id)
            .map_or(0, |s| s.stats.dropped_unknown_template)
    }

    /// Datagrams that failed to parse at the message level.
    pub fn malformed_messages(&self) -> u64 {
        self.malformed_messages
    }

    /// Sets inside otherwise-parsable messages whose bodies failed to
    /// decode.
    pub fn malformed_sets(&self) -> u64 {
        self.malformed_sets
    }

    /// Sequence gaps observed across all sources (each ≥ 1 lost
    /// datagram).
    pub fn missed_datagrams(&self) -> u64 {
        self.sources
            .values()
            .map(|s| s.stats.missed_datagrams)
            .sum()
    }

    /// Flow records the sequence gaps account for, across all sources.
    pub fn missed_records(&self) -> u64 {
        self.sources.values().map(|s| s.stats.missed_records).sum()
    }

    /// Exporter restarts detected across all sources.
    pub fn restarts_detected(&self) -> u64 {
        self.sources.values().map(|s| s.stats.restarts).sum()
    }

    /// Health counters for one source, if it has been seen.
    pub fn source_stats(&self, source_id: u32) -> Option<SourceStats> {
        self.sources.get(&source_id).map(|s| s.stats)
    }

    /// Sources currently discarding datagrams under quarantine.
    pub fn quarantined_sources(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .sources
            .iter()
            .filter(|(_, s)| s.quarantine_remaining > 0)
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Quarantine-lifecycle position of one source ([`SourceHealth::Healthy`]
    /// for sources never seen).
    pub fn source_health(&self, source_id: u32) -> SourceHealth {
        match self.sources.get(&source_id) {
            Some(st) if st.quarantine_remaining > 0 => SourceHealth::Quarantined {
                remaining: st.quarantine_remaining,
            },
            Some(st) if st.probation_remaining > 0 => SourceHealth::Probation {
                clean_needed: st.probation_remaining,
            },
            _ => SourceHealth::Healthy,
        }
    }

    /// Every seen source with its health, sorted by source id — the
    /// daemon's source-status endpoint renders this directly.
    pub fn source_healths(&self) -> Vec<(u32, SourceHealth)> {
        let mut out: Vec<(u32, SourceHealth)> = self
            .sources
            .keys()
            .map(|&id| (id, self.source_health(id)))
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Total probation failures across all sources (the
    /// `collector.requarantined` telemetry counter).
    pub fn requarantines_total(&self) -> u64 {
        self.sources.values().map(|s| s.stats.requarantines).sum()
    }

    /// Templates evicted by the cache bounds so far.
    pub fn templates_evicted(&self) -> u64 {
        self.templates_evicted
    }

    /// Datagrams offered to any `feed*` entry point, including ones that
    /// failed to parse or were discarded under quarantine.
    pub fn datagrams_received(&self) -> u64 {
        self.datagrams_received
    }

    /// Flow records successfully decoded and returned to callers.
    pub fn records_decoded(&self) -> u64 {
        self.records_decoded
    }

    /// Data sets that found their (data or options) template cached.
    pub fn template_hits(&self) -> u64 {
        self.template_hits
    }

    /// Template records accepted (data + options announcements).
    pub fn template_announcements(&self) -> u64 {
        self.template_announcements
    }

    /// Number of cached templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Frame magic of a collector snapshot.
    pub const SNAPSHOT_MAGIC: &'static [u8; MAGIC_LEN] = b"HAYCOLL\0";
    /// Snapshot format version this build writes and reads. v2 added the
    /// probation/backoff fields and the requarantine counter.
    pub const SNAPSHOT_VERSION: u32 = 2;

    /// Serialize the collector's entire long-lived state — template and
    /// options caches with their LRU stamps, per-source sequence/health
    /// tracking, learned sampling configurations, and all counters — as
    /// one checksummed frame. Encoding iterates every map in sorted key
    /// order, so equal collectors produce byte-identical snapshots.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.template_cache_cap as u64);
        w.put_u64(self.options_cache_cap as u64);
        w.put_u64(self.lru_clock);

        let mut tmpl_keys: Vec<(u32, u16)> = self.templates.keys().copied().collect();
        tmpl_keys.sort_unstable();
        w.put_u64(tmpl_keys.len() as u64);
        for key in &tmpl_keys {
            let (t, _) = &self.templates[key];
            w.put_u32(key.0);
            w.put_u16(key.1);
            put_fields(&mut w, &t.fields);
        }
        put_lru(&mut w, &self.template_lru);

        let mut opt_keys: Vec<(u32, u16)> = self.options_templates.keys().copied().collect();
        opt_keys.sort_unstable();
        w.put_u64(opt_keys.len() as u64);
        for key in &opt_keys {
            let t = &self.options_templates[key];
            w.put_u32(key.0);
            w.put_u16(key.1);
            put_fields(&mut w, &t.scope_fields);
            put_fields(&mut w, &t.option_fields);
        }
        put_lru(&mut w, &self.options_lru);

        let mut src_keys: Vec<u32> = self.sources.keys().copied().collect();
        src_keys.sort_unstable();
        w.put_u64(src_keys.len() as u64);
        for source in &src_keys {
            let st = &self.sources[source];
            w.put_u32(*source);
            w.put_u64(st.stats.missed_datagrams);
            w.put_u64(st.stats.missed_records);
            w.put_u64(st.stats.out_of_order);
            w.put_u64(st.stats.restarts);
            w.put_u64(st.stats.dropped_unknown_template);
            w.put_u64(st.stats.quarantines);
            w.put_u64(st.stats.quarantined_dropped);
            w.put_u64(st.stats.requarantines);
            match st.expected_seq {
                Some(seq) => {
                    w.put_u8(1);
                    w.put_u32(seq);
                }
                None => {
                    w.put_u8(0);
                    w.put_u32(0);
                }
            }
            w.put_u32(st.malformed_streak);
            w.put_u32(st.quarantine_remaining);
            w.put_u32(st.probation_remaining);
            w.put_u32(st.backoff_level);
        }

        let mut samp_keys: Vec<u32> = self.sampling.keys().copied().collect();
        samp_keys.sort_unstable();
        w.put_u64(samp_keys.len() as u64);
        for source in &samp_keys {
            let s = &self.sampling[source];
            w.put_u32(*source);
            w.put_u32(s.interval);
            w.put_u8(s.algorithm);
        }

        w.put_u64(self.dropped_unknown_template);
        w.put_u64(self.malformed_messages);
        w.put_u64(self.malformed_sets);
        w.put_u64(self.templates_evicted);
        w.put_u64(self.datagrams_received);
        w.put_u64(self.records_decoded);
        w.put_u64(self.template_hits);
        w.put_u64(self.template_announcements);

        seal(
            Self::SNAPSHOT_MAGIC,
            Self::SNAPSHOT_VERSION,
            &w.into_bytes(),
        )
    }

    /// Rebuild a collector from a [`Collector::snapshot`] frame. A
    /// truncated, bit-flipped, or foreign frame is a typed [`SnapError`];
    /// this never panics on corrupt input.
    pub fn restore(frame: &[u8]) -> Result<Collector, SnapError> {
        let payload = open(Self::SNAPSHOT_MAGIC, Self::SNAPSHOT_VERSION, frame)?;
        let mut r = SnapReader::new(payload);
        let mut c = Collector::new();
        let template_cache_cap = r.u64()? as usize;
        let options_cache_cap = r.u64()? as usize;
        if template_cache_cap == 0 || options_cache_cap == 0 {
            return Err(SnapError::Malformed("zero cache cap"));
        }
        c.template_cache_cap = template_cache_cap;
        c.options_cache_cap = options_cache_cap;
        c.lru_clock = r.u64()?;

        let n = r.count(6)?;
        for _ in 0..n {
            let source = r.u32()?;
            let id = r.u16()?;
            let fields = read_fields(&mut r)?;
            let t = Template { id, fields };
            let plan = t.plan();
            c.templates.insert((source, id), (t, plan));
        }
        read_lru(&mut r, &mut c.template_lru)?;

        let n = r.count(6)?;
        for _ in 0..n {
            let source = r.u32()?;
            let id = r.u16()?;
            let scope_fields = read_fields(&mut r)?;
            let option_fields = read_fields(&mut r)?;
            c.options_templates.insert(
                (source, id),
                OptionsTemplate {
                    id,
                    scope_fields,
                    option_fields,
                },
            );
        }
        read_lru(&mut r, &mut c.options_lru)?;

        let n = r.count(4 + 8 * 8 + 1 + 4 + 4 + 4 + 4 + 4)?;
        for _ in 0..n {
            let source = r.u32()?;
            let stats = SourceStats {
                missed_datagrams: r.u64()?,
                missed_records: r.u64()?,
                out_of_order: r.u64()?,
                restarts: r.u64()?,
                dropped_unknown_template: r.u64()?,
                quarantines: r.u64()?,
                quarantined_dropped: r.u64()?,
                requarantines: r.u64()?,
            };
            let has_seq = r.u8()?;
            let seq = r.u32()?;
            let expected_seq = match has_seq {
                0 => None,
                1 => Some(seq),
                _ => return Err(SnapError::Malformed("bad expected_seq flag")),
            };
            let malformed_streak = r.u32()?;
            let quarantine_remaining = r.u32()?;
            let probation_remaining = r.u32()?;
            let backoff_level = r.u32()?;
            c.sources.insert(
                source,
                SourceState {
                    stats,
                    expected_seq,
                    malformed_streak,
                    quarantine_remaining,
                    probation_remaining,
                    backoff_level,
                },
            );
        }

        let n = r.count(4 + 4 + 1)?;
        for _ in 0..n {
            let source = r.u32()?;
            let interval = r.u32()?;
            let algorithm = r.u8()?;
            c.sampling.insert(
                source,
                SamplingOptions {
                    interval,
                    algorithm,
                },
            );
        }

        c.dropped_unknown_template = r.u64()?;
        c.malformed_messages = r.u64()?;
        c.malformed_sets = r.u64()?;
        c.templates_evicted = r.u64()?;
        c.datagrams_received = r.u64()?;
        c.records_decoded = r.u64()?;
        c.template_hits = r.u64()?;
        c.template_announcements = r.u64()?;
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(c)
    }
}

fn put_fields(w: &mut SnapWriter, fields: &[TemplateField]) {
    w.put_u64(fields.len() as u64);
    for f in fields {
        w.put_u16(f.id);
        w.put_u16(f.len);
    }
}

fn read_fields(r: &mut SnapReader<'_>) -> Result<Vec<TemplateField>, SnapError> {
    let n = r.count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(TemplateField {
            id: r.u16()?,
            len: r.u16()?,
        });
    }
    Ok(out)
}

fn put_lru(w: &mut SnapWriter, lru: &HashMap<(u32, u16), u64>) {
    let mut keys: Vec<(u32, u16)> = lru.keys().copied().collect();
    keys.sort_unstable();
    w.put_u64(keys.len() as u64);
    for key in &keys {
        w.put_u32(key.0);
        w.put_u16(key.1);
        w.put_u64(lru[key]);
    }
}

fn read_lru(r: &mut SnapReader<'_>, into: &mut HashMap<(u32, u16), u64>) -> Result<(), SnapError> {
    let n = r.count(4 + 2 + 8)?;
    for _ in 0..n {
        let source = r.u32()?;
        let id = r.u16()?;
        let stamp = r.u64()?;
        into.insert((source, id), stamp);
    }
    Ok(())
}

/// Least-recently-used key, never the just-inserted one.
fn lru_victim(lru: &HashMap<(u32, u16), u64>, keep: (u32, u16)) -> Option<(u32, u16)> {
    lru.iter()
        .filter(|(k, _)| **k != keep)
        .min_by_key(|(_, stamp)| **stamp)
        .map(|(k, _)| *k)
}

fn peek_version(datagram: &[u8]) -> Option<u16> {
    datagram.get(..2).map(|b| u16::from_be_bytes([b[0], b[1]]))
}

/// Cheap header peek: `(version, source id)` for v9/IPFIX datagrams long
/// enough to carry one, used to attribute failures and enforce
/// quarantine before full decoding. Public so the socket front-end can
/// attribute shed datagrams to a source without decoding them.
pub fn peek_source(datagram: &[u8]) -> Option<(u16, u32)> {
    let at = match peek_version(datagram)? {
        9 if datagram.len() >= 20 => 16,
        10 if datagram.len() >= 16 => 12,
        _ => return None,
    };
    let b = datagram.get(at..at + 4)?;
    Some((
        peek_version(datagram)?,
        u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{ExportProtocol, Exporter};
    use crate::key::FlowKey;
    use crate::tcp_flags::TcpFlags;
    use bytes::{BufMut, BytesMut};
    use haystack_net::ports::Proto;
    use haystack_net::SimTime;
    use std::net::Ipv4Addr;

    fn recs(n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| FlowRecord {
                key: FlowKey {
                    src: Ipv4Addr::new(100, 64, 0, i as u8),
                    dst: Ipv4Addr::new(198, 18, 0, 1),
                    sport: 40000,
                    dport: 443,
                    proto: Proto::Tcp,
                },
                packets: 2,
                bytes: 222,
                tcp_flags: TcpFlags::ACK,
                first: SimTime(5),
                last: SimTime(9),
            })
            .collect()
    }

    #[test]
    fn end_to_end_netflow() {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 77).with_batch_size(8);
        let mut collector = Collector::new();
        let records = recs(20);
        let mut decoded = Vec::new();
        for msg in exporter.export(&records, 100).unwrap() {
            decoded.extend(collector.feed(msg).unwrap());
        }
        assert_eq!(decoded, records);
        assert_eq!(collector.dropped_unknown_template(), 0);
        assert_eq!(collector.missed_datagrams(), 0);
        assert_eq!(collector.restarts_detected(), 0);
        assert_eq!(collector.records_decoded(), 20);
        assert!(
            collector.datagrams_received() >= 3,
            "20 records in batches of 8"
        );
        assert!(collector.template_announcements() >= 1);
        assert!(collector.template_hits() >= 3);
    }

    #[test]
    fn end_to_end_ipfix() {
        let mut exporter = Exporter::new(ExportProtocol::Ipfix, 42);
        let mut collector = Collector::new();
        let records = recs(5);
        let mut decoded = Vec::new();
        for msg in exporter.export(&records, 100).unwrap() {
            decoded.extend(collector.feed(msg).unwrap());
        }
        assert_eq!(decoded, records);
    }

    #[test]
    fn unified_feed_dispatches_on_version() {
        let mut e9 = Exporter::new(ExportProtocol::NetflowV9, 1).with_batch_size(4);
        let mut e10 = Exporter::new(ExportProtocol::Ipfix, 2).with_batch_size(4);
        let mut collector = Collector::new();
        let records = recs(4);
        let mut decoded = Vec::new();
        for msg in e9.export(&records, 100).unwrap() {
            decoded.extend(collector.feed(msg).unwrap());
        }
        for msg in e10.export(&records, 100).unwrap() {
            decoded.extend(collector.feed(msg).unwrap());
        }
        assert_eq!(decoded.len(), 8);
        assert!(collector.feed(Bytes::from_static(&[0, 42, 1, 1])).is_err());
    }

    #[test]
    fn data_before_template_is_dropped_and_counted() {
        // Build a data-only message by fast-forwarding the exporter past
        // its first (template-bearing) message, then feed only the second
        // message to a fresh collector.
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 1).with_batch_size(4);
        let records = recs(8);
        let msgs = exporter.export(&records, 100).unwrap();
        assert_eq!(msgs.len(), 2);
        let mut collector = Collector::new();
        let decoded = collector.feed(msgs[1].clone()).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(collector.dropped_unknown_template(), 1);
        assert_eq!(collector.dropped_unknown_template_by_source(1), 1);
        assert_eq!(collector.dropped_unknown_template_by_source(2), 0);
        // Once the template arrives, subsequent data decodes.
        collector.feed(msgs[0].clone()).unwrap();
        let again = exporter.export(&records, 101).unwrap();
        let decoded = collector.feed(again[0].clone()).unwrap();
        assert_eq!(decoded.len(), 4);
    }

    #[test]
    fn strict_feed_raises_unknown_template() {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 6).with_batch_size(4);
        let msgs = exporter.export(&recs(8), 100).unwrap();
        let mut collector = Collector::new();
        assert!(matches!(
            collector.feed_strict(msgs[1].clone()),
            Err(FlowError::UnknownTemplate {
                source_id: 6,
                template_id: 256
            })
        ));
        // The lenient path still counts the same event.
        assert_eq!(collector.dropped_unknown_template_by_source(6), 1);
        // With the template announced, strict mode decodes normally.
        collector.feed_strict(msgs[0].clone()).unwrap();
    }

    #[test]
    fn template_caches_are_per_source() {
        let mut e1 = Exporter::new(ExportProtocol::NetflowV9, 1).with_batch_size(4);
        let mut e2 = Exporter::new(ExportProtocol::NetflowV9, 2).with_batch_size(4);
        let records = recs(8);
        let m1 = e1.export(&records, 100).unwrap();
        let m2 = e2.export(&records, 100).unwrap();
        let mut collector = Collector::new();
        // Source 1 announces its template; source 2's *data-only* second
        // message must not decode against it.
        collector.feed(m1[0].clone()).unwrap();
        let decoded = collector.feed(m2[1].clone()).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(collector.dropped_unknown_template(), 1);
        assert_eq!(collector.template_count(), 1);
    }

    #[test]
    fn malformed_datagram_counted_not_fatal() {
        let mut collector = Collector::new();
        assert!(collector.feed(Bytes::from_static(&[1, 2, 3])).is_err());
        assert_eq!(collector.malformed_messages(), 1);
        // Collector still works afterwards.
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 1);
        let records = recs(2);
        for msg in exporter.export(&records, 100).unwrap() {
            assert!(collector.feed(msg).is_ok());
        }
    }

    #[test]
    fn v5_feed_decodes_and_learns_sampling() {
        use crate::netflow_v5 as v5;
        let records = recs(4);
        let header = v5::V5Header {
            engine: 12,
            ..Default::default()
        }
        .with_sampling_interval(1_000);
        let wire = v5::encode(&header, &records).unwrap();
        let mut collector = Collector::new();
        let decoded = collector.feed(wire).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(collector.sampling_of(12).unwrap().interval, 1_000);
    }

    #[test]
    fn cross_protocol_feeds_rejected() {
        // `feed` dispatches on the version word: an IPFIX message decodes,
        // the same bytes under a protocol it does not speak are refused.
        let mut exporter = Exporter::new(ExportProtocol::Ipfix, 1);
        let msgs = exporter.export(&recs(1), 100).unwrap();
        let mut collector = Collector::new();
        let mut foreign = msgs[0].to_vec();
        foreign[..2].copy_from_slice(&11u16.to_be_bytes());
        assert!(matches!(
            collector.feed(Bytes::from(foreign)),
            Err(FlowError::BadVersion {
                expected: 9,
                found: 11
            })
        ));
        assert_eq!(collector.feed(msgs[0].clone()).unwrap(), recs(1));
    }

    #[test]
    fn sequence_gap_is_counted_as_loss() {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 3).with_batch_size(5);
        let msgs = exporter.export(&recs(20), 100).unwrap();
        assert_eq!(msgs.len(), 4);
        let mut collector = Collector::new();
        collector.feed(msgs[0].clone()).unwrap();
        // msgs[1] lost in transit.
        collector.feed(msgs[2].clone()).unwrap();
        collector.feed(msgs[3].clone()).unwrap();
        assert_eq!(collector.missed_datagrams(), 1);
        assert_eq!(collector.missed_records(), 5);
        let st = collector.source_stats(3).unwrap();
        assert_eq!(st.missed_datagrams, 1);
        assert_eq!(st.restarts, 0);
    }

    #[test]
    fn duplicate_datagram_is_out_of_order_not_restart() {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 3).with_batch_size(5);
        let msgs = exporter.export(&recs(15), 100).unwrap();
        let mut collector = Collector::new();
        collector.feed(msgs[0].clone()).unwrap();
        collector.feed(msgs[1].clone()).unwrap();
        collector.feed(msgs[1].clone()).unwrap(); // duplicate
        collector.feed(msgs[2].clone()).unwrap();
        let st = collector.source_stats(3).unwrap();
        assert_eq!(st.out_of_order, 1);
        assert_eq!(st.restarts, 0);
        assert_eq!(st.missed_datagrams, 0, "duplicate must not register loss");
        assert_eq!(collector.template_count(), 1, "no spurious flush");
    }

    #[test]
    fn exporter_restart_flushes_source_templates() {
        let mut first_life = Exporter::new(ExportProtocol::NetflowV9, 8).with_batch_size(5);
        let mut collector = Collector::new();
        for msg in first_life.export(&recs(20), 100).unwrap() {
            collector.feed(msg).unwrap();
        }
        assert_eq!(collector.template_count(), 1);
        // Crash: a fresh process reuses source id 8, sequence reset to 0.
        let mut second_life = Exporter::new(ExportProtocol::NetflowV9, 8).with_batch_size(5);
        let msgs = second_life.export(&recs(10), 200).unwrap();
        let decoded = collector.feed(msgs[0].clone()).unwrap();
        assert_eq!(collector.restarts_detected(), 1);
        // The restart message itself re-announces the template, so its
        // data still decodes after the flush.
        assert_eq!(decoded.len(), 5);
        assert_eq!(collector.template_count(), 1);
        // And the post-restart stream tracks cleanly.
        collector.feed(msgs[1].clone()).unwrap();
        assert_eq!(collector.missed_datagrams(), 0);
    }

    #[test]
    fn template_cache_is_bounded_with_lru_eviction() {
        let mut collector = Collector::new().with_template_cache_cap(2);
        for source in 0..4u32 {
            let mut e = Exporter::new(ExportProtocol::NetflowV9, source).with_batch_size(4);
            for msg in e.export(&recs(4), 100).unwrap() {
                collector.feed(msg).unwrap();
            }
        }
        assert_eq!(collector.template_count(), 2, "cap enforced");
        assert_eq!(collector.templates_evicted(), 2);
        // The most recent source survived; the oldest was evicted, so its
        // data-only messages now drop as unknown-template.
        let mut oldest = Exporter::new(ExportProtocol::NetflowV9, 0).with_batch_size(4);
        let msgs = oldest.export(&recs(8), 101).unwrap();
        let decoded = collector.feed(msgs[1].clone()).unwrap();
        assert!(decoded.is_empty());
        assert!(collector.dropped_unknown_template_by_source(0) > 0);
    }

    /// A 20-byte v9 header followed by raw flowset bytes.
    fn v9_datagram(source: u32, seq: u32, flowset: &[u8]) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u16(9);
        b.put_u16(1);
        b.put_u32(100_000);
        b.put_u32(100);
        b.put_u32(seq);
        b.put_u32(source);
        b.extend_from_slice(flowset);
        b.freeze()
    }

    #[test]
    fn malformed_set_counted_separately_from_malformed_message() {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 4).with_batch_size(4);
        let mut collector = Collector::new();
        for msg in exporter.export(&recs(4), 100).unwrap() {
            collector.feed(msg).unwrap();
        }
        // Framing-valid data set for the announced template 256, but its
        // 37-byte body is one byte short of a record.
        let mut fs = Vec::new();
        fs.extend_from_slice(&256u16.to_be_bytes());
        fs.extend_from_slice(&41u16.to_be_bytes());
        fs.extend_from_slice(&[0u8; 37]);
        collector.feed(v9_datagram(4, 4, &fs)).unwrap();
        assert_eq!(collector.malformed_sets(), 1);
        assert_eq!(collector.malformed_messages(), 0);
    }

    #[test]
    fn malformed_flood_quarantines_only_the_offending_source() {
        let mut collector = Collector::new();
        // Source 9 floods malformed datagrams: a flowset whose declared
        // length (3) cannot even cover its own 4-byte header.
        let mut bad_set = Vec::new();
        bad_set.extend_from_slice(&256u16.to_be_bytes());
        bad_set.extend_from_slice(&3u16.to_be_bytes());
        for i in 0..Collector::QUARANTINE_THRESHOLD {
            let bad = v9_datagram(9, i, &bad_set);
            assert!(collector.feed(bad).is_err());
        }
        assert_eq!(collector.quarantined_sources(), vec![9]);
        // While quarantined, even valid datagrams from 9 are discarded…
        let mut e9 = Exporter::new(ExportProtocol::NetflowV9, 9).with_batch_size(4);
        let msgs9 = e9.export(&recs(4), 100).unwrap();
        assert_eq!(collector.feed(msgs9[0].clone()).unwrap(), vec![]);
        assert!(collector.source_stats(9).unwrap().quarantined_dropped >= 1);
        // …but other sources are untouched.
        let mut e5 = Exporter::new(ExportProtocol::NetflowV9, 5).with_batch_size(4);
        let mut decoded = Vec::new();
        for msg in e5.export(&recs(4), 100).unwrap() {
            decoded.extend(collector.feed(msg).unwrap());
        }
        assert_eq!(decoded.len(), 4);
        // Quarantine expires after the fixed number of datagrams.
        for _ in 0..Collector::QUARANTINE_DATAGRAMS {
            let _ = collector.feed(msgs9[0].clone());
        }
        let decoded = collector.feed(msgs9[0].clone()).unwrap();
        assert_eq!(decoded.len(), 4, "source 9 resumes after probation");
    }

    /// Drive source 9 into quarantine with a malformed flood, then burn
    /// through the whole discard window, leaving it on probation.
    fn quarantine_then_probation(collector: &mut Collector, window: u32) -> Vec<Bytes> {
        let mut bad_set = Vec::new();
        bad_set.extend_from_slice(&256u16.to_be_bytes());
        bad_set.extend_from_slice(&3u16.to_be_bytes());
        for i in 0..Collector::QUARANTINE_THRESHOLD {
            let bad = v9_datagram(9, i, &bad_set);
            assert!(collector.feed(bad).is_err());
        }
        assert!(
            matches!(collector.source_health(9), SourceHealth::Quarantined { remaining } if remaining == window)
        );
        let mut e9 = Exporter::new(ExportProtocol::NetflowV9, 9).with_batch_size(4);
        let msgs9 = e9.export(&recs(4), 100).unwrap();
        for _ in 0..window {
            assert_eq!(collector.feed(msgs9[0].clone()).unwrap(), vec![]);
        }
        assert_eq!(
            collector.source_health(9),
            SourceHealth::Probation {
                clean_needed: Collector::PROBATION_CLEAN
            }
        );
        msgs9
    }

    #[test]
    fn probation_graduates_to_healthy_after_clean_run() {
        let mut collector = Collector::new();
        let msgs9 = quarantine_then_probation(&mut collector, Collector::QUARANTINE_DATAGRAMS);
        // Clean messages flow during probation (half-open, not closed)…
        for i in 0..Collector::PROBATION_CLEAN {
            let decoded = collector.feed(msgs9[0].clone()).unwrap();
            assert_eq!(decoded.len(), 4, "probation message {i} must decode");
        }
        // …and a full clean run restores health and forgives the backoff.
        assert_eq!(collector.source_health(9), SourceHealth::Healthy);
        assert_eq!(collector.requarantines_total(), 0);
        let st = collector.source_stats(9).unwrap();
        assert_eq!(st.quarantines, 1);
        assert_eq!(st.requarantines, 0);
    }

    #[test]
    fn malformed_during_probation_requarantines_with_backoff() {
        let mut collector = Collector::new();
        let msgs9 = quarantine_then_probation(&mut collector, Collector::QUARANTINE_DATAGRAMS);
        // One malformed message during probation trips it immediately —
        // no 4-strike grace — and doubles the window.
        let mut bad_set = Vec::new();
        bad_set.extend_from_slice(&256u16.to_be_bytes());
        bad_set.extend_from_slice(&3u16.to_be_bytes());
        assert!(collector.feed(v9_datagram(9, 50, &bad_set)).is_err());
        assert_eq!(
            collector.source_health(9),
            SourceHealth::Quarantined {
                remaining: Collector::QUARANTINE_DATAGRAMS << 1
            }
        );
        assert_eq!(collector.requarantines_total(), 1);
        let st = collector.source_stats(9).unwrap();
        assert_eq!(st.quarantines, 2);
        assert_eq!(st.requarantines, 1);
        // Serve the doubled window; next failure doubles again.
        let _ =
            quarantine_backoff_cycle(&mut collector, &msgs9, Collector::QUARANTINE_DATAGRAMS << 1);
        assert_eq!(
            collector.source_health(9),
            SourceHealth::Quarantined {
                remaining: Collector::QUARANTINE_DATAGRAMS << 2
            }
        );
        assert_eq!(collector.requarantines_total(), 2);
    }

    /// Consume a quarantine window of `window` datagrams, then fail the
    /// resulting probation with one malformed message.
    fn quarantine_backoff_cycle(collector: &mut Collector, msgs9: &[Bytes], window: u32) -> u32 {
        for _ in 0..window {
            assert_eq!(collector.feed(msgs9[0].clone()).unwrap(), vec![]);
        }
        assert!(matches!(
            collector.source_health(9),
            SourceHealth::Probation { .. }
        ));
        let mut bad_set = Vec::new();
        bad_set.extend_from_slice(&256u16.to_be_bytes());
        bad_set.extend_from_slice(&3u16.to_be_bytes());
        assert!(collector.feed(v9_datagram(9, 99, &bad_set)).is_err());
        window
    }

    #[test]
    fn backoff_window_is_capped() {
        let mut collector = Collector::new();
        let msgs9 = quarantine_then_probation(&mut collector, Collector::QUARANTINE_DATAGRAMS);
        let mut bad_set = Vec::new();
        bad_set.extend_from_slice(&256u16.to_be_bytes());
        bad_set.extend_from_slice(&3u16.to_be_bytes());
        assert!(collector.feed(v9_datagram(9, 50, &bad_set)).is_err());
        for level in 2..=(Collector::MAX_BACKOFF_LEVEL + 3) {
            let got = match collector.source_health(9) {
                SourceHealth::Quarantined { remaining } => remaining,
                other => panic!("expected quarantine at level {level}, got {other:?}"),
            };
            quarantine_backoff_cycle(&mut collector, &msgs9, got);
        }
        // Window is pinned at the cap, not growing without bound.
        assert_eq!(
            collector.source_health(9),
            SourceHealth::Quarantined {
                remaining: Collector::QUARANTINE_DATAGRAMS << Collector::MAX_BACKOFF_LEVEL
            }
        );
    }

    #[test]
    fn source_healths_reports_every_source() {
        let mut collector = Collector::new();
        let mut e5 = Exporter::new(ExportProtocol::NetflowV9, 5).with_batch_size(4);
        for msg in e5.export(&recs(4), 100).unwrap() {
            collector.feed(msg).unwrap();
        }
        quarantine_then_probation(&mut collector, Collector::QUARANTINE_DATAGRAMS);
        let healths = collector.source_healths();
        assert_eq!(healths.len(), 2);
        assert_eq!(healths[0], (5, SourceHealth::Healthy));
        assert!(matches!(healths[1], (9, SourceHealth::Probation { .. })));
        assert_eq!(SourceHealth::Healthy.label(), "healthy");
        assert_eq!(
            SourceHealth::Quarantined { remaining: 1 }.label(),
            "quarantined"
        );
        assert_eq!(
            SourceHealth::Probation { clean_needed: 1 }.label(),
            "probation"
        );
    }

    #[test]
    fn probation_state_survives_snapshot() {
        let mut collector = Collector::new();
        let msgs9 = quarantine_then_probation(&mut collector, Collector::QUARANTINE_DATAGRAMS);
        // Partially serve probation, then fail it once to raise backoff.
        collector.feed(msgs9[0].clone()).unwrap();
        let mut bad_set = Vec::new();
        bad_set.extend_from_slice(&256u16.to_be_bytes());
        bad_set.extend_from_slice(&3u16.to_be_bytes());
        assert!(collector.feed(v9_datagram(9, 60, &bad_set)).is_err());
        let restored = Collector::restore(&collector.snapshot()).expect("restore");
        assert_eq!(restored.source_health(9), collector.source_health(9));
        assert_eq!(
            restored.requarantines_total(),
            collector.requarantines_total()
        );
        assert_eq!(restored.snapshot(), collector.snapshot());
    }

    /// A messy multi-source feed: templates, data, a dropped datagram, a
    /// duplicate, and a malformed flood that quarantines one source.
    fn messy_feed() -> Vec<Bytes> {
        let mut msgs = Vec::new();
        let mut e1 = Exporter::new(ExportProtocol::NetflowV9, 1).with_batch_size(5);
        let mut e2 = Exporter::new(ExportProtocol::Ipfix, 2).with_batch_size(4);
        let m1 = e1.export(&recs(20), 100).unwrap();
        let m2 = e2.export(&recs(12), 100).unwrap();
        msgs.push(m1[0].clone());
        msgs.push(m2[0].clone());
        msgs.push(m1[2].clone()); // m1[1] lost → sequence gap
        msgs.push(m2[1].clone());
        msgs.push(m2[1].clone()); // duplicate → out of order
        let mut bad_set = Vec::new();
        bad_set.extend_from_slice(&256u16.to_be_bytes());
        bad_set.extend_from_slice(&3u16.to_be_bytes());
        for i in 0..Collector::QUARANTINE_THRESHOLD {
            msgs.push(v9_datagram(9, i, &bad_set));
        }
        msgs.push(m1[3].clone());
        msgs.push(m2[2].clone());
        msgs
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let msgs = messy_feed();
        let split = msgs.len() / 2;
        // Reference: uninterrupted run over the whole feed.
        let mut whole = Collector::new();
        let mut whole_records = Vec::new();
        for m in &msgs {
            if let Ok(rs) = whole.feed(m.clone()) {
                whole_records.extend(rs);
            }
        }
        // Snapshot after the first half, restore, continue on the rest.
        let mut front = Collector::new();
        let mut resumed_records = Vec::new();
        for m in &msgs[..split] {
            if let Ok(rs) = front.feed(m.clone()) {
                resumed_records.extend(rs);
            }
        }
        let frame = front.snapshot();
        let mut back = Collector::restore(&frame).expect("restore");
        for m in &msgs[split..] {
            if let Ok(rs) = back.feed(m.clone()) {
                resumed_records.extend(rs);
            }
        }
        assert_eq!(
            resumed_records, whole_records,
            "decoded records diverge after restore"
        );
        assert_eq!(
            back.snapshot(),
            whole.snapshot(),
            "full state diverges after restore"
        );
        assert_eq!(back.datagrams_received(), whole.datagrams_received());
        assert_eq!(back.records_decoded(), whole.records_decoded());
        assert_eq!(back.missed_datagrams(), whole.missed_datagrams());
        assert_eq!(back.quarantined_sources(), whole.quarantined_sources());
        assert_eq!(back.sampling_of(2), whole.sampling_of(2));
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let msgs = messy_feed();
        let run = || {
            let mut c = Collector::new();
            for m in &msgs {
                let _ = c.feed(m.clone());
            }
            c.snapshot()
        };
        assert_eq!(run(), run(), "same feed must snapshot to identical bytes");
    }

    #[test]
    fn corrupt_snapshot_is_rejected_not_panicking() {
        let msgs = messy_feed();
        let mut c = Collector::new();
        for m in &msgs {
            let _ = c.feed(m.clone());
        }
        let frame = c.snapshot();
        assert!(Collector::restore(&frame).is_ok());
        // Truncations at every prefix length fail cleanly.
        for cut in [0, 1, frame.len() / 2, frame.len() - 1] {
            assert!(Collector::restore(&frame[..cut]).is_err(), "cut {cut}");
        }
        // Any single bit flip is caught by the checksum.
        for i in (0..frame.len()).step_by(7) {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(Collector::restore(&bad).is_err(), "flip at byte {i}");
        }
    }
}
