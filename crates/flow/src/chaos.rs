//! Fault injection between exporter and collector.
//!
//! Flow export rides unreliable UDP across congested links: datagrams are
//! lost, reordered, duplicated, truncated by broken middleboxes, and
//! corrupted in flight. Exporters crash and come back with their sequence
//! numbers reset but the same source id, withhold template refreshes for
//! minutes, and misannounce their sampling rate after config pushes. The
//! paper's wild deployments (§6) inherit every one of these; a collector
//! that assumes a clean feed silently produces wrong populations.
//!
//! [`ChaosLink`] sits between an [`Exporter`](crate::export::Exporter)
//! and a [`Collector`](crate::Collector) and applies those impairments
//! deterministically from a seed, so every failure a test observes is
//! replayable. Impairments operate on the wire bytes — the link knows the
//! NetFlow v9 / IPFIX framing (headers, set boundaries) but never decodes
//! records, exactly like a faulty network path plus a faulty exporter
//! process would.

use crate::record::FlowRecord;
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Wire offsets the link needs: enough framing to find sequence numbers,
/// set boundaries and template sets, for both protocols.
mod offsets {
    /// NetFlow v9 header length; sets start here.
    pub const V9_HEADER: usize = 20;
    /// Byte offset of the v9 sequence field.
    pub const V9_SEQ: usize = 12;
    /// IPFIX header length; sets start here.
    pub const IPFIX_HEADER: usize = 16;
    /// Byte offset of the IPFIX sequence field.
    pub const IPFIX_SEQ: usize = 8;
}

/// Impairment configuration. All probabilities are per datagram in
/// `[0, 1]`; everything defaults to off, so `ChaosConfig::default()` is a
/// transparent link.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Drop the datagram entirely.
    pub drop_probability: f64,
    /// Hold the datagram back and emit it after its successor (one-slot
    /// reorder, the common UDP case).
    pub reorder_probability: f64,
    /// Deliver the datagram twice.
    pub duplicate_probability: f64,
    /// Cut the datagram short at a random byte.
    pub truncate_probability: f64,
    /// Flip a few random bits.
    pub corrupt_probability: f64,
    /// Drop template-bearing datagrams with this probability (an exporter
    /// whose template refreshes go missing).
    pub template_withhold_probability: f64,
    /// After this many datagrams, simulate an exporter crash + restart:
    /// the same source id continues with sequence numbers reset to zero.
    pub restart_after: Option<u64>,
    /// Rewrite every announced sampling interval to this value (a
    /// misconfigured exporter lying about its rate).
    pub misannounce_sampling: Option<u32>,
    /// Set id carrying sampling options data (the workspace-standard
    /// exporter uses 512).
    pub options_data_set_id: u16,
    /// Seed for the link's deterministic RNG.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_probability: 0.0,
            reorder_probability: 0.0,
            duplicate_probability: 0.0,
            truncate_probability: 0.0,
            corrupt_probability: 0.0,
            template_withhold_probability: 0.0,
            restart_after: None,
            misannounce_sampling: None,
            options_data_set_id: 512,
            seed: 0,
        }
    }
}

impl ChaosConfig {
    /// A transparent link (every impairment off).
    pub fn off() -> Self {
        Self::default()
    }

    /// Whether this configuration changes the stream at all.
    pub fn is_noop(&self) -> bool {
        self.drop_probability == 0.0
            && self.reorder_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.truncate_probability == 0.0
            && self.corrupt_probability == 0.0
            && self.template_withhold_probability == 0.0
            && self.restart_after.is_none()
            && self.misannounce_sampling.is_none()
    }

    /// A graded impairment mix for degradation sweeps. `severity` 0.0 is
    /// a clean link; 1.0 loses a quarter of all datagrams, reorders and
    /// duplicates aggressively, mangles a few percent, drops half the
    /// template refreshes, and restarts the exporter once. Loss dominates
    /// by design — it is the impairment wild feeds actually exhibit at
    /// scale — and nothing reaches certainty, so recall must degrade
    /// smoothly rather than cliff to zero.
    pub fn at_severity(severity: f64, seed: u64) -> Self {
        let s = severity.clamp(0.0, 1.0);
        ChaosConfig {
            drop_probability: 0.25 * s,
            reorder_probability: 0.15 * s,
            duplicate_probability: 0.10 * s,
            truncate_probability: 0.04 * s,
            corrupt_probability: 0.04 * s,
            template_withhold_probability: 0.5 * s,
            restart_after: if s >= 0.5 { Some(40) } else { None },
            misannounce_sampling: None,
            options_data_set_id: 512,
            seed,
        }
    }
}

/// What the link did to the stream so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Datagrams offered by the exporter.
    pub sent: u64,
    /// Datagrams delivered to the collector (duplicates count twice).
    pub delivered: u64,
    /// Dropped by random loss.
    pub dropped: u64,
    /// Delivered out of order.
    pub reordered: u64,
    /// Delivered twice.
    pub duplicated: u64,
    /// Cut short.
    pub truncated: u64,
    /// Bit-flipped.
    pub corrupted: u64,
    /// Template-bearing datagrams withheld.
    pub templates_withheld: u64,
    /// Exporter restarts simulated.
    pub restarts: u64,
    /// Sampling announcements rewritten.
    pub sampling_rewritten: u64,
}

/// A deterministic, impaired path from exporter to collector.
///
/// ```
/// use haystack_flow::chaos::{ChaosConfig, ChaosLink};
/// use haystack_flow::export::{ExportProtocol, Exporter};
/// use haystack_flow::Collector;
///
/// let mut link = ChaosLink::new(ChaosConfig { drop_probability: 1.0, seed: 7, ..ChaosConfig::off() });
/// let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 1);
/// let mut collector = Collector::new();
/// for datagram in exporter.export(&[], 100).unwrap() {
///     for impaired in link.transmit(datagram) {
///         let _ = collector.feed(impaired);
///     }
/// }
/// for held in link.shutdown() {
///     let _ = collector.feed(held);
/// }
/// assert_eq!(link.stats().dropped, 1);
/// assert_eq!(collector.template_count(), 0);
/// ```
#[derive(Debug)]
pub struct ChaosLink {
    config: ChaosConfig,
    rng: SmallRng,
    /// One-slot holdback buffer for reordering.
    held: Option<Bytes>,
    /// Original sequence value at the moment of restart, per protocol
    /// framing (`None` until the restart fires).
    restart_base: Option<u32>,
    stats: ChaosStats,
}

impl ChaosLink {
    /// A link with the given impairments.
    pub fn new(config: ChaosConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed ^ 0x5EED_C4A0_5C4A_05C4);
        ChaosLink {
            config,
            rng,
            held: None,
            restart_base: None,
            stats: ChaosStats::default(),
        }
    }

    /// Cumulative impairment counts.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Pass one datagram through the link; returns zero, one, or two
    /// datagrams for the collector (loss, delivery, duplication /
    /// released reordering).
    pub fn transmit(&mut self, datagram: Bytes) -> Vec<Bytes> {
        self.stats.sent += 1;

        // Exporter-side faults first: they originate before the network.
        if let Some(after) = self.config.restart_after {
            if self.stats.sent > after && self.restart_base.is_none() {
                self.restart_base = read_sequence(&datagram);
                if self.restart_base.is_some() {
                    self.stats.restarts += 1;
                }
            }
        }
        let mut datagram = match self.restart_base {
            Some(base) => rewrite_sequence(datagram, base),
            None => datagram,
        };
        if let Some(interval) = self.config.misannounce_sampling {
            let patched = patch_sampling(datagram, self.config.options_data_set_id, interval);
            self.stats.sampling_rewritten += patched.1;
            datagram = patched.0;
        }
        if self.config.template_withhold_probability > 0.0
            && carries_templates(&datagram)
            && self.rng.gen_bool(self.config.template_withhold_probability)
        {
            self.stats.templates_withheld += 1;
            return Vec::new();
        }

        // Network faults.
        if self.config.drop_probability > 0.0 && self.rng.gen_bool(self.config.drop_probability) {
            self.stats.dropped += 1;
            return Vec::new();
        }
        if self.config.truncate_probability > 0.0
            && datagram.len() > 4
            && self.rng.gen_bool(self.config.truncate_probability)
        {
            let keep = self.rng.gen_range(4..datagram.len());
            datagram = datagram.slice(..keep);
            self.stats.truncated += 1;
        }
        if self.config.corrupt_probability > 0.0
            && !datagram.is_empty()
            && self.rng.gen_bool(self.config.corrupt_probability)
        {
            let mut raw = datagram.to_vec();
            for _ in 0..self.rng.gen_range(1usize..=3) {
                let byte = self.rng.gen_range(0..raw.len());
                let bit = self.rng.gen_range(0u8..8);
                raw[byte] ^= 1 << bit;
            }
            datagram = Bytes::from(raw);
            self.stats.corrupted += 1;
        }

        let mut out = Vec::with_capacity(2);
        if self.config.reorder_probability > 0.0
            && self.held.is_none()
            && self.rng.gen_bool(self.config.reorder_probability)
        {
            // Hold this one back; it rides behind the next datagram.
            self.held = Some(datagram);
            return out;
        }
        out.push(datagram.clone());
        if let Some(late) = self.held.take() {
            self.stats.reordered += 1;
            self.stats.delivered += 1;
            out.push(late);
        }
        if self.config.duplicate_probability > 0.0
            && self.rng.gen_bool(self.config.duplicate_probability)
        {
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
            out.push(datagram);
        }
        self.stats.delivered += 1;
        out
    }

    /// Release anything still held back (end of stream). Call once after
    /// the last `transmit`.
    pub fn shutdown(&mut self) -> Vec<Bytes> {
        match self.held.take() {
            Some(d) => {
                self.stats.delivered += 1;
                vec![d]
            }
            None => Vec::new(),
        }
    }

    /// Convenience: pass a whole batch of datagrams and flush the
    /// holdback, preserving the link's impairment decisions per datagram.
    pub fn transmit_all(&mut self, datagrams: Vec<Bytes>) -> Vec<Bytes> {
        let mut out = Vec::with_capacity(datagrams.len());
        for d in datagrams {
            out.extend(self.transmit(d));
        }
        out.extend(self.shutdown());
        out
    }
}

/// Records equality helper used by chaos tests: `sub` must only contain
/// records that appear in `sup` (decoding never invents records).
pub fn records_subset(sub: &[FlowRecord], sup: &[FlowRecord]) -> bool {
    sub.iter().all(|r| sup.contains(r))
}

fn read_u16(d: &[u8], at: usize) -> Option<u16> {
    d.get(at..at + 2).map(|b| u16::from_be_bytes([b[0], b[1]]))
}

fn read_u32(d: &[u8], at: usize) -> Option<u32> {
    d.get(at..at + 4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// Protocol-aware location of the sequence field.
fn seq_offset(datagram: &[u8]) -> Option<usize> {
    match read_u16(datagram, 0)? {
        9 if datagram.len() >= offsets::V9_HEADER => Some(offsets::V9_SEQ),
        10 if datagram.len() >= offsets::IPFIX_HEADER => Some(offsets::IPFIX_SEQ),
        _ => None,
    }
}

fn read_sequence(datagram: &[u8]) -> Option<u32> {
    seq_offset(datagram).and_then(|at| read_u32(datagram, at))
}

/// Rebase the sequence field so the stream looks like a fresh process
/// that started counting at zero (same source id).
fn rewrite_sequence(datagram: Bytes, base: u32) -> Bytes {
    let Some(at) = seq_offset(&datagram) else {
        return datagram;
    };
    let Some(seq) = read_u32(&datagram, at) else {
        return datagram;
    };
    let mut raw = datagram.to_vec();
    raw[at..at + 4].copy_from_slice(&seq.wrapping_sub(base).to_be_bytes());
    Bytes::from(raw)
}

/// Iterate `(set_id, body_start, body_end)` over a datagram's sets
/// without decoding them. Stops at the first malformed length.
fn walk_sets(datagram: &[u8]) -> Vec<(u16, usize, usize)> {
    let start = match read_u16(datagram, 0) {
        Some(9) => offsets::V9_HEADER,
        Some(10) => offsets::IPFIX_HEADER,
        _ => return Vec::new(),
    };
    let mut out = Vec::new();
    let mut at = start;
    while at + 4 <= datagram.len() {
        let (Some(id), Some(len)) = (read_u16(datagram, at), read_u16(datagram, at + 2)) else {
            break;
        };
        let len = len as usize;
        if len < 4 || at + len > datagram.len() {
            break;
        }
        out.push((id, at + 4, at + len));
        at += len;
    }
    out
}

/// Whether the datagram carries any template or options-template set
/// (v9 flowset ids 0/1, IPFIX set ids 2/3).
fn carries_templates(datagram: &[u8]) -> bool {
    let template_ids: [u16; 2] = match read_u16(datagram, 0) {
        Some(9) => [0, 1],
        Some(10) => [2, 3],
        _ => return false,
    };
    walk_sets(datagram)
        .iter()
        .any(|(id, _, _)| template_ids.contains(id))
}

/// Rewrite every sampling interval announced in options data sets to
/// `interval`; returns the (possibly untouched) datagram and how many
/// records were rewritten. Options records are laid out as
/// `scope(4) | interval(4) | algorithm(1)` by the workspace exporter.
fn patch_sampling(datagram: Bytes, options_set_id: u16, interval: u32) -> (Bytes, u64) {
    const RECORD_LEN: usize = 9;
    let spans: Vec<(usize, usize)> = walk_sets(&datagram)
        .into_iter()
        .filter(|(id, _, _)| *id == options_set_id)
        .map(|(_, lo, hi)| (lo, hi))
        .collect();
    if spans.is_empty() {
        return (datagram, 0);
    }
    let mut raw = datagram.to_vec();
    let mut patched = 0u64;
    for (lo, hi) in spans {
        let mut at = lo;
        while at + RECORD_LEN <= hi {
            raw[at + 4..at + 8].copy_from_slice(&interval.to_be_bytes());
            patched += 1;
            at += RECORD_LEN;
        }
    }
    if patched == 0 {
        (datagram, 0)
    } else {
        (Bytes::from(raw), patched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{ExportProtocol, Exporter};
    use crate::Collector;

    fn records(n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| FlowRecord {
                key: crate::FlowKey {
                    src: std::net::Ipv4Addr::from(0x6440_0000 + i as u32),
                    dst: std::net::Ipv4Addr::new(198, 18, 0, 1),
                    sport: 40_000,
                    dport: 443,
                    proto: haystack_net::ports::Proto::Tcp,
                },
                packets: 2,
                bytes: 200,
                tcp_flags: crate::TcpFlags::ACK,
                first: haystack_net::SimTime(1),
                last: haystack_net::SimTime(2),
            })
            .collect()
    }

    fn wire(n: usize, batch: usize) -> Vec<Bytes> {
        Exporter::new(ExportProtocol::NetflowV9, 9)
            .with_batch_size(batch)
            .export(&records(n), 100)
            .unwrap()
    }

    #[test]
    fn noop_link_is_transparent() {
        let mut link = ChaosLink::new(ChaosConfig::off());
        let msgs = wire(50, 5);
        let out = link.transmit_all(msgs.clone());
        assert_eq!(out, msgs);
        assert_eq!(link.stats().sent, 10);
        assert_eq!(link.stats().delivered, 10);
    }

    #[test]
    fn same_seed_same_impairments() {
        let cfg = ChaosConfig::at_severity(0.7, 42);
        let msgs = wire(200, 5);
        let a = ChaosLink::new(cfg.clone()).transmit_all(msgs.clone());
        let b = ChaosLink::new(cfg).transmit_all(msgs);
        assert_eq!(a, b);
    }

    #[test]
    fn loss_drops_datagrams() {
        let cfg = ChaosConfig {
            drop_probability: 0.5,
            seed: 3,
            ..ChaosConfig::off()
        };
        let mut link = ChaosLink::new(cfg);
        let out = link.transmit_all(wire(300, 5));
        assert!(
            link.stats().dropped > 10,
            "dropped {}",
            link.stats().dropped
        );
        assert_eq!(out.len() as u64, link.stats().delivered);
        assert_eq!(
            link.stats().sent,
            link.stats().dropped + link.stats().delivered
        );
    }

    #[test]
    fn reorder_swaps_neighbours() {
        let cfg = ChaosConfig {
            reorder_probability: 1.0,
            seed: 1,
            ..ChaosConfig::off()
        };
        let mut link = ChaosLink::new(cfg);
        let msgs = wire(20, 5);
        let out = link.transmit_all(msgs.clone());
        assert_eq!(out.len(), msgs.len(), "reordering never loses datagrams");
        assert_ne!(out, msgs);
        assert!(link.stats().reordered > 0);
    }

    #[test]
    fn duplicates_add_deliveries() {
        let cfg = ChaosConfig {
            duplicate_probability: 1.0,
            seed: 1,
            ..ChaosConfig::off()
        };
        let mut link = ChaosLink::new(cfg);
        let out = link.transmit_all(wire(20, 5));
        assert_eq!(out.len(), 8, "every datagram delivered twice");
        assert_eq!(link.stats().duplicated, 4);
    }

    #[test]
    fn restart_rebases_sequence_numbers() {
        let cfg = ChaosConfig {
            restart_after: Some(2),
            seed: 1,
            ..ChaosConfig::off()
        };
        let mut link = ChaosLink::new(cfg);
        let msgs = wire(100, 10); // 10 datagrams, seq advancing by 10
        let out = link.transmit_all(msgs);
        assert_eq!(link.stats().restarts, 1);
        let seqs: Vec<u32> = out.iter().map(|d| read_sequence(d).unwrap()).collect();
        assert_eq!(seqs[..3], [0, 10, 0], "third datagram restarts at zero");
        assert!(
            seqs[3..].windows(2).all(|w| w[1] > w[0]),
            "post-restart stream is consistent"
        );
    }

    #[test]
    fn withholding_starves_collector_of_templates() {
        let cfg = ChaosConfig {
            template_withhold_probability: 1.0,
            seed: 1,
            ..ChaosConfig::off()
        };
        let mut link = ChaosLink::new(cfg);
        let mut collector = Collector::new();
        let mut decoded = Vec::new();
        for d in link.transmit_all(wire(100, 10)) {
            decoded.extend(collector.feed(d).unwrap_or_default());
        }
        assert!(decoded.is_empty(), "no template may ever arrive");
        assert!(link.stats().templates_withheld >= 1);
        assert!(collector.dropped_unknown_template() > 0);
    }

    #[test]
    fn sampling_misannouncement_rewrites_interval() {
        let mut exporter = Exporter::new(ExportProtocol::NetflowV9, 7).with_sampling(1_000, false);
        let msgs = exporter.export(&records(5), 100).unwrap();
        let cfg = ChaosConfig {
            misannounce_sampling: Some(64),
            seed: 1,
            ..ChaosConfig::off()
        };
        let mut link = ChaosLink::new(cfg);
        let mut collector = Collector::new();
        for d in link.transmit_all(msgs) {
            collector.feed(d).unwrap();
        }
        assert_eq!(link.stats().sampling_rewritten, 1);
        assert_eq!(collector.sampling_of(7).unwrap().interval, 64);
    }

    #[test]
    fn corruption_and_truncation_never_panic_the_collector() {
        let cfg = ChaosConfig {
            truncate_probability: 0.5,
            corrupt_probability: 0.5,
            seed: 99,
            ..ChaosConfig::off()
        };
        let mut link = ChaosLink::new(cfg);
        let mut collector = Collector::new();
        let exported = records(400);
        let mut decoded = Vec::new();
        for d in link.transmit_all(wire(400, 10)) {
            decoded.extend(collector.feed(d).unwrap_or_default());
        }
        assert!(
            records_subset(&decoded, &exported),
            "decoder must not invent records"
        );
        assert!(link.stats().truncated > 0 && link.stats().corrupted > 0);
    }

    #[test]
    fn ipfix_framing_is_understood_too() {
        let msgs = Exporter::new(ExportProtocol::Ipfix, 5)
            .with_batch_size(10)
            .export(&records(100), 100)
            .unwrap();
        assert!(carries_templates(&msgs[0]));
        assert!(!carries_templates(&msgs[1]));
        assert_eq!(read_sequence(&msgs[1]), Some(10));
        let rebased = rewrite_sequence(msgs[1].clone(), 10);
        assert_eq!(read_sequence(&rebased), Some(0));
    }
}
