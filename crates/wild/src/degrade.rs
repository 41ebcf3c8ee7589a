//! Record-level feed degradation for the population-scale vantage points.
//!
//! At population scale the vantage points hand decoded [`WildRecord`]s to
//! the detector directly (see [`crate::record`]); the wire path
//! (exporter → UDP → collector) is exercised separately by
//! `haystack-flow`'s [`chaos`](haystack_flow::chaos) module. To study how
//! *detection quality* degrades under an impaired feed, this module
//! re-interprets the same [`ChaosConfig`] at the record level: records
//! are grouped into exporter-sized datagram batches and the impairments
//! a collector cannot repair are applied to those batches.
//!
//! The mapping is deliberately conservative — only effects that survive a
//! hardened collector reach the detector:
//!
//! * **Datagram loss** drops whole batches (the collector counts the gap
//!   but the records are gone).
//! * **Template withholding** makes every batch until the next template
//!   refresh undecodable.
//! * **Truncation / corruption** costs the tail of a batch (truncated
//!   sets) or the whole batch (header corruption), matching the
//!   collector's malformed-set handling.
//! * **Exporter restart** loses the in-flight batch; the collector's
//!   template flush-and-relearn is already covered by the refresh model.
//! * **Duplication** re-delivers a batch; downstream hour-level evidence
//!   is naturally idempotent, so this mostly tests that nothing
//!   double-counts.
//! * **Reordering** within an hour batch is invisible to the detector
//!   (evidence is per-hour) and is therefore not modelled here.

use crate::record::WildRecord;
use crate::stream::{RecordChunk, RecordStream};
use haystack_flow::ChaosConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Records per simulated export datagram (the exporter's default batch).
pub const BATCH_RECORDS: usize = 30;

/// Batches between template re-announcements (the exporter's refresh
/// period).
pub const TEMPLATE_REFRESH_BATCHES: usize = 20;

/// What an impaired feed cost one captured hour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedDegradation {
    /// Simulated export batches the hour was split into.
    pub batches: u64,
    /// Batches lost entirely (drop, withholding, restart, corruption).
    pub batches_dropped: u64,
    /// Records lost with them (plus truncated tails).
    pub records_lost: u64,
    /// Records delivered twice by duplication.
    pub records_duplicated: u64,
    /// Exporter restarts simulated.
    pub restarts: u64,
}

impl FeedDegradation {
    /// Fold another hour's (or member's) degradation into this one.
    pub fn absorb(&mut self, other: FeedDegradation) {
        self.batches += other.batches;
        self.batches_dropped += other.batches_dropped;
        self.records_lost += other.records_lost;
        self.records_duplicated += other.records_duplicated;
        self.restarts += other.restarts;
    }

    /// Fraction of records that survived (1.0 for a clean feed).
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.batches * BATCH_RECORDS as u64;
        if total == 0 {
            return 1.0;
        }
        1.0 - (self.records_lost as f64 / total as f64).min(1.0)
    }
}

/// SplitMix64-style mix used to derive independent per-batch RNG seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether the refresh period containing `index` announced its
/// templates. Drawn per refresh period (not sequentially), so the
/// answer only depends on `(chaos, salt, index)` — never on how the
/// hour was chunked upstream. A configured exporter restart re-announces
/// templates immediately, repairing the remainder of its refresh period.
fn templates_known(chaos: &ChaosConfig, salt: u64, index: u64) -> bool {
    let refresh = index / TEMPLATE_REFRESH_BATCHES as u64;
    if chaos
        .restart_after
        .is_some_and(|n| n / TEMPLATE_REFRESH_BATCHES as u64 == refresh && index > n)
    {
        return true;
    }
    let mut rng = SmallRng::seed_from_u64(mix(chaos.seed
        ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ mix(refresh ^ 0x7E4A_11CE)));
    rng.gen::<f64>() >= chaos.template_withhold_probability
}

/// Apply the fate of export batch `index` to `batch`, appending
/// survivors to `out` and accounting into `deg`.
///
/// The fate is a pure function of `(chaos, salt, index, batch.len())`:
/// every batch draws from its own seeded RNG. This is what makes
/// degradation *chunking-invariant* — [`degrade_records`] over a whole
/// hour and [`DegradeStream`] over any chunking of the same hour produce
/// byte-identical survivors and identical accounting.
fn apply_batch(
    batch: &[WildRecord],
    chaos: &ChaosConfig,
    salt: u64,
    index: u64,
    out: &mut Vec<WildRecord>,
    deg: &mut FeedDegradation,
) {
    deg.batches += 1;
    if chaos.is_noop() {
        out.extend_from_slice(batch);
        return;
    }
    if chaos.restart_after.is_some_and(|n| index == n) {
        // The in-flight batch dies with the restarting exporter.
        deg.restarts += 1;
        deg.batches_dropped += 1;
        deg.records_lost += batch.len() as u64;
        return;
    }
    if !templates_known(chaos, salt, index) {
        deg.batches_dropped += 1;
        deg.records_lost += batch.len() as u64;
        return;
    }
    let mut rng = SmallRng::seed_from_u64(mix(chaos.seed
        ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ mix(index ^ 0xDE64_ADE5)));
    if rng.gen::<f64>() < chaos.drop_probability {
        deg.batches_dropped += 1;
        deg.records_lost += batch.len() as u64;
        return;
    }
    if rng.gen::<f64>() < chaos.corrupt_probability {
        // Header corruption: the collector rejects the datagram.
        deg.batches_dropped += 1;
        deg.records_lost += batch.len() as u64;
        return;
    }
    if rng.gen::<f64>() < chaos.truncate_probability && batch.len() > 1 {
        // Truncated datagram: a suffix of records never decodes.
        let keep = rng.gen_range(1..batch.len());
        deg.records_lost += (batch.len() - keep) as u64;
        out.extend_from_slice(&batch[..keep]);
        return;
    }
    out.extend_from_slice(batch);
    if rng.gen::<f64>() < chaos.duplicate_probability {
        deg.records_duplicated += batch.len() as u64;
        out.extend_from_slice(batch);
    }
}

/// Degrade one hour's records under `chaos`, deterministically in
/// `(chaos.seed, salt)`. Pass the hour number (and any per-member
/// distinguisher) as `salt` so every captured hour draws an independent
/// but reproducible impairment pattern.
pub fn degrade_records(
    records: Vec<WildRecord>,
    chaos: &ChaosConfig,
    salt: u64,
) -> (Vec<WildRecord>, FeedDegradation) {
    let mut deg = FeedDegradation::default();
    if chaos.is_noop() || records.is_empty() {
        deg.batches = records.len().div_ceil(BATCH_RECORDS) as u64;
        return (records, deg);
    }
    let mut out = Vec::with_capacity(records.len());
    for (index, batch) in records.chunks(BATCH_RECORDS).enumerate() {
        apply_batch(batch, chaos, salt, index as u64, &mut out, &mut deg);
    }
    (out, deg)
}

/// A stream adapter that applies feed degradation per export batch.
///
/// Records pulled from the inner stream are re-grouped into exact
/// [`BATCH_RECORDS`]-sized export batches (carrying remainders across
/// chunk boundaries), each batch meets the fate [`degrade_records`]
/// would hand it at the same position in the hour, and survivors are
/// re-chunked for the consumer. Because batch fates are independent
/// per batch index, the surviving record sequence and the degradation
/// accounting are identical to materializing the hour and calling
/// [`degrade_records`] — for *any* inner or outer chunk size.
#[derive(Debug)]
pub struct DegradeStream<S> {
    inner: S,
    chaos: ChaosConfig,
    salt: u64,
    chunk_records: usize,
    /// Next export-batch index within the hour.
    index: u64,
    /// Records awaiting a full export batch.
    carry: Vec<WildRecord>,
    /// Degraded survivors awaiting emission.
    staged: Vec<WildRecord>,
    staged_pos: usize,
    /// Accounting accrued since the last emitted chunk.
    pending_deg: FeedDegradation,
    pending_packets: u64,
    scratch: RecordChunk,
    inner_done: bool,
    flushed: bool,
}

impl<S: RecordStream> DegradeStream<S> {
    /// Wrap `inner`, degrading under `chaos` with the given per-hour
    /// `salt`, emitting chunks of at most `chunk_records`.
    pub fn new(inner: S, chaos: ChaosConfig, salt: u64, chunk_records: usize) -> Self {
        DegradeStream {
            inner,
            chaos,
            salt,
            chunk_records: chunk_records.max(1),
            index: 0,
            carry: Vec::with_capacity(BATCH_RECORDS),
            staged: Vec::new(),
            staged_pos: 0,
            pending_deg: FeedDegradation::default(),
            pending_packets: 0,
            scratch: RecordChunk::default(),
            inner_done: false,
            flushed: false,
        }
    }

    /// Slice every complete export batch out of `carry`.
    fn drain_full_batches(&mut self) {
        let mut start = 0;
        while self.carry.len() - start >= BATCH_RECORDS {
            apply_batch(
                &self.carry[start..start + BATCH_RECORDS],
                &self.chaos,
                self.salt,
                self.index,
                &mut self.staged,
                &mut self.pending_deg,
            );
            self.index += 1;
            start += BATCH_RECORDS;
        }
        if start > 0 {
            self.carry.drain(..start);
        }
    }
}

impl<S: RecordStream> RecordStream for DegradeStream<S> {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        out.clear();
        loop {
            // Emit staged survivors first.
            while out.records.len() < self.chunk_records && self.staged_pos < self.staged.len() {
                out.records.push(self.staged[self.staged_pos]);
                self.staged_pos += 1;
            }
            if self.staged_pos >= self.staged.len() {
                self.staged.clear();
                self.staged_pos = 0;
            }
            if out.records.len() == self.chunk_records {
                out.sampled_packets = std::mem::take(&mut self.pending_packets);
                out.degradation = std::mem::take(&mut self.pending_deg);
                return true;
            }
            if self.inner_done {
                if !self.flushed {
                    // The hour ended mid-batch: the exporter flushes the
                    // final short datagram.
                    self.flushed = true;
                    if !self.carry.is_empty() {
                        let last: Vec<WildRecord> = std::mem::take(&mut self.carry);
                        apply_batch(
                            &last,
                            &self.chaos,
                            self.salt,
                            self.index,
                            &mut self.staged,
                            &mut self.pending_deg,
                        );
                        self.index += 1;
                        continue;
                    }
                }
                if self.staged_pos < self.staged.len() {
                    continue;
                }
                let accounting =
                    self.pending_packets > 0 || self.pending_deg != FeedDegradation::default();
                if out.records.is_empty() && !accounting {
                    return false;
                }
                out.sampled_packets = std::mem::take(&mut self.pending_packets);
                out.degradation = std::mem::take(&mut self.pending_deg);
                return true;
            }
            // Pull more input.
            let mut scratch = std::mem::take(&mut self.scratch);
            if self.inner.next_chunk(&mut scratch) {
                self.pending_packets += scratch.sampled_packets;
                self.pending_deg.absorb(scratch.degradation);
                self.carry.extend_from_slice(&scratch.records);
                self.scratch = scratch;
                self.drain_full_batches();
            } else {
                self.scratch = scratch;
                self.inner_done = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_net::ports::Proto;
    use haystack_net::{AnonId, HourBin, Prefix4};
    use std::net::Ipv4Addr;

    fn recs(n: usize) -> Vec<WildRecord> {
        (0..n)
            .map(|i| {
                let src_ip = Ipv4Addr::new(100, 64, (i / 250) as u8, (i % 250) as u8);
                WildRecord {
                    line: AnonId(i as u64),
                    line_slash24: Prefix4::slash24_of(src_ip),
                    src_ip,
                    dst: Ipv4Addr::new(198, 18, 0, 1),
                    dport: 443,
                    proto: Proto::Tcp,
                    packets: 3,
                    bytes: 300,
                    established: true,
                    hour: HourBin(12),
                }
            })
            .collect()
    }

    #[test]
    fn noop_chaos_is_identity() {
        let records = recs(100);
        let (out, deg) = degrade_records(records.clone(), &ChaosConfig::off(), 7);
        assert_eq!(out, records);
        assert_eq!(deg.batches_dropped, 0);
        assert_eq!(deg.records_lost, 0);
        assert!((deg.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_degradation() {
        let records = recs(500);
        let chaos = ChaosConfig::at_severity(0.6, 99);
        let (a, da) = degrade_records(records.clone(), &chaos, 3);
        let (b, db) = degrade_records(records, &chaos, 3);
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    #[test]
    fn loss_is_proportionate_not_total() {
        let records = recs(3_000);
        let chaos = ChaosConfig {
            drop_probability: 0.3,
            ..ChaosConfig::off()
        };
        let (out, deg) = degrade_records(records, &chaos, 11);
        assert!(deg.records_lost > 0);
        assert!(!out.is_empty(), "moderate loss must not empty the feed");
        let ratio = deg.delivery_ratio();
        assert!((0.5..0.95).contains(&ratio), "delivery ratio {ratio:.2}");
    }

    #[test]
    fn withholding_loses_whole_refresh_periods() {
        let records = recs(3_000); // 100 batches, 5 refresh periods
        let chaos = ChaosConfig {
            template_withhold_probability: 1.0,
            ..ChaosConfig::off()
        };
        let (out, deg) = degrade_records(records, &chaos, 1);
        assert!(out.is_empty(), "all refreshes withheld ⇒ nothing decodes");
        assert_eq!(deg.batches_dropped, 100);
    }

    #[test]
    fn restart_costs_one_batch() {
        let records = recs(300);
        let chaos = ChaosConfig {
            restart_after: Some(4),
            ..ChaosConfig::off()
        };
        let (out, deg) = degrade_records(records, &chaos, 1);
        assert_eq!(deg.restarts, 1);
        assert_eq!(out.len(), 300 - BATCH_RECORDS);
    }

    #[test]
    fn degrade_stream_matches_degrade_records_for_any_chunking() {
        use crate::stream::{materialize, VecStream};
        let records = recs(1_234);
        for severity in [0.0, 0.4, 0.9] {
            let chaos = if severity == 0.0 {
                ChaosConfig::off()
            } else {
                ChaosConfig::at_severity(severity, 42)
            };
            let (want, want_deg) = degrade_records(records.clone(), &chaos, 5);
            for inner_chunk in [1usize, 7, 30, 1024, 10_000] {
                for outer_chunk in [1usize, 64, 10_000] {
                    let inner = VecStream::new(records.clone(), inner_chunk);
                    let mut s = DegradeStream::new(inner, chaos.clone(), 5, outer_chunk);
                    let got = materialize(&mut s);
                    assert_eq!(
                        got.records, want,
                        "severity {severity} inner {inner_chunk} outer {outer_chunk}"
                    );
                    assert_eq!(
                        got.degradation, want_deg,
                        "severity {severity} inner {inner_chunk} outer {outer_chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplication_grows_but_preserves_membership() {
        let records = recs(300);
        let chaos = ChaosConfig {
            duplicate_probability: 1.0,
            ..ChaosConfig::off()
        };
        let (out, deg) = degrade_records(records.clone(), &chaos, 1);
        assert_eq!(out.len(), 600);
        assert_eq!(deg.records_duplicated, 300);
        for r in &records {
            assert!(out.contains(r));
        }
    }
}
