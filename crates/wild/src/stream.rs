//! The chunked record stream — how vantage points hand traffic to
//! consumers without materializing an hour.
//!
//! The paper's deployment processes sampled flows "within minutes for
//! millions of devices" (§1, §6); at that scale an hour of records for a
//! 10⁷-line ISP never fits in one `Vec`. This module is the streaming
//! contract every vantage point implements and every consumer reads:
//!
//! * [`RecordChunk`] — one bounded, reusable batch of [`WildRecord`]s
//!   plus the funnel accounting (sampled packets, feed degradation) that
//!   accrued while producing it. Chunks are the unit of backpressure:
//!   the worker pool in `haystack-core` recycles chunk-sized buffers
//!   through bounded channels, so peak resident memory is set by channel
//!   capacity, never by hour size.
//! * [`RecordStream`] — a pull-based iterator of chunks. The caller owns
//!   the chunk buffer and hands it back on every call ([`RecordStream::
//!   next_chunk`] clears and refills it), which keeps the hot loop
//!   allocation-free.
//! * [`VantagePoint`] — the capture interface the ISP, the IXP, and the
//!   ground-truth testbed replay all share: stream one hour in chunks of
//!   a requested size. [`VantagePoint::materialize_hour`] drains the
//!   stream into the legacy [`HourTraffic`] shape, which pins the two
//!   paths to each other (the `stream_equivalence` tests assert the
//!   records, detections, and funnel stats are identical for *any*
//!   chunking).
//!
//! Per-chunk accounting sums to the hour totals: `sampled_packets` and
//! `degradation` carry *increments* attributed to the chunk that was
//! being produced when they accrued, so `Σ chunks == HourTraffic`.

use crate::degrade::FeedDegradation;
use crate::gen::HourTraffic;
use crate::record::WildRecord;
use haystack_net::HourBin;
use haystack_testbed::materialize::MaterializedWorld;

/// Default records per chunk — small enough that a few dozen in-flight
/// chunks stay cache- and memory-friendly, large enough to amortize
/// channel traffic.
pub const DEFAULT_CHUNK_RECORDS: usize = 8_192;

/// One bounded batch of records plus the accounting that accrued while
/// producing it.
#[derive(Debug, Default)]
pub struct RecordChunk {
    /// The records. At most the stream's configured chunk size (the last
    /// chunk of an hour may be shorter, or even empty if only
    /// accounting remains to flush).
    pub records: Vec<WildRecord>,
    /// Sampled packets newly attributed while producing this chunk
    /// (increment, not cumulative — sums to the hour total).
    pub sampled_packets: u64,
    /// Feed degradation newly accrued while producing this chunk
    /// (increment, not cumulative — absorbs to the hour total).
    pub degradation: FeedDegradation,
}

impl RecordChunk {
    /// A chunk with `capacity` records pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        RecordChunk {
            records: Vec::with_capacity(capacity),
            sampled_packets: 0,
            degradation: FeedDegradation::default(),
        }
    }

    /// Clear records and zero the accounting, keeping the allocation.
    pub fn clear(&mut self) {
        self.records.clear();
        self.sampled_packets = 0;
        self.degradation = FeedDegradation::default();
    }
}

/// A pull-based stream of record chunks.
///
/// The caller provides (and re-provides) the chunk buffer; `next_chunk`
/// clears it, refills it, and returns `false` once the stream is fully
/// exhausted. A returned chunk may carry zero records but non-zero
/// accounting (e.g. sampled packets whose records were all degraded
/// away); consumers must fold the accounting of every `true` chunk.
pub trait RecordStream {
    /// Fill `out` with the next chunk. Returns `false` — with `out`
    /// cleared — when the stream is exhausted.
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool;
}

impl<S: RecordStream + ?Sized> RecordStream for &mut S {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        (**self).next_chunk(out)
    }
}

impl<S: RecordStream + ?Sized> RecordStream for Box<S> {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        (**self).next_chunk(out)
    }
}

/// Drain a stream into the materialized [`HourTraffic`] shape.
pub fn materialize(stream: &mut dyn RecordStream) -> HourTraffic {
    let mut out = HourTraffic::default();
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    while stream.next_chunk(&mut chunk) {
        out.records.extend_from_slice(&chunk.records);
        out.sampled_packets += chunk.sampled_packets;
        out.degradation.absorb(chunk.degradation);
    }
    out
}

/// A stream over an already-materialized record vector — the interop
/// shim for legacy producers and the re-chunking workhorse of the
/// equivalence tests.
#[derive(Debug)]
pub struct VecStream {
    records: Vec<WildRecord>,
    pos: usize,
    chunk_records: usize,
    /// Accounting attributed to the first emitted chunk.
    sampled_packets: u64,
    degradation: FeedDegradation,
    first: bool,
}

impl VecStream {
    /// Stream `records` in chunks of at most `chunk_records`.
    pub fn new(records: Vec<WildRecord>, chunk_records: usize) -> Self {
        VecStream {
            records,
            pos: 0,
            chunk_records: chunk_records.max(1),
            sampled_packets: 0,
            degradation: FeedDegradation::default(),
            first: true,
        }
    }

    /// Stream a whole [`HourTraffic`], attributing its accounting to the
    /// first chunk.
    pub fn from_hour(hour: HourTraffic, chunk_records: usize) -> Self {
        let mut s = VecStream::new(hour.records, chunk_records);
        s.sampled_packets = hour.sampled_packets;
        s.degradation = hour.degradation;
        s
    }

    /// Attribute `sampled_packets` to the first emitted chunk.
    pub fn set_sampled_packets(&mut self, sampled_packets: u64) {
        self.sampled_packets = sampled_packets;
    }
}

impl RecordStream for VecStream {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        out.clear();
        if self.pos >= self.records.len() && !self.first {
            return false;
        }
        let end = (self.pos + self.chunk_records).min(self.records.len());
        out.records.extend_from_slice(&self.records[self.pos..end]);
        self.pos = end;
        if self.first {
            self.first = false;
            out.sampled_packets = self.sampled_packets;
            out.degradation = self.degradation;
        }
        true
    }
}

/// A stream adapter that drops records failing a predicate, passing
/// accounting through untouched (filtered records were still sampled —
/// they just don't cross this vantage point's fabric).
#[derive(Debug)]
pub struct FilterStream<S, F> {
    inner: S,
    pred: F,
}

impl<S, F> FilterStream<S, F> {
    /// Wrap `inner`, keeping only records for which `pred` holds.
    pub fn new(inner: S, pred: F) -> Self {
        FilterStream { inner, pred }
    }
}

impl<S: RecordStream, F: FnMut(&WildRecord) -> bool> RecordStream for FilterStream<S, F> {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        if !self.inner.next_chunk(out) {
            return false;
        }
        out.records.retain(|r| (self.pred)(r));
        true
    }
}

/// A resume position inside a multi-day record feed: the next chunk to
/// process is chunk number `chunk` (zero-based) of hour `hour` (index
/// within the day) of day `day`.
///
/// Watermarks order lexicographically — `(day, hour, chunk)` — so "how
/// far did we get" comparisons are plain `<`/`>`. A checkpointed run
/// resumes by regenerating the watermark's hour stream and discarding
/// the first `chunk` chunks with [`skip_chunks`]; generation is
/// deterministic and chunking-invariant (the `stream_equivalence`
/// tests), so the skipped prefix is byte-identical to what the
/// interrupted run already processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Watermark {
    /// Day index within the study window.
    pub day: u32,
    /// Hour index within the day (`0..24`).
    pub hour: u32,
    /// Chunks of this hour already processed.
    pub chunk: u64,
}

impl Watermark {
    /// The position before any record: day 0, hour 0, chunk 0.
    pub fn start() -> Watermark {
        Watermark::default()
    }

    /// The first chunk of `(day, hour)`.
    pub fn hour_start(day: u32, hour: u32) -> Watermark {
        Watermark {
            day,
            hour,
            chunk: 0,
        }
    }

    /// The first chunk of the next hour (rolling into the next day after
    /// hour 23).
    pub fn next_hour(self) -> Watermark {
        if self.hour + 1 >= 24 {
            Watermark::hour_start(self.day + 1, 0)
        } else {
            Watermark::hour_start(self.day, self.hour + 1)
        }
    }
}

/// Pull and discard up to `n` chunks from `stream`, returning how many
/// were actually pulled (fewer when the stream runs dry first).
///
/// This is the resume primitive: chunk generation is deterministic, so
/// re-generating an hour and discarding the first `watermark.chunk`
/// chunks reproduces exactly the state the interrupted run had.
/// Discarded accounting (sampled packets, degradation) belongs to the
/// already-processed prefix and must come from the checkpoint, not be
/// re-folded.
pub fn skip_chunks(stream: &mut dyn RecordStream, n: u64) -> u64 {
    let mut scratch = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    let mut skipped = 0u64;
    while skipped < n {
        if !stream.next_chunk(&mut scratch) {
            break;
        }
        skipped += 1;
    }
    skipped
}

/// The capture interface shared by every vantage point: the ISP
/// ([`crate::isp::IspVantage`]), the IXP ([`crate::ixp::IxpVantage`]),
/// and the ground-truth testbed replay (`haystack-core`'s crosscheck).
pub trait VantagePoint {
    /// Stream one hour of sampled records in chunks of at most
    /// `chunk_records`, applying the vantage point's configured
    /// degradation (if any) as a stream adapter.
    fn stream_hour<'a>(
        &'a self,
        world: &'a MaterializedWorld,
        hour: HourBin,
        chunk_records: usize,
    ) -> Box<dyn RecordStream + 'a>;

    /// Materialize the hour by draining [`VantagePoint::stream_hour`] —
    /// the legacy whole-hour shape, kept for small-scale consumers and
    /// as the semantic pin for the streaming path.
    fn materialize_hour(&self, world: &MaterializedWorld, hour: HourBin) -> HourTraffic {
        materialize(&mut *self.stream_hour(world, hour, DEFAULT_CHUNK_RECORDS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_net::ports::Proto;
    use haystack_net::{AnonId, Prefix4};
    use std::net::Ipv4Addr;

    fn recs(n: usize) -> Vec<WildRecord> {
        (0..n)
            .map(|i| {
                let src = Ipv4Addr::new(100, 64, (i / 250) as u8, (i % 250) as u8);
                WildRecord {
                    line: AnonId(i as u64),
                    line_slash24: Prefix4::slash24_of(src),
                    src_ip: src,
                    dst: Ipv4Addr::new(198, 18, 0, 1),
                    dport: 443,
                    proto: Proto::Tcp,
                    packets: 1,
                    bytes: 100,
                    established: true,
                    hour: HourBin(3),
                }
            })
            .collect()
    }

    #[test]
    fn vec_stream_rechunks_losslessly() {
        let records = recs(100);
        for chunk_size in [1usize, 7, 32, 100, 1000] {
            let mut s = VecStream::new(records.clone(), chunk_size);
            let mut chunk = RecordChunk::default();
            let mut got = Vec::new();
            while s.next_chunk(&mut chunk) {
                assert!(chunk.records.len() <= chunk_size);
                got.extend_from_slice(&chunk.records);
            }
            assert_eq!(got, records, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn accounting_attaches_to_the_first_chunk_exactly_once() {
        let mut hour = HourTraffic {
            records: recs(10),
            sampled_packets: 77,
            ..Default::default()
        };
        hour.degradation.records_lost = 5;
        hour.degradation.batches = 2;
        let mut s = VecStream::from_hour(hour, 3);
        let mut chunk = RecordChunk::default();
        let mut packets = 0u64;
        let mut deg = FeedDegradation::default();
        while s.next_chunk(&mut chunk) {
            packets += chunk.sampled_packets;
            deg.absorb(chunk.degradation);
        }
        assert_eq!(packets, 77);
        assert_eq!(deg.records_lost, 5);
        assert_eq!(deg.batches, 2);
    }

    #[test]
    fn empty_vec_stream_still_flushes_accounting() {
        let hour = HourTraffic {
            records: vec![],
            sampled_packets: 9,
            ..Default::default()
        };
        let mut s = VecStream::from_hour(hour, 8);
        let mut chunk = RecordChunk::default();
        assert!(s.next_chunk(&mut chunk), "accounting-only chunk");
        assert!(chunk.records.is_empty());
        assert_eq!(chunk.sampled_packets, 9);
        assert!(!s.next_chunk(&mut chunk));
    }

    #[test]
    fn skip_then_drain_equals_the_suffix() {
        let records = recs(100);
        for chunk_size in [1usize, 7, 32] {
            let mut whole = VecStream::new(records.clone(), chunk_size);
            let mut chunk = RecordChunk::default();
            let mut all_chunks: Vec<Vec<WildRecord>> = Vec::new();
            while whole.next_chunk(&mut chunk) {
                all_chunks.push(chunk.records.clone());
            }
            for skip in [0u64, 1, 3, all_chunks.len() as u64] {
                let mut s = VecStream::new(records.clone(), chunk_size);
                assert_eq!(skip_chunks(&mut s, skip), skip.min(all_chunks.len() as u64));
                let mut got = Vec::new();
                while s.next_chunk(&mut chunk) {
                    got.extend_from_slice(&chunk.records);
                }
                let want: Vec<WildRecord> = all_chunks
                    .iter()
                    .skip(skip as usize)
                    .flatten()
                    .copied()
                    .collect();
                assert_eq!(got, want, "chunk {chunk_size} skip {skip}");
            }
        }
    }

    #[test]
    fn skipping_past_the_end_reports_what_was_there() {
        let mut s = VecStream::new(recs(10), 4);
        // 3 chunks exist (4+4+2); asking for 100 skips only those.
        assert_eq!(skip_chunks(&mut s, 100), 3);
        let mut chunk = RecordChunk::default();
        assert!(!s.next_chunk(&mut chunk));
    }

    #[test]
    fn watermarks_order_and_roll_over() {
        let a = Watermark {
            day: 0,
            hour: 23,
            chunk: 9,
        };
        let b = a.next_hour();
        assert_eq!(b, Watermark::hour_start(1, 0));
        assert!(a < b);
        assert!(Watermark::start() < a);
        assert!(
            Watermark {
                day: 1,
                hour: 0,
                chunk: 0
            } < Watermark {
                day: 1,
                hour: 0,
                chunk: 1
            }
        );
    }

    #[test]
    fn materialize_round_trips() {
        let records = recs(50);
        let hour = HourTraffic {
            records: records.clone(),
            sampled_packets: 123,
            ..Default::default()
        };
        let mut s = VecStream::from_hour(hour, 7);
        let out = materialize(&mut s);
        assert_eq!(out.records, records);
        assert_eq!(out.sampled_packets, 123);
    }
}
