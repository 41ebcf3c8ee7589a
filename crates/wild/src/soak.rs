//! Wild-scale soak traffic — the §6 deployment regime in miniature.
//!
//! The paper's collector watches ~15 M subscriber lines where almost
//! every sampled flow is irrelevant to the hitlist: the detector's hot
//! path is a ~99% *miss* path. [`SoakStream`] reproduces that shape at
//! configurable scale: a deterministic, stateless generator of hours of
//! per-line flow records in which a tunable fraction (default 1%) hits
//! a supplied (service IP, port) target set and the rest lands in
//! TEST-NET-3 (`203.0.113.0/24`), guaranteed disjoint from any rule's
//! service IPs.
//!
//! *Stateless* is the load-bearing property: record `i` of hour
//! `(day, hour)` is a pure function of `(seed, day, hour, i)`, so a
//! resumed soak positions the stream with a watermark ([`crate::
//! skip_chunks`]) and regenerates byte-identical traffic — the same
//! contract the ISP vantage gives `detect --resume`, without paying for
//! a materialized world at 10⁶ lines.

use crate::record::WildRecord;
use crate::stream::{RecordChunk, RecordStream};
use haystack_net::{AnonId, HourBin, Prefix4};
use std::net::Ipv4Addr;

/// Shape of a soak run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakConfig {
    /// Subscriber-line population (the paper's unit of detection).
    pub lines: u32,
    /// Generator seed.
    pub seed: u64,
    /// Hit probability in parts per million (10 000 ppm = 1% — i.e. the
    /// realistic ~99% miss rate).
    pub hit_rate_ppm: u32,
    /// Records generated per simulated hour.
    pub records_per_hour: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            lines: 1_000_000,
            seed: 42,
            hit_rate_ppm: 10_000,
            records_per_hour: 1_000_000,
        }
    }
}

/// splitmix64 — the statelessness workhorse: one multiply-xor cascade
/// per record, no table state to checkpoint.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One simulated hour of soak traffic as a [`RecordStream`].
///
/// Misses (the overwhelming majority) go to `203.0.113.x:443`; hits are
/// drawn uniformly from `targets`. An empty target set degrades to a
/// 100% miss stream.
#[derive(Debug)]
pub struct SoakStream<'a> {
    targets: &'a [(Ipv4Addr, u16)],
    config: SoakConfig,
    day: u32,
    hour: u32,
    chunk_records: usize,
    /// Next record index within the hour.
    next: u64,
}

impl<'a> SoakStream<'a> {
    /// Stream hour `(day, hour)` in chunks of `chunk_records`.
    pub fn hour(
        targets: &'a [(Ipv4Addr, u16)],
        config: SoakConfig,
        day: u32,
        hour: u32,
        chunk_records: usize,
    ) -> Self {
        SoakStream {
            targets,
            config,
            day,
            hour,
            chunk_records: chunk_records.max(1),
            next: 0,
        }
    }

    /// The record at index `i` of this hour — a pure function of
    /// `(seed, day, hour, i)`.
    fn record(&self, i: u64) -> WildRecord {
        let c = &self.config;
        let h = splitmix64(
            c.seed
                ^ (u64::from(self.day) << 37)
                ^ (u64::from(self.hour) << 32)
                ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let line = h % u64::from(c.lines.max(1));
        let src = Ipv4Addr::new(100, 64, (line >> 8) as u8, line as u8);
        let hit = !self.targets.is_empty() && (h >> 8) % 1_000_000 < u64::from(c.hit_rate_ppm);
        let (dst, dport) = if hit {
            self.targets[(h >> 32) as usize % self.targets.len()]
        } else {
            (Ipv4Addr::new(203, 0, 113, (h >> 40) as u8), 443)
        };
        let packets = 1 + (h >> 48) % 8;
        WildRecord {
            line: AnonId(line),
            line_slash24: Prefix4::slash24_of(src),
            src_ip: src,
            dst,
            dport,
            proto: haystack_net::ports::Proto::Tcp,
            packets,
            bytes: packets * 420,
            established: true,
            hour: HourBin(self.day * 24 + self.hour),
        }
    }
}

impl RecordStream for SoakStream<'_> {
    fn next_chunk(&mut self, out: &mut RecordChunk) -> bool {
        out.clear();
        if self.next >= self.config.records_per_hour {
            return false;
        }
        let end = self
            .next
            .saturating_add(self.chunk_records as u64)
            .min(self.config.records_per_hour);
        out.records.reserve((end - self.next) as usize);
        for i in self.next..end {
            let r = self.record(i);
            out.sampled_packets += r.packets;
            out.records.push(r);
        }
        self.next = end;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{materialize, skip_chunks};

    fn targets() -> Vec<(Ipv4Addr, u16)> {
        vec![
            (Ipv4Addr::new(198, 18, 8, 1), 443),
            (Ipv4Addr::new(198, 18, 8, 2), 8883),
        ]
    }

    fn config() -> SoakConfig {
        SoakConfig {
            lines: 50_000,
            seed: 7,
            hit_rate_ppm: 10_000,
            records_per_hour: 40_000,
        }
    }

    #[test]
    fn generation_is_deterministic_and_chunking_invariant() {
        let t = targets();
        let a = materialize(&mut SoakStream::hour(&t, config(), 1, 3, 512));
        let b = materialize(&mut SoakStream::hour(&t, config(), 1, 3, 4096));
        assert_eq!(
            a.records, b.records,
            "chunk size must not change the traffic"
        );
        assert_eq!(a.sampled_packets, b.sampled_packets);
        assert_eq!(a.records.len() as u64, config().records_per_hour);
    }

    #[test]
    fn hit_rate_is_approximately_one_percent_and_misses_are_disjoint() {
        let t = targets();
        let hour = materialize(&mut SoakStream::hour(&t, config(), 0, 0, 8_192));
        let hits = hour
            .records
            .iter()
            .filter(|r| t.iter().any(|&(ip, port)| r.dst == ip && r.dport == port))
            .count();
        let rate = hits as f64 / hour.records.len() as f64;
        assert!((0.005..0.02).contains(&rate), "hit rate {rate} far from 1%");
        // Every non-hit lands in TEST-NET-3, never on a target IP.
        for r in &hour.records {
            let on_target = t.iter().any(|&(ip, _)| r.dst == ip);
            assert!(on_target || r.dst.octets()[..3] == [203, 0, 113]);
        }
    }

    #[test]
    fn watermark_skip_lands_mid_hour_exactly() {
        let t = targets();
        let whole = materialize(&mut SoakStream::hour(&t, config(), 2, 5, 1_000));
        let mut resumed = SoakStream::hour(&t, config(), 2, 5, 1_000);
        let skipped = skip_chunks(&mut resumed, 7);
        assert_eq!(skipped, 7);
        let tail = materialize(&mut resumed);
        assert_eq!(&whole.records[7_000..], &tail.records[..]);
    }

    #[test]
    fn distinct_hours_produce_distinct_traffic() {
        let t = targets();
        let a = materialize(&mut SoakStream::hour(&t, config(), 0, 0, 8_192));
        let b = materialize(&mut SoakStream::hour(&t, config(), 0, 1, 8_192));
        assert_ne!(a.records, b.records);
    }
}
