//! The harness's own generator (layer `gen`): one seeded
//! [`SoakStream`] per workload, converted to `FlowRecord`s and fully
//! pre-encoded as NetFlow v9 datagrams before any clock starts.
//!
//! The encoded stream is one flat buffer of length-prefixed frames —
//! exactly the bytes the TCP replay listener expects — plus the offset
//! of every frame, so the TCP sender, the UDP sender and the in-process
//! replay all read the same datagrams without a per-datagram `Vec`.

use haystack_core::rules::RuleSet;
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::{FlowKey, FlowRecord, TcpFlags};
use haystack_net::SimTime;
use haystack_wild::{RecordChunk, RecordStream, SoakConfig, SoakStream, WildRecord};
use std::net::Ipv4Addr;

/// Subscriber-line population of every stream.
pub const LINES: u32 = 1_000_000;
/// Observation-point id of the one exporter.
pub const SOURCE_ID: u32 = 7;
/// Records per exporter call: a multiple of the exporter's fixed 30
/// records per datagram, so only the last datagram of an hour is short.
const EXPORT_CHUNK: usize = 30 * 256;
/// Length-prefix size of the TCP replay framing.
pub const FRAME_HEADER: usize = 4;

/// Shape of one workload's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Hit probability in parts per million.
    pub hit_ppm: u32,
    /// Simulated hours.
    pub hours: u32,
    /// Records per simulated hour.
    pub records_per_hour: u64,
}

impl StreamSpec {
    /// `total` records at `hit_ppm`, cut into hours of at most one
    /// million records (the hour is the checkpoint boundary).
    pub fn sized(hit_ppm: u32, total: u64) -> StreamSpec {
        let total = total.max(30);
        let hours = total.div_ceil(1_000_000).max(1);
        StreamSpec {
            hit_ppm,
            hours: hours as u32,
            records_per_hour: total / hours,
        }
    }

    /// Records in the whole stream.
    pub fn records(&self) -> u64 {
        u64::from(self.hours) * self.records_per_hour
    }

    fn config(&self, seed: u64) -> SoakConfig {
        SoakConfig {
            lines: LINES,
            seed,
            hit_rate_ppm: self.hit_ppm,
            records_per_hour: self.records_per_hour,
        }
    }
}

/// Every `(service IP, port)` the pack can match, sorted and
/// deduplicated — the same target list `haystack soak` derives, so a
/// soak child given the same seed generates the stream the harness's
/// oracle replays.
pub fn hit_targets(rules: &RuleSet) -> Vec<(Ipv4Addr, u16)> {
    let mut targets: Vec<(Ipv4Addr, u16)> = rules
        .rules
        .iter()
        .flat_map(|r| &r.domains)
        .flat_map(|d| {
            d.ips
                .iter()
                .flat_map(|&ip| d.ports.iter().map(move |&p| (ip, p)))
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// The flow record an exporter would emit for `w`: `src` is the line's
/// `100.64.x.y` address, `first` the start of the record's hour.
pub fn flow_record(w: &WildRecord) -> FlowRecord {
    let first = u64::from(w.hour.0) * 3_600;
    FlowRecord {
        key: FlowKey {
            src: w.src_ip,
            dst: w.dst,
            sport: 40_000 + (w.line.0 % 1_000) as u16,
            dport: w.dport,
            proto: w.proto,
        },
        packets: w.packets,
        bytes: w.bytes,
        tcp_flags: TcpFlags::ACK,
        first: SimTime(first),
        last: SimTime(first + 30),
    }
}

/// Call `f` with every chunk of the stream, hour by hour. The oracle and
/// the encoder both walk the stream through here, so they cannot drift.
pub fn for_each_chunk(
    targets: &[(Ipv4Addr, u16)],
    seed: u64,
    spec: StreamSpec,
    mut f: impl FnMut(u32, &[WildRecord]),
) {
    let mut chunk = RecordChunk::with_capacity(EXPORT_CHUNK);
    for hour in 0..spec.hours {
        let mut stream = SoakStream::hour(targets, spec.config(seed), 0, hour, EXPORT_CHUNK);
        while stream.next_chunk(&mut chunk) {
            f(hour, &chunk.records);
        }
    }
}

/// A pre-encoded stream: length-prefixed NetFlow v9 frames back to back.
#[derive(Debug, Default)]
pub struct Encoded {
    bytes: Vec<u8>,
    /// Offset of each frame's length prefix, plus one final entry equal
    /// to `bytes.len()`.
    starts: Vec<usize>,
    /// Records carried by frames `0..i` (same indexing as `starts`).
    records_before: Vec<u64>,
}

impl Encoded {
    /// Append one datagram carrying `records` records.
    pub fn push(&mut self, datagram: &[u8], records: u64) {
        if self.starts.is_empty() {
            self.starts.push(0);
            self.records_before.push(0);
        }
        self.bytes
            .extend_from_slice(&(datagram.len() as u32).to_be_bytes());
        self.bytes.extend_from_slice(datagram);
        self.starts.push(self.bytes.len());
        self.records_before
            .push(self.records_before.last().expect("seeded above") + records);
    }

    /// Number of datagrams.
    pub fn datagrams(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Records carried by the first `n` datagrams.
    pub fn records_in(&self, n: usize) -> u64 {
        self.records_before.get(n).copied().unwrap_or(0)
    }

    /// Records in the whole stream.
    #[cfg(test)]
    pub fn records(&self) -> u64 {
        self.records_in(self.datagrams())
    }

    /// Datagram `i`, without its length prefix.
    pub fn datagram(&self, i: usize) -> &[u8] {
        &self.bytes[self.starts[i] + FRAME_HEADER..self.starts[i + 1]]
    }

    /// The framed bytes of datagrams `from..to`.
    pub fn framed(&self, from: usize, to: usize) -> &[u8] {
        &self.bytes[self.starts[from]..self.starts[to]]
    }

    /// Total framed bytes.
    #[cfg(test)]
    pub fn framed_len(&self) -> usize {
        self.bytes.len()
    }

    /// Frame offsets (see the field docs) — input of the coalescer.
    pub fn frame_starts(&self) -> &[usize] {
        &self.starts
    }
}

/// Generate and encode the whole stream.
pub fn encode(targets: &[(Ipv4Addr, u16)], seed: u64, spec: StreamSpec) -> Encoded {
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, SOURCE_ID);
    let mut out = Encoded::default();
    // ≈39 framed bytes per record (38-byte records plus headers).
    out.bytes.reserve(spec.records() as usize * 39 + 4_096);
    let mut flows: Vec<FlowRecord> = Vec::with_capacity(EXPORT_CHUNK);
    for_each_chunk(targets, seed, spec, |hour, records| {
        flows.clear();
        flows.extend(records.iter().map(flow_record));
        let datagrams = exporter
            .export(&flows, hour * 3_600)
            .expect("standard template encodes");
        for (d, chunk) in datagrams.iter().zip(flows.chunks(30)) {
            out.push(d, chunk.len() as u64);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_flow::Collector;

    fn targets() -> Vec<(Ipv4Addr, u16)> {
        vec![
            (Ipv4Addr::new(198, 18, 8, 1), 443),
            (Ipv4Addr::new(198, 18, 8, 2), 8883),
        ]
    }

    #[test]
    fn sizing_cuts_whole_hours() {
        let s = StreamSpec::sized(10_000, 16_000_000);
        assert_eq!((s.hours, s.records_per_hour), (16, 1_000_000));
        let s = StreamSpec::sized(10_000, 500_000);
        assert_eq!((s.hours, s.records_per_hour), (1, 500_000));
        let s = StreamSpec::sized(10_000, 2_500_000);
        assert_eq!(s.hours, 3);
        assert!(s.records() <= 2_500_000 && s.records() > 2_499_990);
    }

    #[test]
    fn same_seed_same_bytes_and_the_collector_decodes_every_record() {
        let spec = StreamSpec {
            hit_ppm: 500_000,
            hours: 2,
            records_per_hour: 1_000,
        };
        let a = encode(&targets(), 9, spec);
        let b = encode(&targets(), 9, spec);
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.bytes, encode(&targets(), 10, spec).bytes);
        assert_eq!(a.records(), 2_000);

        let mut wild = Vec::new();
        for_each_chunk(&targets(), 9, spec, |_, r| wild.extend_from_slice(r));
        let mut collector = Collector::new();
        let mut decoded = Vec::new();
        for i in 0..a.datagrams() {
            let got = collector
                .feed(bytes::Bytes::from(a.datagram(i)))
                .expect("decodes");
            assert_eq!(got.len() as u64, a.records_in(i + 1) - a.records_in(i));
            decoded.extend(got);
        }
        let expected: Vec<FlowRecord> = wild.iter().map(flow_record).collect();
        assert_eq!(decoded, expected);
        assert_eq!(collector.missed_datagrams(), 0);
    }
}
