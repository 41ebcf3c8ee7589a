//! The daemon's durable state: one frame holding everything a restarted
//! `haystack serve` needs to answer queries byte-identically to an
//! uninterrupted run (DESIGN.md §13).
//!
//! The frame nests the components' own checksummed frames (collector
//! snapshot, per-shard detector states, usage window, staleness
//! baselines) rather than re-flattening them — each component already
//! guarantees order-normalized, bit-exact encoding, and nesting keeps
//! this codec ignorant of their internals.

use haystack_core::{DetectorState, StalenessState, UsageState};
use haystack_net::snapshot::{open, seal, SnapError, SnapReader, SnapWriter, MAGIC_LEN};

/// Everything `haystack serve` persists at checkpoint time.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCheckpoint {
    /// Worker (shard) count — shard states are per-shard, so a resumed
    /// pool must match.
    pub workers: u32,
    /// Detection threshold the daemon was started with.
    pub threshold: f64,
    /// Anonymization seed (line identities must survive a restart).
    pub seed: u64,
    /// Datagrams the engine has processed (admitted and fed).
    pub datagrams: u64,
    /// Flow records decoded out of those datagrams.
    pub records: u64,
    /// Datagrams the collector rejected as malformed.
    pub decode_errors: u64,
    /// The collector's own snapshot frame (templates, sequence state,
    /// per-source health including quarantine/probation).
    pub collector: Vec<u8>,
    /// Per-shard detector evidence.
    pub shards: Vec<DetectorState>,
    /// The usage tracker's current hour window.
    pub usage: UsageState,
    /// The staleness monitor's day counts and decayed baselines.
    pub staleness: StalenessState,
    /// The live rules as a canonical signature-pack frame — a reloaded
    /// pack must survive `--resume`, so the daemon persists the rules
    /// it is actually running, not the path it was started with.
    pub pack: Vec<u8>,
}

impl ServeCheckpoint {
    /// Frame magic of a serve checkpoint.
    pub const MAGIC: &'static [u8; MAGIC_LEN] = b"HAYSRVC\0";
    /// Snapshot format version this build writes and reads (v2 added
    /// the signature-pack frame).
    pub const VERSION: u32 = 2;
    /// File prefix inside the checkpoint directory.
    pub const PREFIX: &'static str = "serve";

    /// Seal the checkpoint as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u32(self.workers);
        w.put_f64_bits(self.threshold);
        w.put_u64(self.seed);
        w.put_u64(self.datagrams);
        w.put_u64(self.records);
        w.put_u64(self.decode_errors);
        w.put_bytes(&self.collector);
        w.put_u64(self.shards.len() as u64);
        for shard in &self.shards {
            w.put_bytes(&shard.encode());
        }
        w.put_bytes(&self.usage.encode());
        w.put_bytes(&self.staleness.encode());
        w.put_bytes(&self.pack);
        seal(Self::MAGIC, Self::VERSION, &w.into_bytes())
    }

    /// Decode a frame produced by [`ServeCheckpoint::encode`].
    pub fn decode(frame: &[u8]) -> Result<ServeCheckpoint, SnapError> {
        let payload = open(Self::MAGIC, Self::VERSION, frame)?;
        let mut r = SnapReader::new(payload);
        let workers = r.u32()?;
        let threshold = r.f64_bits()?;
        let seed = r.u64()?;
        let datagrams = r.u64()?;
        let records = r.u64()?;
        let decode_errors = r.u64()?;
        let collector = r.bytes()?.to_vec();
        let n_shards = r.count(4)?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(DetectorState::decode(r.bytes()?)?);
        }
        let usage = UsageState::decode(r.bytes()?)?;
        let staleness = StalenessState::decode(r.bytes()?)?;
        let pack = r.bytes()?.to_vec();
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(ServeCheckpoint {
            workers,
            threshold,
            seed,
            datagrams,
            records,
            decode_errors,
            collector,
            shards,
            usage,
            staleness,
            pack,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_core::checkpoint::LineEvidence;
    use haystack_net::{AnonId, HourBin};

    fn sample() -> ServeCheckpoint {
        ServeCheckpoint {
            workers: 3,
            threshold: 0.4,
            seed: 7,
            datagrams: 120,
            records: 840,
            decode_errors: 2,
            collector: haystack_flow::Collector::new().snapshot(),
            shards: vec![
                DetectorState {
                    rules: vec![vec![LineEvidence {
                        line: AnonId(11),
                        mask: 0b11,
                        first_met: Some(HourBin(4)),
                    }]],
                },
                DetectorState {
                    rules: vec![vec![]],
                },
            ],
            usage: UsageState {
                packets: vec![vec![(AnonId(11), 14)]],
                indicator: vec![vec![AnonId(11)]],
            },
            staleness: StalenessState {
                today: vec![((0, 0), 9)],
                baseline: vec![((0, 0), 1.0 / 7.0)],
                days_seen: 2,
            },
            pack: b"HAYPACK\0stand-in pack frame".to_vec(),
        }
    }

    #[test]
    fn round_trips_exactly_and_deterministically() {
        let ck = sample();
        assert_eq!(ServeCheckpoint::decode(&ck.encode()).unwrap(), ck);
        assert_eq!(ck.encode(), ck.encode());
    }

    #[test]
    fn corruption_is_rejected() {
        let frame = sample().encode();
        for i in (0..frame.len()).step_by(13) {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(ServeCheckpoint::decode(&bad).is_err(), "flip at {i}");
        }
        assert!(ServeCheckpoint::decode(&frame[..frame.len() - 1]).is_err());
    }
}
