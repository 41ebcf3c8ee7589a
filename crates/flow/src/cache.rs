//! The router's flow cache.
//!
//! Sampled packets are aggregated into flow records keyed by 5-tuple; a
//! record is emitted ("expired") when its flow has been idle longer than
//! the **inactive timeout**, has been open longer than the **active
//! timeout**, or when the cache is flushed. Defaults follow common NetFlow
//! deployments (15 s inactive / 60 s active at ISP border routers; we use
//! slightly coarser values tuned to the simulation's 1 s event
//! granularity).

use crate::key::FlowKey;
use crate::packet::Packet;
use crate::record::FlowRecord;
use haystack_net::SimTime;
use std::collections::HashMap;

/// Timeout configuration for a [`FlowCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCacheConfig {
    /// Emit a flow whose last packet is older than this many seconds.
    pub inactive_timeout_secs: u64,
    /// Emit (and restart) a flow that has been open longer than this.
    pub active_timeout_secs: u64,
}

impl Default for FlowCacheConfig {
    fn default() -> Self {
        FlowCacheConfig {
            inactive_timeout_secs: 15,
            active_timeout_secs: 60,
        }
    }
}

/// A flow cache: 5-tuple → in-progress [`FlowRecord`].
#[derive(Debug)]
pub struct FlowCache {
    config: FlowCacheConfig,
    table: HashMap<FlowKey, FlowRecord>,
    /// Records expired but not yet drained by the caller.
    expired: Vec<FlowRecord>,
}

impl FlowCache {
    /// Create a cache with the given timeouts.
    pub fn new(config: FlowCacheConfig) -> Self {
        FlowCache {
            config,
            table: HashMap::new(),
            expired: Vec::new(),
        }
    }

    /// Ingest one **already-sampled** packet (sampling happens upstream).
    pub fn on_packet(&mut self, p: &Packet) {
        match self.table.get_mut(&p.key()) {
            Some(rec) => {
                if p.ts.secs_since(rec.first) >= self.config.active_timeout_secs {
                    // Active timeout: emit and restart.
                    self.expired.push(*rec);
                    *rec = FlowRecord::from_packet(p);
                } else {
                    rec.absorb(p);
                }
            }
            None => {
                self.table.insert(p.key(), FlowRecord::from_packet(p));
            }
        }
    }

    /// Advance the clock: expire idle flows as of `now`.
    pub fn advance(&mut self, now: SimTime) {
        let inactive = self.config.inactive_timeout_secs;
        let expired = &mut self.expired;
        self.table.retain(|_, rec| {
            if now.secs_since(rec.last) >= inactive {
                expired.push(*rec);
                false
            } else {
                true
            }
        });
    }

    /// Emit everything still in the table (end of capture).
    pub fn flush(&mut self) {
        self.expired.extend(self.table.drain().map(|(_, r)| r));
    }

    /// Drain the emitted records, in canonical (first-seen, key) order.
    ///
    /// `advance` and `flush` walk the hash table, whose iteration order
    /// is per-instance random; sorting here makes replays call-stable —
    /// two caches fed the same packets drain identical sequences.
    pub fn drain_expired(&mut self) -> Vec<FlowRecord> {
        self.expired.sort_by_key(|r| (r.first, r.key));
        std::mem::take(&mut self.expired)
    }

    /// Number of in-progress flows.
    pub fn active_flows(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp_flags::TcpFlags;
    use haystack_net::ports::Proto;
    use std::net::Ipv4Addr;

    fn pkt(ts: u64, dport: u16) -> Packet {
        Packet::data(
            SimTime(ts),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(198, 18, 0, 1),
            50000,
            dport,
            Proto::Tcp,
            100,
        )
    }

    #[test]
    fn aggregates_same_flow() {
        let mut c = FlowCache::new(FlowCacheConfig::default());
        c.on_packet(&pkt(0, 443));
        c.on_packet(&pkt(1, 443));
        c.on_packet(&pkt(2, 443));
        assert_eq!(c.active_flows(), 1);
        c.flush();
        let recs = c.drain_expired();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].packets, 3);
        assert_eq!(recs[0].bytes, 300);
    }

    #[test]
    fn separate_flows_for_different_keys() {
        let mut c = FlowCache::new(FlowCacheConfig::default());
        c.on_packet(&pkt(0, 443));
        c.on_packet(&pkt(0, 123));
        assert_eq!(c.active_flows(), 2);
    }

    #[test]
    fn inactive_timeout_expires() {
        let mut c = FlowCache::new(FlowCacheConfig {
            inactive_timeout_secs: 10,
            active_timeout_secs: 60,
        });
        c.on_packet(&pkt(0, 443));
        c.advance(SimTime(9));
        assert_eq!(c.active_flows(), 1);
        c.advance(SimTime(10));
        assert_eq!(c.active_flows(), 0);
        assert_eq!(c.drain_expired().len(), 1);
    }

    #[test]
    fn active_timeout_splits_long_flow() {
        let mut c = FlowCache::new(FlowCacheConfig {
            inactive_timeout_secs: 100,
            active_timeout_secs: 30,
        });
        for t in 0..90 {
            c.on_packet(&pkt(t, 443));
        }
        c.flush();
        let recs = c.drain_expired();
        // 90 s of continuous 1 pkt/s traffic with a 30 s active timeout
        // yields 3 records of 30 packets each.
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|r| r.packets == 30));
    }

    #[test]
    fn flags_accumulate_within_record() {
        let mut c = FlowCache::new(FlowCacheConfig::default());
        let mut syn = pkt(0, 443);
        syn.flags = TcpFlags::SYN;
        c.on_packet(&syn);
        c.on_packet(&pkt(1, 443));
        c.flush();
        let recs = c.drain_expired();
        assert!(recs[0].tcp_flags.contains(TcpFlags::SYN));
        assert!(recs[0].tcp_flags.contains(TcpFlags::ACK));
    }

    #[test]
    fn drain_is_destructive() {
        let mut c = FlowCache::new(FlowCacheConfig::default());
        c.on_packet(&pkt(0, 443));
        c.flush();
        assert_eq!(c.drain_expired().len(), 1);
        assert!(c.drain_expired().is_empty());
    }
}
