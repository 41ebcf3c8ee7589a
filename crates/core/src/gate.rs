//! The batched fingerprint gate — the per-record kernel of the
//! miss-dominated detector hot path (DESIGN.md §10).
//!
//! [`gate_block`] takes one [`SOA_BLOCK`]-bounded block of records and
//! the compiled hitlist's fingerprint bytes, and emits the gate
//! *survivors* — `(position, mix64 hash)` column pairs — for the probe
//! pass. Everything else is a proven miss and is never looked at again.
//!
//! The loop is *branchless*: pack, `mix64`, one L1 byte test, then an
//! **unconditional** survivor store with a **conditional** length bump
//! (`len += bit`). There is no data-dependent branch, so nothing for
//! the predictor to miss at any hit rate, and the loop body schedules
//! as a straight line. Two generated-code details carry the throughput
//! (measured on the bench machine; see DESIGN.md §10 for numbers):
//!
//! - the survivor stores index through `len & (SOA_BLOCK - 1)` against
//!   constant-length column views — semantically a no-op (`len` trails
//!   the record index, which is bounded by `SOA_BLOCK`), but it proves
//!   every store in-bounds so the loop carries no bounds checks;
//! - `HitList::pack_key` reads the IP in *native* byte order, so the
//!   key is the raw 4-byte load of the `Ipv4Addr` — no per-record byte
//!   swap (`WildRecord`'s fixed `repr(C)` layout keeps `dst`/`dport`
//!   adjacent on one cache line).
//!
//! Earlier shapes, kept out: a separate whole-block hash column
//! ("pass A stores, pass B reloads") pays an 8-byte store + reload per
//! record and measured ~25 % slower; a branchy `survivors.push(j)`
//! emit stalls the pipeline on unpredictable hit patterns and blocks
//! straight-line scheduling even on predictable ones.

use crate::fasthash::mix64;
use crate::hitlist::{self, HitList};
use haystack_wild::WildRecord;

/// Records per gate round: bounds the survivor columns at
/// `(4 + 8) B × 2048 = 24 KiB` so they stay L1-resident for arbitrarily
/// large caller chunks, and makes the columns fixed-size so the
/// branchless emit's masked index is provably in-bounds.
pub const SOA_BLOCK: usize = 2_048;

/// Run the fingerprint gate over one block of records, writing survivor
/// positions and their hashes to the front of `surv`/`shash`. Returns
/// the survivor count.
///
/// `fp` must be non-empty with power-of-two length; `records` must hold
/// at most [`SOA_BLOCK`] records and `surv`/`shash` at least
/// [`SOA_BLOCK`] elements (column slots past the survivor count are
/// scratch — the emit overwrites one slot past the last survivor).
#[inline]
pub fn gate_block(records: &[WildRecord], fp: &[u8], surv: &mut [u32], shash: &mut [u64]) -> usize {
    debug_assert!(fp.len().is_power_of_two());
    debug_assert!(records.len() <= SOA_BLOCK);
    let surv = &mut surv[..SOA_BLOCK];
    let shash = &mut shash[..SOA_BLOCK];
    let mut len = 0usize;
    for (j, r) in records.iter().enumerate() {
        let h = mix64(HitList::pack_key(r.dst, r.dport));
        surv[len & (SOA_BLOCK - 1)] = j as u32;
        shash[len & (SOA_BLOCK - 1)] = h;
        len += hitlist::fp_bit(fp, h) as usize;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_net::ports::Proto;
    use haystack_net::{AnonId, HourBin, Prefix4};
    use std::net::Ipv4Addr;

    fn record(seed: u64) -> WildRecord {
        let x = mix64(seed);
        WildRecord {
            line: AnonId(x),
            line_slash24: Prefix4::new(Ipv4Addr::from((x >> 8) as u32), 24).unwrap(),
            src_ip: Ipv4Addr::from(x as u32),
            dst: Ipv4Addr::from((x >> 16) as u32),
            dport: (x >> 48) as u16,
            proto: if x & 1 == 0 { Proto::Tcp } else { Proto::Udp },
            packets: 3,
            bytes: 300,
            established: x & 2 == 0,
            hour: HourBin((x >> 32) as u32 & 0xffff),
        }
    }

    /// A fingerprint array with roughly `density` (out of 256) bits
    /// set, deterministically.
    fn fingerprint(len: usize, density: u64) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let mut b = 0u8;
                for bit in 0..8 {
                    if mix64((i * 8 + bit) as u64) % 256 < density {
                        b |= 1 << bit;
                    }
                }
                b
            })
            .collect()
    }

    /// The branchless gate agrees with a naive per-record reference:
    /// position order preserved, hash = mix64 of the packed key,
    /// survivor iff the fingerprint bit is set.
    #[test]
    fn gate_block_matches_reference() {
        let fp = fingerprint(256, 64);
        for n in [0usize, 1, 7, 777, SOA_BLOCK] {
            let records: Vec<WildRecord> = (0..n).map(|i| record(0xbeef + i as u64)).collect();
            let mut surv = vec![u32::MAX; SOA_BLOCK];
            let mut shash = vec![u64::MAX; SOA_BLOCK];
            let len = gate_block(&records, &fp, &mut surv, &mut shash);
            let expect: Vec<(u32, u64)> = records
                .iter()
                .enumerate()
                .filter_map(|(j, r)| {
                    let h = mix64(HitList::pack_key(r.dst, r.dport));
                    (hitlist::fp_bit(&fp, h) == 1).then_some((j as u32, h))
                })
                .collect();
            assert_eq!(len, expect.len(), "survivor count, n={n}");
            for (k, &(j, h)) in expect.iter().enumerate() {
                assert_eq!(surv[k], j, "position {k}, n={n}");
                assert_eq!(shash[k], h, "hash {k}, n={n}");
            }
        }
    }

    /// Dense fingerprints (all-hit workloads) emit every record in
    /// order — the gate degrades to an identity pass, never drops a
    /// real hit.
    #[test]
    fn saturated_fingerprint_keeps_everything() {
        let fp = vec![0xffu8; 64];
        let records: Vec<WildRecord> = (0..100).map(|i| record(7 + i as u64)).collect();
        let mut surv = vec![0u32; SOA_BLOCK];
        let mut shash = vec![0u64; SOA_BLOCK];
        let len = gate_block(&records, &fp, &mut surv, &mut shash);
        assert_eq!(len, records.len());
        for (j, r) in records.iter().enumerate() {
            assert_eq!(surv[j], j as u32);
            assert_eq!(shash[j], mix64(HitList::pack_key(r.dst, r.dport)));
        }
    }
}
