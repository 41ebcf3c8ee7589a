//! FxHash-style hashing for the detector hot path.
//!
//! The per-record cost budget (§1: "millions of IoT devices within
//! minutes") leaves no room for SipHash's per-lookup setup: the hot maps
//! are keyed by small integers ([`AnonId`](haystack_net::AnonId) lines,
//! packed `(ip, port)` words), where a multiply-xor mix is both faster
//! and sufficiently uniform — the same trade rustc itself makes with
//! `FxHashMap`. External crates are vendored shims in this workspace, so
//! the hasher is implemented here: one `rotate ^ word → multiply` step
//! per 8-byte word, exactly the Fx construction.
//!
//! Two entry points:
//!
//! * [`FastMap`] / [`FastSet`] — drop-in `HashMap`/`HashSet` aliases
//!   using [`FxHasher`], for keyed per-line state.
//! * [`mix64`] — a one-shot splitmix64 finalizer for *pre-packed* `u64`
//!   keys probing open-addressing tables (the compiled
//!   [`HitList`](crate::hitlist::HitList)), where every input bit must
//!   reach the low bits that the power-of-two mask keeps.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiply constant (a random odd 64-bit number; the same one
/// rustc's FxHash uses).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A `HashMap` keyed through [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FastSet<T> = HashSet<T, FxBuildHasher>;

/// Zero-state builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A multiply-xor (FxHash-style) streaming hasher.
///
/// Not cryptographic and not HashDoS-resistant — the detector's keys are
/// anonymized line ids and rule indices produced by *this* system, never
/// attacker-chosen strings, so throughput wins.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Fold the length in so "ab" and "ab\0" diverge.
            self.add(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.add(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.add(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add(v as usize as u64);
    }
}

/// splitmix64 finalizer: full avalanche for a packed integer key.
///
/// Used where a *single* multiply would leave the masked-off low bits
/// depending only on the key's low bits (open-addressing tables with a
/// power-of-two mask take the low bits of the hash; the compiled hitlist
/// packs the IP into the *high* 32 bits of its key).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(&v)
    }

    #[test]
    fn distinct_small_keys_hash_apart() {
        // Sanity, not statistics: sequential u64 keys (the AnonId shape)
        // must not collide in bulk after masking to a small table.
        let mut buckets = vec![0u32; 1024];
        for i in 0u64..100_000 {
            buckets[(hash_of(i) & 1023) as usize] += 1;
        }
        let expect = 100_000 / 1024;
        for (b, &c) in buckets.iter().enumerate() {
            assert!(
                c > expect as u32 / 4 && c < expect as u32 * 4,
                "bucket {b} holds {c} of 100k (expected ≈{expect})"
            );
        }
    }

    #[test]
    fn byte_streams_with_different_tails_diverge() {
        assert_ne!(hash_of(b"ab".as_slice()), hash_of(b"ab\0".as_slice()));
        assert_ne!(hash_of("Alexa Enabled"), hash_of("Alexa  Enabled"));
    }

    #[test]
    fn mix64_avalanches_into_low_bits() {
        // Keys differing only in high bits (the packed-IP half) must
        // land in different low-bit buckets most of the time.
        let mut same = 0;
        for i in 0u64..1_000 {
            let a = mix64(i << 32) & 0xfff;
            let b = mix64((i + 1) << 32) & 0xfff;
            if a == b {
                same += 1;
            }
        }
        assert!(
            same < 20,
            "{same}/1000 high-bit-only pairs collide in the low 12 bits"
        );
    }
}
