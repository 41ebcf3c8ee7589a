//! The daily hitlist: (service IP, port) → rule evidence index.
//!
//! Figure 7's output is a *daily* "Hitlist of IoT-Domains, IPs & Port
//! Numbers + Detection Rules": the IP side is re-derived every day from
//! passive DNS so DNS churn cannot strand the detector on stale
//! addresses. The hitlist is the only thing the per-record hot path
//! touches — one lookup per flow — so it is *compiled*: the
//! [`MapHitList`] builder collects entries in an ordinary `HashMap`, and
//! [`MapHitList::compile`] packs them into an open-addressing table
//! ([`HitList`]) whose probe is a single masked [`mix64`] of the packed
//! `(ip, port)` key. The common 1–2-entry case is stored *inline in the
//! slot* (no `Vec` pointer chase); shared-IP collisions spill into one
//! contiguous arena. `MapHitList` stays around as the equivalence oracle
//! — `tests/prop_hotpath.rs` pins `lookup` to it entry-for-entry.
//!
//! In the wild workload the overwhelming majority of records match **no**
//! rule, so the compiled table also carries a *fingerprint front gate*: a
//! power-of-two `u8` array where each inserted key sets one bit chosen by
//! the same [`mix64`] hash that indexes the probe table. A lookup tests
//! that single byte first — a non-matching record touches **one cache
//! line** and exits, instead of walking a linear-probe chain (≈ 2.5 slot
//! loads expected for an unsuccessful search at 50 % load). The gate is
//! one-sided: every inserted key sets its bit, so there are no false
//! negatives, and a false positive (≈ 3 %, see [`HitList::prefilter_pass`])
//! merely falls through to the full probe, which still answers exactly
//! like the oracle.

use crate::fasthash::mix64;
use crate::rules::RuleSet;
use haystack_dns::DnsDb;
use haystack_net::{DayBin, StudyWindow};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Pack a lookup key into one word: IP in the high 32 bits, port in the
/// low 16. The top 16 bits stay zero, so [`EMPTY_KEY`] can never be a
/// real key. The IP contributes its four octets in *native* byte order —
/// the key is an opaque in-memory encoding, and native order lets both
/// the scalar path and the batched gate loop use the raw 4-byte load
/// of an `Ipv4Addr` directly (no per-record byte swap).
#[inline]
fn pack(ip: Ipv4Addr, port: u16) -> u64 {
    (u64::from(u32::from_ne_bytes(ip.octets())) << 16) | u64::from(port)
}

/// Fingerprint-array byte index for a hashed key: bits 3.. of the hash,
/// masked to the (power-of-two) array length. Bits 0–2 pick the tag bit
/// within the byte ([`fp_tag`]), so index and tag use disjoint hash bits.
#[inline]
fn fp_index(h: u64, fp_len: usize) -> usize {
    ((h >> 3) as usize) & (fp_len - 1)
}

/// Fingerprint tag bit for a hashed key: one of the byte's 8 bits,
/// chosen by the low 3 hash bits.
#[inline]
fn fp_tag(h: u64) -> u8 {
    1u8 << (h & 7)
}

/// Branchless form of the gate test over a borrowed (non-empty,
/// power-of-two-length) fingerprint array: 1 if the bit is set, else 0.
/// The detector's fused gate pass uses this so the survivor emit can be
/// an unconditional store + conditional length bump — no branch to
/// mispredict, so the loop schedules as a straight line.
#[inline]
pub(crate) fn fp_bit(fp: &[u8], h: u64) -> u8 {
    (fp[fp_index(h, fp.len())] >> (h & 7)) & 1
}

/// Sentinel for an unoccupied probe slot (real keys are < 2⁴⁸).
const EMPTY_KEY: u64 = u64::MAX;

/// A builder-side entry list: one `(ip, port)` key and its
/// `(rule, domain)` evidence entries.
type KeyedEntries = ((Ipv4Addr, u16), Vec<(u16, u16)>);

/// Entries per slot stored inline before spilling to the arena.
const INLINE: usize = 2;

/// One compiled table slot: the evidence entries for a single key.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Number of `(rule, domain)` entries under this key.
    count: u16,
    /// The entries themselves when `count <= INLINE`.
    inline: [(u16, u16); INLINE],
    /// Arena offset of the entries when `count > INLINE`.
    spill: u32,
}

/// The naive `HashMap`-backed hitlist: the builder for the compiled
/// [`HitList`] and the reference oracle the equivalence tests probe
/// against. Not used on the per-record hot path.
#[derive(Debug, Clone, Default)]
pub struct MapHitList {
    /// The day this hitlist is valid for.
    pub day: Option<DayBin>,
    index: HashMap<(Ipv4Addr, u16), Vec<(u16, u16)>>,
}

impl MapHitList {
    /// Build the hitlist for `day` from the rule set and passive DNS.
    /// Domains whose IPs came from the Censys expansion (static over the
    /// window) fall back to the rule's whole-window union when passive
    /// DNS has nothing for that day.
    pub fn for_day(rules: &RuleSet, dnsdb: &DnsDb, day: DayBin) -> MapHitList {
        let day_window = StudyWindow::days(day.0, day.0 + 1);
        let mut index: HashMap<(Ipv4Addr, u16), Vec<(u16, u16)>> = HashMap::new();
        for (ri, rule) in rules.rules.iter().enumerate() {
            for (di, dom) in rule.domains.iter().enumerate() {
                let mut add = |ip: Ipv4Addr| {
                    for &port in &dom.ports {
                        index
                            .entry((ip, port))
                            .or_default()
                            .push((ri as u16, di as u16));
                    }
                };
                let daily = dnsdb.ips_of(&dom.name, &day_window);
                if daily.is_empty() {
                    for &ip in &dom.ips {
                        add(ip);
                    }
                } else {
                    for ip in daily {
                        add(ip);
                    }
                }
            }
        }
        MapHitList {
            day: Some(day),
            index,
        }
    }

    /// Build a whole-window hitlist from the rules' IP unions (used by
    /// the §5 crosscheck, which spans days).
    pub fn whole_window(rules: &RuleSet) -> MapHitList {
        let mut index: HashMap<(Ipv4Addr, u16), Vec<(u16, u16)>> = HashMap::new();
        for (ri, rule) in rules.rules.iter().enumerate() {
            for (di, dom) in rule.domains.iter().enumerate() {
                for &ip in &dom.ips {
                    for &port in &dom.ports {
                        index
                            .entry((ip, port))
                            .or_default()
                            .push((ri as u16, di as u16));
                    }
                }
            }
        }
        MapHitList { day: None, index }
    }

    /// The rule evidence entries matching a flow's (dst, port), if any.
    pub fn lookup(&self, dst: Ipv4Addr, port: u16) -> &[(u16, u16)] {
        self.index
            .get(&(dst, port))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of indexed (ip, port) combinations.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Compile into the open-addressing [`HitList`] the detector probes.
    pub fn compile(self) -> HitList {
        let n = self.index.len();
        if n == 0 {
            return HitList {
                day: self.day,
                ..HitList::default()
            };
        }
        // ≤ 50 % load keeps linear-probe chains short.
        let cap = (n * 2).next_power_of_two().max(8);
        let mask = cap - 1;
        let mut keys = vec![EMPTY_KEY; cap];
        let mut slots = vec![Slot::default(); cap];
        let mut spill: Vec<(u16, u16)> = Vec::new();
        // Fingerprint gate: 2 bytes (16 bits) per table slot, so ≥ 32
        // one-bit fingerprints per occupied key at ≤ 50 % load — a ≈ 3 %
        // false-positive ceiling. Bit-OR insertion is commutative, so the
        // gate layout is deterministic like the rest of the table.
        let fp_len = (cap * 2).max(64);
        let mut fp = vec![0u8; fp_len];
        // Sort by packed key so the compiled layout is independent of
        // HashMap iteration order (probe displacement, spill offsets).
        let mut items: Vec<KeyedEntries> = self.index.into_iter().collect();
        items.sort_unstable_by_key(|&((ip, port), _)| pack(ip, port));
        for ((ip, port), entries) in items {
            let key = pack(ip, port);
            let h = mix64(key);
            fp[fp_index(h, fp_len)] |= fp_tag(h);
            let mut i = (h as usize) & mask;
            while keys[i] != EMPTY_KEY {
                i = (i + 1) & mask;
            }
            keys[i] = key;
            let mut slot = Slot {
                count: entries.len() as u16,
                ..Slot::default()
            };
            if entries.len() <= INLINE {
                slot.inline[..entries.len()].copy_from_slice(&entries);
            } else {
                slot.spill = spill.len() as u32;
                spill.extend_from_slice(&entries);
            }
            slots[i] = slot;
        }
        HitList {
            day: self.day,
            keys: keys.into_boxed_slice(),
            slots: slots.into_boxed_slice(),
            spill: spill.into_boxed_slice(),
            fp: fp.into_boxed_slice(),
            len: n,
        }
    }
}

/// A compiled daily index: one open-addressing probe per lookup.
///
/// ```
/// use haystack_core::hitlist::HitList;
/// use haystack_core::rules::{RuleDomain, RuleSetBuilder};
/// use haystack_dns::DomainName;
/// use haystack_testbed::catalog::DetectionLevel;
///
/// let mut b = RuleSetBuilder::new();
/// b.rule(
///     "Cam",
///     DetectionLevel::Manufacturer,
///     None,
///     vec![RuleDomain {
///         name: DomainName::parse("api.cam.com").unwrap(),
///         ports: [443u16].into_iter().collect(),
///         ips: ["198.18.0.7".parse().unwrap()].into_iter().collect(),
///         usage_indicator: false,
///     }],
/// );
/// let rules = b.build();
/// let hl = HitList::whole_window(&rules);
/// assert_eq!(hl.lookup("198.18.0.7".parse().unwrap(), 443), &[(0, 0)]);
/// assert!(hl.lookup("198.18.0.7".parse().unwrap(), 80).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HitList {
    /// The day this hitlist is valid for.
    pub day: Option<DayBin>,
    /// Probe array: packed keys (or [`EMPTY_KEY`]), power-of-two sized.
    keys: Box<[u64]>,
    /// Entry storage parallel to `keys`.
    slots: Box<[Slot]>,
    /// Overflow arena for keys with more than [`INLINE`] entries.
    spill: Box<[(u16, u16)]>,
    /// Fingerprint front gate: power-of-two byte array, one bit set per
    /// inserted key ([`fp_index`]/[`fp_tag`] of its [`mix64`] hash).
    /// Empty iff the table is empty.
    fp: Box<[u8]>,
    /// Number of occupied keys.
    len: usize,
}

impl HitList {
    /// Build and compile the hitlist for `day` (see
    /// [`MapHitList::for_day`] for the derivation rules).
    pub fn for_day(rules: &RuleSet, dnsdb: &DnsDb, day: DayBin) -> HitList {
        MapHitList::for_day(rules, dnsdb, day).compile()
    }

    /// Build and compile a whole-window hitlist from the rules' IP
    /// unions (used by the §5 crosscheck, which spans days).
    pub fn whole_window(rules: &RuleSet) -> HitList {
        MapHitList::whole_window(rules).compile()
    }

    /// Pack a `(dst, port)` pair into the table's one-word key (IP in
    /// the high 32 bits, port in the low 16). Callers batching lookups
    /// pack and [`mix64`]-hash whole chunks up front, then drive
    /// [`HitList::prefilter_pass`] / [`HitList::lookup_hashed`].
    #[inline]
    pub fn pack_key(dst: Ipv4Addr, port: u16) -> u64 {
        pack(dst, port)
    }

    /// The fingerprint front gate: does the hashed key's fingerprint bit
    /// exist in the table? `h` must be `mix64(pack_key(dst, port))`.
    ///
    /// One byte load, one AND — a `false` answer proves the key is
    /// absent (no false negatives: compile sets every inserted key's
    /// bit). A `true` answer is probabilistic: with 16 gate bits per
    /// table slot and the table at ≤ 50 % load, a random absent key
    /// draws one of ≥ 32 bits per present key, so the false-positive
    /// rate is ≤ ~3 % — those fall through to the full probe and still
    /// resolve to "no entries".
    #[inline]
    pub fn prefilter_pass(&self, h: u64) -> bool {
        if self.fp.is_empty() {
            return false;
        }
        self.fp[fp_index(h, self.fp.len())] & fp_tag(h) != 0
    }

    /// The raw fingerprint bytes (empty iff the table is empty) — the
    /// detector's batched gate pass borrows these once per block and
    /// tests bits via [`fp_bit`] instead of paying the emptiness branch
    /// per record.
    #[inline]
    pub(crate) fn prefilter(&self) -> &[u8] {
        &self.fp
    }

    /// The full probe for a pre-packed, pre-hashed key: one masked probe
    /// (rarely more — the table is kept at ≤ 50 % load), and the 1–2
    /// entry common case is read straight out of the slot. Callers are
    /// expected to have consulted [`HitList::prefilter_pass`] first;
    /// skipping the gate is correct, just slower on misses.
    #[inline]
    pub fn lookup_hashed(&self, key: u64, h: u64) -> &[(u16, u16)] {
        if self.keys.is_empty() {
            return &[];
        }
        let mask = self.keys.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == key {
                let slot = &self.slots[i];
                let count = slot.count as usize;
                return if count <= INLINE {
                    &slot.inline[..count]
                } else {
                    &self.spill[slot.spill as usize..slot.spill as usize + count]
                };
            }
            if k == EMPTY_KEY {
                return &[];
            }
            i = (i + 1) & mask;
        }
    }

    /// The fingerprint front gate on an unpacked key: `false` proves
    /// `(dst, port)` absent, `true` means [`HitList::lookup`] must probe.
    /// Every non-empty `lookup` answer implies `admits`, so a caller that
    /// drops what this rejects loses no evidence — `haystack serve`
    /// passes it to the collector as the decoder's admission predicate.
    #[inline]
    pub fn admits(&self, dst: Ipv4Addr, port: u16) -> bool {
        self.prefilter_pass(mix64(pack(dst, port)))
    }

    /// The rule evidence entries matching a flow's (dst, port), if any.
    ///
    /// This is the per-record hot path: one [`mix64`], one fingerprint
    /// byte test ([`HitList::admits`], which retires the no-match
    /// majority on a single cache line), and — for the gate's survivors
    /// — one masked table probe.
    #[inline]
    pub fn lookup(&self, dst: Ipv4Addr, port: u16) -> &[(u16, u16)] {
        if !self.admits(dst, port) {
            return &[];
        }
        let key = pack(dst, port);
        self.lookup_hashed(key, mix64(key))
    }

    /// [`HitList::lookup`] without the fingerprint gate: the pre-gate
    /// (PR 3) probe path, kept as the differential comparator the
    /// miss-rate benches and the gate's equivalence tests measure
    /// against. Answers identically to `lookup` — the gate only short-
    /// circuits keys the probe would reject anyway.
    #[inline]
    pub fn lookup_ungated(&self, dst: Ipv4Addr, port: u16) -> &[(u16, u16)] {
        let key = pack(dst, port);
        self.lookup_hashed(key, mix64(key))
    }

    /// Size of the fingerprint gate array in bytes (0 for an empty
    /// table). Published as a telemetry gauge alongside the entry count.
    pub fn prefilter_len(&self) -> usize {
        self.fp.len()
    }

    /// Number of indexed (ip, port) combinations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{RuleDomain, RuleSetBuilder};
    use haystack_dns::DomainName;
    use haystack_testbed::catalog::DetectionLevel;
    use std::collections::BTreeSet;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 3, last)
    }

    fn ruleset() -> RuleSet {
        let dom = |name: &str, ips: &[u8], ports: &[u16]| RuleDomain {
            name: DomainName::parse(name).unwrap(),
            ports: ports.iter().copied().collect(),
            ips: ips.iter().map(|i| ip(*i)).collect(),
            usage_indicator: false,
        };
        let mut b = RuleSetBuilder::new();
        b.rule(
            "A",
            DetectionLevel::Manufacturer,
            None,
            vec![
                dom("d0.a.com", &[1, 2], &[443]),
                dom("d1.a.com", &[3], &[8883]),
            ],
        );
        b.rule(
            "B",
            DetectionLevel::Product,
            None,
            vec![dom("d0.b.com", &[2], &[443])],
        );
        b.build()
    }

    #[test]
    fn whole_window_indexes_all_combos() {
        let hl = HitList::whole_window(&ruleset());
        assert_eq!(hl.lookup(ip(1), 443), &[(0, 0)]);
        assert_eq!(hl.lookup(ip(3), 8883), &[(0, 1)]);
        // ip(2):443 serves both rule A (domain 0) and rule B.
        let both: BTreeSet<_> = hl.lookup(ip(2), 443).iter().copied().collect();
        assert_eq!(both, [(0u16, 0u16), (1, 0)].into_iter().collect());
        // Wrong port → no match.
        assert!(hl.lookup(ip(1), 80).is_empty());
        assert!(hl.lookup(ip(9), 443).is_empty());
    }

    #[test]
    fn compiled_agrees_with_map_oracle() {
        let rules = ruleset();
        let map = MapHitList::whole_window(&rules);
        let compiled = map.clone().compile();
        assert_eq!(map.len(), compiled.len());
        for o in 0u8..=255 {
            for port in [443u16, 80, 8883, 123] {
                assert_eq!(
                    compiled.lookup(ip(o), port),
                    map.lookup(ip(o), port),
                    "divergence at {o}:{port}"
                );
            }
        }
    }

    #[test]
    fn spill_arena_serves_wide_keys() {
        // One (ip, port) shared by many (rule, domain) pairs must spill
        // past the inline slots and still return every entry in order.
        let shared = ip(77);
        let mut b = RuleSetBuilder::new();
        for ri in 0..5 {
            b.rule(
                &format!("S{ri}"),
                DetectionLevel::Manufacturer,
                None,
                vec![RuleDomain {
                    name: DomainName::parse(&format!("d.s{ri}.com")).unwrap(),
                    ports: [443u16].into_iter().collect(),
                    ips: [shared].into_iter().collect(),
                    usage_indicator: false,
                }],
            );
        }
        let rules = b.build();
        let hl = HitList::whole_window(&rules);
        assert_eq!(
            hl.lookup(shared, 443),
            &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
        );
        assert!(hl.lookup(shared, 80).is_empty());
    }

    #[test]
    fn empty_hitlist_rejects_everything() {
        let hl = HitList::default();
        assert!(hl.is_empty());
        assert_eq!(hl.len(), 0);
        assert_eq!(hl.prefilter_len(), 0);
        assert!(hl.lookup(ip(1), 443).is_empty());
        assert!(!hl.prefilter_pass(mix64(HitList::pack_key(ip(1), 443))));
        assert!(!hl.admits(ip(1), 443));
        assert!(hl
            .lookup_hashed(HitList::pack_key(ip(1), 443), 0)
            .is_empty());
    }

    #[test]
    fn prefilter_admits_every_indexed_key() {
        // No false negatives: every key the table holds passes the gate,
        // and the gated lookup answers exactly like the ungated probe —
        // for hits, misses, and the gate's own false positives alike.
        let rules = ruleset();
        let hl = HitList::whole_window(&rules);
        assert!(hl.prefilter_len().is_power_of_two());
        let mut hits = 0;
        for o in 0u8..=255 {
            for port in [443u16, 80, 8883, 123] {
                let entries = hl.lookup_ungated(ip(o), port);
                assert_eq!(hl.lookup(ip(o), port), entries, "gate changed {o}:{port}");
                let h = mix64(HitList::pack_key(ip(o), port));
                assert_eq!(
                    hl.admits(ip(o), port),
                    hl.prefilter_pass(h),
                    "admits at {o}:{port}"
                );
                if !entries.is_empty() {
                    hits += 1;
                    assert!(hl.prefilter_pass(h), "false negative at {o}:{port}");
                }
            }
        }
        assert!(hits > 0, "ruleset must index something");
    }

    #[test]
    fn daily_hitlist_prefers_passive_dns_and_falls_back() {
        use haystack_dns::zone::RotationPolicy;
        use haystack_dns::{Resolver, ZoneDb};
        use haystack_net::SimTime;

        // Passive DNS knows d0.a.com maps to ip(7) on day 0 only.
        let mut z = ZoneDb::new();
        z.insert_pool(
            DomainName::parse("d0.a.com").unwrap(),
            vec![ip(7)],
            RotationPolicy::STABLE,
        );
        let r = Resolver::new(&z);
        let mut db = DnsDb::new();
        let res = r
            .resolve(&DomainName::parse("d0.a.com").unwrap(), SimTime(100))
            .unwrap();
        db.record_resolution(&res, SimTime(100));

        let rules = ruleset();
        let day0 = HitList::for_day(&rules, &db, DayBin(0));
        // Day 0: passive DNS wins for d0.a.com (ip 7, not the union 1,2).
        assert_eq!(day0.lookup(ip(7), 443), &[(0, 0)]);
        assert!(day0.lookup(ip(1), 443).is_empty());
        // d1.a.com has no passive-DNS rows → whole-window fallback.
        assert_eq!(day0.lookup(ip(3), 8883), &[(0, 1)]);

        // Day 1: nothing recorded → fallback everywhere.
        let day1 = HitList::for_day(&rules, &db, DayBin(1));
        assert_eq!(day1.lookup(ip(1), 443), &[(0, 0)]);
        assert!(day1.lookup(ip(7), 443).is_empty());
    }
}
