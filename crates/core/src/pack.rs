//! Signature packs — the externalized rule layer (DESIGN.md §14).
//!
//! A pack carries everything the detection side needs and nothing it
//! can derive: the interned class table (names, in id order), every
//! rule's domain/port/IP evidence with usage-indicator flags, the
//! undetectable casualty list, the evidence threshold `D`, and
//! provenance strings. It is one checksummed [`haystack_net::snapshot`]
//! frame, so truncation, bit rot, and version skew are typed errors —
//! and [`haystack_net::snapshot::checksum_ok`] separates the two for
//! operators, exactly as resume validation does for checkpoints.
//!
//! The encoding is **byte-determinate**: no timestamps, no map
//! iteration order (ports and IPs are `BTreeSet`s, classes travel in
//! id order), so `export → load → export` reproduces the frame and a
//! detector driven by a loaded pack is byte-identical to one driven by
//! the compiled-in rules it was exported from.
//!
//! [`SignaturePack::lint`] is the structural gate: defects that the
//! codec happily round-trips (empty domain sets, dangling parents,
//! duplicate rules, a threshold outside `(0, 1]`) are reported as
//! human-readable strings naming the offending class, domain, and
//! field. `haystack rules lint` prints them; [`SignaturePack::load`]
//! refuses a defective pack outright.

use crate::checkpoint::{DetectorState, LineEvidence, StalenessState, UsageState};
use crate::classes::{ClassId, ClassTable};
use crate::fasthash::FastMap;
use crate::rules::{DetectionRule, RuleDomain, RuleSet, Undetectable};
use haystack_dns::DomainName;
use haystack_net::snapshot::{open, seal, SnapError, SnapReader, SnapWriter, MAGIC_LEN};
use haystack_testbed::catalog::DetectionLevel;
use std::fmt;
use std::net::Ipv4Addr;

/// The detector evidence mask is a `u64`; a rule cannot monitor more
/// domains than it has bits.
pub const MAX_RULE_DOMAINS: usize = 64;

/// Why a pack was rejected.
#[derive(Debug)]
pub enum PackError {
    /// The frame failed to decode (truncated, wrong magic, version
    /// skew, checksum mismatch, or structurally impossible payload).
    Snap(SnapError),
    /// The frame decoded but the rules are defective; one message per
    /// defect, naming the offending class/domain/field.
    Lint(Vec<String>),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Snap(e) => write!(f, "signature pack unreadable: {e}"),
            PackError::Lint(defects) => {
                write!(f, "signature pack rejected ({} defects)", defects.len())?;
                for d in defects {
                    write!(f, "\n  - {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PackError {}

impl From<SnapError> for PackError {
    fn from(e: SnapError) -> Self {
        PackError::Snap(e)
    }
}

/// A versioned, checksummed, self-contained rule layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SignaturePack {
    /// The full rule set (classes, rules, undetectable list).
    pub rules: RuleSet,
    /// Evidence threshold `D` the pack was generated for.
    pub threshold: f64,
    /// What produced the pack (e.g. `generate(seed=42)`), for humans.
    pub source: String,
    /// Free-form operator note.
    pub comment: String,
}

fn level_tag(level: DetectionLevel) -> u8 {
    match level {
        DetectionLevel::Platform => 0,
        DetectionLevel::Manufacturer => 1,
        DetectionLevel::Product => 2,
    }
}

fn level_from_tag(tag: u8) -> Result<DetectionLevel, SnapError> {
    Ok(match tag {
        0 => DetectionLevel::Platform,
        1 => DetectionLevel::Manufacturer,
        2 => DetectionLevel::Product,
        _ => return Err(SnapError::Malformed("unknown detection level tag")),
    })
}

fn reason_tag(reason: Undetectable) -> u8 {
    match reason {
        Undetectable::SharedInfrastructure => 0,
        Undetectable::InsufficientInfo => 1,
    }
}

fn reason_from_tag(tag: u8) -> Result<Undetectable, SnapError> {
    Ok(match tag {
        0 => Undetectable::SharedInfrastructure,
        1 => Undetectable::InsufficientInfo,
        _ => return Err(SnapError::Malformed("unknown undetectable reason tag")),
    })
}

fn read_str(r: &mut SnapReader<'_>) -> Result<String, SnapError> {
    let bytes = r.bytes()?;
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| SnapError::Malformed("string not UTF-8"))
}

impl SignaturePack {
    /// Frame magic of a signature pack.
    pub const MAGIC: &'static [u8; MAGIC_LEN] = b"HAYPACK\0";
    /// Pack format version this build writes and reads.
    pub const VERSION: u32 = 1;

    /// Seal the pack as one checksummed frame. Deterministic: the same
    /// pack always encodes to the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        // Class table, in id order — ids on the wire are table indices.
        w.put_u64(self.rules.classes.len() as u64);
        for (_, name) in self.rules.classes.iter() {
            w.put_str(name);
        }
        // Rules.
        w.put_u64(self.rules.rules.len() as u64);
        for rule in &self.rules.rules {
            w.put_u16(rule.class.0);
            w.put_u8(level_tag(rule.level));
            w.put_u16(rule.parent.map_or(ClassId::NONE_WIRE, |p| p.0));
            w.put_u64(rule.domains.len() as u64);
            for dom in &rule.domains {
                w.put_str(dom.name.as_str());
                w.put_u64(dom.ports.len() as u64);
                for &port in &dom.ports {
                    w.put_u16(port);
                }
                w.put_u64(dom.ips.len() as u64);
                for &ip in &dom.ips {
                    w.put_u32(u32::from(ip));
                }
                w.put_u8(u8::from(dom.usage_indicator));
            }
        }
        // Undetectable casualty list.
        w.put_u64(self.rules.undetectable.len() as u64);
        for &(class, reason) in &self.rules.undetectable {
            w.put_u16(class.0);
            w.put_u8(reason_tag(reason));
        }
        // Threshold + provenance.
        w.put_f64_bits(self.threshold);
        w.put_str(&self.source);
        w.put_str(&self.comment);
        seal(Self::MAGIC, Self::VERSION, &w.into_bytes())
    }

    /// Decode a frame produced by [`SignaturePack::encode`].
    ///
    /// This checks the codec invariants (rule classes must exist in the
    /// table, tags must be known, domains must parse); *semantic*
    /// defects — dangling parents, empty domain sets — are deliberately
    /// tolerated here so [`SignaturePack::lint`] can name them.
    pub fn decode(frame: &[u8]) -> Result<SignaturePack, SnapError> {
        let payload = open(Self::MAGIC, Self::VERSION, frame)?;
        let mut r = SnapReader::new(payload);

        let nclasses = r.count(8)?;
        let mut classes = ClassTable::new();
        for _ in 0..nclasses {
            classes.intern(&read_str(&mut r)?);
        }
        if classes.len() != nclasses {
            return Err(SnapError::Malformed("duplicate class table entry"));
        }

        let nrules = r.count(2 + 1 + 2 + 8)?;
        let mut rules = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let class = ClassId(r.u16()?);
            if classes.get(class).is_none() {
                return Err(SnapError::Malformed("rule class not in class table"));
            }
            let level = level_from_tag(r.u8()?)?;
            let parent_wire = r.u16()?;
            let parent = (parent_wire != ClassId::NONE_WIRE).then_some(ClassId(parent_wire));
            let ndomains = r.count(8 + 8 + 8 + 1)?;
            let mut domains = Vec::with_capacity(ndomains);
            for _ in 0..ndomains {
                let name = read_str(&mut r)?;
                let name = DomainName::parse(&name)
                    .map_err(|_| SnapError::Malformed("unparseable rule domain"))?;
                let nports = r.count(2)?;
                let mut ports = std::collections::BTreeSet::new();
                for _ in 0..nports {
                    ports.insert(r.u16()?);
                }
                let nips = r.count(4)?;
                let mut ips = std::collections::BTreeSet::new();
                for _ in 0..nips {
                    ips.insert(Ipv4Addr::from(r.u32()?));
                }
                let usage_indicator = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(SnapError::Malformed("bad usage-indicator flag")),
                };
                domains.push(RuleDomain {
                    name,
                    ports,
                    ips,
                    usage_indicator,
                });
            }
            rules.push(DetectionRule {
                class,
                level,
                parent,
                domains,
            });
        }

        let nundet = r.count(3)?;
        let mut undetectable = Vec::with_capacity(nundet);
        for _ in 0..nundet {
            let class = ClassId(r.u16()?);
            if classes.get(class).is_none() {
                return Err(SnapError::Malformed(
                    "undetectable class not in class table",
                ));
            }
            undetectable.push((class, reason_from_tag(r.u8()?)?));
        }

        let threshold = r.f64_bits()?;
        let source = read_str(&mut r)?;
        let comment = read_str(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(SignaturePack {
            rules: RuleSet::from_parts(classes, rules, undetectable),
            threshold,
            source,
            comment,
        })
    }

    /// Structural defects, one human-readable message per defect. An
    /// empty vector means the pack is fit to detect with.
    pub fn lint(&self) -> Vec<String> {
        let mut defects = Vec::new();
        let rs = &self.rules;
        if !(self.threshold > 0.0 && self.threshold <= 1.0) {
            defects.push(format!("threshold: {} outside (0, 1]", self.threshold));
        }
        let mut seen: std::collections::BTreeSet<ClassId> = Default::default();
        for rule in &rs.rules {
            let class = rs.classes.get(rule.class).unwrap_or("<unknown>");
            if !seen.insert(rule.class) {
                defects.push(format!("rule \"{class}\": duplicate rule for this class"));
            }
            if let Some(p) = rule.parent {
                if rs.classes.get(p).is_none() {
                    defects.push(format!(
                        "rule \"{class}\": parent id {} not in the class table (dangling parent)",
                        p.0
                    ));
                } else if p == rule.class {
                    defects.push(format!("rule \"{class}\": parent is the class itself"));
                }
            }
            if rule.domains.is_empty() {
                defects.push(format!("rule \"{class}\": empty domain set"));
            }
            if rule.domains.len() > MAX_RULE_DOMAINS {
                defects.push(format!(
                    "rule \"{class}\": {} domains exceed the {MAX_RULE_DOMAINS}-bit evidence mask",
                    rule.domains.len()
                ));
            }
            let mut names: std::collections::BTreeSet<&str> = Default::default();
            for dom in &rule.domains {
                let name = dom.name.as_str();
                if !names.insert(name) {
                    defects.push(format!(
                        "rule \"{class}\" domain \"{name}\": duplicate domain"
                    ));
                }
                if dom.ports.is_empty() {
                    defects.push(format!("rule \"{class}\" domain \"{name}\": no ports"));
                }
                if dom.ips.is_empty() {
                    defects.push(format!(
                        "rule \"{class}\" domain \"{name}\": no service IP evidence"
                    ));
                }
            }
        }
        for &(class, _) in &rs.undetectable {
            if seen.contains(&class) {
                let name = rs.classes.get(class).unwrap_or("<unknown>");
                defects.push(format!(
                    "class \"{name}\": listed both as a rule and as undetectable"
                ));
            }
        }
        defects
    }

    /// Decode *and* lint-gate a frame: the loading path detection uses.
    pub fn load(frame: &[u8]) -> Result<SignaturePack, PackError> {
        let pack = SignaturePack::decode(frame)?;
        let defects = pack.lint();
        if defects.is_empty() {
            Ok(pack)
        } else {
            Err(PackError::Lint(defects))
        }
    }
}

/// Carry detector evidence across a rule-set swap (DESIGN.md §14).
///
/// Rules are matched by class *name* — interned ids are pack-local and
/// mean nothing across packs. A matched rule with an identical domain
/// list keeps its entries verbatim; a changed rule has each entry's
/// evidence mask remapped bit-by-bit through domain names, dropping
/// evidence for domains the new rule no longer lists (an entry whose
/// mask empties is dropped entirely). `first_met` survives only while
/// the remapped evidence still meets the new rule's requirement at
/// `threshold` — a detection that no longer holds must not keep its
/// detection hour. Rules absent from the old set start empty.
pub fn migrate_detector_state(
    old: &RuleSet,
    new: &RuleSet,
    threshold: f64,
    state: &DetectorState,
) -> DetectorState {
    let mut rules = Vec::with_capacity(new.rules.len());
    for nr in &new.rules {
        let Some(ori) = old.rule_index(new.class_name(nr.class)) else {
            rules.push(Vec::new());
            continue;
        };
        let or = &old.rules[ori];
        let entries = state.rules.get(ori).cloned().unwrap_or_default();
        let same_domains = or.domains.len() == nr.domains.len()
            && or
                .domains
                .iter()
                .zip(&nr.domains)
                .all(|(a, b)| a.name == b.name);
        if same_domains {
            rules.push(entries);
            continue;
        }
        // Old evidence bit → new evidence bit, by domain name.
        let bit_map: Vec<Option<usize>> = or
            .domains
            .iter()
            .map(|od| nr.domains.iter().position(|nd| nd.name == od.name))
            .collect();
        let required = nr.required(threshold) as u32;
        let mut remapped = Vec::with_capacity(entries.len());
        for e in entries {
            let mut mask = 0u64;
            for (odi, slot) in bit_map.iter().enumerate() {
                if e.mask & (1u64 << odi) != 0 {
                    if let Some(ndi) = slot {
                        mask |= 1u64 << ndi;
                    }
                }
            }
            if mask == 0 {
                continue;
            }
            let first_met = e.first_met.filter(|_| mask.count_ones() >= required);
            remapped.push(LineEvidence {
                line: e.line,
                mask,
                first_met,
            });
        }
        rules.push(remapped);
    }
    DetectorState { rules }
}

/// Carry usage-tracker windows across a rule-set swap. Usage tallies
/// are per rule (not per domain), so a rule matched by class name keeps
/// its window verbatim; unmatched rules start empty.
pub fn migrate_usage_state(old: &RuleSet, new: &RuleSet, state: &UsageState) -> UsageState {
    let map: Vec<Option<usize>> = new
        .rules
        .iter()
        .map(|nr| old.rule_index(new.class_name(nr.class)))
        .collect();
    UsageState {
        packets: map
            .iter()
            .map(|o| {
                o.and_then(|ori| state.packets.get(ori).cloned())
                    .unwrap_or_default()
            })
            .collect(),
        indicator: map
            .iter()
            .map(|o| {
                o.and_then(|ori| state.indicator.get(ori).cloned())
                    .unwrap_or_default()
            })
            .collect(),
    }
}

/// Carry staleness baselines across a rule-set swap: `(rule, domain)`
/// slots are rekeyed through `(class name, domain name)`; slots for
/// vanished rules or domains are dropped, and the baselines themselves
/// travel bit-identical.
pub fn migrate_staleness_state(
    old: &RuleSet,
    new: &RuleSet,
    state: &StalenessState,
) -> StalenessState {
    let mut remap: FastMap<(u16, u16), (u16, u16)> = FastMap::default();
    for (nri, nr) in new.rules.iter().enumerate() {
        let Some(ori) = old.rule_index(new.class_name(nr.class)) else {
            continue;
        };
        let or = &old.rules[ori];
        for (ndi, nd) in nr.domains.iter().enumerate() {
            if let Some(odi) = or.domains.iter().position(|od| od.name == nd.name) {
                remap.insert((ori as u16, odi as u16), (nri as u16, ndi as u16));
            }
        }
    }
    let rekey = |slots: &[((u16, u16), u64)]| {
        let mut out: Vec<((u16, u16), u64)> = slots
            .iter()
            .filter_map(|(k, v)| remap.get(k).map(|nk| (*nk, *v)))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    };
    let mut baseline: Vec<((u16, u16), f64)> = state
        .baseline
        .iter()
        .filter_map(|(k, v)| remap.get(k).map(|nk| (*nk, *v)))
        .collect();
    baseline.sort_unstable_by_key(|(k, _)| *k);
    StalenessState {
        today: rekey(&state.today),
        baseline,
        days_seen: state.days_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSetBuilder;
    use haystack_net::snapshot;

    fn dom(name: &str, port: u16, ip_last: u8) -> RuleDomain {
        RuleDomain {
            name: DomainName::parse(name).unwrap(),
            ports: [port].into_iter().collect(),
            ips: [Ipv4Addr::new(198, 18, 20, ip_last)].into_iter().collect(),
            usage_indicator: ip_last.is_multiple_of(2),
        }
    }

    fn sample() -> SignaturePack {
        let mut b = RuleSetBuilder::new();
        b.rule(
            "Alexa Enabled",
            DetectionLevel::Platform,
            None,
            vec![dom("avs.a.com", 443, 1)],
        );
        b.rule(
            "Fire TV",
            DetectionLevel::Product,
            Some("Alexa Enabled"),
            vec![dom("ftv.a.com", 443, 2), dom("ads.a.com", 8443, 3)],
        );
        b.undetectable("Google Home", Undetectable::SharedInfrastructure);
        SignaturePack {
            rules: b.build(),
            threshold: 0.4,
            source: "test".to_string(),
            comment: "hand-built".to_string(),
        }
    }

    #[test]
    fn round_trips_and_is_deterministic() {
        let pack = sample();
        let bytes = pack.encode();
        let back = SignaturePack::decode(&bytes).unwrap();
        assert_eq!(back, pack);
        assert_eq!(
            back.encode(),
            bytes,
            "export → load → export must reproduce bytes"
        );
        assert!(pack.lint().is_empty(), "{:?}", pack.lint());
    }

    /// A pack-loaded rule set compiles into a gated hitlist exactly
    /// like compiled-in rules: the fingerprint front gate is populated
    /// (not the empty-table degenerate case) and admits every rule
    /// key, so a hot-reloaded pack can never gate away its own rules.
    #[test]
    fn loaded_pack_compiles_with_a_populated_gate() {
        use crate::fasthash::mix64;
        use crate::hitlist::HitList;

        let back = SignaturePack::decode(&sample().encode()).unwrap();
        let hl = HitList::whole_window(&back.rules);
        assert!(!hl.is_empty());
        assert!(hl.prefilter_len() > 0 && hl.prefilter_len().is_power_of_two());
        for rule in &back.rules.rules {
            for d in &rule.domains {
                for ip in &d.ips {
                    for port in &d.ports {
                        let h = mix64(HitList::pack_key(*ip, *port));
                        assert!(hl.prefilter_pass(h), "gate rejected rule key {ip}:{port}");
                        assert!(!hl.lookup(*ip, *port).is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn version_skew_is_typed_and_distinguishable_from_rot() {
        let pack = sample();
        let payload = snapshot::open(SignaturePack::MAGIC, SignaturePack::VERSION, &pack.encode())
            .unwrap()
            .to_vec();
        let future = snapshot::seal(SignaturePack::MAGIC, SignaturePack::VERSION + 1, &payload);
        assert_eq!(
            SignaturePack::decode(&future),
            Err(SnapError::BadVersion {
                found: SignaturePack::VERSION + 1,
                expected: SignaturePack::VERSION
            })
        );
        // Intact frame: checksum holds, so this is genuine skew.
        assert!(snapshot::checksum_ok(&future));
        assert_eq!(
            snapshot::peek_version(&future),
            Some(SignaturePack::VERSION + 1)
        );
    }

    #[test]
    fn bit_flips_never_pass() {
        let bytes = sample().encode();
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                SignaturePack::decode(&bad).is_err(),
                "flip at {i} not caught"
            );
        }
    }

    #[test]
    fn lint_names_the_offenders() {
        let mut pack = sample();
        pack.threshold = 1.5;
        pack.rules.rules[0].domains.clear();
        pack.rules.rules[1].parent = Some(ClassId(77));
        pack.rules.rules[1].domains[0].ports.clear();
        pack.rules.rules[1].domains[1].ips.clear();
        let defects = pack.lint();
        let all = defects.join("\n");
        assert!(all.contains("threshold: 1.5"), "{all}");
        assert!(
            all.contains("rule \"Alexa Enabled\": empty domain set"),
            "{all}"
        );
        assert!(all.contains("rule \"Fire TV\": parent id 77"), "{all}");
        assert!(all.contains("domain \"ftv.a.com\": no ports"), "{all}");
        assert!(
            all.contains("domain \"ads.a.com\": no service IP evidence"),
            "{all}"
        );
        assert!(matches!(
            SignaturePack::load(&pack.encode()),
            Err(PackError::Lint(v)) if v.len() == defects.len()
        ));
    }

    #[test]
    fn lint_flags_duplicates_and_double_listing() {
        let mut pack = sample();
        let dup = pack.rules.rules[0].clone();
        let mut rules = pack.rules.rules.clone();
        rules.push(dup);
        let mut undet = pack.rules.undetectable.clone();
        undet.push((rules[1].class, Undetectable::InsufficientInfo));
        pack.rules = RuleSet::from_parts(pack.rules.classes.clone(), rules, undet);
        let all = pack.lint().join("\n");
        assert!(all.contains("\"Alexa Enabled\": duplicate rule"), "{all}");
        assert!(all.contains("\"Fire TV\": listed both"), "{all}");
    }

    #[test]
    fn decode_rejects_garbage_tags() {
        // A rule class id pointing past the class table is a codec-level
        // failure, not a lint defect.
        let pack = sample();
        let payload = snapshot::open(SignaturePack::MAGIC, 1, &pack.encode())
            .unwrap()
            .to_vec();
        // Class count is the first u64; names follow. Rebuild with an
        // empty class table but keep the rules → class out of range.
        let mut w = SnapWriter::new();
        w.put_u64(0);
        let rest = &payload[8 + classes_bytes(&pack)..];
        let mut tampered = w.into_bytes();
        tampered.extend_from_slice(rest);
        let frame = snapshot::seal(SignaturePack::MAGIC, 1, &tampered);
        assert!(matches!(
            SignaturePack::decode(&frame),
            Err(SnapError::Malformed(_)) | Err(SnapError::Truncated)
        ));
    }

    fn classes_bytes(pack: &SignaturePack) -> usize {
        pack.rules.classes.iter().map(|(_, n)| 8 + n.len()).sum()
    }

    #[test]
    fn migration_matches_by_name_and_remaps_evidence() {
        use haystack_net::{AnonId, HourBin};
        let old = sample().rules;
        // New set: "Fire TV" keeps ftv.a.com, drops ads.a.com, gains a
        // fresh domain (so masks remap); "Alexa Enabled" is dropped and
        // "Echo Dot" appears.
        let mut b = RuleSetBuilder::new();
        b.rule(
            "Fire TV",
            DetectionLevel::Product,
            None,
            vec![dom("new.a.com", 443, 9), dom("ftv.a.com", 443, 2)],
        );
        b.rule(
            "Echo Dot",
            DetectionLevel::Product,
            None,
            vec![dom("echo.a.com", 443, 4)],
        );
        let new = b.build();

        let state = DetectorState {
            rules: vec![
                // Alexa Enabled evidence: dropped wholesale.
                vec![LineEvidence {
                    line: AnonId(1),
                    mask: 0b1,
                    first_met: Some(HourBin(2)),
                }],
                // Fire TV: bit 0 = ftv.a.com (kept → new bit 1), bit 1 =
                // ads.a.com (dropped).
                vec![
                    LineEvidence {
                        line: AnonId(5),
                        mask: 0b11,
                        first_met: Some(HourBin(4)),
                    },
                    LineEvidence {
                        line: AnonId(6),
                        mask: 0b10,
                        first_met: None,
                    },
                ],
            ],
        };
        // threshold 1.0 → new Fire TV requires 2 domains.
        let migrated = migrate_detector_state(&old, &new, 1.0, &state);
        assert_eq!(migrated.rules.len(), 2);
        // Line 5 keeps only the ftv bit, and its detection hour is gone
        // because 1 < required(2). Line 6's mask emptied → dropped.
        assert_eq!(
            migrated.rules[0],
            vec![LineEvidence {
                line: AnonId(5),
                mask: 0b10,
                first_met: None
            }]
        );
        assert!(migrated.rules[1].is_empty(), "new rule starts empty");

        // At threshold 0.4 the new requirement is 1, so first_met survives.
        let lenient = migrate_detector_state(&old, &new, 0.4, &state);
        assert_eq!(lenient.rules[0][0].first_met, Some(HourBin(4)));

        let usage = UsageState {
            packets: vec![vec![(AnonId(1), 3)], vec![(AnonId(5), 9)]],
            indicator: vec![vec![AnonId(1)], vec![]],
        };
        let u = migrate_usage_state(&old, &new, &usage);
        assert_eq!(u.packets, vec![vec![(AnonId(5), 9)], vec![]]);
        assert_eq!(u.indicator, vec![vec![], Vec::<AnonId>::new()]);

        let stale = StalenessState {
            today: vec![((0, 0), 7), ((1, 0), 11), ((1, 1), 13)],
            baseline: vec![((1, 0), 0.25)],
            days_seen: 3,
        };
        let s = migrate_staleness_state(&old, &new, &stale);
        // Only (Fire TV, ftv.a.com) survives, rekeyed to (0, 1).
        assert_eq!(s.today, vec![((0, 1), 11)]);
        assert_eq!(s.baseline, vec![((0, 1), 0.25)]);
        assert_eq!(s.days_seen, 3);
    }

    #[test]
    fn migration_is_identity_for_an_unchanged_rule_set() {
        use haystack_net::{AnonId, HourBin};
        let rules = sample().rules;
        let state = DetectorState {
            rules: vec![
                vec![LineEvidence {
                    line: AnonId(2),
                    mask: 0b1,
                    first_met: Some(HourBin(0)),
                }],
                vec![LineEvidence {
                    line: AnonId(3),
                    mask: 0b11,
                    first_met: Some(HourBin(5)),
                }],
            ],
        };
        assert_eq!(migrate_detector_state(&rules, &rules, 0.4, &state), state);
    }
}
