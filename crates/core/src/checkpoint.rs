//! Crash-safe checkpointing of long-lived pipeline state (DESIGN.md §12).
//!
//! The paper's deployment runs detection over two weeks of ISP NetFlow
//! for ~15 M subscriber lines (§6) — losing the accumulated per-line
//! evidence to a collector restart or a worker crash would cost days of
//! warm-up. This module provides the two halves of recovery:
//!
//! * **State codecs** — [`DetectorState`], [`UsageState`],
//!   [`StalenessState`]: plain, order-normalized exports of the
//!   detector's per-rule line maps, the usage tracker's hour window, and
//!   the staleness monitor's decayed baselines, each encodable as one
//!   checksummed [`haystack_net::snapshot`] frame. Baselines travel as
//!   raw IEEE-754 bits, so a restore replays *bit-identical* float state.
//! * **Delta codec** — [`DetectorDelta`]: the *dirty* subset of the
//!   detector's state — every (rule, line) entry mutated since the
//!   previous snapshot, carried as absolute-value upserts. Applying a
//!   delta onto a base state replaces matching entries and inserts new
//!   ones, so deltas are idempotent and over-inclusion is harmless.
//!   [`DetectorSnapshot`] wraps either shape for paths (the supervised
//!   pool) that decide full-vs-delta per shard at snapshot time. Only
//!   the detector's evidence grows with subscriber lines; the usage
//!   window (one hour) and the staleness counters (rules × domains)
//!   are always checkpointed whole.
//! * **[`CheckpointDir`]** — generation-numbered snapshot files written
//!   atomically (temp file + fsync + rename + directory fsync) on a
//!   caller-chosen cadence, pruned to a bounded number of generations.
//!   Delta frames ([`CheckpointDir::write_delta`]) share the generation
//!   counter but live in `.dckpt` files. [`CheckpointDir::load_chain`] is
//!   the one restore path: it walks full generations newest-first,
//!   *skips* any frame the checksum rejects (a torn or bit-rotten write
//!   degrades to the previous generation instead of a crash loop),
//!   refuses a checksum-valid frame of another format version by name,
//!   and replays onto the chosen full only the deltas whose
//!   `base_generation` links to the frame below — the chain degrades to
//!   the last *consistent* generation, never to a half-applied state.
//!
//! Everything here reports through the `checkpoint` telemetry scope
//! (snapshots written, bytes, restores, corrupt generations skipped,
//! dirty entries and delta bytes flushed) so `haystack metrics` shows
//! recovery activity alongside the pipeline counters.

use crate::telemetry::{Counter, Scope};
use haystack_net::snapshot::{
    checksum_ok, open, seal, SnapError, SnapReader, SnapWriter, MAGIC_LEN,
};
use haystack_net::{AnonId, HourBin};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// A snapshot frame failed to decode.
    Snap(SnapError),
    /// A generation has a *valid checksum* but was written by a
    /// different format version — falling back would silently restore an
    /// older run, so this is a hard error naming both versions.
    VersionSkew {
        /// Generation that carries the skewed frame.
        generation: u64,
        /// Version the frame declares.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// Every on-disk full generation failed its checksum or decode; the
    /// newest generation's error is reported.
    AllCorrupt {
        /// Newest (first-tried) generation.
        generation: u64,
        /// Its decode failure.
        err: SnapError,
    },
    /// A decoded state does not fit the component it is being restored
    /// into (e.g. rule-count mismatch — the checkpoint was taken under a
    /// different rule set).
    StateMismatch(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, err } => {
                write!(f, "checkpoint I/O error at {}: {err}", path.display())
            }
            CheckpointError::Snap(e) => write!(f, "checkpoint snapshot error: {e}"),
            CheckpointError::VersionSkew { generation, found, expected } => write!(
                f,
                "checkpoint generation {generation} was written by snapshot format \
                 version {found}, but this build reads version {expected}; \
                 re-run the writing build or remove the checkpoint directory"
            ),
            CheckpointError::AllCorrupt { generation, err } => write!(
                f,
                "no usable checkpoint: every generation is corrupt \
                 (newest generation {generation}: {err})"
            ),
            CheckpointError::StateMismatch(what) => {
                write!(f, "checkpoint does not match this configuration: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SnapError> for CheckpointError {
    fn from(e: SnapError) -> Self {
        CheckpointError::Snap(e)
    }
}

fn io_err(path: &Path, err: std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.to_path_buf(), err }
}

/// `Option<HourBin>` sentinel: hours in the study window are tiny, so
/// `u32::MAX` is free to mean "never".
const NO_HOUR: u32 = u32::MAX;

fn put_opt_hour(w: &mut SnapWriter, h: Option<HourBin>) {
    w.put_u32(h.map_or(NO_HOUR, |h| h.0));
}

fn read_opt_hour(r: &mut SnapReader<'_>) -> Result<Option<HourBin>, SnapError> {
    let v = r.u32()?;
    Ok(if v == NO_HOUR { None } else { Some(HourBin(v)) })
}

/// One (line → evidence) entry of a rule's state map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEvidence {
    /// The subscriber line.
    pub line: AnonId,
    /// Evidence bitmask over the rule's domains.
    pub mask: u64,
    /// Hour the rule's own threshold was first met, if ever.
    pub first_met: Option<HourBin>,
}

/// The detector's full evidence state: one sorted entry list per rule.
///
/// Exported by [`Detector::export_state`] and restored by
/// [`Detector::restore_state`]. Entries are sorted by line, so equal
/// detectors export byte-identical frames.
///
/// [`Detector::export_state`]: crate::detector::Detector::export_state
/// [`Detector::restore_state`]: crate::detector::Detector::restore_state
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorState {
    /// Per-rule entries, indexed like `RuleSet::rules`.
    pub rules: Vec<Vec<LineEvidence>>,
}

impl DetectorState {
    /// Frame magic of a detector-state snapshot.
    pub const MAGIC: &'static [u8; MAGIC_LEN] = b"HAYDETC\0";
    /// Snapshot format version this build writes and reads.
    pub const VERSION: u32 = 1;

    /// Seal the state as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.rules.len() as u64);
        for entries in &self.rules {
            w.put_u64(entries.len() as u64);
            for e in entries {
                w.put_u64(e.line.0);
                w.put_u64(e.mask);
                put_opt_hour(&mut w, e.first_met);
            }
        }
        seal(Self::MAGIC, Self::VERSION, &w.into_bytes())
    }

    /// Decode a frame produced by [`DetectorState::encode`].
    pub fn decode(frame: &[u8]) -> Result<DetectorState, SnapError> {
        let payload = open(Self::MAGIC, Self::VERSION, frame)?;
        let mut r = SnapReader::new(payload);
        let nrules = r.count(8)?;
        let mut rules = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let n = r.count(8 + 8 + 4)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(LineEvidence {
                    line: AnonId(r.u64()?),
                    mask: r.u64()?,
                    first_met: read_opt_hour(&mut r)?,
                });
            }
            rules.push(entries);
        }
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(DetectorState { rules })
    }

    /// Total (line, rule) entries held.
    pub fn entry_count(&self) -> usize {
        self.rules.iter().map(Vec::len).sum()
    }
}

/// The usage tracker's current hour window, sorted for determinism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageState {
    /// Per-rule (line, sampled packets) tallies.
    pub packets: Vec<Vec<(AnonId, u64)>>,
    /// Per-rule lines that touched a usage-indicator domain.
    pub indicator: Vec<Vec<AnonId>>,
}

impl UsageState {
    /// Frame magic of a usage-state snapshot.
    pub const MAGIC: &'static [u8; MAGIC_LEN] = b"HAYUSGE\0";
    /// Snapshot format version this build writes and reads.
    pub const VERSION: u32 = 1;

    /// Seal the state as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.packets.len() as u64);
        for entries in &self.packets {
            w.put_u64(entries.len() as u64);
            for (line, pkts) in entries {
                w.put_u64(line.0);
                w.put_u64(*pkts);
            }
        }
        w.put_u64(self.indicator.len() as u64);
        for lines in &self.indicator {
            w.put_u64(lines.len() as u64);
            for line in lines {
                w.put_u64(line.0);
            }
        }
        seal(Self::MAGIC, Self::VERSION, &w.into_bytes())
    }

    /// Decode a frame produced by [`UsageState::encode`].
    pub fn decode(frame: &[u8]) -> Result<UsageState, SnapError> {
        let payload = open(Self::MAGIC, Self::VERSION, frame)?;
        let mut r = SnapReader::new(payload);
        let nrules = r.count(8)?;
        let mut packets = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let n = r.count(16)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((AnonId(r.u64()?), r.u64()?));
            }
            packets.push(entries);
        }
        let nrules = r.count(8)?;
        let mut indicator = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let n = r.count(8)?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                lines.push(AnonId(r.u64()?));
            }
            indicator.push(lines);
        }
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(UsageState { packets, indicator })
    }
}

/// The staleness monitor's day counts and decayed baselines.
///
/// Baselines are carried as raw `f64` bits: the decayed mean depends on
/// the exact order of float folds, and a resumed monitor must continue
/// from *bit-identical* values to produce the same verdicts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StalenessState {
    /// Sorted ((rule, domain), today's matched packets).
    pub today: Vec<((u16, u16), u64)>,
    /// Sorted ((rule, domain), decayed baseline).
    pub baseline: Vec<((u16, u16), f64)>,
    /// Days folded so far.
    pub days_seen: u32,
}

impl StalenessState {
    /// Frame magic of a staleness-state snapshot.
    pub const MAGIC: &'static [u8; MAGIC_LEN] = b"HAYSTAL\0";
    /// Snapshot format version this build writes and reads.
    pub const VERSION: u32 = 1;

    /// Seal the state as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u32(self.days_seen);
        w.put_u64(self.today.len() as u64);
        for ((ri, di), pkts) in &self.today {
            w.put_u16(*ri);
            w.put_u16(*di);
            w.put_u64(*pkts);
        }
        w.put_u64(self.baseline.len() as u64);
        for ((ri, di), b) in &self.baseline {
            w.put_u16(*ri);
            w.put_u16(*di);
            w.put_f64_bits(*b);
        }
        seal(Self::MAGIC, Self::VERSION, &w.into_bytes())
    }

    /// Decode a frame produced by [`StalenessState::encode`].
    pub fn decode(frame: &[u8]) -> Result<StalenessState, SnapError> {
        let payload = open(Self::MAGIC, Self::VERSION, frame)?;
        let mut r = SnapReader::new(payload);
        let days_seen = r.u32()?;
        let n = r.count(12)?;
        let mut today = Vec::with_capacity(n);
        for _ in 0..n {
            today.push(((r.u16()?, r.u16()?), r.u64()?));
        }
        let n = r.count(12)?;
        let mut baseline = Vec::with_capacity(n);
        for _ in 0..n {
            baseline.push(((r.u16()?, r.u16()?), r.f64_bits()?));
        }
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(StalenessState { today, baseline, days_seen })
    }
}

/// Merge sorted absolute-value upserts into a sorted base list: an
/// upsert whose key already exists replaces the base entry, a new key is
/// inserted in order. Both inputs sorted by `key` → output sorted.
fn merge_upserts<T: Copy, K: Ord>(base: &mut Vec<T>, upserts: &[T], key: impl Fn(&T) -> K) {
    if upserts.is_empty() {
        return;
    }
    let mut merged = Vec::with_capacity(base.len() + upserts.len());
    let (mut i, mut j) = (0, 0);
    while i < base.len() && j < upserts.len() {
        match key(&base[i]).cmp(&key(&upserts[j])) {
            std::cmp::Ordering::Less => {
                merged.push(base[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(upserts[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(upserts[j]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&base[i..]);
    merged.extend_from_slice(&upserts[j..]);
    *base = merged;
}

/// The detector's *dirty* evidence: every (line, rule) entry mutated
/// since the previous snapshot, as absolute-value upserts.
///
/// Each upsert carries the entry's full current value (not an
/// increment), so applying a delta twice, or one that over-includes,
/// is harmless; applied in order onto their base, a chain of deltas
/// reconstructs the exact state at the last one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorDelta {
    /// Per-rule upserts, indexed like `RuleSet::rules`, sorted by line.
    pub rules: Vec<Vec<LineEvidence>>,
}

impl DetectorDelta {
    /// Frame magic of a detector-delta snapshot.
    pub const MAGIC: &'static [u8; MAGIC_LEN] = b"HAYDETD\0";
    /// Snapshot format version this build writes and reads.
    pub const VERSION: u32 = 1;

    /// Seal the delta as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.rules.len() as u64);
        for entries in &self.rules {
            w.put_u64(entries.len() as u64);
            for e in entries {
                w.put_u64(e.line.0);
                w.put_u64(e.mask);
                put_opt_hour(&mut w, e.first_met);
            }
        }
        seal(Self::MAGIC, Self::VERSION, &w.into_bytes())
    }

    /// Decode a frame produced by [`DetectorDelta::encode`].
    pub fn decode(frame: &[u8]) -> Result<DetectorDelta, SnapError> {
        let payload = open(Self::MAGIC, Self::VERSION, frame)?;
        let mut r = SnapReader::new(payload);
        let nrules = r.count(8)?;
        let mut rules = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let n = r.count(8 + 8 + 4)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(LineEvidence {
                    line: AnonId(r.u64()?),
                    mask: r.u64()?,
                    first_met: read_opt_hour(&mut r)?,
                });
            }
            rules.push(entries);
        }
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(DetectorDelta { rules })
    }

    /// Apply the delta's upserts onto `state`.
    pub fn apply(&self, state: &mut DetectorState) -> Result<(), CheckpointError> {
        if state.rules.len() != self.rules.len() {
            return Err(CheckpointError::StateMismatch("delta rule count"));
        }
        for (base, upserts) in state.rules.iter_mut().zip(&self.rules) {
            merge_upserts(base, upserts, |e| e.line);
        }
        Ok(())
    }

    /// Total (line, rule) upserts carried.
    pub fn entry_count(&self) -> usize {
        self.rules.iter().map(Vec::len).sum()
    }
}

/// One per-shard snapshot as the supervised pool hands it out: a full
/// state when the shard could not bound its dirty set (fresh, reset, or
/// restored since the last snapshot), a delta otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorSnapshot {
    /// The complete evidence state — replaces the base outright.
    Full(DetectorState),
    /// Dirty-only upserts since the previous snapshot.
    Delta(DetectorDelta),
}

impl DetectorSnapshot {
    /// Seal the snapshot as one frame (the wrapped codec's own magic
    /// makes the two shapes self-describing).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            DetectorSnapshot::Full(s) => s.encode(),
            DetectorSnapshot::Delta(d) => d.encode(),
        }
    }

    /// Decode either shape, dispatching on the frame magic.
    pub fn decode(frame: &[u8]) -> Result<DetectorSnapshot, SnapError> {
        if frame.len() >= MAGIC_LEN && frame[..MAGIC_LEN] == DetectorState::MAGIC[..] {
            Ok(DetectorSnapshot::Full(DetectorState::decode(frame)?))
        } else {
            Ok(DetectorSnapshot::Delta(DetectorDelta::decode(frame)?))
        }
    }

    /// Whether this is a full state.
    pub fn is_full(&self) -> bool {
        matches!(self, DetectorSnapshot::Full(_))
    }

    /// Total (line, rule) entries carried.
    pub fn entry_count(&self) -> usize {
        match self {
            DetectorSnapshot::Full(s) => s.entry_count(),
            DetectorSnapshot::Delta(d) => d.entry_count(),
        }
    }

    /// Fold the snapshot into `base`: a full replaces it, a delta
    /// upserts into it.
    pub fn apply_to(&self, base: &mut DetectorState) -> Result<(), CheckpointError> {
        match self {
            DetectorSnapshot::Full(s) => {
                *base = s.clone();
                Ok(())
            }
            DetectorSnapshot::Delta(d) => d.apply(base),
        }
    }
}

/// Telemetry handles for checkpoint activity, bound once at
/// [`CheckpointDir::open`] under the `checkpoint` scope.
#[derive(Debug, Clone)]
struct DirTelemetry {
    snapshots_written: Counter,
    snapshot_bytes: Counter,
    restores: Counter,
    corrupt_skipped: Counter,
    dirty_entries: Counter,
    delta_bytes: Counter,
}

impl DirTelemetry {
    fn new() -> DirTelemetry {
        let scope = Scope::named("checkpoint");
        DirTelemetry {
            snapshots_written: scope.counter("snapshots_written"),
            snapshot_bytes: scope.counter("snapshot_bytes"),
            restores: scope.counter("restores"),
            corrupt_skipped: scope.counter("corrupt_skipped"),
            dirty_entries: scope.counter("dirty_entries"),
            delta_bytes: scope.counter("delta_bytes"),
        }
    }
}

/// A disk fault injected into the next atomic write — how the
/// fault-robustness tests prove a full device or a crash mid-write
/// surfaces as a typed [`CheckpointError`] with every earlier
/// generation still loadable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The device fills mid-write: half the frame lands in the temp
    /// file, then the write fails with `ENOSPC`.
    Enospc,
    /// A crash between the temp-file write and the rename: a truncated
    /// `.tmp` remnant stays on disk and no generation becomes visible.
    TornWrite,
}

/// A directory of generation-numbered snapshot files.
///
/// Each [`CheckpointDir::write`] produces `{prefix}-{generation:08}.ckpt`
/// via temp file + fsync + rename + directory fsync, so a crash at any
/// point leaves either the old generation set or the old set plus one
/// complete new file — never a half-written visible checkpoint. Old
/// generations are pruned down to [`CheckpointDir::DEFAULT_KEEP`] per
/// prefix: two, so one corrupt latest generation still leaves a fallback.
#[derive(Debug)]
pub struct CheckpointDir {
    root: PathBuf,
    telemetry: DirTelemetry,
    /// One-shot injected fault, consumed by the next atomic write.
    fault: std::sync::Mutex<Option<WriteFault>>,
}

impl CheckpointDir {
    /// Generations retained per prefix.
    pub const DEFAULT_KEEP: usize = 2;

    /// Open (creating if needed) a checkpoint directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<CheckpointDir, CheckpointError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        Ok(CheckpointDir {
            root,
            telemetry: DirTelemetry::new(),
            fault: std::sync::Mutex::new(None),
        })
    }

    /// The directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn file_of(&self, prefix: &str, generation: u64) -> PathBuf {
        self.root.join(format!("{prefix}-{generation:08}.ckpt"))
    }

    fn delta_file_of(&self, prefix: &str, generation: u64) -> PathBuf {
        self.root.join(format!("{prefix}-{generation:08}.dckpt"))
    }

    fn scan_generations(&self, prefix: &str, suffix: &str) -> Result<Vec<u64>, CheckpointError> {
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| io_err(&self.root, e))?;
        let lead = format!("{prefix}-");
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.root, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&lead) else { continue };
            let Some(digits) = rest.strip_suffix(suffix) else { continue };
            if digits.len() == 8 {
                if let Ok(generation) = digits.parse::<u64>() {
                    out.push(generation);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Existing *full* generation numbers for `prefix`, ascending.
    pub fn generations(&self, prefix: &str) -> Result<Vec<u64>, CheckpointError> {
        self.scan_generations(prefix, ".ckpt")
    }

    /// Existing *delta* generation numbers for `prefix`, ascending.
    /// Fulls and deltas share one generation counter, so the combined
    /// sequence totally orders the chain.
    pub fn delta_generations(&self, prefix: &str) -> Result<Vec<u64>, CheckpointError> {
        self.scan_generations(prefix, ".dckpt")
    }

    /// The generation number the next write (full or delta) gets.
    fn next_generation(&self, prefix: &str) -> Result<u64, CheckpointError> {
        let full = self.generations(prefix)?.last().copied();
        let delta = self.delta_generations(prefix)?.last().copied();
        Ok(full.max(delta).map_or(0, |g| g + 1))
    }

    /// Arm a one-shot [`WriteFault`]: the next [`CheckpointDir::write`]
    /// or [`CheckpointDir::write_delta`] fails the injected way instead
    /// of completing. Test-only by intent, but compiled in — chaos
    /// harnesses arm it through the normal API.
    pub fn inject_write_fault(&self, fault: WriteFault) {
        *self.fault.lock().expect("fault lock") = Some(fault);
    }

    fn write_atomic(&self, path: &Path, tmp: &Path, frame: &[u8]) -> Result<(), CheckpointError> {
        {
            let mut f = fs::File::create(tmp).map_err(|e| io_err(tmp, e))?;
            if let Some(fault) = self.fault.lock().expect("fault lock").take() {
                // Both faults leave a truncated tmp remnant, exactly as
                // the real failure would; only the reported error
                // differs. The remnant must be invisible to generation
                // scans and the next write must overwrite it.
                let cut = frame.len() / 2;
                f.write_all(&frame[..cut]).map_err(|e| io_err(tmp, e))?;
                let _ = f.sync_all();
                return Err(match fault {
                    WriteFault::Enospc => {
                        io_err(tmp, std::io::Error::from_raw_os_error(28)) // ENOSPC
                    }
                    WriteFault::TornWrite => {
                        io_err(tmp, std::io::Error::other("simulated crash before rename"))
                    }
                });
            }
            f.write_all(frame).map_err(|e| io_err(tmp, e))?;
            f.sync_all().map_err(|e| io_err(tmp, e))?;
        }
        fs::rename(tmp, path).map_err(|e| io_err(path, e))?;
        // Persist the rename itself: fsync the directory (best effort on
        // platforms where directories cannot be opened).
        if let Ok(dir) = fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Atomically write `frame` as the next *full* generation of
    /// `prefix`, pruning old generations beyond the retention bound
    /// (deltas older than the oldest retained full go with them).
    /// Returns the generation number written.
    pub fn write(&self, prefix: &str, frame: &[u8]) -> Result<u64, CheckpointError> {
        let generation = self.next_generation(prefix)?;
        let path = self.file_of(prefix, generation);
        let tmp = path.with_extension("ckpt.tmp");
        self.write_atomic(&path, &tmp, frame)?;
        self.telemetry.snapshots_written.inc();
        self.telemetry.snapshot_bytes.add(frame.len() as u64);
        self.prune(prefix)?;
        Ok(generation)
    }

    /// Atomically write `frame` as the next *delta* generation of
    /// `prefix`. `dirty_entries` is the number of dirty entries encoded
    /// in the frame, counted into `checkpoint.dirty_entries` (the
    /// conservation invariant: dirty flushed == entries encoded);
    /// `checkpoint.delta_bytes` accrues the frame size. Deltas are not
    /// pruned here — they fall when a full write prunes past them.
    pub fn write_delta(
        &self,
        prefix: &str,
        frame: &[u8],
        dirty_entries: u64,
    ) -> Result<u64, CheckpointError> {
        let generation = self.next_generation(prefix)?;
        let path = self.delta_file_of(prefix, generation);
        let tmp = path.with_extension("dckpt.tmp");
        self.write_atomic(&path, &tmp, frame)?;
        self.telemetry.dirty_entries.add(dirty_entries);
        self.telemetry.delta_bytes.add(frame.len() as u64);
        Ok(generation)
    }

    fn prune(&self, prefix: &str) -> Result<(), CheckpointError> {
        let generations = self.generations(prefix)?;
        if generations.len() > Self::DEFAULT_KEEP {
            for &generation in &generations[..generations.len() - Self::DEFAULT_KEEP] {
                let path = self.file_of(prefix, generation);
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
        // Deltas older than the oldest retained full can never be
        // replayed (chains start at a full generation) — drop them.
        if let Some(&oldest_full) = self.generations(prefix)?.first() {
            for dg in self.delta_generations(prefix)? {
                if dg < oldest_full {
                    let path = self.delta_file_of(prefix, dg);
                    fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                }
            }
        }
        Ok(())
    }

    /// Restore the newest consistent full+delta chain of `prefix` — the
    /// one loader every resume path goes through.
    ///
    /// Fulls are tried newest-first. A frame that fails to decode
    /// (truncated by a torn write, bit-flipped on disk) is *skipped* —
    /// counted in `checkpoint.corrupt_skipped` — and the previous full is
    /// tried instead; a frame whose **checksum verifies** but whose
    /// version differs is genuine skew and a hard
    /// [`CheckpointError::VersionSkew`] naming the generation, never a
    /// silent fallback to an older run. Onto the chosen full, newer
    /// deltas are applied in generation order, each only if the
    /// `base_generation` that `decode_delta` returns beside it names the
    /// frame directly below. A delta frame carries what changed *since
    /// its base* (a run delta's new stdout lines, for one), so a delta
    /// orphaned by a corrupt full, or one that is itself unreadable,
    /// stops the chain: the caller gets the last *consistent* generation.
    /// A prefix that never writes deltas is simply a chain of length one.
    ///
    /// Returns `(generation, value)` where `generation` is the highest
    /// frame folded in, `Ok(None)` when no full generation exists, and
    /// [`CheckpointError::AllCorrupt`] with the newest generation's error
    /// when every full is corrupt.
    pub fn load_chain<T, D>(
        &self,
        prefix: &str,
        mut decode_full: impl FnMut(&[u8]) -> Result<T, SnapError>,
        mut decode_delta: impl FnMut(&[u8]) -> Result<(u64, D), SnapError>,
        mut apply: impl FnMut(&mut T, D) -> Result<(), CheckpointError>,
    ) -> Result<Option<(u64, T)>, CheckpointError> {
        let skew = |generation: u64, frame: &[u8], e: &SnapError| match *e {
            SnapError::BadVersion { found, expected } if checksum_ok(frame) => {
                Err(CheckpointError::VersionSkew { generation, found, expected })
            }
            _ => Ok(()),
        };
        let deltas = self.delta_generations(prefix)?;
        let mut newest_err: Option<(u64, SnapError)> = None;
        for &generation in self.generations(prefix)?.iter().rev() {
            let path = self.file_of(prefix, generation);
            let frame = fs::read(&path).map_err(|e| io_err(&path, e))?;
            let mut value = match decode_full(&frame) {
                Ok(value) => value,
                Err(e) => {
                    skew(generation, &frame, &e)?;
                    self.telemetry.corrupt_skipped.inc();
                    newest_err.get_or_insert((generation, e));
                    continue;
                }
            };
            self.telemetry.restores.inc();
            let mut top = generation;
            for &dg in deltas.iter().filter(|&&dg| dg > generation) {
                // An unreadable delta reads as an empty frame, which
                // fails to decode like any torn one.
                let frame = fs::read(self.delta_file_of(prefix, dg)).unwrap_or_default();
                match decode_delta(&frame) {
                    Ok((base, delta)) if base == top => {
                        if apply(&mut value, delta).is_err() {
                            break;
                        }
                        top = dg;
                    }
                    // Chains onto a frame this walk did not restore.
                    Ok(_) => break,
                    Err(e) => {
                        skew(dg, &frame, &e)?;
                        self.telemetry.corrupt_skipped.inc();
                        break;
                    }
                }
            }
            return Ok(Some((top, value)));
        }
        match newest_err {
            Some((generation, err)) => Err(CheckpointError::AllCorrupt { generation, err }),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test (no tempfile dependency).
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "haystack-ckpt-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ))
    }

    fn sample_detector_state() -> DetectorState {
        DetectorState {
            rules: vec![
                vec![
                    LineEvidence { line: AnonId(1), mask: 0b101, first_met: Some(HourBin(7)) },
                    LineEvidence { line: AnonId(9), mask: 0b1, first_met: None },
                ],
                vec![],
                vec![LineEvidence { line: AnonId(3), mask: u64::MAX, first_met: Some(HourBin(0)) }],
            ],
        }
    }

    #[test]
    fn detector_state_round_trips() {
        let s = sample_detector_state();
        assert_eq!(DetectorState::decode(&s.encode()).unwrap(), s);
        assert_eq!(s.entry_count(), 3);
    }

    #[test]
    fn usage_state_round_trips() {
        let s = UsageState {
            packets: vec![vec![(AnonId(1), 12), (AnonId(2), 1)], vec![]],
            indicator: vec![vec![AnonId(2)], vec![AnonId(5)]],
        };
        assert_eq!(UsageState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn staleness_state_round_trips_bit_exact() {
        let s = StalenessState {
            today: vec![((0, 0), 42), ((0, 1), 0)],
            baseline: vec![((0, 0), 1.0 / 3.0), ((0, 1), -0.0)],
            days_seen: 5,
        };
        let back = StalenessState::decode(&s.encode()).unwrap();
        assert_eq!(back.days_seen, 5);
        assert_eq!(back.today, s.today);
        for (a, b) in back.baseline.iter().zip(&s.baseline) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "baselines must be bit-identical");
        }
    }

    #[test]
    fn state_magics_are_disjoint() {
        let det = sample_detector_state().encode();
        assert!(matches!(UsageState::decode(&det), Err(SnapError::BadMagic)));
        assert!(matches!(StalenessState::decode(&det), Err(SnapError::BadMagic)));
    }

    #[test]
    fn write_load_and_prune_generations() {
        let root = scratch("gen");
        let dir = CheckpointDir::open(&root).unwrap();
        for i in 0..4u64 {
            let s = DetectorState {
                rules: vec![vec![LineEvidence { line: AnonId(i), mask: i, first_met: None }]],
            };
            assert_eq!(dir.write("det", &s.encode()).unwrap(), i);
        }
        // Pruned to the default two generations.
        assert_eq!(dir.generations("det").unwrap(), vec![2, 3]);
        let (generation, s) = load_chain(&dir).unwrap().expect("latest generation");
        assert_eq!(generation, 3);
        assert_eq!(s.rules[0][0].line, AnonId(3));
        // Prefixes are independent namespaces; an empty one restores nothing.
        let other = dir.load_chain("other", DetectorState::decode, decode_linked, apply_delta);
        assert!(other.unwrap().is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_latest_generation_falls_back_to_previous() {
        let root = scratch("corrupt");
        let dir = CheckpointDir::open(&root).unwrap();
        let good = DetectorState {
            rules: vec![vec![LineEvidence { line: AnonId(7), mask: 1, first_met: None }]],
        };
        dir.write("det", &good.encode()).unwrap();
        let newer = DetectorState {
            rules: vec![vec![LineEvidence { line: AnonId(8), mask: 3, first_met: None }]],
        };
        let g1 = dir.write("det", &newer.encode()).unwrap();

        // Bit-flip the newest generation on disk.
        let latest = root.join(format!("det-{g1:08}.ckpt"));
        let mut bytes = fs::read(&latest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&latest, &bytes).unwrap();

        let (generation, s) = load_chain(&dir).unwrap().expect("fallback generation");
        assert_eq!(generation, g1 - 1, "fell back to the previous generation");
        assert_eq!(s, good);

        // Truncate the older generation too: now every generation is
        // corrupt, and the error is typed, not a panic, and names the
        // *newest* generation.
        let older = root.join(format!("det-{:08}.ckpt", g1 - 1));
        let bytes = fs::read(&older).unwrap();
        fs::write(&older, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_chain(&dir).unwrap_err();
        match &err {
            CheckpointError::AllCorrupt { generation, .. } => assert_eq!(*generation, g1),
            other => panic!("expected AllCorrupt, got {other:?}"),
        }
        assert!(err.to_string().contains(&format!("generation {g1}")), "{err}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn version_skew_is_a_hard_error_naming_the_generation() {
        let root = scratch("skew");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 1).encode()).unwrap();
        // A full from a "future" build — valid checksum, bumped version —
        // must not silently fall back to the older, readable generation.
        let future = seal(DetectorState::MAGIC, DetectorState::VERSION + 1, &[0; 8]);
        let g1 = dir.write("det", &future).unwrap();
        let err = load_chain(&dir).unwrap_err();
        match &err {
            CheckpointError::VersionSkew { generation, found, expected } => {
                assert_eq!(*generation, g1);
                assert_eq!(*found, DetectorState::VERSION + 1);
                assert_eq!(*expected, DetectorState::VERSION);
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains(&format!("generation {g1}")), "{msg}");
        assert!(msg.contains("version 2"), "{msg}");
        // The same holds for a skewed *delta* on top of a good full.
        fs::remove_file(root.join(format!("det-{g1:08}.ckpt"))).unwrap();
        let g2 = dir.write_delta("det", &seal(LINK_MAGIC, 2, &[0; 8]), 0).unwrap();
        match load_chain(&dir).unwrap_err() {
            CheckpointError::VersionSkew { generation, found, .. } => {
                assert_eq!((generation, found), (g2, 2));
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn detector_delta_round_trips_and_applies_as_upserts() {
        let mut base = sample_detector_state();
        let delta = DetectorDelta {
            rules: vec![
                vec![
                    // Replaces the existing line-1 entry…
                    LineEvidence { line: AnonId(1), mask: 0b111, first_met: Some(HourBin(9)) },
                    // …and inserts a new line between 1 and 9.
                    LineEvidence { line: AnonId(4), mask: 0b10, first_met: None },
                ],
                vec![LineEvidence { line: AnonId(2), mask: 1, first_met: None }],
                vec![],
            ],
        };
        assert_eq!(DetectorDelta::decode(&delta.encode()).unwrap(), delta);
        assert_eq!(delta.entry_count(), 3);
        delta.apply(&mut base).unwrap();
        assert_eq!(
            base.rules[0],
            vec![
                LineEvidence { line: AnonId(1), mask: 0b111, first_met: Some(HourBin(9)) },
                LineEvidence { line: AnonId(4), mask: 0b10, first_met: None },
                LineEvidence { line: AnonId(9), mask: 0b1, first_met: None },
            ]
        );
        assert_eq!(base.rules[1], vec![LineEvidence { line: AnonId(2), mask: 1, first_met: None }]);
        // Rule-count mismatch is a typed error, not a partial merge.
        let narrow = DetectorDelta { rules: vec![vec![]] };
        assert!(matches!(
            narrow.apply(&mut base),
            Err(CheckpointError::StateMismatch(_))
        ));
    }

    #[test]
    fn snapshot_enum_decodes_either_shape_by_magic() {
        let full = DetectorSnapshot::Full(sample_detector_state());
        let delta = DetectorSnapshot::Delta(DetectorDelta {
            rules: vec![vec![LineEvidence { line: AnonId(5), mask: 2, first_met: None }]],
        });
        assert_eq!(DetectorSnapshot::decode(&full.encode()).unwrap(), full);
        assert_eq!(DetectorSnapshot::decode(&delta.encode()).unwrap(), delta);
        assert!(full.is_full());
        assert!(!delta.is_full());
    }

    fn one_entry(line: u64, mask: u64) -> DetectorState {
        DetectorState {
            rules: vec![vec![LineEvidence { line: AnonId(line), mask, first_met: None }]],
        }
    }

    fn one_upsert(line: u64, mask: u64) -> DetectorDelta {
        DetectorDelta {
            rules: vec![vec![LineEvidence { line: AnonId(line), mask, first_met: None }]],
        }
    }

    /// The test chain's delta frame: a `base_generation` link in front of
    /// a [`DetectorDelta`], as `RunDelta` carries one in front of its
    /// shard snapshots.
    const LINK_MAGIC: &[u8; MAGIC_LEN] = b"HAYTLNK\0";

    fn linked(base: u64, line: u64, mask: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(base);
        w.put_bytes(&one_upsert(line, mask).encode());
        seal(LINK_MAGIC, 1, &w.into_bytes())
    }

    fn decode_linked(frame: &[u8]) -> Result<(u64, DetectorDelta), SnapError> {
        let mut r = SnapReader::new(open(LINK_MAGIC, 1, frame)?);
        Ok((r.u64()?, DetectorDelta::decode(r.bytes()?)?))
    }

    fn apply_delta(s: &mut DetectorState, d: DetectorDelta) -> Result<(), CheckpointError> {
        d.apply(s)
    }

    fn load_chain(dir: &CheckpointDir) -> Result<Option<(u64, DetectorState)>, CheckpointError> {
        dir.load_chain("det", DetectorState::decode, decode_linked, apply_delta)
    }

    fn flip_a_bit(path: &Path) {
        let mut bytes = fs::read(path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x20;
        fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn full_and_delta_share_one_generation_counter() {
        let root = scratch("chain-gen");
        let dir = CheckpointDir::open(&root).unwrap();
        assert_eq!(dir.write("det", &one_entry(1, 1).encode()).unwrap(), 0);
        assert_eq!(dir.write_delta("det", &linked(0, 2, 1), 1).unwrap(), 1);
        assert_eq!(dir.write_delta("det", &linked(1, 3, 1), 1).unwrap(), 2);
        assert_eq!(dir.write("det", &one_entry(9, 9).encode()).unwrap(), 3);
        assert_eq!(dir.generations("det").unwrap(), vec![0, 3]);
        assert_eq!(dir.delta_generations("det").unwrap(), vec![1, 2]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn chain_replays_full_plus_linked_deltas_in_order() {
        let root = scratch("chain-replay");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 0b1).encode()).unwrap();
        dir.write_delta("det", &linked(0, 1, 0b11), 1).unwrap();
        dir.write_delta("det", &linked(1, 2, 0b1), 1).unwrap();
        let (generation, s) = load_chain(&dir).unwrap().expect("chain");
        assert_eq!(generation, 2, "top of chain is the newest delta");
        assert_eq!(
            s.rules[0],
            vec![
                LineEvidence { line: AnonId(1), mask: 0b11, first_met: None },
                LineEvidence { line: AnonId(2), mask: 0b1, first_met: None },
            ]
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_delta_stops_the_chain_at_the_last_consistent_generation() {
        let root = scratch("chain-corrupt-delta");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 0b1).encode()).unwrap();
        let g1 = dir.write_delta("det", &linked(0, 1, 0b11), 1).unwrap();
        let g2 = dir.write_delta("det", &linked(g1, 1, 0b111), 1).unwrap();
        // Bit-flip the middle delta: it and everything after must drop.
        flip_a_bit(&root.join(format!("det-{g1:08}.dckpt")));
        let (generation, s) = load_chain(&dir).unwrap().expect("chain");
        assert_eq!(generation, 0, "fell back to the full generation");
        assert_eq!(s, one_entry(1, 0b1));
        assert!(g2 > g1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unlinked_delta_stops_the_chain() {
        let root = scratch("chain-unlinked");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 0b1).encode()).unwrap(); // gen 0
        dir.write_delta("det", &linked(0, 1, 0b11), 1).unwrap(); // gen 1
        // Intact, but chained onto a frame that is not the one below it.
        dir.write_delta("det", &linked(7, 1, 0b111), 1).unwrap(); // gen 2
        dir.write_delta("det", &linked(2, 2, 0b1), 1).unwrap(); // gen 3
        let (generation, s) = load_chain(&dir).unwrap().expect("chain");
        assert_eq!(generation, 1, "nothing past the unlinked delta is applied");
        assert_eq!(s, one_entry(1, 0b11));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_full_orphans_the_deltas_chained_onto_it() {
        let root = scratch("chain-corrupt-full");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 0b1).encode()).unwrap(); // gen 0
        dir.write_delta("det", &linked(0, 1, 0b11), 1).unwrap(); // gen 1
        let g2 = dir.write("det", &one_entry(1, 0b11).encode()).unwrap(); // gen 2
        dir.write_delta("det", &linked(g2, 2, 0b1), 1).unwrap(); // gen 3
        // Corrupt the newest full: the delta written after it links to a
        // frame the walk cannot restore, so the chain ends below it.
        flip_a_bit(&root.join(format!("det-{g2:08}.ckpt")));
        let (generation, s) = load_chain(&dir).unwrap().expect("chain");
        assert_eq!(generation, 1, "resume stops at the last consistent frame");
        assert_eq!(s, one_entry(1, 0b11));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn full_write_prunes_deltas_older_than_the_oldest_retained_full() {
        let root = scratch("chain-prune");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 1).encode()).unwrap(); // gen 0
        dir.write_delta("det", &linked(0, 2, 1), 1).unwrap(); // gen 1
        dir.write("det", &one_entry(1, 1).encode()).unwrap(); // gen 2
        dir.write_delta("det", &linked(2, 3, 1), 1).unwrap(); // gen 3
        dir.write("det", &one_entry(1, 1).encode()).unwrap(); // gen 4 → prunes gen 0
        // keep=2 retains fulls {2, 4}; the gen-1 delta predates full 2.
        assert_eq!(dir.generations("det").unwrap(), vec![2, 4]);
        assert_eq!(dir.delta_generations("det").unwrap(), vec![3]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn no_tmp_files_survive_a_write() {
        let root = scratch("tmp");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &sample_detector_state().encode()).unwrap();
        dir.write_delta("det", &linked(0, 1, 1), 1).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must not outlive a write");
        fs::remove_dir_all(&root).unwrap();
    }

    fn tmp_remnants(root: &Path) -> Vec<String> {
        let mut out: Vec<String> = fs::read_dir(root)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn enospc_is_a_typed_error_and_the_previous_generation_survives() {
        let root = scratch("enospc");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 1).encode()).unwrap(); // gen 0

        dir.inject_write_fault(WriteFault::Enospc);
        let err = dir.write("det", &one_entry(2, 3).encode()).unwrap_err();
        match err {
            CheckpointError::Io { err, .. } => {
                assert_eq!(err.raw_os_error(), Some(28), "surfaces ENOSPC, not a panic")
            }
            other => panic!("expected Io, got {other:?}"),
        }
        // No new generation became visible; the old one still loads.
        assert_eq!(dir.generations("det").unwrap(), vec![0]);
        let (generation, state) = load_chain(&dir).unwrap().expect("gen 0 loads");
        assert_eq!((generation, state), (0, one_entry(1, 1)));
        // The fault is one-shot: the retry lands as generation 1.
        assert_eq!(dir.write("det", &one_entry(2, 3).encode()).unwrap(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tmp_remnant_is_invisible_to_scans_and_chain_loads() {
        let root = scratch("torn");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 1).encode()).unwrap(); // gen 0
        dir.write_delta("det", &linked(0, 2, 1), 1).unwrap(); // gen 1

        dir.inject_write_fault(WriteFault::TornWrite);
        let err = dir.write_delta("det", &linked(1, 3, 1), 1).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "typed error, not a panic");
        // The crash left a truncated tmp remnant on disk…
        assert_eq!(tmp_remnants(&root), vec!["det-00000002.dckpt.tmp".to_string()]);
        // …which generation scans and chain loads never see.
        assert_eq!(dir.generations("det").unwrap(), vec![0]);
        assert_eq!(dir.delta_generations("det").unwrap(), vec![1]);
        let (top, state) = load_chain(&dir).unwrap().expect("chain loads");
        assert_eq!(top, 1);
        assert_eq!(state.rules[0].len(), 2, "gen 0 entry plus the gen 1 upsert");
        // The next write overwrites the remnant and completes normally.
        assert_eq!(dir.write_delta("det", &linked(1, 3, 1), 1).unwrap(), 2);
        assert_eq!(tmp_remnants(&root), Vec::<String>::new());
        assert_eq!(load_chain(&dir).unwrap().unwrap().0, 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_full_write_degrades_to_the_previous_full() {
        let root = scratch("torn-full");
        let dir = CheckpointDir::open(&root).unwrap();
        dir.write("det", &one_entry(1, 1).encode()).unwrap(); // gen 0
        dir.inject_write_fault(WriteFault::TornWrite);
        dir.write("det", &one_entry(9, 9).encode()).unwrap_err();
        assert_eq!(tmp_remnants(&root), vec!["det-00000001.ckpt.tmp".to_string()]);
        let (generation, state) = load_chain(&dir).unwrap().expect("previous full loads");
        assert_eq!((generation, state), (0, one_entry(1, 1)));
        fs::remove_dir_all(&root).unwrap();
    }
}
