//! Resumable runs: the run-level checkpoint chain `haystack detect` and
//! `haystack soak` persist under `--checkpoint-dir`, and the one driver
//! ([`ResumableRun`]) both commands stream through (DESIGN.md §12).
//!
//! One [`RunCheckpoint`] frame captures everything a killed run needs to
//! continue byte-identically:
//!
//! * the **configuration** the run was started with — a resumed run uses
//!   the checkpointed config, so flag drift between invocations cannot
//!   silently change the stream being generated;
//! * the **watermark** (`day`, `hour`, `chunk`) of the next chunk to
//!   process — generation is deterministic and chunking-invariant, so
//!   the resumed run regenerates the watermark hour and skips the
//!   already-processed prefix;
//! * every stdout line **emitted** so far — re-printed on resume, so the
//!   concatenation rule is trivial: a resumed run's stdout equals an
//!   uninterrupted run's stdout, full stop (the `kill_resume`
//!   integration test diffs them byte for byte);
//! * the per-shard **detector states**, exported by the worker pool.
//!
//! The frame rides the `haystack-net` snapshot codec: versioned magic,
//! length header, FNV-1a checksum. Between periodic full frames a run
//! writes dirty-only [`RunDelta`]s; `CheckpointDir::load_chain` restores
//! the newest consistent full+delta chain and falls back past any frame
//! the checksum rejects.

use crate::{cli_error, note, num, sig};
use haystack_core::detector::DetectorConfig;
use haystack_core::hitlist::HitList;
use haystack_core::parallel::DetectorPool;
use haystack_core::rules::RuleSet;
use haystack_core::{CheckpointDir, CheckpointError, DetectorSnapshot, DetectorState};
use haystack_net::snapshot::{open, seal, SnapError, SnapReader, SnapWriter, MAGIC_LEN};
use haystack_wild::{skip_chunks, RecordChunk, RecordStream, Watermark, DEFAULT_CHUNK_RECORDS};
use std::collections::HashMap;
use std::fmt;
use std::process::exit;
use std::time::Instant;

/// Everything needed to resume an interrupted `haystack detect` run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// `--seed` of the interrupted run.
    pub seed: u64,
    /// `--lines` of the interrupted run.
    pub lines: u32,
    /// `--days` of the interrupted run.
    pub days: u32,
    /// `--threshold` of the interrupted run.
    pub threshold: f64,
    /// `--workers` of the interrupted run (shard states are per-shard,
    /// so the resumed pool must match).
    pub workers: u32,
    /// Stream chunk size (watermark chunks are counted in this unit).
    pub chunk_records: u64,
    /// Next chunk to process.
    pub watermark: Watermark,
    /// Records already streamed in the watermark's day (the day-summary
    /// note continues from here).
    pub records_this_day: u64,
    /// Whether the run had already completed when this was written.
    pub done: bool,
    /// Stdout lines already printed, re-printed verbatim on resume.
    pub emitted: Vec<String>,
    /// Per-shard detector evidence as of the watermark.
    pub shards: Vec<DetectorState>,
}

impl RunCheckpoint {
    /// Frame magic of a run checkpoint.
    pub const MAGIC: &'static [u8; MAGIC_LEN] = b"HAYRUNC\0";
    /// Snapshot format version this build writes and reads.
    pub const VERSION: u32 = 1;
    /// File prefix inside the checkpoint directory.
    pub const PREFIX: &'static str = "run";

    /// Seal the checkpoint as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.seed);
        w.put_u32(self.lines);
        w.put_u32(self.days);
        w.put_f64_bits(self.threshold);
        w.put_u32(self.workers);
        w.put_u64(self.chunk_records);
        w.put_u32(self.watermark.day);
        w.put_u32(self.watermark.hour);
        w.put_u64(self.watermark.chunk);
        w.put_u64(self.records_this_day);
        w.put_u8(u8::from(self.done));
        w.put_u64(self.emitted.len() as u64);
        for line in &self.emitted {
            w.put_str(line);
        }
        w.put_u64(self.shards.len() as u64);
        for shard in &self.shards {
            w.put_bytes(&shard.encode());
        }
        seal(Self::MAGIC, Self::VERSION, &w.into_bytes())
    }

    /// Decode a frame produced by [`RunCheckpoint::encode`].
    pub fn decode(frame: &[u8]) -> Result<RunCheckpoint, SnapError> {
        let payload = open(Self::MAGIC, Self::VERSION, frame)?;
        let mut r = SnapReader::new(payload);
        let seed = r.u64()?;
        let lines = r.u32()?;
        let days = r.u32()?;
        let threshold = r.f64_bits()?;
        let workers = r.u32()?;
        let chunk_records = r.u64()?;
        let watermark = Watermark {
            day: r.u32()?,
            hour: r.u32()?,
            chunk: r.u64()?,
        };
        let records_this_day = r.u64()?;
        let done = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapError::Malformed("bad done flag")),
        };
        let n_emitted = r.count(4)?;
        let mut emitted = Vec::with_capacity(n_emitted);
        for _ in 0..n_emitted {
            let s = std::str::from_utf8(r.bytes()?)
                .map_err(|_| SnapError::Malformed("emitted line is not UTF-8"))?;
            emitted.push(s.to_string());
        }
        let n_shards = r.count(4)?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(DetectorState::decode(r.bytes()?)?);
        }
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(RunCheckpoint {
            seed,
            lines,
            days,
            threshold,
            workers,
            chunk_records,
            watermark,
            records_this_day,
            done,
            emitted,
            shards,
        })
    }
}

/// An incremental run checkpoint: everything that changed since the
/// previous frame (full or delta), chained by `base_generation`.
///
/// At soak scale a full [`RunCheckpoint`] re-encodes every (line, rule)
/// evidence entry on every save; a delta carries only the watermark
/// advance, the stdout lines emitted since the previous flush, and each
/// shard's dirty-only [`DetectorSnapshot`]. The chain invariant is that
/// applying deltas in `base_generation` order onto their full base
/// reconstructs exactly the state an uninterrupted full checkpoint would
/// have captured at the last delta's watermark; a delta whose base is
/// missing or corrupt does not link, so the loader stops at the last
/// *consistent* (watermark, state) pair and re-processes the stream from
/// there — determinism makes the final output identical either way.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDelta {
    /// Generation of the frame this delta chains directly onto.
    pub base_generation: u64,
    /// Next chunk to process, as of this delta.
    pub watermark: Watermark,
    /// Records already streamed in the watermark's day.
    pub records_this_day: u64,
    /// Whether the run had completed when this was written.
    pub done: bool,
    /// Stdout lines emitted since the previous frame.
    pub emitted_new: Vec<String>,
    /// Per-shard dirty-only (or, for a healed shard, full) snapshots.
    pub shards: Vec<DetectorSnapshot>,
}

impl RunDelta {
    /// Frame magic of a run delta.
    pub const MAGIC: &'static [u8; MAGIC_LEN] = b"HAYRUND\0";
    /// Snapshot format version this build writes and reads.
    pub const VERSION: u32 = 1;

    /// Seal the delta as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.base_generation);
        w.put_u32(self.watermark.day);
        w.put_u32(self.watermark.hour);
        w.put_u64(self.watermark.chunk);
        w.put_u64(self.records_this_day);
        w.put_u8(u8::from(self.done));
        w.put_u64(self.emitted_new.len() as u64);
        for line in &self.emitted_new {
            w.put_str(line);
        }
        w.put_u64(self.shards.len() as u64);
        for shard in &self.shards {
            w.put_bytes(&shard.encode());
        }
        seal(Self::MAGIC, Self::VERSION, &w.into_bytes())
    }

    /// Decode a frame produced by [`RunDelta::encode`].
    pub fn decode(frame: &[u8]) -> Result<RunDelta, SnapError> {
        let payload = open(Self::MAGIC, Self::VERSION, frame)?;
        let mut r = SnapReader::new(payload);
        let base_generation = r.u64()?;
        let watermark = Watermark {
            day: r.u32()?,
            hour: r.u32()?,
            chunk: r.u64()?,
        };
        let records_this_day = r.u64()?;
        let done = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapError::Malformed("bad done flag")),
        };
        let n_emitted = r.count(4)?;
        let mut emitted_new = Vec::with_capacity(n_emitted);
        for _ in 0..n_emitted {
            let s = std::str::from_utf8(r.bytes()?)
                .map_err(|_| SnapError::Malformed("emitted line is not UTF-8"))?;
            emitted_new.push(s.to_string());
        }
        let n_shards = r.count(4)?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(DetectorSnapshot::decode(r.bytes()?)?);
        }
        if r.remaining() != 0 {
            return Err(SnapError::Malformed("trailing bytes"));
        }
        Ok(RunDelta {
            base_generation,
            watermark,
            records_this_day,
            done,
            emitted_new,
            shards,
        })
    }

    /// Fold this delta into its base checkpoint.
    pub fn apply(&self, ck: &mut RunCheckpoint) -> Result<(), CheckpointError> {
        if self.shards.len() != ck.shards.len() {
            return Err(CheckpointError::StateMismatch(
                "run delta shard count differs from its base checkpoint",
            ));
        }
        ck.watermark = self.watermark;
        ck.records_this_day = self.records_this_day;
        ck.done = self.done;
        ck.emitted.extend(self.emitted_new.iter().cloned());
        for (base, snap) in ck.shards.iter_mut().zip(&self.shards) {
            snap.apply_to(base)?;
        }
        Ok(())
    }
}

/// Why a checkpoint directory could not be resumed from — each variant
/// names the offending generation, so the operator knows exactly which
/// file to inspect or delete.
#[derive(Debug)]
pub enum ResumeError {
    /// The chain could not be restored: I/O, version skew, or every
    /// generation corrupt (see `CheckpointDir::load_chain`).
    Checkpoint(CheckpointError),
    /// The chain was written by the other resumable command. `detect`
    /// and `soak` share the frame format and file prefix but not the
    /// stream, so resuming one as the other would silently run the wrong
    /// traffic with `days = hours`.
    WrongCommand {
        /// Generation the chain was restored up to.
        generation: u64,
        /// Subcommand that wrote it.
        wrote: &'static str,
        /// Subcommand asked to resume it.
        resuming: &'static str,
    },
    /// An explicit command-line flag contradicts the checkpointed
    /// configuration — resuming would silently change the stream.
    Conflict {
        /// Generation the configuration was read from.
        generation: u64,
        /// The conflicting configuration field.
        field: &'static str,
        /// Value given on the command line.
        flag: String,
        /// Value recorded in the checkpoint.
        checkpoint: String,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "{e}"),
            ResumeError::WrongCommand {
                generation,
                wrote,
                resuming,
            } => write!(
                f,
                "checkpoint generation {generation} was written by `haystack {wrote}`, \
                 not `haystack {resuming}`; resume it with `haystack {wrote} --resume` \
                 or start a fresh checkpoint directory"
            ),
            ResumeError::Conflict {
                generation,
                field,
                flag,
                checkpoint,
            } => write!(
                f,
                "--{field} {flag} conflicts with checkpoint generation {generation} \
                 ({field} = {checkpoint}); drop the flag or start a fresh checkpoint directory"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        ResumeError::Checkpoint(e)
    }
}

/// Reject an explicit flag that contradicts a checkpointed field.
///
/// A resumed run (or daemon) takes its configuration from the
/// checkpoint; a flag the operator *did not pass* simply defers to it.
/// But an explicitly passed value that disagrees is a footgun — the run
/// would silently ignore it — so it fails loudly, naming the field, both
/// values, and the generation they came from.
pub fn conflict<T: std::str::FromStr + PartialEq + fmt::Display>(
    flags: &HashMap<String, String>,
    generation: u64,
    field: &'static str,
    checkpoint: T,
) -> Result<(), ResumeError> {
    let Some(flag) = flags.get(field) else {
        return Ok(());
    };
    // Values are compared *parsed*, so `--threshold 0.40` does not
    // conflict with a stored 0.4. A flag value that does not parse
    // conflicts trivially (it cannot equal the checkpoint's).
    if flag.parse::<T>().is_ok_and(|v| v == checkpoint) {
        return Ok(());
    }
    Err(ResumeError::Conflict {
        generation,
        field,
        flag: flag.clone(),
        checkpoint: checkpoint.to_string(),
    })
}

/// Unwrap, or report the error and exit 1 — a shard that could not be
/// healed, a checkpoint that could not be written, a refused resume.
pub fn or_exit<T, E: fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        cli_error!("{e}");
        exit(1);
    })
}

/// [`or_exit`], saying first what was being attempted.
pub fn fatal<T, E: fmt::Display>(what: &str, r: Result<T, E>) -> T {
    or_exit(r.map_err(|e| format!("{what}: {e}")))
}

/// Which shard backend `--isolate` selects (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolate {
    /// In-process worker threads (the default).
    Thread,
    /// One `haystack shard-worker` child process per shard.
    Process,
}

impl Isolate {
    /// The flag value that selects this backend.
    pub fn label(self) -> &'static str {
        match self {
            Isolate::Thread => "thread",
            Isolate::Process => "process",
        }
    }
}

/// Read `--isolate` (exit 2 on anything but `thread` or `process`).
pub fn parse_isolate(flags: &HashMap<String, String>) -> Isolate {
    match flags.get("isolate").map(String::as_str) {
        None | Some("thread") => Isolate::Thread,
        Some("process") => Isolate::Process,
        Some(other) => {
            cli_error!("--isolate needs `thread` or `process`, not {other:?}");
            exit(2);
        }
    }
}

/// Build the detector pool with the shard link `--isolate` asked for.
/// Both links detect against the whole-window hitlist of the rules, so
/// their detections are byte-identical; only the failure domain differs.
pub fn build_pool(
    rules: &RuleSet,
    config: DetectorConfig,
    workers: usize,
    isolate: Isolate,
) -> DetectorPool {
    match isolate {
        Isolate::Thread => DetectorPool::new(rules, &HitList::whole_window(rules), config, workers),
        // No argv: the children are this executable's `shard-worker` arm.
        Isolate::Process => or_exit(
            DetectorPool::with_process_shards(rules, config, workers, &[])
                .map_err(|e| format!("spawning shard workers: {e}")),
        ),
    }
}

/// `--chaos` on `detect`/`soak`: ungracefully kill one shard every this
/// many chunks, cycling through the shards. The schedule is a pure
/// function of the chunk count, so a chaos run is reproducible and its
/// outputs must still match an undisturbed run byte-for-byte.
const CHAOS_KILL_EVERY: u64 = 40;

/// Apply the deterministic chaos kill schedule at chunk `tick`.
fn chaos_tick(pool: &mut DetectorPool, tick: u64) {
    if tick == 0 || !tick.is_multiple_of(CHAOS_KILL_EVERY) {
        return;
    }
    let shard = ((tick / CHAOS_KILL_EVERY - 1) % pool.workers() as u64) as usize;
    note!("chaos: killing shard {shard} at chunk {tick}");
    if let Err(e) = pool.kill_shard(shard) {
        note!("chaos: kill of shard {shard} reported: {e}");
    }
}

/// Full-frame cadence: every `FULL_EVERY`-th save anchors a new full
/// generation; saves in between write dirty-only [`RunDelta`] frames.
const FULL_EVERY: u64 = 8;

/// How a soak's config row — the first stdout line it checkpoints —
/// begins. A `detect` chain starts with its column header instead, which
/// is what tells the two writers of the shared frame format apart.
pub const SOAK_ROW: &str = "# soak ";

/// What differs between the resumable commands before the first record.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The subcommand, as error messages name it.
    pub command: &'static str,
    /// The flag [`RunCheckpoint::days`] is set by: the run's length in
    /// the command's own unit (`days` for `detect`, `hours` for `soak`).
    pub span_flag: &'static str,
    /// `--lines` of a fresh run that does not pass it.
    pub default_lines: u32,
    /// The span of a fresh run that does not pass it.
    pub default_span: u32,
}

/// Restore the newest consistent full+delta chain of a run.
fn load_run(dir: &CheckpointDir) -> Result<Option<(u64, RunCheckpoint)>, CheckpointError> {
    dir.load_chain(
        RunCheckpoint::PREFIX,
        RunCheckpoint::decode,
        |frame| RunDelta::decode(frame).map(|d| (d.base_generation, d)),
        |ck, delta| delta.apply(ck),
    )
}

/// [`load_run`], then refuse a chain the other command wrote and any
/// explicit flag that contradicts the checkpointed configuration.
fn restore(
    spec: &RunSpec,
    dir: &CheckpointDir,
    flags: &HashMap<String, String>,
) -> Result<Option<(u64, RunCheckpoint)>, ResumeError> {
    let Some((generation, ck)) = load_run(dir)? else {
        return Ok(None);
    };
    let soak = ck
        .emitted
        .first()
        .is_some_and(|row| row.starts_with(SOAK_ROW));
    let wrote = if soak { "soak" } else { "detect" };
    if wrote != spec.command {
        return Err(ResumeError::WrongCommand {
            generation,
            wrote,
            resuming: spec.command,
        });
    }
    conflict(flags, generation, "seed", ck.seed)?;
    conflict(flags, generation, "lines", ck.lines)?;
    conflict(flags, generation, spec.span_flag, ck.days)?;
    conflict(flags, generation, "threshold", ck.threshold)?;
    conflict(flags, generation, "workers", ck.workers)?;
    conflict(flags, generation, "chunk-records", ck.chunk_records)?;
    Ok(Some((generation, ck)))
}

/// A run's configuration and position before anything has a side
/// effect: the restored chain under `--resume`, the flags otherwise.
pub struct Loaded {
    /// A resumed run takes its configuration from the checkpoint — flag
    /// drift between invocations cannot silently change the stream.
    pub ck: RunCheckpoint,
    /// Generation the chain was restored up to; `None` for a fresh run.
    pub generation: Option<u64>,
    dir: Option<CheckpointDir>,
}

/// Pause and size accounting of the checkpoints a run wrote.
#[derive(Debug, Default)]
pub struct SaveTally {
    /// Wall time of all saves together, in milliseconds.
    pub pause_ms_sum: f64,
    /// Wall time of the longest save, in milliseconds.
    pub pause_ms_max: f64,
    /// Full frames written.
    pub fulls: u64,
    /// Their sealed bytes.
    pub full_bytes: u64,
    /// Delta frames written.
    pub deltas: u64,
    /// Their sealed bytes.
    pub delta_bytes: u64,
}

/// The one resumable-run driver: a supervised detector pool fed hour by
/// hour from a deterministic stream, checkpointed as a full+delta chain,
/// drained on SIGTERM, resumed byte-identically. `detect` and `soak`
/// keep only what differs — the stream source, what an hour or a day
/// prints, the epilogue.
pub struct ResumableRun {
    /// Configuration, position and replayable stdout — the run's state
    /// *is* its next full checkpoint (`shards` is filled only while a
    /// full frame is being encoded; the pool holds the live evidence).
    pub ck: RunCheckpoint,
    /// The detector pool every record goes through.
    pub pool: DetectorPool,
    /// Whether this run continues a checkpointed one.
    pub resumed: bool,
    /// Records fed by this invocation.
    pub streamed: u64,
    /// What the saves cost.
    pub tally: SaveTally,
    dir: Option<CheckpointDir>,
    checkpoint_chunks: u64,
    chaos: bool,
    chaos_ticks: u64,
    /// Newest generation this invocation wrote — the next delta's base.
    head: Option<u64>,
    saves_since_full: u64,
    /// How many `ck.emitted` lines the newest frame already covers.
    emitted_flushed: usize,
    chunk: RecordChunk,
}

impl ResumableRun {
    /// The preamble: open `--checkpoint-dir`; under `--resume` restore
    /// the chain, or fail with a message naming the generation (and
    /// field) at fault — a version-skewed frame, a fully corrupt
    /// directory, the other command's chain, a conflicting flag.
    pub fn load(spec: &RunSpec, flags: &HashMap<String, String>, pack_threshold: f64) -> Loaded {
        let dir = flags
            .get("checkpoint-dir")
            .map(|d| or_exit(CheckpointDir::open(d)));
        let resume = flags.contains_key("resume");
        let restored = match (&dir, resume) {
            (None, true) => {
                cli_error!("--resume needs --checkpoint-dir");
                exit(2);
            }
            (Some(dir), true) => fatal("resume", restore(spec, dir, flags)),
            _ => None,
        };
        if let Some((generation, ck)) = restored {
            return Loaded {
                ck,
                generation: Some(generation),
                dir,
            };
        }
        if resume {
            note!("no checkpoint found; starting fresh");
        }
        let workers: u32 = num(flags, "workers", 4);
        if workers == 0 {
            cli_error!("--workers must be at least 1");
            exit(2);
        }
        let ck = RunCheckpoint {
            seed: num(flags, "seed", 42),
            lines: num(flags, "lines", spec.default_lines),
            days: num(flags, spec.span_flag, spec.default_span),
            // The pack carries the threshold `D` it was generated for;
            // an explicit --threshold still wins.
            threshold: num(flags, "threshold", pack_threshold),
            workers,
            chunk_records: DEFAULT_CHUNK_RECORDS as u64,
            watermark: Watermark::start(),
            records_this_day: 0,
            done: false,
            emitted: Vec::new(),
            shards: Vec::new(),
        };
        Loaded {
            ck,
            generation: None,
            dir,
        }
    }

    /// Build the pool, and for a resumed run re-print its stdout and
    /// restore its evidence.
    pub fn start(loaded: Loaded, flags: &HashMap<String, String>, rules: &RuleSet) -> ResumableRun {
        let Loaded {
            mut ck,
            generation,
            dir,
        } = loaded;
        let isolate = parse_isolate(flags);
        let chaos = flags.contains_key("chaos");
        let config = DetectorConfig {
            threshold: ck.threshold,
            require_established: false,
        };
        let mut pool = build_pool(rules, config, ck.workers as usize, isolate);
        if dir.is_some() {
            // Drain on SIGTERM — checkpoint at the current watermark,
            // exit 0 — so an orchestrator's stop is never a crash.
            sig::install();
        }
        if let Some(generation) = generation {
            let Watermark { day, hour, chunk } = ck.watermark;
            note!(
                "resuming from checkpoint generation {generation} at day {day} hour {hour} chunk {chunk}"
            );
            // `emitted` is the run's replayable stdout: checkpointed
            // verbatim, re-printed here, so a resumed run's stdout is
            // byte-identical to an uninterrupted one.
            for line in &ck.emitted {
                println!("{line}");
            }
            or_exit(pool.restore_shard_states(&std::mem::take(&mut ck.shards)));
        }
        ResumableRun {
            pool,
            resumed: generation.is_some(),
            streamed: 0,
            tally: SaveTally::default(),
            dir,
            checkpoint_chunks: num(flags, "checkpoint-chunks", 0),
            chaos,
            chaos_ticks: 0,
            head: None,
            saves_since_full: 0,
            emitted_flushed: 0,
            chunk: RecordChunk::with_capacity(ck.chunk_records as usize),
            ck,
        }
    }

    /// Print one replayable stdout line.
    pub fn emit(&mut self, row: String) {
        println!("{row}");
        self.ck.emitted.push(row);
    }

    /// Stream the watermark's hour through the pool. A run resumed
    /// mid-hour regenerates the hour and discards the already-processed
    /// prefix (generation is deterministic). Saves every
    /// `--checkpoint-chunks` chunks, and on SIGTERM — the in-flight chunk
    /// is finished, the watermark checkpoint makes resume land exactly
    /// here, and the exit is clean.
    pub fn feed_hour(&mut self, stream: &mut dyn RecordStream) {
        let Watermark { day, hour, chunk } = self.ck.watermark;
        if chunk > 0 {
            self.ck.watermark.chunk = skip_chunks(stream, chunk);
        }
        while stream.next_chunk(&mut self.chunk) {
            let records = self.chunk.records.len() as u64;
            self.ck.records_this_day += records;
            self.streamed += records;
            or_exit(self.pool.observe_records(&self.chunk.records));
            self.ck.watermark.chunk += 1;
            let chunk = self.ck.watermark.chunk;
            if self.chaos {
                self.chaos_ticks += 1;
                chaos_tick(&mut self.pool, self.chaos_ticks);
            }
            let periodic =
                self.checkpoint_chunks > 0 && chunk.is_multiple_of(self.checkpoint_chunks);
            let drain = self.dir.is_some() && sig::triggered();
            if periodic || drain {
                self.save(false, false);
            }
            if drain {
                note!("sigterm: checkpointed at day {day} hour {hour} chunk {chunk}; exiting");
                exit(0);
            }
        }
    }

    /// Checkpoint at the current watermark (a no-op without
    /// `--checkpoint-dir`). Periodic full frames anchor the chain; every
    /// save in between writes a dirty-only [`RunDelta`] — the watermark
    /// advance, the stdout lines since the last flush, and each shard's
    /// incremental snapshot — chained by `base_generation`. `force_full`
    /// is for day rolls (evidence resets there, so a delta would be
    /// full-sized anyway); the `done` frame that ends a run is full too.
    pub fn save(&mut self, done: bool, force_full: bool) {
        let Some(dir) = &self.dir else { return };
        let t0 = Instant::now();
        self.ck.done = done;
        // For a full frame this also folds outstanding dirty state into
        // the supervisor's bases, so the frame doubles as the next
        // delta's clean anchor.
        let shards = or_exit(self.pool.checkpoint_all_delta());
        let generation = match self.head {
            Some(head) if !(done || force_full) && self.saves_since_full + 1 < FULL_EVERY => {
                let dirty: usize = shards.iter().map(DetectorSnapshot::entry_count).sum();
                let frame = RunDelta {
                    base_generation: head,
                    watermark: self.ck.watermark,
                    records_this_day: self.ck.records_this_day,
                    done: false,
                    emitted_new: self.ck.emitted[self.emitted_flushed..].to_vec(),
                    shards,
                }
                .encode();
                self.tally.deltas += 1;
                self.tally.delta_bytes += frame.len() as u64;
                self.saves_since_full += 1;
                or_exit(dir.write_delta(RunCheckpoint::PREFIX, &frame, dirty as u64))
            }
            _ => {
                // After a restore or reset these are full-sized: do not
                // hold them beside the states the frame is built from.
                drop(shards);
                self.ck.shards = self.pool.supervised_shard_states();
                let frame = self.ck.encode();
                self.ck.shards = Vec::new();
                self.tally.fulls += 1;
                self.tally.full_bytes += frame.len() as u64;
                self.saves_since_full = 0;
                or_exit(dir.write(RunCheckpoint::PREFIX, &frame))
            }
        };
        self.head = Some(generation);
        self.emitted_flushed = self.ck.emitted.len();
        let pause_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.tally.pause_ms_sum += pause_ms;
        self.tally.pause_ms_max = self.tally.pause_ms_max.max(pause_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_core::checkpoint::LineEvidence;
    use haystack_net::{AnonId, HourBin};

    fn sample() -> RunCheckpoint {
        RunCheckpoint {
            seed: 42,
            lines: 3_000,
            days: 2,
            threshold: 0.4,
            workers: 4,
            chunk_records: 512,
            watermark: Watermark {
                day: 1,
                hour: 7,
                chunk: 13,
            },
            records_this_day: 99_001,
            done: false,
            emitted: vec![
                "day\tclass\tdetected_lines".to_string(),
                "0\tAlexa Enabled\t17".to_string(),
            ],
            shards: vec![
                DetectorState {
                    rules: vec![vec![LineEvidence {
                        line: AnonId(7),
                        mask: 0b101,
                        first_met: Some(HourBin(30)),
                    }]],
                },
                DetectorState {
                    rules: vec![vec![]],
                },
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let ck = sample();
        assert_eq!(RunCheckpoint::decode(&ck.encode()).unwrap(), ck);
    }

    fn sample_delta(base_generation: u64, hour: u32) -> RunDelta {
        use haystack_core::DetectorDelta;
        RunDelta {
            base_generation,
            watermark: Watermark {
                day: 1,
                hour,
                chunk: 2,
            },
            records_this_day: 123_456,
            done: false,
            emitted_new: vec![format!("1\tAlexa Enabled\t{hour}")],
            shards: vec![
                DetectorSnapshot::Delta(DetectorDelta {
                    rules: vec![vec![LineEvidence {
                        line: AnonId(7),
                        mask: 0b111,
                        first_met: Some(HourBin(30)),
                    }]],
                }),
                DetectorSnapshot::Delta(DetectorDelta {
                    rules: vec![vec![LineEvidence {
                        line: AnonId(9),
                        mask: 0b1,
                        first_met: None,
                    }]],
                }),
            ],
        }
    }

    #[test]
    fn run_delta_round_trips_exactly() {
        let d = sample_delta(3, 8);
        assert_eq!(RunDelta::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn delta_chain_replays_onto_the_full_base() {
        let dir = CheckpointDir::open(scratch("chain")).unwrap();
        let ck = sample();
        let g1 = dir.write(RunCheckpoint::PREFIX, &ck.encode()).unwrap();
        let d = sample_delta(g1, 8);
        let g2 = dir
            .write_delta(
                RunCheckpoint::PREFIX,
                &d.encode(),
                d.shards
                    .iter()
                    .map(DetectorSnapshot::entry_count)
                    .sum::<usize>() as u64,
            )
            .unwrap();
        let (top, loaded) = load_run(&dir).unwrap().unwrap();
        assert_eq!(top, g2);
        assert_eq!(loaded.watermark, d.watermark);
        assert_eq!(loaded.records_this_day, 123_456);
        assert_eq!(loaded.emitted.len(), ck.emitted.len() + 1);
        // The dirty entry upserted line 7's mask and inserted line 9.
        assert_eq!(loaded.shards[0].rules[0][0].mask, 0b111);
        assert_eq!(loaded.shards[1].rules[0].len(), 1);
        // Config fields come from the full base.
        assert_eq!(loaded.seed, ck.seed);
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("haystack-resume-{}-{tag}-{n}", std::process::id()))
    }

    const DETECT: RunSpec = RunSpec {
        command: "detect",
        span_flag: "days",
        default_lines: 1,
        default_span: 1,
    };
    const SOAK: RunSpec = RunSpec {
        command: "soak",
        span_flag: "hours",
        default_lines: 1,
        default_span: 1,
    };

    #[test]
    fn explicit_flag_conflicts_name_field_and_generation() {
        let dir = CheckpointDir::open(scratch("conflict")).unwrap();
        let g = dir
            .write(RunCheckpoint::PREFIX, &sample().encode())
            .unwrap();
        let mut flags = HashMap::new();
        // Absent flags defer to the checkpoint.
        assert_eq!(restore(&DETECT, &dir, &flags).unwrap(), Some((g, sample())));
        // Matching explicit flags are fine, including re-formatted floats.
        flags.insert("lines".into(), "3000".into());
        flags.insert("threshold".into(), "0.40".into());
        flags.insert("days".into(), "2".into());
        restore(&DETECT, &dir, &flags).unwrap();
        // A disagreeing flag names the field, both values, the generation.
        flags.insert("lines".into(), "5000".into());
        let err = restore(&DETECT, &dir, &flags).unwrap_err();
        match &err {
            ResumeError::Conflict {
                generation,
                field,
                flag,
                checkpoint,
            } => {
                assert_eq!(*generation, g);
                assert_eq!(*field, "lines");
                assert_eq!(flag, "5000");
                assert_eq!(checkpoint, "3000");
            }
            other => panic!("expected Conflict, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("--lines 5000"), "{msg}");
        assert!(msg.contains(&format!("generation {g}")), "{msg}");
        assert!(msg.contains("3000"), "{msg}");
        // Unparseable values conflict rather than being ignored.
        flags.remove("lines");
        flags.insert("workers".into(), "many".into());
        assert!(restore(&DETECT, &dir, &flags).is_err());
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn a_chain_the_other_command_wrote_is_refused_by_generation() {
        let flags = HashMap::new();
        let dir = CheckpointDir::open(scratch("wrong-command")).unwrap();
        // `sample()` starts with detect's column header…
        let g = dir
            .write(RunCheckpoint::PREFIX, &sample().encode())
            .unwrap();
        match restore(&SOAK, &dir, &flags).unwrap_err() {
            ResumeError::WrongCommand {
                generation,
                wrote,
                resuming,
            } => {
                assert_eq!((generation, wrote, resuming), (g, "detect", "soak"));
            }
            other => panic!("expected WrongCommand, got {other:?}"),
        }
        // …and a soak's chain with its config row.
        let mut soak = sample();
        soak.emitted[0] = format!("{SOAK_ROW}lines=3000 hours=2");
        let g = dir.write(RunCheckpoint::PREFIX, &soak.encode()).unwrap();
        let msg = restore(&DETECT, &dir, &flags).unwrap_err().to_string();
        assert!(msg.contains(&format!("generation {g}")), "{msg}");
        assert!(msg.contains("`haystack soak`"), "{msg}");
        // The span is checked under the command's own flag name.
        restore(&SOAK, &dir, &HashMap::from([("hours".into(), "2".into())])).unwrap();
        restore(&SOAK, &dir, &HashMap::from([("hours".into(), "3".into())])).unwrap_err();
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn corruption_is_rejected_not_panicking() {
        let frame = sample().encode();
        for cut in [0, 7, frame.len() / 2, frame.len() - 1] {
            assert!(RunCheckpoint::decode(&frame[..cut]).is_err(), "cut {cut}");
        }
        for i in (0..frame.len()).step_by(11) {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(RunCheckpoint::decode(&bad).is_err(), "flip at {i}");
        }
    }
}
