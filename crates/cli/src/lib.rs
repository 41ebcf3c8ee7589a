//! The `haystack` binary's plumbing: stderr logging, flag parsing
//! helpers, the resumable-run driver and signal handling.
//!
//! An operator runs the §2–§4 pipeline once (it needs the testbeds) and
//! ships the resulting rules to collectors as a signature pack
//! ([`haystack_core::pack::SignaturePack`], `haystack rules export`);
//! collectors only need that pack plus a passive-DNS feed to rebuild
//! daily hitlists.

// `deny`, not `forbid`: [`sig`] alone opts out, for its two libc
// `signal(2)` calls.
#![deny(unsafe_code)]

pub mod resume;
#[allow(unsafe_code)]
pub mod sig;

pub mod log {
    //! Verbosity-gated stderr logging for the `haystack` binary.
    //!
    //! Progress notes go through [`note_args`] (the [`note!`] macro) and
    //! are silenced by `--quiet`, keeping machine-readable stdout/stderr
    //! clean; errors always print. Every message — emitted or suppressed
    //! — is tallied into the `cli` telemetry scope when telemetry is on,
    //! so `haystack metrics` accounts for its own chatter.
    //!
    //! [`note!`]: crate::note

    use haystack_core::telemetry;
    use std::fmt;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// `--quiet`: progress notes are swallowed (errors still print).
    pub const QUIET: u8 = 0;
    /// Default: progress notes on stderr.
    pub const NORMAL: u8 = 1;

    static VERBOSITY: AtomicU8 = AtomicU8::new(NORMAL);

    /// Set the process-wide verbosity from the `--quiet` flag.
    pub fn set_quiet(quiet: bool) {
        VERBOSITY.store(if quiet { QUIET } else { NORMAL }, Ordering::Relaxed);
    }

    /// Whether progress notes are currently suppressed.
    pub fn is_quiet() -> bool {
        VERBOSITY.load(Ordering::Relaxed) == QUIET
    }

    fn count(name: &str) {
        // Handles are cheap no-ops unless telemetry is compiled in and
        // enabled; log volume is tens of lines, so no caching needed.
        if telemetry::enabled() {
            telemetry::global().scope("cli").counter(name).inc();
        }
    }

    /// A progress note: stderr unless `--quiet`, counted either way.
    pub fn note_args(args: fmt::Arguments<'_>) {
        if is_quiet() {
            count("notes_suppressed");
        } else {
            eprintln!("{args}");
            count("notes_emitted");
        }
    }

    /// An error: always stderr, `error:`-prefixed, never silenced.
    pub fn error_args(args: fmt::Arguments<'_>) {
        eprintln!("error: {args}");
        count("errors");
    }

    /// Unconditional bare stderr output (usage/help text).
    pub fn raw_args(args: fmt::Arguments<'_>) {
        eprintln!("{args}");
        count("raw_emitted");
    }
}

/// Read the numeric flag `--key`, or `default` when it was not passed;
/// a value that does not parse is a usage error (exit 2).
pub fn num<T: std::str::FromStr>(
    flags: &std::collections::HashMap<String, String>,
    key: &str,
    default: T,
) -> T {
    let Some(v) = flags.get(key) else {
        return default;
    };
    v.parse().unwrap_or_else(|_| {
        cli_error!("--{key} needs a number");
        std::process::exit(2);
    })
}

/// Print a progress note to stderr unless `--quiet` is in effect.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        $crate::log::note_args(format_args!($($arg)*))
    };
}

/// Print an `error:`-prefixed line to stderr (never silenced).
#[macro_export]
macro_rules! cli_error {
    ($($arg:tt)*) => {
        $crate::log::error_args(format_args!($($arg)*))
    };
}
