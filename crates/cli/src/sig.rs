//! SIGTERM/SIGINT → a cooperative shutdown flag.
//!
//! The daemon (and a checkpointing `detect` or `soak` run) must *drain*
//! on SIGTERM: finish in-flight work, write a final checkpoint, exit 0
//! — not die mid-write. The handler therefore does the only async-safe
//! thing possible: it sets an atomic flag. It can wake nobody (no
//! `unpark`, no write to a socket), so exactly one loop per command
//! looks at the flag on a timer: a `detect` / `soak` run between chunks,
//! and in `haystack serve` the orchestrator thread, parked with a 50 ms
//! timeout. Everything else in the daemon is woken by that thread — it
//! trips the listeners' shutdown flag (their socket reads keep short
//! timeouts for exactly this reason: glibc installs handlers with
//! `SA_RESTART`, so a signal alone does not interrupt a blocking `recv`)
//! and connects to the HTTP plane's port to end its blocking `accept`.
//!
//! This is the one unsafe corner of the crate (the rest of the
//! `haystack-cli` library is `#![deny(unsafe_code)]`): a single libc
//! `signal(2)` call per signal, installing a handler that touches
//! nothing but an `AtomicBool`.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler; read by the loops the module docs name.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    // Storing an AtomicBool is async-signal-safe; nothing else here is
    // allowed to be.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Install the drain handler for SIGTERM and SIGINT.
pub fn install() {
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Whether a shutdown signal has been received.
pub fn triggered() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Request shutdown from inside the process (the `/admin/drain`
/// endpoint goes through the same flag as SIGTERM, so there is exactly
/// one drain path).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}
