//! `haystack serve` — the hardened long-running detection daemon
//! (DESIGN.md §13).
//!
//! Wiring, front to back:
//!
//! ```text
//!   UDP socket ──┐                       ┌── HTTP plane (queries/admin)
//!                ├─ bounded admission ───┤
//!   TCP replay ──┘   queue (sheds on     └─▶ control channel
//!                     the UDP path)            │
//!                          │ data              │
//!                          ▼                   ▼
//!                    engine thread (collector → pool → usage/staleness)
//! ```
//!
//! No thread of the shell sleeps on a tick to find out whether there is
//! work. The engine parks until the admission queue or the HTTP plane
//! unparks it (or its next watchdog / checkpoint deadline); the HTTP
//! plane blocks in `accept()` and serves each connection on a handler
//! thread; this orchestrator parks until `/admin/drain` or the engine's
//! exit unparks it, with a 50 ms timeout only because a signal handler
//! can do no more than set a flag. The two datagram listeners keep
//! their 25 ms socket read timeouts: a blocking `recv` cannot be ended
//! from outside without a descriptor to write to, and a listener's
//! latency is not on any query's path.
//!
//! Lifecycle state machine: **serving** → (SIGTERM, SIGINT, or
//! `POST /admin/drain`) → **draining** (listeners stop, `/readyz` turns
//! 503, the engine consumes every already-admitted datagram) →
//! **checkpointed exit** (pool finished, one final checkpoint
//! generation, exit 0). A daemon restarted with `--resume` restores
//! collector, shard evidence, usage window, staleness baselines, and
//! counters, and answers queries byte-identically to a run that was
//! never interrupted.

mod engine;
mod http;
mod send;
mod state;

pub use send::cmd_send;

use engine::{Engine, EngineConfig};
use haystack_cli::resume::{conflict, fatal, parse_isolate};
use haystack_cli::{cli_error, note, num, sig};
use haystack_core::checkpoint::CheckpointDir;
use haystack_core::pack::SignaturePack;
use haystack_core::telemetry;
use haystack_flow::listener::{spawn_tcp_listener, spawn_udp_listener, AdmissionQueue};
use haystack_net::snapshot::SnapError;
use state::ServeCheckpoint;
use std::collections::HashMap;
use std::net::{Ipv4Addr, TcpListener, TcpStream, UdpSocket};
use std::process::exit;
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

/// How often the parked orchestrator looks at the signal flag.
const SIGNAL_POLL: Duration = Duration::from_millis(50);

pub fn cmd_serve(flags: HashMap<String, String>) {
    telemetry::set_enabled(true);
    sig::install();

    let file_pack = crate::load_pack(&flags);

    let ckpt_dir = flags
        .get("checkpoint-dir")
        .map(|d| fatal("checkpoint", CheckpointDir::open(d)));
    let resume = flags.contains_key("resume");
    if resume && ckpt_dir.is_none() {
        cli_error!("--resume needs --checkpoint-dir");
        exit(2);
    }

    // A resumed daemon takes its configuration from the checkpoint;
    // explicit flags may confirm it but not contradict it.
    let loaded: Option<(u64, ServeCheckpoint)> = if resume {
        let dir = ckpt_dir.as_ref().expect("checked above");
        // The daemon writes full frames only: its chain has no deltas.
        let chain = dir.load_chain(
            ServeCheckpoint::PREFIX,
            ServeCheckpoint::decode,
            |_| Err::<(u64, ()), _>(SnapError::Malformed("serve writes no delta frames")),
            |_, ()| Ok(()),
        );
        let loaded = fatal("resume", chain);
        match &loaded {
            Some((generation, ck)) => {
                fatal(
                    "resume",
                    conflict(&flags, *generation, "workers", ck.workers),
                );
                fatal(
                    "resume",
                    conflict(&flags, *generation, "threshold", ck.threshold),
                );
                fatal("resume", conflict(&flags, *generation, "seed", ck.seed));
                note!(
                    "resuming from serve checkpoint generation {generation} \
                     ({} datagrams, {} records)",
                    ck.datagrams,
                    ck.records
                );
            }
            None => note!("no serve checkpoint found; starting fresh"),
        }
        loaded
    } else {
        None
    };

    let (workers, threshold, seed) = match &loaded {
        Some((_, ck)) => (ck.workers as usize, ck.threshold, ck.seed),
        None => (
            num(&flags, "workers", 4),
            num(&flags, "threshold", file_pack.threshold),
            num(&flags, "seed", 42),
        ),
    };
    if workers == 0 {
        cli_error!("--workers must be at least 1");
        exit(2);
    }

    // A resumed daemon runs the rules it checkpointed (a pack reloaded
    // via `/admin/reload-rules` survives the restart); a fresh daemon
    // runs its `--rules` pack.
    let pack = match &loaded {
        Some((generation, ck)) => SignaturePack::load(&ck.pack).unwrap_or_else(|e| {
            cli_error!("resume: checkpoint generation {generation} pack: {e}");
            exit(1);
        }),
        None => file_pack,
    };
    let pack_bytes = pack.encode();
    let rules = Arc::new(pack.rules);

    let queue_capacity: usize = num(&flags, "queue-capacity", 1_024);
    if queue_capacity == 0 {
        cli_error!("--queue-capacity must be at least 1");
        exit(2);
    }
    let chaos = flags.contains_key("chaos");
    let isolate = parse_isolate(&flags);
    let config = EngineConfig {
        workers,
        threshold,
        seed,
        ckpt: ckpt_dir,
        checkpoint_secs: num(&flags, "checkpoint-secs", 0),
        chaos,
        watchdog_every: Duration::from_millis(num(&flags, "watchdog-ms", 1_000)),
        watchdog_timeout: Duration::from_millis(num(&flags, "watchdog-timeout-ms", 500)),
        isolate,
    };

    // Bind every socket before spawning anything, so a port clash fails
    // fast and `--ports-file` describes a fully-listening daemon.
    let host = flags
        .get("host")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1".into());
    let host_ip: Ipv4Addr = fatal("--host", host.parse());
    let udp = fatal(
        "udp bind",
        UdpSocket::bind((host_ip, num::<u16>(&flags, "udp-port", 0))),
    );
    let tcp = fatal(
        "tcp bind",
        TcpListener::bind((host_ip, num::<u16>(&flags, "tcp-port", 0))),
    );
    let http_sock = fatal(
        "http bind",
        TcpListener::bind((host_ip, num::<u16>(&flags, "http-port", 0))),
    );
    let udp_port = fatal("udp addr", udp.local_addr()).port();
    let tcp_port = fatal("tcp addr", tcp.local_addr()).port();
    let http_port = fatal("http addr", http_sock.local_addr()).port();
    note!(
        "haystack serve: udp {host}:{udp_port}  tcp {host}:{tcp_port}  http {host}:{http_port}  \
         ({workers} {} workers, queue {queue_capacity}{})",
        isolate.label(),
        if chaos { ", chaos armed" } else { "" }
    );
    if let Some(path) = flags.get("ports-file") {
        let doc = format!(
            "{{\"udp\":{udp_port},\"tcp\":{tcp_port},\"http\":{http_port},\"pid\":{}}}\n",
            std::process::id()
        );
        fatal("ports file", std::fs::write(path, doc));
    }

    let (queue, data_rx, stats) = AdmissionQueue::bounded(queue_capacity);
    let engine = match &loaded {
        Some((_, ck)) => fatal(
            "restore",
            Engine::restore(rules, pack_bytes, config, stats.clone(), ck),
        ),
        None => fatal(
            "engine",
            Engine::new(rules, pack_bytes, config, stats.clone()),
        ),
    };

    // The engine first: its thread handle is what the producers of its
    // two inboxes wake — the admission queue after every datagram it
    // admits and after a producer handle is dropped, the HTTP plane
    // after every control request.
    let shutdown = engine::new_shutdown_flag();
    let (ctl_tx, ctl_rx) = channel();
    let engine_handle = engine.spawn(data_rx, ctl_rx, std::thread::current());
    queue.wake_on_admit(engine_handle.thread().clone());
    let udp_handle = spawn_udp_listener(udp, queue.clone(), shutdown.clone());
    let tcp_handle = spawn_tcp_listener(tcp, queue.clone(), shutdown.clone());
    let http_handle = http::spawn_http(
        http_sock,
        ctl_tx,
        engine_handle.thread().clone(),
        chaos,
        shutdown.clone(),
    );
    // The engine's data channel must disconnect when the listeners
    // exit, so the orchestrator holds no producer of its own.
    drop(queue);

    // Park until a drain begins or the engine dies underneath us
    // (listener sockets torn down, nothing to serve). `/admin/drain` and
    // the engine's exit unpark this thread; the timeout is there only
    // for SIGTERM/SIGINT, whose handler may do nothing but set the flag.
    while !sig::triggered() && !engine_handle.is_finished() {
        std::thread::park_timeout(SIGNAL_POLL);
    }
    note!("serve: draining (stopping listeners, flushing admitted datagrams)");
    engine::trip(&shutdown);
    // The HTTP plane blocks in `accept()`: a connection to its own port
    // is what lets it see the flag. It may already be on its way out (a
    // request got there first), so a refused connection is fine.
    let http_ip = if host_ip.is_unspecified() {
        Ipv4Addr::LOCALHOST
    } else {
        host_ip
    };
    let _ = TcpStream::connect_timeout(&(http_ip, http_port).into(), Duration::from_secs(1));
    let _ = udp_handle.join();
    let _ = tcp_handle.join();
    // Listener producers are gone: the engine drains to disconnection,
    // finishes the pool, writes the final checkpoint, and exits.
    let _ = engine_handle.join();
    let _ = http_handle.join();
    debug_assert!(shutdown.load(Ordering::SeqCst));
    note!("serve: drained and checkpointed; exiting");
}
