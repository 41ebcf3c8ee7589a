//! The daemon's HTTP/1.1 control and query plane, hand-rolled over
//! `std::net::TcpListener` (the workspace vendors no HTTP stack, and
//! the plane needs exactly one verb pair, tiny requests, and
//! `Connection: close` semantics).
//!
//! Three endpoint families:
//!
//! * **liveness** — `/healthz` (process up), `/readyz` (503 once a
//!   drain has begun), `/metrics` (Prometheus exposition of the
//!   telemetry registry). Answered directly on the connection's
//!   handler thread; they must work even when the engine is busy or
//!   draining.
//! * **queries** — `/stats`, `/detections`, `/line`, `/usage`,
//!   `/staleness`, `/sources`, `/events` (NDJSON): forwarded to the
//!   engine over the control channel and answered between ingest
//!   chunks, so they always see consistent state.
//! * **admin** — `POST /admin/checkpoint`, `POST /admin/drain`,
//!   `POST /admin/reload-rules?path=…` (live signature-pack swap),
//!   `POST /admin/reset-breaker?shard=N` (the operator exit from a
//!   degraded shard), and (only with `--chaos`) `POST /admin/panic` /
//!   `POST /admin/stall` / `POST /admin/slow`.
//!
//! Nothing here polls. The accept thread blocks in `accept()`; each
//! connection is served on a short-lived handler thread, at most
//! [`MAX_HANDLERS`] at a time (a connection over the cap is served
//! inline on the accept thread, once the handlers past their head
//! deadline are joined), and the *whole* request head must
//! arrive within [`HEAD_DEADLINE`] — so a client that stalls mid-head,
//! or trickles a byte at a time, pins one handler for that long and
//! nobody else. A query wakes the parked engine itself ([`ask`] unparks
//! it after the `send`).
//!
//! Requests race the drain: the orchestrator sets the shutdown flag and
//! then connects to this plane's own port, which is what ends the
//! blocked `accept()`. The accept thread serves whatever else is already
//! queued on the socket (`/readyz` is 503 by then), closes the listener
//! and joins its handlers — so a request that raced the drain gets an
//! answer, a later one a refused connection, and an engine reply that
//! never comes (engine already gone) surfaces as 503, never a hang. A
//! transient `accept` error (a peer that reset while queued, `EINTR`,
//! descriptor exhaustion) is counted in `serve.http_accept_retries`
//! and ridden out; only a dead listener ends the plane, with a note.

use super::engine::{CtlReply, CtlRequest, Query};
use haystack_cli::note;
use haystack_core::telemetry;
use haystack_flow::listener::accept_retry;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Handler threads alive at once. Past this a connection is served on
/// the accept thread itself, so stalled clients can pin this many
/// threads and then delay — never starve — everyone behind them.
const MAX_HANDLERS: usize = 8;
/// How long a client has to deliver its whole request head, and how long
/// one write of the response may block on a client that stopped reading.
const HEAD_DEADLINE: Duration = Duration::from_secs(5);
/// How long a query may wait on the engine before 503.
const ENGINE_TIMEOUT: Duration = Duration::from_secs(10);
/// Largest request head accepted.
const MAX_HEAD: usize = 8 * 1024;

/// What a connection handler needs besides the connection.
#[derive(Clone)]
struct Plane {
    ctl: Sender<CtlRequest>,
    /// Unparked after every control request sent: the engine parks when
    /// both its inboxes are empty.
    engine: Thread,
    /// Unparked once a request that found the drain flag set (the
    /// `/admin/drain` that set it, for one) has been answered: the
    /// orchestrator parks until a drain begins.
    orchestrator: Thread,
    chaos: bool,
}

/// Run the HTTP plane until `shutdown` is set *and* a connection arrives
/// (the orchestrator's own — see the module docs).
pub fn spawn_http(
    listener: TcpListener,
    ctl: Sender<CtlRequest>,
    engine: Thread,
    chaos: bool,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    let plane = Plane {
        ctl,
        engine,
        orchestrator: std::thread::current(),
        chaos,
    };
    std::thread::Builder::new()
        .name("hay-http".into())
        .spawn(move || accept_loop(listener, &plane, &shutdown))
        .expect("spawn http")
}

fn accept_loop(listener: TcpListener, plane: &Plane, shutdown: &AtomicBool) {
    let accept_retries = telemetry::Scope::named("serve").counter("http_accept_retries");
    // Each handler with the head deadline its connection was given.
    let mut handlers: Vec<(Instant, JoinHandle<()>)> = Vec::new();
    let mut draining = false;
    loop {
        let accepted = listener.accept();
        if !draining && shutdown.load(Ordering::SeqCst) {
            // Woken for the drain. Whatever else is already queued on
            // the socket is answered, not reset: accept without blocking
            // until the backlog is empty.
            draining = true;
            if listener.set_nonblocking(true).is_err() {
                break;
            }
        }
        match accepted {
            Ok((stream, _)) => {
                // The head deadline runs from the accept, on this thread,
                // so a handler spawned before an inline serve is due
                // before it.
                let deadline = Instant::now() + HEAD_DEADLINE;
                handlers.retain(|(_, h)| !h.is_finished());
                serve_conn(stream, deadline, plane, &mut handlers);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => match accept_retry(&e) {
                Some(pause) => {
                    accept_retries.inc();
                    std::thread::sleep(pause);
                }
                None => {
                    note!("serve: http accept failed, query plane closed: {e}");
                    break;
                }
            },
        }
    }
    // Closed before the handlers are waited for: from here a client is
    // refused at once instead of queueing on a socket nobody accepts from.
    drop(listener);
    for (_, h) in handlers {
        let _ = h.join();
    }
}

/// Serve one connection on a handler thread of its own, or inline when
/// [`MAX_HANDLERS`] are busy. At the cap, a handler whose head deadline
/// has passed is no longer held by its client — it is answering, or
/// closing on one that stalled — so it is waited for rather than counted
/// busy: connections over the cap delay the plane by one head deadline,
/// not by one each.
fn serve_conn(
    stream: TcpStream,
    deadline: Instant,
    plane: &Plane,
    handlers: &mut Vec<(Instant, JoinHandle<()>)>,
) {
    if handlers.len() >= MAX_HANDLERS {
        let now = Instant::now();
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].0 <= now {
                let _ = handlers.swap_remove(i).1.join();
            } else {
                i += 1;
            }
        }
    }
    if handlers.len() >= MAX_HANDLERS {
        return handle_conn(stream, plane, deadline);
    }
    let handler = plane.clone();
    match std::thread::Builder::new()
        .name("hay-http-conn".into())
        .spawn(move || handle_conn(stream, &handler, deadline))
    {
        Ok(h) => handlers.push((deadline, h)),
        // The connection went with the closure: this client sees a close,
        // the plane goes on.
        Err(e) => note!("serve: no thread for an http connection: {e}"),
    }
}

fn handle_conn(mut stream: TcpStream, plane: &Plane, deadline: Instant) {
    let _ = stream.set_write_timeout(Some(HEAD_DEADLINE));
    let _ = stream.set_nodelay(true);
    let Some((method, target)) = read_request_head(&mut stream, deadline) else {
        respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let (status, content_type, body) = route(&method, path, query, plane);
    respond(&mut stream, status, content_type, &body);
    if haystack_cli::sig::triggered() {
        // A drain has begun — by `/admin/drain` just now, perhaps. Only
        // here, with the answer written, is the orchestrator told:
        // nothing may let the process exit before the client has its 200.
        plane.orchestrator.unpark();
    }
}

/// Read up to the header terminator and parse the request line. The
/// whole head must be in by `deadline`: the socket timeout shrinks to
/// the time remaining before each `read`, so no pacing of the bytes buys
/// a client more than the one deadline.
fn read_request_head(stream: &mut TcpStream, deadline: Instant) -> Option<(String, String)> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return None;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        stream.set_read_timeout(Some(left)).ok()?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next()?.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    Some((method, target))
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Error",
    };
    // Two writes, not one per `write!` fragment, and no second copy of a
    // body that can run to tens of megabytes (`/detections`); the socket
    // is `TCP_NODELAY`, so the body does not wait out the client's
    // delayed ACK of the head.
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
}

/// Percent-decode one query-string value (`+` means space; a malformed
/// escape passes through literally).
fn url_decode(v: &str) -> String {
    let bytes = v.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (
                bytes.get(i + 1).and_then(hexval),
                bytes.get(i + 2).and_then(hexval),
            ) {
                (Some(h), Some(l)) => {
                    out.push((h << 4) | l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hexval(b: &u8) -> Option<u8> {
    match b.to_ascii_lowercase() {
        c @ b'0'..=b'9' => Some(c - b'0'),
        c @ b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    }
}

fn param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| url_decode(v))
    })
}

type Routed = (u16, &'static str, String);

fn route(method: &str, path: &str, query: &str, plane: &Plane) -> Routed {
    let chaos = plane.chaos;
    match (method, path) {
        ("GET", "/healthz") => (200, "text/plain", "ok\n".into()),
        ("GET", "/readyz") => {
            if haystack_cli::sig::triggered() {
                (503, "text/plain", "draining\n".into())
            } else {
                // Readiness is the engine's verdict: any shard with an
                // open crash-loop breaker turns the daemon not-ready.
                ask(plane, Query::Ready)
            }
        }
        ("GET", "/metrics") => (
            200,
            "text/plain; version=0.0.4",
            telemetry::global().snapshot().to_prometheus(),
        ),
        ("GET", "/stats") => ask(plane, Query::Stats),
        ("GET", "/detections") => ask(
            plane,
            Query::Detections {
                class: param(query, "class"),
            },
        ),
        ("GET", "/line") => match param(query, "id").and_then(|v| v.parse().ok()) {
            Some(id) => ask(plane, Query::Line { id }),
            None => bad("line needs ?id=N"),
        },
        ("GET", "/usage") => ask(
            plane,
            Query::Usage {
                class: param(query, "class"),
            },
        ),
        ("GET", "/staleness") => ask(plane, Query::Staleness),
        ("GET", "/sources") => ask(plane, Query::Sources),
        ("GET", "/events") => ask(plane, Query::Events),
        ("POST", "/admin/checkpoint") => ask(plane, Query::CheckpointNow),
        ("POST", "/admin/reload-rules") => match param(query, "path") {
            Some(path) => ask(plane, Query::ReloadRules { path }),
            None => bad("reload-rules needs ?path=/abs/pack.hsp"),
        },
        ("POST", "/admin/reset-breaker") => {
            match param(query, "shard").and_then(|v| v.parse().ok()) {
                Some(shard) => ask(plane, Query::ResetBreaker { shard }),
                None => bad("reset-breaker needs ?shard=N"),
            }
        }
        ("POST", "/admin/drain") => {
            haystack_cli::sig::request_shutdown();
            (200, "application/json", "{\"draining\":true}".into())
        }
        ("POST", "/admin/panic") => {
            if !chaos {
                return forbidden();
            }
            match param(query, "shard").and_then(|v| v.parse().ok()) {
                Some(shard) => ask(plane, Query::Panic { shard }),
                None => bad("panic needs ?shard=N"),
            }
        }
        ("POST", "/admin/slow") => {
            if !chaos {
                return forbidden();
            }
            match param(query, "us").and_then(|v| v.parse().ok()) {
                Some(us) => ask(plane, Query::Slow { us }),
                None => bad("slow needs ?us=N"),
            }
        }
        ("POST", "/admin/stall") => {
            if !chaos {
                return forbidden();
            }
            match (
                param(query, "shard").and_then(|v| v.parse().ok()),
                param(query, "ms").and_then(|v| v.parse().ok()),
            ) {
                (Some(shard), Some(ms)) => ask(plane, Query::Stall { shard, ms }),
                _ => bad("stall needs ?shard=N&ms=M"),
            }
        }
        (
            _,
            "/healthz"
            | "/readyz"
            | "/metrics"
            | "/stats"
            | "/detections"
            | "/line"
            | "/usage"
            | "/staleness"
            | "/sources"
            | "/events"
            | "/admin/checkpoint"
            | "/admin/drain"
            | "/admin/reload-rules"
            | "/admin/reset-breaker"
            | "/admin/panic"
            | "/admin/stall"
            | "/admin/slow",
        ) => (
            405,
            "application/json",
            "{\"error\":\"method not allowed\"}".into(),
        ),
        _ => (
            404,
            "application/json",
            "{\"error\":\"no such endpoint\"}".into(),
        ),
    }
}

fn bad(msg: &str) -> Routed {
    (400, "application/json", format!("{{\"error\":{msg:?}}}"))
}

fn forbidden() -> Routed {
    (
        403,
        "application/json",
        "{\"error\":\"chaos endpoints need --chaos\"}".into(),
    )
}

/// Round-trip a query to the engine; a missing engine is 503, not a hang.
fn ask(plane: &Plane, query: Query) -> Routed {
    let (tx, rx) = channel();
    if plane.ctl.send(CtlRequest { query, reply: tx }).is_err() {
        return (
            503,
            "application/json",
            "{\"error\":\"engine gone\"}".into(),
        );
    }
    // After the send, so the engine cannot wake, find nothing and park
    // again before the request is there.
    plane.engine.unpark();
    match rx.recv_timeout(ENGINE_TIMEOUT) {
        Ok(CtlReply {
            status,
            content_type,
            body,
        }) => (status, content_type, body),
        Err(_) => (
            503,
            "application/json",
            "{\"error\":\"engine busy\"}".into(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_decoding_covers_the_class_names() {
        assert_eq!(url_decode("Alexa%20Enabled"), "Alexa Enabled");
        assert_eq!(url_decode("Alexa+Enabled"), "Alexa Enabled");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("bad%zz"), "bad%zz");
        assert_eq!(url_decode("%41%6a"), "Aj");
    }

    #[test]
    fn params_parse() {
        assert_eq!(
            param("class=Alexa+Enabled&x=1", "class").as_deref(),
            Some("Alexa Enabled")
        );
        assert_eq!(param("a=1&b=2", "b").as_deref(), Some("2"));
        assert_eq!(param("a=1", "missing"), None);
        assert_eq!(param("", "a"), None);
    }
}
