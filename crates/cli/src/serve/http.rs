//! The daemon's HTTP/1.1 control and query plane, hand-rolled over
//! `std::net::TcpListener` (the workspace vendors no HTTP stack, and
//! the plane needs exactly one verb pair, tiny requests, and
//! `Connection: close` semantics).
//!
//! Three endpoint families:
//!
//! * **liveness** — `/healthz` (process up), `/readyz` (503 once a
//!   drain has begun), `/metrics` (Prometheus exposition of the
//!   telemetry registry). Answered directly on the HTTP thread; they
//!   must work even when the engine is busy or draining.
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
//! Requests race the drain: once the shutdown flag is set the accept
//! loop exits within one poll interval, and an engine reply that never
//! comes (engine already gone) surfaces as 503, never a hang.

use super::engine::{CtlReply, CtlRequest, Query};
use haystack_core::telemetry;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Accept-loop poll interval (shutdown-flag latency bound).
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long a query may wait on the engine before 503.
const ENGINE_TIMEOUT: Duration = Duration::from_secs(10);
/// Largest request head accepted.
const MAX_HEAD: usize = 8 * 1024;

/// Run the HTTP plane until `shutdown` is set.
pub fn spawn_http(
    listener: TcpListener,
    ctl: Sender<CtlRequest>,
    chaos: bool,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    listener.set_nonblocking(true).expect("http nonblocking");
    std::thread::Builder::new()
        .name("hay-http".into())
        .spawn(move || {
            while !shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => handle_conn(stream, &ctl, chaos),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        std::thread::sleep(POLL_INTERVAL)
                    }
                    Err(_) => break,
                }
            }
        })
        .expect("spawn http")
}

fn handle_conn(mut stream: TcpStream, ctl: &Sender<CtlRequest>, chaos: bool) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("http read timeout");
    let Some((method, target)) = read_request_head(&mut stream) else {
        respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let (status, content_type, body) = route(&method, path, query, ctl, chaos);
    respond(&mut stream, status, content_type, &body);
}

/// Read up to the header terminator and parse the request line.
fn read_request_head(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
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
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
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

fn route(
    method: &str,
    path: &str,
    query: &str,
    ctl: &Sender<CtlRequest>,
    chaos: bool,
) -> Routed {
    match (method, path) {
        ("GET", "/healthz") => (200, "text/plain", "ok\n".into()),
        ("GET", "/readyz") => {
            if haystack_cli::sig::triggered() {
                (503, "text/plain", "draining\n".into())
            } else {
                // Readiness is the engine's verdict: any shard with an
                // open crash-loop breaker turns the daemon not-ready.
                ask(ctl, Query::Ready)
            }
        }
        ("GET", "/metrics") => {
            (200, "text/plain; version=0.0.4", telemetry::global().snapshot().to_prometheus())
        }
        ("GET", "/stats") => ask(ctl, Query::Stats),
        ("GET", "/detections") => ask(ctl, Query::Detections { class: param(query, "class") }),
        ("GET", "/line") => match param(query, "id").and_then(|v| v.parse().ok()) {
            Some(id) => ask(ctl, Query::Line { id }),
            None => bad("line needs ?id=N"),
        },
        ("GET", "/usage") => ask(ctl, Query::Usage { class: param(query, "class") }),
        ("GET", "/staleness") => ask(ctl, Query::Staleness),
        ("GET", "/sources") => ask(ctl, Query::Sources),
        ("GET", "/events") => ask(ctl, Query::Events),
        ("POST", "/admin/checkpoint") => ask(ctl, Query::CheckpointNow),
        ("POST", "/admin/reload-rules") => match param(query, "path") {
            Some(path) => ask(ctl, Query::ReloadRules { path }),
            None => bad("reload-rules needs ?path=/abs/pack.hsp"),
        },
        ("POST", "/admin/reset-breaker") => {
            match param(query, "shard").and_then(|v| v.parse().ok()) {
                Some(shard) => ask(ctl, Query::ResetBreaker { shard }),
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
                Some(shard) => ask(ctl, Query::Panic { shard }),
                None => bad("panic needs ?shard=N"),
            }
        }
        ("POST", "/admin/slow") => {
            if !chaos {
                return forbidden();
            }
            match param(query, "us").and_then(|v| v.parse().ok()) {
                Some(us) => ask(ctl, Query::Slow { us }),
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
                (Some(shard), Some(ms)) => ask(ctl, Query::Stall { shard, ms }),
                _ => bad("stall needs ?shard=N&ms=M"),
            }
        }
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/stats" | "/detections" | "/line"
            | "/usage" | "/staleness" | "/sources" | "/events" | "/admin/checkpoint"
            | "/admin/drain" | "/admin/reload-rules" | "/admin/reset-breaker" | "/admin/panic"
            | "/admin/stall" | "/admin/slow",
        ) => (405, "application/json", "{\"error\":\"method not allowed\"}".into()),
        _ => (404, "application/json", "{\"error\":\"no such endpoint\"}".into()),
    }
}

fn bad(msg: &str) -> Routed {
    (400, "application/json", format!("{{\"error\":{msg:?}}}"))
}

fn forbidden() -> Routed {
    (403, "application/json", "{\"error\":\"chaos endpoints need --chaos\"}".into())
}

/// Round-trip a query to the engine; a missing engine is 503, not a hang.
fn ask(ctl: &Sender<CtlRequest>, query: Query) -> Routed {
    let (tx, rx) = channel();
    if ctl.send(CtlRequest { query, reply: tx }).is_err() {
        return (503, "application/json", "{\"error\":\"engine gone\"}".into());
    }
    match rx.recv_timeout(ENGINE_TIMEOUT) {
        Ok(CtlReply { status, content_type, body }) => (status, content_type, body),
        Err(_) => (503, "application/json", "{\"error\":\"engine busy\"}".into()),
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
        assert_eq!(param("class=Alexa+Enabled&x=1", "class").as_deref(), Some("Alexa Enabled"));
        assert_eq!(param("a=1&b=2", "b").as_deref(), Some("2"));
        assert_eq!(param("a=1", "missing"), None);
        assert_eq!(param("", "a"), None);
    }
}
