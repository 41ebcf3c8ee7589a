//! Driving the real programs from outside: building the `haystack`
//! binary, exporting the signature pack, spawning `haystack serve` and
//! talking to its HTTP plane.

use crate::pin::{Cpus, Placement};
use crate::proc;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A harness error: what failed, for the operator.
pub type Error = String;
/// Harness result.
pub type Result<T> = std::result::Result<T, Error>;

/// How long any single wait (readiness, drain, exit) may take.
pub const WAIT_LIMIT: Duration = Duration::from_secs(60);
/// How often `/stats` is polled while waiting for the daemon to have
/// taken a stream in: the end of a timed window is known this closely.
const STATS_EVERY: Duration = Duration::from_millis(20);

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in a directory of the repository")
        .to_path_buf()
}

/// Build the real `haystack` binary from the repository's own manifest
/// and return its path. Uses `CARGO_TARGET_DIR` when the caller set one
/// (resolved against the repository root, where the benchmark is run
/// from) and this package's own `target/` otherwise, so the root's
/// `target/` is never touched.
pub fn build_haystack() -> Result<PathBuf> {
    let root = repo_root();
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(format!(
            "{} holds no crates/cli: nothing to benchmark",
            root.display()
        ));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("benchmark/target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(&root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--package",
            "haystack-cli",
            "--bin",
            "haystack",
            "--target-dir",
        ])
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building haystack failed ({status})"));
    }
    let bin = target.join("release/haystack");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo succeeded but {} is missing", bin.display()))
    }
}

/// Run `haystack rules export --out PACK` (one thread's work) on
/// `placement`'s one CPU.
pub fn rules_export(haystack: &Path, pack: &Path, placement: &Placement) -> Result<()> {
    let mut cmd = Command::new(haystack);
    placement.confine(&mut cmd, Cpus::One);
    let status = cmd
        .args(["rules", "export", "--quiet", "--out"])
        .arg(pack)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run haystack rules export: {e}"))?;
    if !status.success() {
        return Err(format!("haystack rules export failed ({status})"));
    }
    Ok(())
}

/// One HTTP/1.1 request with `Connection: close`; returns status + body.
pub fn http(addr: SocketAddr, method: &str, target: &str) -> Result<(u16, String)> {
    let fail = |e: std::io::Error| format!("{method} {target}: {e}");
    let mut conn = TcpStream::connect(addr).map_err(fail)?;
    conn.set_read_timeout(Some(WAIT_LIMIT)).map_err(fail)?;
    conn.set_nodelay(true).map_err(fail)?;
    write!(
        conn,
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .map_err(fail)?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).map_err(fail)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {target}: response has no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {target}: malformed status line"))?;
    Ok((status, body.to_string()))
}

/// `GET target`, requiring 200.
pub fn get_ok(addr: SocketAddr, target: &str) -> Result<String> {
    match http(addr, "GET", target)? {
        (200, body) => Ok(body),
        (status, body) => Err(format!("GET {target}: status {status}: {body}")),
    }
}

/// A running `haystack serve` child. Killed and reaped on drop, so a
/// failed check never leaves a daemon behind.
#[derive(Debug)]
pub struct Serve {
    child: Child,
    /// Process id.
    pub pid: u32,
    /// TCP replay listener.
    pub tcp: SocketAddr,
    /// UDP NetFlow listener.
    pub udp: SocketAddr,
    /// HTTP query/admin plane.
    pub http: SocketAddr,
}

impl Serve {
    /// Spawn `haystack serve --rules PACK --workers 2 --seed 42
    /// --ports-file … --quiet` (plus `--checkpoint-dir`, and `--resume`
    /// when asked) on `cpus` of `placement`, and wait for `/readyz` to
    /// answer 200.
    pub fn spawn(
        haystack: &Path,
        pack: &Path,
        work: &Path,
        ckpt_dir: &Path,
        resume: bool,
        (placement, cpus): (&Placement, Cpus),
    ) -> Result<Serve> {
        let ports_file = work.join("ports.json");
        let _ = std::fs::remove_file(&ports_file);
        let t0 = Instant::now();
        let mut cmd = Command::new(haystack);
        placement.confine(&mut cmd, cpus);
        cmd.arg("serve")
            .arg("--rules")
            .arg(pack)
            .args(["--workers", "2", "--seed", "42", "--quiet", "--ports-file"])
            .arg(&ports_file)
            .arg("--checkpoint-dir")
            .arg(ckpt_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if resume {
            cmd.arg("--resume");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn haystack serve: {e}"))?;
        let pid = child.id();
        let ports = loop {
            if let Some(doc) = std::fs::read_to_string(&ports_file)
                .ok()
                .and_then(|text| serde_json::from_str(&text).ok())
            {
                break doc;
            }
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("haystack serve exited before binding ({status})"));
            }
            if t0.elapsed() > WAIT_LIMIT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("haystack serve never wrote its ports file".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let addr = |key: &str| -> Result<SocketAddr> {
            let port = ports[key]
                .as_u64()
                .ok_or_else(|| format!("ports file lacks {key}"))?;
            Ok(SocketAddr::from(([127, 0, 0, 1], port as u16)))
        };
        let serve = Serve {
            child,
            pid,
            tcp: addr("tcp")?,
            udp: addr("udp")?,
            http: addr("http")?,
        };
        loop {
            if matches!(http(serve.http, "GET", "/readyz"), Ok((200, _))) {
                return Ok(serve);
            }
            if t0.elapsed() > WAIT_LIMIT {
                return Err("haystack serve never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `GET /stats` as a JSON document.
    pub fn stats(&self) -> Result<serde_json::Value> {
        let body = get_ok(self.http, "/stats")?;
        serde_json::from_str(&body).map_err(|e| format!("/stats is not JSON: {e}"))
    }

    /// Poll `/stats` every [`STATS_EVERY`] until `done` accepts it;
    /// returns the accepted document and when its poll completed.
    pub fn wait_stats(
        &self,
        mut done: impl FnMut(&serde_json::Value) -> bool,
    ) -> Result<(serde_json::Value, Instant)> {
        let t0 = Instant::now();
        loop {
            let stats = self.stats()?;
            let now = Instant::now();
            if done(&stats) {
                return Ok((stats, now));
            }
            if t0.elapsed() > WAIT_LIMIT {
                return Err(format!(
                    "daemon never reached the awaited state; last /stats: {stats}"
                ));
            }
            std::thread::sleep(STATS_EVERY);
        }
    }

    /// Wait until the daemon has taken in whatever UDP datagrams reached
    /// it: the kernel may still hold some, so wait for an empty queue and
    /// a `received` that has stopped moving.
    pub fn wait_udp_settled(&self) -> Result<(serde_json::Value, Instant)> {
        let mut last = u64::MAX;
        self.wait_stats(|s| {
            let received = s["received"].as_u64().unwrap_or(0);
            let settled = s["queue_depth"].as_u64() == Some(0) && received == last;
            last = received;
            settled
        })
    }

    /// CPU ticks (process plus reaped children) so far.
    pub fn cpu_ticks(&self) -> Result<u64> {
        proc::cpu_ticks(self.pid)
            .map(|t| t.total())
            .ok_or_else(|| "daemon vanished".into())
    }

    /// Peak resident set so far, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64> {
        proc::peak_rss_mib(self.pid).ok_or_else(|| "daemon vanished".into())
    }

    /// `POST /admin/drain` and wait for a clean exit.
    pub fn drain(&mut self) -> Result<()> {
        let t0 = Instant::now();
        match http(self.http, "POST", "/admin/drain")? {
            (200, _) => {}
            (status, body) => return Err(format!("POST /admin/drain: status {status}: {body}")),
        }
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("drained daemon exited with {status}"))
                };
            }
            if t0.elapsed() > WAIT_LIMIT {
                return Err("drained daemon never exited".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Already reaped after a drain; otherwise stop it now.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
