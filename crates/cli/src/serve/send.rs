//! `haystack send` — a loopback NetFlow v9 exporter for driving a
//! running `haystack serve` daemon: smoke tests, the CI replay job, the
//! chaos suite, and the restart-determinism proof all feed the daemon
//! through this command.
//!
//! Two record generators:
//!
//! * with `--rules FILE`, every line contacts every (service IP, port)
//!   of every rule — records that *hit*, so detections, usage, and
//!   staleness all light up deterministically;
//! * without, the generic synthetic stream (same generator as
//!   `haystack chaos`) — background traffic that misses the hitlist.
//!
//! Two transports, matching the daemon's two listeners:
//!
//! * `--mode tcp` (default): length-prefixed frames over the lossless
//!   replay path — nothing sheds, so byte-identical restart proofs can
//!   count on every record arriving;
//! * `--mode udp`: raw datagrams at full speed — the overload path.
//!
//! `--malformed N` corrupts the first N datagrams' first set header
//! (valid NetFlow header, garbage sets), which drives the collector's
//! per-source malformed/quarantine machinery for `--source`.

use haystack_cli::{cli_error, note};
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::listener::write_frame;
use haystack_flow::{FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::SimTime;
use std::collections::HashMap;
use std::net::{Ipv4Addr, TcpStream, UdpSocket};
use std::process::exit;

/// Records that hit every rule's every (service IP, port) once per line.
fn hitting_records(
    rules: &haystack_core::rules::RuleSet,
    lines: u32,
    packets: u64,
    hour: u32,
) -> Vec<FlowRecord> {
    let mut out = Vec::new();
    let base = u64::from(hour) * 3_600;
    for line in 0..lines {
        let src = Ipv4Addr::new(100, 64, (line >> 8) as u8, line as u8);
        for rule in &rules.rules {
            for dom in &rule.domains {
                for &ip in &dom.ips {
                    for &port in &dom.ports {
                        out.push(FlowRecord {
                            key: FlowKey {
                                src,
                                dst: ip,
                                sport: 40_000 + (line % 1_000) as u16,
                                dport: port,
                                proto: Proto::Tcp,
                            },
                            packets,
                            bytes: 60 * packets,
                            tcp_flags: TcpFlags::ACK,
                            first: SimTime(base),
                            last: SimTime(base + 30),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Overwrite the first set header with garbage: the NetFlow header (and
/// its source id) still parses, the sets do not — a malformed message
/// attributed to the right source.
fn corrupt(datagram: &[u8]) -> Vec<u8> {
    let mut d = datagram.to_vec();
    for b in d.iter_mut().skip(20).take(4) {
        *b = 0xFF;
    }
    d
}

pub fn cmd_send(flags: HashMap<String, String>) {
    let port: u16 = haystack_cli::num(&flags, "port", 0);
    if port == 0 {
        cli_error!("send needs --port (the daemon prints its bound ports at startup)");
        exit(2);
    }
    let host = flags
        .get("host")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1".into());
    let mode = flags.get("mode").map(String::as_str).unwrap_or("tcp");
    let seed: u64 = haystack_cli::num(&flags, "seed", 42);
    let source: u32 = haystack_cli::num(&flags, "source", 7);
    let hour: u32 = haystack_cli::num(&flags, "hour", 0);
    let malformed: usize = haystack_cli::num(&flags, "malformed", 0);
    let repeat: usize = haystack_cli::num(&flags, "repeat", 1);

    let records = if flags.contains_key("rules") {
        let rules = crate::load_pack(&flags).rules;
        let lines: u32 = haystack_cli::num(&flags, "lines", 16);
        let packets: u64 = haystack_cli::num(&flags, "packets", 12);
        hitting_records(&rules, lines, packets, hour)
    } else {
        let n: usize = haystack_cli::num(&flags, "records", 10_000);
        crate::synthetic_flow_records(n, seed)
    };

    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, source);
    let mut datagrams: Vec<Vec<u8>> = Vec::new();
    for chunk in records.chunks(512) {
        let msgs = exporter.export(chunk, 3_600 * hour).unwrap_or_else(|e| {
            cli_error!("export: {e}");
            exit(1);
        });
        datagrams.extend(msgs.iter().map(|d| d.to_vec()));
    }
    for d in datagrams.iter_mut().take(malformed) {
        *d = corrupt(d);
    }

    let addr = format!("{host}:{port}");
    let mut sent = 0usize;
    match mode {
        "tcp" => {
            let mut stream = TcpStream::connect(&addr).unwrap_or_else(|e| {
                cli_error!("cannot connect to {addr}: {e}");
                exit(1);
            });
            for _ in 0..repeat {
                for d in &datagrams {
                    write_frame(&mut stream, d).unwrap_or_else(|e| {
                        cli_error!("send to {addr}: {e}");
                        exit(1);
                    });
                    sent += 1;
                }
            }
        }
        "udp" => {
            let socket = UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0)).unwrap_or_else(|e| {
                cli_error!("cannot bind a udp socket: {e}");
                exit(1);
            });
            for _ in 0..repeat {
                for d in &datagrams {
                    socket.send_to(d, &addr).unwrap_or_else(|e| {
                        cli_error!("send to {addr}: {e}");
                        exit(1);
                    });
                    sent += 1;
                }
            }
        }
        other => {
            cli_error!("--mode must be tcp or udp, not {other:?}");
            exit(2);
        }
    }
    note!(
        "sent {sent} datagram(s) ({} record(s){}) from source {source} to {addr} over {mode}",
        records.len() * repeat,
        if malformed > 0 {
            format!(", first {malformed} malformed")
        } else {
            String::new()
        },
    );
    println!("{sent}\t{}", records.len() * repeat);
}
