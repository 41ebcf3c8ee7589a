//! `haystack serve` ingest-path benchmark: the daemon's hot loop
//! (bounded admission queue → NetFlow collector → WildRecord conversion
//! → usage/staleness → sharded detector pool) measured in-process, plus
//! a controlled 2× overload burst against the shedding admission queue.
//!
//! Two phases, two claims:
//!
//! * **steady** — the lossless (TCP-replay) path: a producer thread
//!   `push`es datagrams through the bounded queue while the consumer
//!   runs the full serve ingest pipeline. Reports records/s and peak
//!   RSS (`VmHWM`).
//! * **overload** — a producer `offer`s datagrams at 2× the rate of a
//!   deliberately slowed consumer. The queue must shed (not block, not
//!   grow) and the accounting must balance *exactly*:
//!   `received == processed + shed`.
//!
//! Results go to stdout as TSV and to `BENCH_serve.json` (one row per
//! phase). `--check` turns the accounting balance and a nonzero shed
//! into a CI gate (exit 1 on violation).

use bytes::Bytes;
use haystack_core::detector::DetectorConfig;
use haystack_core::hitlist::HitList;
use haystack_core::parallel::DetectorPool;
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_core::usage::{UsageConfig, UsageTracker};
use haystack_core::staleness::StalenessMonitor;
use haystack_flow::export::{ExportProtocol, Exporter};
use haystack_flow::listener::AdmissionQueue;
use haystack_flow::{Collector, FlowKey, FlowRecord, TcpFlags};
use haystack_net::ports::Proto;
use haystack_net::{Anonymizer, SimTime};
use haystack_wild::WildRecord;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Synthetic flow records across a /16 of lines (same shape as the
/// daemon's loopback exerciser).
fn synthetic_records(n: usize, seed: u64) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed);
            FlowRecord {
                key: FlowKey {
                    src: Ipv4Addr::new(100, 64, (x >> 8) as u8, x as u8),
                    dst: Ipv4Addr::new(198, 18, 0, (x >> 16) as u8),
                    sport: 40_000 + (i % 1_000) as u16,
                    dport: 443,
                    proto: Proto::Tcp,
                },
                packets: 1 + (x % 5),
                bytes: 60 * (1 + (x % 5)),
                tcp_flags: TcpFlags::ACK,
                first: SimTime(i as u64),
                last: SimTime(i as u64 + 30),
            }
        })
        .collect()
}

/// Export `records` as NetFlow v9 datagrams from one source.
fn datagrams(records: &[FlowRecord], source: u32) -> Vec<Bytes> {
    let mut exporter = Exporter::new(ExportProtocol::NetflowV9, source);
    let mut out = Vec::new();
    for chunk in records.chunks(512) {
        out.extend(exporter.export(chunk, 0).expect("export"));
    }
    out
}

/// Peak resident set size in KiB, from `/proc/self/status` (`VmHWM`).
/// `None` off Linux or if the field is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// The serve engine's per-datagram ingest work, minus the daemon shell.
struct Ingest {
    collector: Collector,
    pool: DetectorPool,
    usage: UsageTracker,
    staleness: StalenessMonitor,
    anon: Anonymizer,
    flow_buf: Vec<FlowRecord>,
    wild_buf: Vec<WildRecord>,
    records: u64,
    decode_errors: u64,
}

impl Ingest {
    fn new(p: &Pipeline, workers: usize) -> Ingest {
        let hitlist = HitList::whole_window(&p.rules);
        let pool = DetectorPool::new(&p.rules, &hitlist, DetectorConfig::default(), workers);
        let usage =
            UsageTracker::new(std::sync::Arc::clone(&p.rules), hitlist.clone(), UsageConfig::default());
        let staleness = StalenessMonitor::new(hitlist);
        Ingest {
            collector: Collector::new(),
            pool,
            usage,
            staleness,
            anon: Anonymizer::new(11, 11 ^ 0x9E37_79B9_7F4A_7C15),
            flow_buf: Vec::new(),
            wild_buf: Vec::new(),
            records: 0,
            decode_errors: 0,
        }
    }

    fn feed(&mut self, datagram: Bytes) {
        self.flow_buf.clear();
        match self.collector.feed_into(&datagram, &mut self.flow_buf) {
            Ok(decoded) => {
                self.records += decoded as u64;
                self.wild_buf.clear();
                for r in &self.flow_buf {
                    let w = WildRecord::from_flow(r, &self.anon);
                    self.usage.observe(&w);
                    self.staleness.observe(&w);
                    self.wild_buf.push(w);
                }
                self.pool.observe_records(&self.wild_buf).expect("pool");
            }
            Err(_) => self.decode_errors += 1,
        }
    }
}

fn main() {
    let mut fast = false;
    let mut check = false;
    let mut seed = 42u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "--check" => check = true,
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(42),
            other => {
                eprintln!("usage: serve_ingest [--fast] [--check] [--seed N] (got {other:?})");
                std::process::exit(2);
            }
        }
    }

    let p = Pipeline::run(if fast {
        PipelineConfig::fast(seed)
    } else {
        PipelineConfig { seed, ..Default::default() }
    });
    let n_records = if fast { 100_000 } else { 1_000_000 };
    let records = synthetic_records(n_records, seed);
    let wire = datagrams(&records, 7);
    println!("# serve_ingest: {n_records} records in {} datagrams", wire.len());
    println!("phase\tdatagrams\trecords\trecords_per_sec\tshed\tpeak_rss_kb");
    let mut rows = Vec::new();

    // ---- steady phase: lossless path at full speed -------------------
    let workers = 4;
    let mut ingest = Ingest::new(&p, workers);
    let (queue, rx, stats) = AdmissionQueue::bounded(1_024);
    let producer = {
        let queue = queue.clone();
        let wire = wire.clone();
        std::thread::spawn(move || {
            for d in wire {
                queue.push(d);
            }
        })
    };
    drop(queue);
    let t0 = Instant::now();
    while let Ok(d) = rx.recv() {
        ingest.feed(d);
    }
    producer.join().unwrap();
    ingest.pool.finish().expect("pool finish");
    let elapsed = t0.elapsed().as_secs_f64();
    let rps = ingest.records as f64 / elapsed.max(1e-9);
    let rss = peak_rss_kb();
    assert_eq!(stats.shed(), 0, "lossless path shed datagrams");
    assert_eq!(ingest.records as usize, n_records, "records lost on the lossless path");
    println!(
        "steady\t{}\t{}\t{rps:.0}\t0\t{}",
        stats.admitted(),
        ingest.records,
        rss.map_or_else(|| "-".into(), |k| k.to_string())
    );
    rows.push(serde_json::json!({
        "bench": "serve_ingest",
        "phase": "steady",
        "workers": workers,
        "datagrams": stats.admitted(),
        "records": ingest.records,
        "records_per_sec": rps,
        "elapsed_secs": elapsed,
        "peak_rss_kb": rss,
        "fast": fast,
        "seed": seed,
    }));

    // ---- overload phase: 2× the consumer's rate, bounded queue sheds -
    // The consumer simulates a saturated engine: a fixed service time
    // per datagram. The producer offers at twice that rate, so roughly
    // half the burst must shed — and the accounting must balance.
    let service = Duration::from_micros(200);
    let burst: Vec<Bytes> = wire.iter().take(4_000).cloned().collect();
    let n_burst = burst.len() as u64;
    let (queue, rx, stats) = AdmissionQueue::bounded(64);
    let consumer = std::thread::spawn(move || {
        let mut processed = 0u64;
        while let Ok(_d) = rx.recv() {
            std::thread::sleep(service);
            processed += 1;
        }
        processed
    });
    for d in burst {
        queue.offer(d);
        std::thread::sleep(service / 2);
    }
    drop(queue);
    let processed = consumer.join().unwrap();
    let (received, admitted, shed) = (stats.received(), stats.admitted(), stats.shed());
    let shed_rate = shed as f64 / received.max(1) as f64;
    println!("overload\t{received}\t-\t-\t{shed}\t-");
    println!(
        "# overload: received {received}, processed {processed}, shed {shed} \
         ({:.0}% of a 2x burst)",
        shed_rate * 100.0
    );
    rows.push(serde_json::json!({
        "bench": "serve_ingest",
        "phase": "overload",
        "queue_capacity": 64,
        "burst_datagrams": n_burst,
        "received": received,
        "admitted": admitted,
        "processed": processed,
        "shed": shed,
        "shed_rate": shed_rate,
        "fast": fast,
        "seed": seed,
    }));

    let doc = serde_json::Value::Array(rows);
    std::fs::write("BENCH_serve.json", format!("{doc:#}")).expect("write BENCH_serve.json");
    println!("# wrote BENCH_serve.json");

    if check {
        // The CI gate: every datagram is accounted for, exactly once.
        let balanced = received == processed + shed && admitted == processed;
        if !balanced {
            eprintln!(
                "serve_ingest --check FAILED: received {received} != processed {processed} \
                 + shed {shed}"
            );
            std::process::exit(1);
        }
        if shed == 0 {
            eprintln!("serve_ingest --check FAILED: a 2x overload burst shed nothing");
            std::process::exit(1);
        }
        if received != n_burst {
            eprintln!("serve_ingest --check FAILED: burst lost datagrams before admission");
            std::process::exit(1);
        }
        println!("# check passed: received == processed + shed, shed > 0");
    }
}
