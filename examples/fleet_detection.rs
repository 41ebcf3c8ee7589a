//! Multi-core detection at scale: process a day of ISP traffic with the
//! sharded detector and compare wall-clock against a single core —
//! the deployment shape behind the paper's "millions of devices within
//! minutes" (§1).
//!
//! Run with `cargo run --release --example fleet_detection`.

use haystack::core::detector::{Detector, DetectorConfig};
use haystack::core::hitlist::HitList;
use haystack::core::parallel::DetectorPool;
use haystack::core::pipeline::{Pipeline, PipelineConfig};
use haystack::net::DayBin;
use haystack::wild::{IspConfig, IspVantage, RecordChunk, VecStream, DEFAULT_CHUNK_RECORDS};
use std::time::Instant;

fn main() {
    println!("building rules from ground truth ...");
    let pipeline = Pipeline::run(PipelineConfig::fast(42));
    let lines = 60_000u32;
    let isp = IspVantage::new(
        &pipeline.catalog,
        IspConfig {
            lines,
            sampling: 1_000,
            seed: 11,
            background: true,
        },
    );

    // Pre-capture a day so the comparison times only the detectors.
    println!("capturing one day of sampled flow records at {lines} lines ...");
    let day = DayBin(0);
    let mut all = Vec::new();
    for hour in day.hours() {
        all.extend(isp.capture_hour(&pipeline.world, hour).records);
    }
    println!("{} records captured", all.len());

    let hitlist = HitList::for_day(&pipeline.rules, &pipeline.dnsdb, day);

    let t0 = Instant::now();
    let mut seq = Detector::new(&pipeline.rules, hitlist.clone(), DetectorConfig::default());
    for r in &all {
        seq.observe_wild(r);
    }
    let seq_time = t0.elapsed();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let replay = all.clone();
    let t0 = Instant::now();
    let mut pool = DetectorPool::new(
        &pipeline.rules,
        &hitlist,
        DetectorConfig::default(),
        workers,
    );
    let mut stream = VecStream::new(replay, DEFAULT_CHUNK_RECORDS);
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    pool.observe_stream(&mut stream, &mut chunk).unwrap();
    pool.finish().unwrap();
    let par_time = t0.elapsed();

    let seq_alexa = seq.detected_lines("Alexa Enabled").len();
    let par_alexa = pool.detected_lines("Alexa Enabled").unwrap().len();
    assert_eq!(seq_alexa, par_alexa, "sharding must not change results");

    println!("\nsequential: {seq_time:?}; streamed pool x{workers}: {par_time:?}");
    println!("identical detections: {seq_alexa} Alexa-enabled lines on day 0");
    let rps = all.len() as f64 / par_time.as_secs_f64();
    println!(
        "sharded throughput ≈ {:.1} M records/s → a 15M-line ISP hour (~6M records) in ~{:.1} s",
        rps / 1e6,
        6.0e6 / rps
    );
}
