//! Precision / recall / F1 per detection class against the simulation's
//! ownership oracle — the quantified version of §5's crosschecks and
//! §7.3's limitations discussion.
//!
//! Expected picture: precision near 1.0 everywhere (the §4 filters keep
//! shared and generic IPs out of the rules); recall tracks each class's
//! traffic intensity — hot platforms are near-complete within a day,
//! laconic plugs take the multi-day window the paper reports.

use haystack_bench::{build_isp, build_pipeline, Args};
use haystack_core::detector::DetectorConfig;
use haystack_core::hitlist::HitList;
use haystack_core::parallel::DetectorPool;
use haystack_core::quality::evaluate;
use haystack_core::telemetry::{self, InstrumentedStream};
use haystack_net::DayBin;
use haystack_wild::{RecordChunk, VantagePoint, DEFAULT_CHUNK_RECORDS};

fn main() {
    let args = Args::parse();
    telemetry::set_enabled(true);
    let p = build_pipeline(&args);
    let isp = build_isp(&p, &args);
    let days = if args.fast { 1u32 } else { 3 };

    let mut pool = DetectorPool::new(&p.rules, &HitList::default(), DetectorConfig::default(), 4);
    pool.attach_telemetry(&telemetry::Scope::named("pool"))
        .unwrap();
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    let stream_scope = telemetry::Scope::named("stream");
    println!(
        "# accuracy over {days} day(s), {} lines, sampling 1/1000, D=0.4",
        isp.config().lines
    );
    println!("day\tclass\ttp\tfp\tfn\tprecision\trecall\tf1");
    for day in 0..days {
        pool.set_hitlist(&HitList::for_day(&p.rules, &p.dnsdb, DayBin(day)))
            .unwrap();
        // Evidence accumulates across days (the detector is cumulative
        // here, matching Figure 13's multi-day view).
        for hour in DayBin(day).hours() {
            let mut stream = InstrumentedStream::new(
                isp.stream_hour(&p.world, hour, DEFAULT_CHUNK_RECORDS),
                &stream_scope,
            );
            pool.observe_stream(&mut stream, &mut chunk).unwrap();
        }
        let mut rows: Vec<(&str, haystack_core::quality::Confusion)> = p
            .rules
            .rules
            .iter()
            .map(|r| {
                let class = p.rules.class_name(r.class);
                (class, evaluate(&p, &isp, &mut pool, class, day))
            })
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.true_pos));
        for (class, c) in rows {
            println!(
                "{day}\t{class}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}",
                c.true_pos,
                c.false_pos,
                c.false_neg,
                c.precision(),
                c.recall(),
                c.f1()
            );
        }
    }
    println!("# note: owner identities churn with daily IP reassignment; the oracle tracks it.");
    println!("# telemetry");
    let snap = telemetry::global().snapshot();
    println!(
        "{}",
        serde_json::to_string_pretty(&snap.to_json()).expect("serializable")
    );
}
