//! Ablation: §7.4's DNS-assisted variant vs the paper's flow-based
//! methodology, on the same simulated ISP day.
//!
//! Expected picture, quantified:
//! * DNS rules detect the shared-infrastructure classes (Google Home,
//!   Apple TV, Lefun) that flows can never attribute;
//! * DNS coverage degrades linearly with the DoT/DoH exodus
//!   (`resolver share`), flows don't care;
//! * a public-resolver operator sees the same thing at share 1.0 across
//!   *every* ISP — the privacy warning at the end of §7.4.

use haystack_bench::{build_isp, build_pipeline, Args};
use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::dns_assisted::{dns_rules, DnsDetector};
use haystack_core::hitlist::HitList;
use haystack_net::DayBin;
use haystack_wild::gen::generate_dns_hour;
use haystack_wild::{RecordChunk, VantagePoint, DEFAULT_CHUNK_RECORDS};

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let isp = build_isp(&p, &args);
    let day = DayBin(0);

    // Flow-based detection, one day.
    eprintln!("# flow-based detection ...");
    let mut flow_det = Detector::new(
        &p.rules,
        HitList::for_day(&p.rules, &p.dnsdb, day),
        DetectorConfig::default(),
    );
    let mut chunk = RecordChunk::with_capacity(DEFAULT_CHUNK_RECORDS);
    for hour in day.hours() {
        let mut stream = isp.stream_hour(&p.world, hour, DEFAULT_CHUNK_RECORDS);
        while stream.next_chunk(&mut chunk) {
            for r in &chunk.records {
                flow_det.observe_wild(r);
            }
        }
    }

    // DNS-based detection at several resolver shares.
    let rules = dns_rules(&p.catalog, &p.observations, &p.classification);
    let shares = [1.0f64, 0.7, 0.4];
    let mut dns_dets: Vec<DnsDetector<'_>> = shares
        .iter()
        .map(|_| DnsDetector::new(&rules, 0.4))
        .collect();
    eprintln!("# resolver-log detection at shares {shares:?} ...");
    for hour in day.hours() {
        for (si, &share) in shares.iter().enumerate() {
            let events = generate_dns_hour(
                isp.population(),
                isp.plan(),
                hour,
                share,
                isp.config().seed,
                isp.anonymizer(),
            );
            for e in &events {
                dns_dets[si].observe_event(e, &isp.plan().domains);
            }
        }
    }

    println!("# ablation_dns: detected lines per class, day 0 (D=0.4)");
    println!("class\tflow\tdns@100%\tdns@70%\tdns@40%");
    let mut classes: Vec<&'static str> = rules.rules.keys().copied().collect();
    classes.sort();
    for class in classes {
        let flow = p
            .rules
            .rule(class)
            .map(|_| flow_det.detected_lines(class).len())
            .map(|n| n.to_string())
            .unwrap_or_else(|| "excluded".into());
        println!(
            "{class}\t{flow}\t{}\t{}\t{}",
            dns_dets[0].detected_lines(class).len(),
            dns_dets[1].detected_lines(class).len(),
            dns_dets[2].detected_lines(class).len(),
        );
    }
    println!(
        "\n# §7.4: DNS sees through CDNs (the 'excluded' rows get counts) but loses \
         households that left the ISP resolver; a public-resolver operator runs this \
         at 100% share across every ISP at once — the privacy concern."
    );
}
