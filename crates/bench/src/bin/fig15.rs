//! Figure 15: IoT activity at the IXP — unique client IPs per day for
//! Samsung IoT, Alexa Enabled, and the other 32 device types, from IPFIX
//! sampled an order of magnitude lower than the ISP, after the §6.3
//! established-TCP filter.
//!
//! Paper reference (absolute, at full scale): ~90 k Samsung, ~200 k
//! Alexa, >100 k other per day, flat across the two weeks. Counts here
//! scale with the configured member populations; flatness and ordering
//! are the comparable properties.

use haystack_bench::{build_ixp, build_pipeline, study_window, Args};
use haystack_core::report::{run_ixp_study, DeviceGroup, IxpStudyConfig};

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let ixp = build_ixp(&p, &args);
    let total_lines: u32 = ixp.members().iter().map(|m| m.lines).sum();
    eprintln!(
        "# running IXP study: {} members, {} lines total, sampling 1/10000 ...",
        ixp.members().len(),
        total_lines
    );
    let study = run_ixp_study(
        &p,
        &p.world,
        &ixp,
        &IxpStudyConfig {
            window: study_window(&args),
            ..Default::default()
        },
    );

    println!("# fig15: unique detected client IPs per day (established-TCP filtered)");
    println!("day\tsamsung\talexa\tother32");
    let days: std::collections::BTreeSet<u32> = study.daily_ips.keys().map(|(_, d)| *d).collect();
    for d in &days {
        println!(
            "{d}\t{}\t{}\t{}",
            study
                .daily_ips
                .get(&(DeviceGroup::Samsung, *d))
                .copied()
                .unwrap_or(0),
            study
                .daily_ips
                .get(&(DeviceGroup::Alexa, *d))
                .copied()
                .unwrap_or(0),
            study
                .daily_ips
                .get(&(DeviceGroup::Other, *d))
                .copied()
                .unwrap_or(0),
        );
    }
    println!(
        "\n# spoofing filter: {} records observed, {} kept",
        study.records_before_filter, study.records_after_filter
    );
    println!("# paper ordering: Alexa > other-32 > Samsung, flat across days");
}
