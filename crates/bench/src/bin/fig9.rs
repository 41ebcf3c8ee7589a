//! Figure 9: ECDF of the average packets/hour per (device, IoT-specific
//! domain), for the idle and the active experiments.
//!
//! Paper reference points: most device-domain pairs exchange ≤100
//! packets/hour; active experiments push some domains past 10 k.

use haystack_bench::{build_pipeline, Args};
use haystack_core::visibility::{ecdf, ecdf_at};
use haystack_net::StudyWindow;
use std::collections::HashMap;

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let take = if args.fast { 6 } else { usize::MAX };

    let mut curves: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for (label, window) in [
        ("active", StudyWindow::ACTIVE_GT),
        ("idle", StudyWindow::IDLE_GT),
    ] {
        let hours: Vec<_> = window.hour_bins().take(take).collect();
        let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
        for hour in &hours {
            for g in p.driver.generate_hour(&p.world, *hour) {
                let spec = &p.driver.domain_table()[g.domain_id as usize];
                if p.world.is_generic(&spec.name) {
                    continue; // IoT-specific domains only (§4.1)
                }
                *counts.entry((g.instance, g.domain_id)).or_default() += 1;
            }
        }
        let n_hours = hours.len() as f64;
        let rates: Vec<f64> = counts.values().map(|n| *n as f64 / n_hours).collect();
        curves.push((label, ecdf(&rates)));
    }

    println!("# ECDF of avg packets/hour per (device, IoT-specific domain)");
    println!("pkts_per_hour\tactive_F\tidle_F");
    for x in [
        1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0,
    ] {
        let a = ecdf_at(&curves[0].1, x);
        let i = ecdf_at(&curves[1].1, x);
        println!("{x}\t{a:.3}\t{i:.3}");
    }
    for (label, curve) in &curves {
        let max = curve.last().map(|(v, _)| *v).unwrap_or(0.0);
        println!("# {label}: {} pairs, max rate {max:.0} pkts/h", curve.len());
    }
    println!(
        "# paper: 'almost all devices and domains are exchanging at least 100 packets \
         per hour' is the upper tail here; active interactions push past 10k."
    );
}
