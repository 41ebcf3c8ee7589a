//! Figure 18: subscriber lines with *actively used* Alexa-enabled
//! devices per hour (§7.1's 10-sampled-packets threshold), against the
//! hourly and daily presence counts.
//!
//! Paper reference (15 M lines): presence ~1 M+/hour and ~2 M/day;
//! active use peaks ~27 k during daytime/weekend hours, following the
//! diurnal human-activity curve.

use haystack_bench::{build_pipeline, run_standard_isp_study, Args};
use haystack_core::report::DeviceGroup;

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let (_isp, study) = run_standard_isp_study(&p, &args);

    println!("# fig18: Alexa Enabled — presence vs active use");
    println!("hour\tdetected_lines\tactively_used_lines");
    let hours: std::collections::BTreeSet<u32> =
        study.group_hourly.keys().map(|(_, h)| *h).collect();
    for h in &hours {
        println!(
            "{h}\t{}\t{}",
            study
                .group_hourly
                .get(&(DeviceGroup::Alexa, *h))
                .copied()
                .unwrap_or(0),
            study
                .active_hourly
                .get(&("Alexa Enabled".to_string(), *h))
                .copied()
                .unwrap_or(0),
        );
    }

    let peak_hour = hours.iter().max_by_key(|h| {
        study
            .active_hourly
            .get(&("Alexa Enabled".to_string(), **h))
            .copied()
            .unwrap_or(0)
    });
    if let Some(h) = peak_hour {
        let peak = study
            .active_hourly
            .get(&("Alexa Enabled".to_string(), *h))
            .copied()
            .unwrap_or(0);
        let night = study
            .active_hourly
            .get(&("Alexa Enabled".to_string(), (h / 24) * 24 + 3))
            .copied()
            .unwrap_or(0);
        println!(
            "\n# peak active use {peak} lines at hour {} ({}:00); at 03:00 same day: {night}",
            h,
            h % 24
        );
        println!("# paper: active use follows the diurnal pattern, peaking during day/evening.");
    }
    println!("\n# daily presence for scale:");
    for (k, v) in study
        .group_daily
        .iter()
        .filter(|((g, _), _)| *g == DeviceGroup::Alexa)
    {
        println!("day {}\t{}", k.1, v);
    }
}
