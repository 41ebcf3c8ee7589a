//! Figure 11: ISP subscriber lines with detected IoT activity, per hour
//! (a) and per day (b), for the three headline groups: Alexa Enabled,
//! Samsung IoT, and the other 32 device types.
//!
//! Paper reference points (15 M lines): ~20 % of lines show IoT activity
//! per day; Alexa-enabled penetration ~14 %; hour→day gain ≈ ×2 for
//! Alexa and ≈ ×6 for Samsung. Counts here scale with `--lines`; the
//! percentages are the comparable quantity.

use haystack_bench::{build_pipeline, pct, run_standard_isp_study, Args};
use haystack_core::report::DeviceGroup;

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let (isp, study) = run_standard_isp_study(&p, &args);
    let lines = f64::from(isp.config().lines);

    println!("# fig11a: unique subscriber lines per hour");
    println!("hour\talexa\tsamsung\tother32");
    let hours: Vec<u32> = study
        .group_hourly
        .keys()
        .map(|(_, h)| *h)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for h in &hours {
        println!(
            "{h}\t{}\t{}\t{}",
            study
                .group_hourly
                .get(&(DeviceGroup::Alexa, *h))
                .copied()
                .unwrap_or(0),
            study
                .group_hourly
                .get(&(DeviceGroup::Samsung, *h))
                .copied()
                .unwrap_or(0),
            study
                .group_hourly
                .get(&(DeviceGroup::Other, *h))
                .copied()
                .unwrap_or(0),
        );
    }

    println!("\n# fig11b: unique subscriber lines per day");
    println!("day\talexa\tsamsung\tother32\tany_iot\tany_iot_share");
    let days: Vec<u32> = study.any_iot_daily.keys().copied().collect();
    for d in &days {
        let any = study.any_iot_daily[d];
        println!(
            "{d}\t{}\t{}\t{}\t{any}\t{}",
            study
                .group_daily
                .get(&(DeviceGroup::Alexa, *d))
                .copied()
                .unwrap_or(0),
            study
                .group_daily
                .get(&(DeviceGroup::Samsung, *d))
                .copied()
                .unwrap_or(0),
            study
                .group_daily
                .get(&(DeviceGroup::Other, *d))
                .copied()
                .unwrap_or(0),
            pct(any as f64 / lines)
        );
    }

    // Headline ratios.
    if let (Some(d0_alexa), Some(d0_sam)) = (
        study.group_daily.get(&(DeviceGroup::Alexa, days[0])),
        study.group_daily.get(&(DeviceGroup::Samsung, days[0])),
    ) {
        let peak_hour = |g: DeviceGroup| {
            hours
                .iter()
                .filter(|h| **h < 24)
                .filter_map(|h| study.group_hourly.get(&(g, *h)))
                .max()
                .copied()
                .unwrap_or(0)
        };
        let a_h = peak_hour(DeviceGroup::Alexa).max(1);
        let s_h = peak_hour(DeviceGroup::Samsung).max(1);
        println!("\n# summary (day 0):");
        println!(
            "alexa daily {} ({} of lines), day/peak-hour gain x{:.1} (paper ~x2, penetration ~14%)",
            d0_alexa,
            pct(*d0_alexa as f64 / lines),
            *d0_alexa as f64 / a_h as f64
        );
        println!(
            "samsung daily {} ({} of lines), day/peak-hour gain x{:.1} (paper ~x6)",
            d0_sam,
            pct(*d0_sam as f64 / lines),
            *d0_sam as f64 / s_h as f64
        );
        println!(
            "any-IoT daily share {} (paper ~20%)",
            pct(study.any_iot_daily[&days[0]] as f64 / lines)
        );
    }
}
