//! Figure 14: the "other 32" device types in the wild — unique
//! subscriber lines per day for every non-Alexa, non-Samsung detection
//! class, annotated with the class's market-rank band in the ISP's
//! country.
//!
//! Paper reference: counts are very stable across days; popular device
//! types (Philips: >100 k lines/day at 15 M lines) dominate, but even
//! no-market devices (Microseven) show a trickle.

use haystack_bench::{build_pipeline, run_standard_isp_study, Args};
use haystack_core::report::DeviceGroup;
use haystack_testbed::catalog::MarketRank;

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let (_isp, study) = run_standard_isp_study(&p, &args);
    let days: Vec<u32> = study.any_iot_daily.keys().copied().collect();

    // Market band per class: the best rank among its products.
    let band = |class: &str| -> MarketRank {
        p.catalog
            .products
            .iter()
            .filter(|pr| p.catalog.ancestry(pr.class).iter().any(|c| c.name == class))
            .map(|pr| pr.market_rank)
            .min()
            .unwrap_or(MarketRank::Other)
    };

    println!(
        "# fig14: unique subscriber lines per day, other-32 classes (rows sorted by day-0 count)"
    );
    print!("class\tmarket");
    for d in &days {
        print!("\tday{d}");
    }
    println!();
    let mut rows: Vec<(&str, MarketRank, Vec<u64>)> = p
        .rules
        .rules
        .iter()
        .filter(|r| DeviceGroup::of(&p, p.rules.class_name(r.class)) == DeviceGroup::Other)
        .map(|r| {
            let class = p.rules.class_name(r.class);
            let counts: Vec<u64> = days
                .iter()
                .map(|d| {
                    study
                        .daily
                        .get(&(class.to_string(), *d))
                        .copied()
                        .unwrap_or(0)
                })
                .collect();
            (class, band(class), counts)
        })
        .collect();
    rows.sort_by(|a, b| b.2[0].cmp(&a.2[0]));
    for (class, rank, counts) in &rows {
        print!("{class}\t{}", rank.label());
        for c in counts {
            print!("\t{c}");
        }
        println!();
    }
    println!(
        "\n# {} other-32 classes reported (paper plots 32)",
        rows.len()
    );
    // Stability check: max day-to-day swing per class.
    let mut max_swing = 0.0f64;
    for (_, _, counts) in &rows {
        let lo = *counts.iter().min().unwrap() as f64;
        let hi = *counts.iter().max().unwrap() as f64;
        if lo > 20.0 {
            max_swing = max_swing.max(hi / lo);
        }
    }
    println!("# largest day-to-day ratio among well-populated classes: x{max_swing:.2} (paper: 'very stable')");
}
