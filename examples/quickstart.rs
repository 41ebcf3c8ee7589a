//! Quickstart: build the world, generate detection rules, and detect IoT
//! devices at a small simulated ISP — the paper's pipeline end to end in
//! one page.
//!
//! Run with `cargo run --release --example quickstart`.

use haystack::core::pipeline::{Pipeline, PipelineConfig};
use haystack::core::report::{run_isp_study, IspStudyConfig};
use haystack::net::StudyWindow;
use haystack::wild::{IspConfig, IspVantage};

fn main() {
    // 1. Ground truth → domain classification → dedicated-infrastructure
    //    inference → detection rules (paper §2–§4).
    println!("building ground truth and generating rules ...");
    let pipeline = Pipeline::run(PipelineConfig::fast(42));
    let s = &pipeline.stats;
    println!(
        "observed {} domains: {} primary / {} support / {} generic",
        s.observed_domains, s.primary, s.support, s.generic
    );
    println!(
        "dedication: {} dedicated (DNSDB) + {} via Censys, {} shared, {} unusable",
        s.dedicated_dnsdb, s.censys_recovered, s.shared, s.no_record
    );
    println!(
        "rules: {} platforms, {} manufacturers, {} products ({} classes undetectable)",
        s.platform_rules, s.manufacturer_rules, s.product_rules, s.undetectable_classes
    );

    // 2. Point the rules at an ISP (paper §6): 20k subscriber lines,
    //    1-in-1000 packet sampling, one study day.
    println!("\nsimulating one day at a 20k-line ISP (sampling 1/1000) ...");
    let isp = IspVantage::new(
        &pipeline.catalog,
        IspConfig {
            lines: 20_000,
            sampling: 1_000,
            seed: 7,
            background: false,
        },
    );
    let study = run_isp_study(
        &pipeline,
        &pipeline.world,
        &isp,
        &IspStudyConfig {
            window: StudyWindow::days(0, 1),
            ..Default::default()
        },
    );

    // 3. Report, as Figure 11(b) does.
    println!("\n{:<28} {:>12}", "detection class", "lines/day");
    let mut rows: Vec<(&str, u64)> = pipeline
        .rules
        .rules
        .iter()
        .filter_map(|r| {
            let class = pipeline.rules.class_name(r.class);
            study
                .daily
                .get(&(class.to_string(), 0))
                .map(|n| (class, *n))
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (class, n) in rows.iter().take(12) {
        println!("{class:<28} {n:>12}");
    }
    let any = study.any_iot_daily.get(&0).copied().unwrap_or(0);
    println!(
        "\nlines with >=1 detected IoT device: {any} of 20000 ({:.1}%)",
        100.0 * any as f64 / 20_000.0
    );
}
