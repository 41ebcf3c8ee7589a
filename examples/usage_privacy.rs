//! §7.1's privacy implication, made concrete: from sampled flow headers
//! alone, an ISP-side observer can tell not just *that* a household has a
//! smart speaker, but *when it is actively used* — via usage-indicator
//! domains and the 10-sampled-packets/hour threshold.
//!
//! Run with `cargo run --release --example usage_privacy`.

use haystack::core::pipeline::{Pipeline, PipelineConfig};
use haystack::core::report::{run_isp_study, IspStudyConfig};
use haystack::net::StudyWindow;
use haystack::wild::{IspConfig, IspVantage};

fn main() {
    println!("building rules from ground truth ...");
    let pipeline = Pipeline::run(PipelineConfig::fast(42));

    let lines = 20_000u32;
    let isp = IspVantage::new(
        &pipeline.catalog,
        IspConfig {
            lines,
            sampling: 1_000,
            seed: 21,
            background: false,
        },
    );
    println!("simulating two days at a {lines}-line ISP ...");
    let study = run_isp_study(
        &pipeline,
        &pipeline.world,
        &isp,
        &IspStudyConfig {
            window: StudyWindow::days(0, 2),
            ..Default::default()
        },
    );

    println!("\nAlexa-enabled households: presence vs. active use (Figure 18 style)");
    println!(
        "{:<14} {:>10} {:>12}",
        "hour of day", "detected", "actively used"
    );
    for hod in 0..24u32 {
        let hour = 24 + hod; // day 2, to let evidence accumulate
        let detected = study
            .group_hourly
            .get(&(haystack::core::report::DeviceGroup::Alexa, hour));
        let active = study
            .active_hourly
            .get(&("Alexa Enabled".to_string(), hour));
        println!(
            "{hod:>2}:00         {:>10} {:>12}",
            detected.copied().unwrap_or(0),
            active.copied().unwrap_or(0)
        );
    }

    let peak_active = (0..24u32)
        .filter_map(|h| {
            study
                .active_hourly
                .get(&("Alexa Enabled".to_string(), 24 + h))
                .copied()
        })
        .max()
        .unwrap_or(0);
    let night_active = study
        .active_hourly
        .get(&("Alexa Enabled".to_string(), 24 + 3))
        .copied()
        .unwrap_or(0);
    println!(
        "\npeak active households: {peak_active}; at 03:00: {night_active} — \
         the diurnal pattern of §6.2/§7.1 reveals when people are home and awake."
    );
    println!(
        "(The paper's mitigation discussion, §7.4: hide behind shared infrastructure, \
         or pad traffic so the sampled-volume signal disappears.)"
    );
}
