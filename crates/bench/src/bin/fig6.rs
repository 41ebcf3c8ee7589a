//! Figure 6: fraction of the most popular service IPs (heavy hitters by
//! byte count at the Home-VP) that remain visible at the sampled ISP-VP,
//! per hour, for the top 10 % / 20 % / 30 %.
//!
//! Paper reference points: top-10 % visibility > 75 % (up to 90 %);
//! top-20 % ≈ 70 %, top-30 % ≈ 60 % in the active experiment.

use haystack_bench::{build_pipeline, pct, Args};
use haystack_core::visibility::{heavy_hitter_visibility, sample_stream, HourVisibility};
use haystack_flow::SystematicSampler;
use haystack_net::StudyWindow;
use haystack_testbed::ExperimentKind;

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let mut sampler = SystematicSampler::new(1_000, args.seed % 1_000).unwrap();

    let take = if args.fast { 6 } else { usize::MAX };
    let hours: Vec<_> = StudyWindow::ACTIVE_GT
        .hour_bins()
        .take(take)
        .chain(StudyWindow::IDLE_GT.hour_bins().take(take))
        .collect();

    println!("# hour kind top10 top20 top30 observed_overall");
    let mut acc = [[0f64; 5]; 2];
    for hour in hours {
        let kind = haystack_testbed::ExperimentDriver::kind_of_hour(hour).expect("GT hour");
        let pkts = p.driver.generate_hour(&p.world, hour);
        let home = HourVisibility::summarize(&pkts);
        let isp = HourVisibility::summarize(&sample_stream(&pkts, &mut sampler));
        let t10 = heavy_hitter_visibility(&home, &isp, 0.10).unwrap_or(0.0);
        let t20 = heavy_hitter_visibility(&home, &isp, 0.20).unwrap_or(0.0);
        let t30 = heavy_hitter_visibility(&home, &isp, 0.30).unwrap_or(0.0);
        let all = heavy_hitter_visibility(&home, &isp, 1.0).unwrap_or(0.0);
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            hour,
            if kind == ExperimentKind::Active {
                "active"
            } else {
                "idle"
            },
            pct(t10),
            pct(t20),
            pct(t30),
            pct(all)
        );
        let idx = usize::from(kind == ExperimentKind::Idle);
        acc[idx][0] += t10;
        acc[idx][1] += t20;
        acc[idx][2] += t30;
        acc[idx][3] += all;
        acc[idx][4] += 1.0;
    }

    println!("\n# averages (paper: top-10% >75%, top-20% ~70%, top-30% ~60% active)");
    for (idx, label) in [(0usize, "active"), (1, "idle")] {
        let n = acc[idx][4].max(1.0);
        println!(
            "{label}: top10 {} top20 {} top30 {} overall {}",
            pct(acc[idx][0] / n),
            pct(acc[idx][1] / n),
            pct(acc[idx][2] / n),
            pct(acc[idx][3] / n)
        );
    }
}
