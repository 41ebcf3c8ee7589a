//! Figure 17: one Alexa-enabled device (an Echo Dot instance), packets
//! per hour at the Home-VP and at the sampled ISP-VP, active vs idle.
//!
//! Paper reference points: interactions push the Home-VP count above 1 k
//! and the ISP-VP count above 10 sampled packets; idle hours never reach
//! those levels — the basis of §7.1's usage threshold.

use haystack_bench::{build_pipeline, Args};
use haystack_flow::sampling::PacketSampler;
use haystack_flow::SystematicSampler;
use haystack_net::StudyWindow;

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);

    // Pick the US-testbed Echo Dot (live from day 0).
    let echo = p
        .driver
        .instances()
        .iter()
        .find(|i| {
            p.catalog.products[i.product].name == "Echo Dot"
                && i.testbed == haystack_testbed::TestbedId::Us
        })
        .expect("Echo Dot instance")
        .id;

    let take = if args.fast { 8 } else { usize::MAX };
    let hours: Vec<_> = StudyWindow::ACTIVE_GT
        .hour_bins()
        .take(take)
        .chain(StudyWindow::IDLE_GT.hour_bins().take(take))
        .collect();
    let mut sampler = SystematicSampler::new(1_000, 7).unwrap();

    println!("# hour kind home_pkts isp_sampled_pkts interactions");
    let mut peaks = [(0u64, 0u64); 2]; // [active|idle] (home, isp)
    for hour in hours {
        let kind = haystack_testbed::ExperimentDriver::kind_of_hour(hour).expect("GT hour");
        let idx = usize::from(kind == haystack_testbed::ExperimentKind::Idle);
        let pkts = p.driver.generate_hour(&p.world, hour);
        let mine: Vec<_> = pkts.iter().filter(|g| g.instance == echo).collect();
        let sampled = mine.iter().filter(|_| sampler.sample()).count() as u64;
        let home = mine.len() as u64;
        println!(
            "{}\t{}\t{}\t{}\t{}",
            hour,
            if idx == 0 { "active" } else { "idle" },
            home,
            sampled,
            p.driver.interactions(echo, hour)
        );
        peaks[idx].0 = peaks[idx].0.max(home);
        peaks[idx].1 = peaks[idx].1.max(sampled);
    }
    println!(
        "\n# peaks: active home {} / isp {}; idle home {} / isp {}",
        peaks[0].0, peaks[0].1, peaks[1].0, peaks[1].1
    );
    println!("# paper: activity spikes >1k at home and >10 at the ISP; idle never reaches either.");
}
