//! Figure 5: Home-VP vs ISP-VP visibility of the ground-truth traffic.
//!
//! (a) unique service IPs per hour, (b) unique domains per hour,
//! (c) cumulative service IPs per port class, (d) unique devices per
//! hour — each at the Home-VP (full capture) and the ISP-VP (NetFlow
//! packet sampling, 1/1000).
//!
//! Paper reference points: ISP-VP sees ~16 % of hourly service IPs and
//! 67 %/64 % of devices per hour (active/idle).

use haystack_bench::{build_pipeline, pct, Args};
use haystack_core::visibility::{sample_stream, HourVisibility};
use haystack_flow::SystematicSampler;
use haystack_net::ports::PortClass;
use haystack_net::StudyWindow;
use haystack_testbed::ExperimentKind;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

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

    let mut cum_home: std::collections::BTreeMap<PortClass, BTreeSet<Ipv4Addr>> =
        Default::default();
    let mut cum_isp: std::collections::BTreeMap<PortClass, BTreeSet<Ipv4Addr>> = Default::default();
    let mut sums = [[0f64; 4]; 2]; // [active|idle][ip_frac, dom_frac, dev_frac, count]

    println!("# fig5a/b/d rows: hour kind home_ips isp_ips home_domains isp_domains home_devices isp_devices");
    for hour in hours {
        let kind = haystack_testbed::ExperimentDriver::kind_of_hour(hour).expect("GT hour");
        let pkts = p.driver.generate_hour(&p.world, hour);
        let home = HourVisibility::summarize(&pkts);
        let isp = HourVisibility::summarize(&sample_stream(&pkts, &mut sampler));
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            hour,
            match kind {
                ExperimentKind::Active => "active",
                ExperimentKind::Idle => "idle",
            },
            home.service_ips.len(),
            isp.service_ips.len(),
            home.domains.len(),
            isp.domains.len(),
            home.devices.len(),
            isp.devices.len(),
        );
        for (cls, set) in &home.ips_by_class {
            cum_home
                .entry(*cls)
                .or_default()
                .extend(set.iter().copied());
        }
        for (cls, set) in &isp.ips_by_class {
            cum_isp.entry(*cls).or_default().extend(set.iter().copied());
        }
        let idx = usize::from(kind == ExperimentKind::Idle);
        if !home.service_ips.is_empty() {
            sums[idx][0] += isp.service_ips.len() as f64 / home.service_ips.len() as f64;
            sums[idx][1] += isp.domains.len() as f64 / home.domains.len().max(1) as f64;
            sums[idx][2] += isp.devices.len() as f64 / home.devices.len().max(1) as f64;
            sums[idx][3] += 1.0;
        }
    }

    println!("\n# fig5c: cumulative service IPs per port class (whole GT period)");
    println!("class\thome_vp\tisp_vp");
    for cls in [PortClass::Web, PortClass::Ntp, PortClass::Other] {
        println!(
            "{}\t{}\t{}",
            cls.label(),
            cum_home.get(&cls).map(BTreeSet::len).unwrap_or(0),
            cum_isp.get(&cls).map(BTreeSet::len).unwrap_or(0)
        );
    }

    println!(
        "\n# summary (paper: ~16% hourly service-IP visibility; devices 67% active / 64% idle)"
    );
    for (idx, label) in [(0usize, "active"), (1, "idle")] {
        let n = sums[idx][3].max(1.0);
        println!(
            "{label}: avg hourly visibility — service IPs {}, domains {}, devices {}",
            pct(sums[idx][0] / n),
            pct(sums[idx][1] / n),
            pct(sums[idx][2] / n)
        );
    }
}
