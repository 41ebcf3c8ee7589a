//! Baseline comparison (§8): the traffic-feature classifier of \[34\] vs
//! the paper's destination-signature method, on identical data.
//!
//! Protocol: train the feature baseline per device class on Home-VP idle
//! captures (full packets — \[34\]'s setting), then evaluate per
//! (device, hour) classification on (a) held-out full captures and
//! (b) the ISP's 1/1000-sampled view of the same hours. The signature
//! method's numbers come from the §5 crosscheck on the same sampled
//! stream. Expected: the baseline is respectable on full captures and
//! collapses under sampling, while signatures keep working — §8's
//! argument, measured.

use haystack_bench::{build_pipeline, pct, Args};
use haystack_core::baseline::{accuracy, extract, CentroidClassifier, FeatureVector, FlowObs};
use haystack_core::crosscheck::{detection_times, CrosscheckConfig};
use haystack_flow::sampling::PacketSampler;
use haystack_flow::SystematicSampler;
use haystack_net::StudyWindow;
use haystack_testbed::{ExperimentKind, GroundTruthPacket};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Group one instance-hour's packets into flow observations.
fn to_flows(packets: &[&GroundTruthPacket]) -> Vec<FlowObs> {
    let mut agg: HashMap<(Ipv4Addr, u16), (u64, u64)> = HashMap::new();
    for g in packets {
        let e = agg.entry((g.packet.dst, g.packet.dport)).or_default();
        e.0 += 1;
        e.1 += u64::from(g.packet.bytes);
    }
    agg.into_iter()
        .map(|((dst, dport), (packets, bytes))| FlowObs {
            dst,
            dport,
            packets,
            bytes,
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let take = if args.fast { 6 } else { 48 };
    let hours: Vec<_> = StudyWindow::IDLE_GT.hour_bins().take(take).collect();
    let split = hours.len() / 2;

    // Collect per-(instance, hour) packet groups, full and sampled.
    let mut sampler = SystematicSampler::new(1_000, 7).unwrap();
    let mut train: Vec<(&'static str, FeatureVector)> = Vec::new();
    let mut eval_full: Vec<(&'static str, Option<FeatureVector>)> = Vec::new();
    let mut eval_sampled: Vec<(&'static str, Option<FeatureVector>)> = Vec::new();
    for (hi, hour) in hours.iter().enumerate() {
        let packets = p.driver.generate_hour(&p.world, *hour);
        let sampled: Vec<bool> = packets.iter().map(|_| sampler.sample()).collect();
        let mut per_instance: HashMap<u32, Vec<&GroundTruthPacket>> = HashMap::new();
        let mut per_instance_sampled: HashMap<u32, Vec<&GroundTruthPacket>> = HashMap::new();
        for (g, keep) in packets.iter().zip(&sampled) {
            per_instance.entry(g.instance).or_default().push(g);
            if *keep {
                per_instance_sampled.entry(g.instance).or_default().push(g);
            }
        }
        for inst in p.driver.instances() {
            let class = p.catalog.products[inst.product].class;
            let full_flows = per_instance
                .get(&inst.id)
                .map(|v| to_flows(v))
                .unwrap_or_default();
            let sampled_flows = per_instance_sampled
                .get(&inst.id)
                .map(|v| to_flows(v))
                .unwrap_or_default();
            if hi < split {
                if let Some(fv) = extract(&full_flows) {
                    train.push((class, fv));
                }
            } else {
                eval_full.push((class, extract(&full_flows)));
                eval_sampled.push((class, extract(&sampled_flows)));
            }
        }
    }

    let clf = CentroidClassifier::fit(&train);
    let a_full = accuracy(&clf, &eval_full);
    let a_sampled = accuracy(&clf, &eval_sampled);

    // The signature method on the same sampled stream: fraction of rule
    // classes detected at all within the idle window (D = 0.4).
    let times = detection_times(
        &p,
        &CrosscheckConfig {
            sampling: 1_000,
            kind: ExperimentKind::Idle,
            hours: if args.fast { Some(6) } else { None },
        },
        &[0.4],
    );
    let detected = times.iter().filter(|t| t.hours_to_detect.is_some()).count();
    let sig_coverage = detected as f64 / times.len().max(1) as f64;

    println!("# baseline_compare: feature classifier [34] vs destination signatures");
    println!("metric\tvalue");
    println!("baseline classes trained\t{}", clf.num_classes());
    println!(
        "baseline accuracy, full capture (device-hour)\t{}",
        pct(a_full)
    );
    println!(
        "baseline accuracy, 1/1000 sampled (device-hour)\t{}",
        pct(a_sampled)
    );
    println!(
        "signature coverage, same sampled stream (classes detected, idle window)\t{}",
        pct(sig_coverage)
    );
    println!(
        "\n# §8: feature approaches need full captures ({} here); under ISP sampling they\n\
         # collapse ({}), while destination signatures still cover {} of rule classes.",
        pct(a_full),
        pct(a_sampled),
        pct(sig_coverage)
    );
}
