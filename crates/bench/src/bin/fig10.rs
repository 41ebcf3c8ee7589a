//! Figure 10: time to detect each IoT device class at the Home-VP from
//! sampled ISP flows, across detection thresholds D ∈ {0.1 … 1.0}, for
//! the active and the idle experiments.
//!
//! Paper reference points (D = 0.4): 72 / 93 / 96 % of
//! manufacturer-or-product classes detected within 1 / 24 / 72 h active;
//! 40 / 73 / 76 % idle; a handful of low-rate devices never detected.

use haystack_bench::{build_pipeline, pct, Args};
use haystack_core::crosscheck::{detection_times, fraction_detected_within, CrosscheckConfig};
use haystack_testbed::catalog::DetectionLevel;
use haystack_testbed::ExperimentKind;
use std::collections::BTreeSet;

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let thresholds: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let hours = if args.fast { Some(8) } else { None };

    for kind in [ExperimentKind::Active, ExperimentKind::Idle] {
        let label = if kind == ExperimentKind::Active {
            "active"
        } else {
            "idle"
        };
        eprintln!("# replaying {label} experiment through sampling + NetFlow ...");
        let times = detection_times(
            &p,
            &CrosscheckConfig {
                sampling: 1_000,
                kind,
                hours,
            },
            &thresholds,
        );

        println!(
            "\n# fig10 ({label}): hours-to-detect per class per threshold ('-' = not detected)"
        );
        print!("class\t#domains");
        for t in &thresholds {
            print!("\tD={t:.1}");
        }
        println!();
        for rule in &p.rules.rules {
            print!(
                "{}{}\t{}",
                p.rules.class_name(rule.class),
                rule.level.suffix(),
                rule.domains.len()
            );
            for t in &thresholds {
                let row = times
                    .iter()
                    .find(|x| {
                        x.class == p.rules.class_name(rule.class) && (x.threshold - t).abs() < 1e-9
                    })
                    .unwrap();
                match row.hours_to_detect {
                    Some(h) => print!("\t{h}"),
                    None => print!("\t-"),
                }
            }
            println!();
        }

        // Headline fractions at the conservative D = 0.4.
        let man_pr: BTreeSet<&str> = p
            .rules
            .rules
            .iter()
            .filter(|r| r.level != DetectionLevel::Platform)
            .map(|r| p.rules.class_name(r.class))
            .collect();
        let pr_only: BTreeSet<&str> = p
            .rules
            .rules
            .iter()
            .filter(|r| r.level == DetectionLevel::Product)
            .map(|r| p.rules.class_name(r.class))
            .collect();
        println!(
            "# {label} @ D=0.4, man+prod classes within 1/24/72h: {} / {} / {}  (paper active: 72/93/96%, idle: 40/73/76%)",
            pct(fraction_detected_within(&times, 0.4, 1, &man_pr)),
            pct(fraction_detected_within(&times, 0.4, 24, &man_pr)),
            pct(fraction_detected_within(&times, 0.4, 72, &man_pr)),
        );
        println!(
            "# {label} @ D=0.4, product-level classes within 1/24/72h: {} / {} / {}  (paper active: 63/81/90%)",
            pct(fraction_detected_within(&times, 0.4, 1, &pr_only)),
            pct(fraction_detected_within(&times, 0.4, 24, &pr_only)),
            pct(fraction_detected_within(&times, 0.4, 72, &pr_only)),
        );
    }
}
