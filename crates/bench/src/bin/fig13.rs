//! Figure 13: cumulative subscriber lines (upper panel) and /24 prefixes
//! (lower panel) with detected IoT activity across the study window —
//! the churn analysis of §6.2.
//!
//! Paper reference: the per-line cumulative counts keep growing (double
//! counting under identifier rotation) while the /24 curves stabilize
//! smoothly at class-dependent levels.

use haystack_bench::{build_pipeline, run_standard_isp_study, Args};

const CLASSES: &[&str] = &[
    "Alexa Enabled",
    "Amazon Product",
    "Fire TV",
    "Samsung IoT",
    "Samsung TV",
];

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let (_isp, study) = run_standard_isp_study(&p, &args);
    let days: Vec<u32> = study.any_iot_daily.keys().copied().collect();

    println!("# fig13 upper: cumulative unique subscriber lines per day");
    print!("day");
    for c in CLASSES {
        print!("\t{c}");
    }
    println!();
    for d in &days {
        print!("{d}");
        for c in CLASSES {
            print!(
                "\t{}",
                study
                    .cumulative_lines
                    .get(&((*c).to_string(), *d))
                    .copied()
                    .unwrap_or(0)
            );
        }
        println!();
    }

    println!("\n# fig13 lower: cumulative unique /24s per day");
    print!("day");
    for c in CLASSES {
        print!("\t{c}");
    }
    println!();
    for d in &days {
        print!("{d}");
        for c in CLASSES {
            print!(
                "\t{}",
                study
                    .cumulative_slash24
                    .get(&((*c).to_string(), *d))
                    .copied()
                    .unwrap_or(0)
            );
        }
        println!();
    }

    // Growth factors: lines should grow faster than /24s.
    if days.len() >= 2 {
        let first = days[0];
        let last = *days.last().unwrap();
        println!("\n# growth (last/first day) — lines should outgrow /24s:");
        for c in CLASSES {
            let l0 = study
                .cumulative_lines
                .get(&((*c).to_string(), first))
                .copied()
                .unwrap_or(0) as f64;
            let l1 = study
                .cumulative_lines
                .get(&((*c).to_string(), last))
                .copied()
                .unwrap_or(0) as f64;
            let p0 = study
                .cumulative_slash24
                .get(&((*c).to_string(), first))
                .copied()
                .unwrap_or(0) as f64;
            let p1 = study
                .cumulative_slash24
                .get(&((*c).to_string(), last))
                .copied()
                .unwrap_or(0) as f64;
            println!(
                "{c}\tlines x{:.2}\t/24s x{:.2}",
                l1 / l0.max(1.0),
                p1 / p0.max(1.0)
            );
        }
    }
}
