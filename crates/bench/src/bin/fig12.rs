//! Figure 12: drill-down within the two big hierarchies, per day —
//! Alexa Enabled ⊃ Amazon Product ⊃ Fire TV, and Samsung IoT ⊃ Samsung
//! TV, at the conservative threshold D = 0.4.
//!
//! Paper reference: the specialized classes account for a stable
//! fraction of their superclass across days.

use haystack_bench::{build_pipeline, pct, run_standard_isp_study, Args};

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

    println!("# fig12: unique subscriber lines per day (D=0.4)");
    print!("day");
    for c in CLASSES {
        print!("\t{c}");
    }
    println!();
    let days: Vec<u32> = study.any_iot_daily.keys().copied().collect();
    for d in &days {
        print!("{d}");
        for c in CLASSES {
            print!(
                "\t{}",
                study
                    .daily
                    .get(&((*c).to_string(), *d))
                    .copied()
                    .unwrap_or(0)
            );
        }
        println!();
    }

    let at = |c: &str, d: u32| study.daily.get(&(c.to_string(), d)).copied().unwrap_or(0) as f64;
    let d0 = days[0];
    println!("\n# day-0 hierarchy shares:");
    println!(
        "amazon products are {} of alexa-enabled; fire tv is {} of amazon products",
        pct(at("Amazon Product", d0) / at("Alexa Enabled", d0).max(1.0)),
        pct(at("Fire TV", d0) / at("Amazon Product", d0).max(1.0)),
    );
    println!(
        "samsung tvs are {} of samsung iot",
        pct(at("Samsung TV", d0) / at("Samsung IoT", d0).max(1.0)),
    );
}
