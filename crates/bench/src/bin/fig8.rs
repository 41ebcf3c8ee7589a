//! Figure 8: average packets/hour per domain for 13 devices in idle mode
//! — the laconic vs gossiping split. The paper's circular bar plot
//! becomes a per-device table sorted by rate.

use haystack_bench::{build_pipeline, Args};
use haystack_net::StudyWindow;
use std::collections::{BTreeMap, HashMap};

/// The 13 devices Figure 8 plots (mapped to our class/product names).
const FIG8_CLASSES: &[&str] = &[
    "Apple TV",
    "Blink Hub & Cam.",
    "Amazon Product", // Echo Dot
    "Meross Dooropener",
    "Netatmo Weather St.",
    "Philips Dev.",
    "Smarter Coffee", // Smarter Brewer
    "Smartlife",
    "Smartthings Dev.",
    "Anova Sousvide", // Sous vide
    "TP-link Dev.",
    "Xiaomi Dev.",
    "Yi Camera",
];

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);

    let take = if args.fast { 6 } else { usize::MAX };
    let hours: Vec<_> = StudyWindow::IDLE_GT.hour_bins().take(take).collect();
    let n_hours = hours.len() as f64;

    // packets per (class, domain) at the Home-VP, idle mode.
    let mut counts: HashMap<(&'static str, u32), u64> = HashMap::new();
    for hour in &hours {
        for g in p.driver.generate_hour(&p.world, *hour) {
            let inst = &p.driver.instances()[g.instance as usize];
            let class = p.catalog.products[inst.product].class;
            *counts.entry((class, g.domain_id)).or_default() += 1;
        }
    }

    println!("# class domain avg_pkts_per_hour (idle, Home-VP)");
    for class in FIG8_CLASSES {
        let mut rows: BTreeMap<&str, f64> = BTreeMap::new();
        for ((c, did), n) in &counts {
            if c == class {
                let name = p.driver.domain_table()[*did as usize].name.as_str();
                rows.insert(name, *n as f64 / n_hours);
            }
        }
        let mut sorted: Vec<_> = rows.into_iter().collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let total: f64 = sorted.iter().map(|(_, v)| v).sum();
        let verdict = if sorted.len() >= 15 || total > 5_000.0 {
            "gossiping"
        } else {
            "laconic"
        };
        println!(
            "\n{class}  [{} domains, {:.0} pkts/h total → {verdict}]",
            sorted.len(),
            total
        );
        for (name, rate) in sorted.iter().take(12) {
            println!("  {name}\t{rate:.1}");
        }
        if sorted.len() > 12 {
            println!("  ... {} more domains", sorted.len() - 12);
        }
    }
    println!(
        "\n# paper: most devices have <10 domains (laconic); Apple TV and Echo Dot \
         are gossiping, with Apple TV's domains CNAMEd into a CDN."
    );
}
