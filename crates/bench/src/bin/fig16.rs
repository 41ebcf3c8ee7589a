//! Figure 16: the per-member-AS distribution of IXP-detected IoT client
//! IPs on the first study day — an ECDF showing extreme skew: a few
//! eyeball members hold most of the detected IPs; the tail is long but
//! thin.

use haystack_bench::{build_ixp, build_pipeline, pct, Args};
use haystack_core::report::{run_ixp_study, DeviceGroup, IxpStudyConfig};
use haystack_net::StudyWindow;

fn main() {
    let args = Args::parse();
    let p = build_pipeline(&args);
    let ixp = build_ixp(&p, &args);
    eprintln!("# running IXP study (day 0 only) ...");
    let study = run_ixp_study(
        &p,
        &p.world,
        &ixp,
        &IxpStudyConfig {
            window: StudyWindow::days(0, 1),
            ..Default::default()
        },
    );

    for group in [DeviceGroup::Samsung, DeviceGroup::Alexa, DeviceGroup::Other] {
        let mut counts: Vec<(String, &'static str, u64)> = ixp
            .members()
            .iter()
            .map(|m| {
                (
                    format!("{} ({})", m.asn, m.name),
                    m.category.label(),
                    study.per_as_day0.get(&(m.asn, group)).copied().unwrap_or(0),
                )
            })
            .collect();
        counts.sort_by_key(|row| std::cmp::Reverse(row.2));
        let total: u64 = counts.iter().map(|(_, _, n)| n).sum();
        println!(
            "\n# fig16 [{}]: per-AS share of unique detected IPs, day 0",
            group.label()
        );
        println!("member\tcategory\tips\tshare");
        for (name, cat, n) in &counts {
            println!(
                "{name}\t{cat}\t{n}\t{}",
                pct(*n as f64 / total.max(1) as f64)
            );
        }
        // ECDF summary: share held by the top 10 % of members.
        let members_with_any = counts.iter().filter(|(_, _, n)| *n > 0).count();
        let top = counts.len().div_ceil(10);
        let top_share: u64 = counts.iter().take(top).map(|(_, _, n)| n).sum();
        println!(
            "# top {top} of {} members hold {} of detected IPs; {members_with_any} members have any",
            counts.len(),
            pct(top_share as f64 / total.max(1) as f64)
        );
    }
    println!("\n# paper: distributions are skewed — a few eyeball ASes carry most IoT activity, with a long tail.");
}
