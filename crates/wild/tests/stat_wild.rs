//! Statistical validation of the wild generator: the flow-level
//! simulation must track its analytic expectations, because every §6
//! figure sits on top of it.

use haystack_net::{Anonymizer, HourBin};
use haystack_testbed::catalog::data::standard_catalog;
use haystack_testbed::materialize::materialize;
use haystack_wild::gen::generate_hour;
use haystack_wild::{ContactPlan, Population, PopulationConfig};

fn setup(lines: u32) -> (Population, ContactPlan, haystack_testbed::MaterializedWorld) {
    let catalog = standard_catalog();
    let world = materialize(&catalog);
    let plan = ContactPlan::new(&catalog);
    let pop = Population::new(&catalog, PopulationConfig::isp(lines, 9));
    (pop, plan, world)
}

/// Analytic expectation of sampled packets for one *night* hour (usage
/// probability is near zero at 03:00, so idle rates dominate).
fn expected_idle_sampled(pop: &Population, plan: &ContactPlan, sampling: f64) -> f64 {
    plan.products
        .iter()
        .map(|p| pop.owners_of(p.product).len() as f64 * p.idle_lambda / sampling)
        .sum()
}

#[test]
fn sampled_volume_matches_expectation_at_night() {
    let (pop, plan, world) = setup(20_000);
    let anon = Anonymizer::new(1, 2);
    // Hour 3 of day 3 (a weekday night): usage ≈ 0 for entertainment
    // shapes, small for ambient ones — expectation within ~15 %.
    let mut total = 0u64;
    let hours = [3u32, 4];
    for h in hours {
        total += generate_hour(
            &pop,
            &plan,
            &world,
            HourBin(3 * 24 + h),
            1_000,
            5,
            &anon,
            false,
        )
        .sampled_packets;
    }
    let measured = total as f64 / hours.len() as f64;
    let expected = expected_idle_sampled(&pop, &plan, 1_000.0);
    let ratio = measured / expected;
    assert!(
        (0.9..1.35).contains(&ratio),
        "night volume {measured:.0} vs idle expectation {expected:.0} (ratio {ratio:.2})"
    );
}

#[test]
fn weekend_evenings_are_busier_than_weekday_evenings() {
    let (pop, plan, world) = setup(20_000);
    let anon = Anonymizer::new(1, 2);
    // Day 3 (Mon) vs day 8 (Sat), both at 20:00.
    let weekday = generate_hour(
        &pop,
        &plan,
        &world,
        HourBin(3 * 24 + 20),
        1_000,
        5,
        &anon,
        false,
    );
    let weekend = generate_hour(
        &pop,
        &plan,
        &world,
        HourBin(8 * 24 + 20),
        1_000,
        5,
        &anon,
        false,
    );
    assert!(
        weekend.sampled_packets as f64 > weekday.sampled_packets as f64 * 1.02,
        "weekend {} <= weekday {}",
        weekend.sampled_packets,
        weekday.sampled_packets
    );
}

#[test]
fn per_line_identity_consistent_with_population_churn() {
    let (pop, plan, world) = setup(5_000);
    let anon = Anonymizer::new(1, 2);
    // Records on day d must carry exactly the population's day-d address
    // for their line.
    for day in [0u32, 1] {
        let t = generate_hour(
            &pop,
            &plan,
            &world,
            HourBin(day * 24 + 10),
            200,
            5,
            &anon,
            false,
        );
        for r in &t.records {
            assert_eq!(anon.anonymize(r.src_ip), r.line);
            assert_eq!(haystack_net::Prefix4::slash24_of(r.src_ip), r.line_slash24);
        }
        // Every src must be some line's day-d address.
        let valid: std::collections::HashSet<_> =
            (0..5_000u32).map(|l| pop.ip_of(l, day)).collect();
        assert!(t.records.iter().all(|r| valid.contains(&r.src_ip)));
    }
}

#[test]
fn sampled_counts_scale_inverse_to_sampling_rate() {
    let (pop, plan, world) = setup(10_000);
    let anon = Anonymizer::new(1, 2);
    let hour = HourBin(3 * 24 + 12);
    let s500 = generate_hour(&pop, &plan, &world, hour, 500, 5, &anon, false).sampled_packets;
    let s2000 = generate_hour(&pop, &plan, &world, hour, 2_000, 5, &anon, false).sampled_packets;
    let ratio = s500 as f64 / s2000.max(1) as f64;
    assert!(
        (3.0..5.0).contains(&ratio),
        "4× sampling ratio, got {ratio:.2}"
    );
}
