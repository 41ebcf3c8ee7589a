//! Subscriber lines: ownership, addressing, churn.
//!
//! Each line owns products drawn independently from the catalog's
//! per-product penetration (≈20 % of lines end up with at least one IoT
//! device, ≈14 % with something Alexa-enabled — §6.2's headline numbers).
//!
//! Addressing follows §6.2's churn discussion: *"Most subscriber lines are
//! not subject to new address assignments within a day … unplugging/
//! rebooting of the home router, regional outages, or daily re-assignment
//! of IPs"*. A small fraction of lines rotates addresses each day —
//! mostly **within their /24** (regional pools), with a smaller
//! cross-region component. Figure 13's two panels (cumulative unique
//! addresses grows; /24 aggregation stabilizes) are downstream of exactly
//! this structure.

use haystack_net::Prefix4;
use haystack_testbed::catalog::Catalog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Population parameters.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of subscriber lines.
    pub lines: u32,
    /// RNG seed for ownership and churn.
    pub seed: u64,
    /// Per-day probability that a line's address rotates within its /24.
    pub churn_within_24: f64,
    /// Per-day probability that a line's address rotates across regions.
    pub churn_cross: f64,
    /// The address block lines are numbered from.
    pub block: Prefix4,
    /// Global multiplier on every product's penetration (the IXP's
    /// remote eyeballs use < 1.0).
    pub penetration_scale: f64,
    /// Fraction of lines that are "tech households": device ownership
    /// concentrates there (ownership of different products is positively
    /// correlated in reality — an Echo household is likelier to also own
    /// a Fire TV). Product marginals are preserved; the union shrinks,
    /// which is what makes ~14 % Alexa and ~20 % any-IoT coexist (§6.2).
    pub tech_fraction: f64,
}

impl PopulationConfig {
    /// Reasonable ISP defaults at a given scale.
    pub fn isp(lines: u32, seed: u64) -> Self {
        PopulationConfig {
            lines,
            seed,
            churn_within_24: 0.04,
            churn_cross: 0.004,
            block: haystack_backend::AddressPlan::subscribers(),
            penetration_scale: 1.0,
            tech_fraction: 0.5,
        }
    }
}

/// A materialized population.
#[derive(Debug)]
pub struct Population {
    config: PopulationConfig,
    /// For each product index, the owning lines (sorted).
    owners: Vec<Vec<u32>>,
    /// Per-line owned products (inverse of `owners`).
    per_line: Vec<Vec<u16>>,
    /// slot[day][line] = address index. Built lazily per day.
    slots: parking_lot_free::DayCache,
}

/// Tiny lazily-filled per-day cache without external deps. Slot tables are
/// shared via `Rc` so per-hour consumers borrow the day's table cheaply.
mod parking_lot_free {
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Default)]
    pub struct DayCache {
        days: RefCell<Vec<Rc<Vec<u32>>>>,
    }

    impl DayCache {
        pub fn get_or_build(
            &self,
            day: usize,
            build_next: impl Fn(&[u32], u32) -> Vec<u32>,
            init: impl Fn() -> Vec<u32>,
        ) -> Rc<Vec<u32>> {
            let mut days = self.days.borrow_mut();
            if days.is_empty() {
                days.push(Rc::new(init()));
            }
            while days.len() <= day {
                let d = days.len() as u32;
                let next = build_next(days.last().expect("non-empty"), d);
                days.push(Rc::new(next));
            }
            Rc::clone(&days[day])
        }
    }
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Population {
    /// Draw a population for `catalog` under `config`.
    pub fn new(catalog: &Catalog, config: PopulationConfig) -> Self {
        assert!(
            config.lines <= config.block.size(),
            "more lines than addresses in {}",
            config.block
        );
        let n_products = catalog.products.len();
        let mut owners: Vec<Vec<u32>> = vec![Vec::new(); n_products];
        let mut per_line: Vec<Vec<u16>> = vec![Vec::new(); config.lines as usize];
        let tech = config.tech_fraction.clamp(0.01, 1.0);
        for line in 0..config.lines {
            let mut rng = SmallRng::seed_from_u64(mix(config.seed, u64::from(line)));
            if rng.gen::<f64>() >= tech {
                continue; // not a tech household
            }
            for (pi, p) in catalog.products.iter().enumerate() {
                let prob = (p.penetration * config.penetration_scale / tech).min(1.0);
                if rng.gen::<f64>() < prob {
                    owners[pi].push(line);
                    per_line[line as usize].push(pi as u16);
                }
            }
        }
        Population {
            config,
            owners,
            per_line,
            slots: Default::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.config.lines
    }

    /// Lines owning product `pi`.
    pub fn owners_of(&self, pi: usize) -> &[u32] {
        &self.owners[pi]
    }

    /// Products owned by `line`.
    pub fn products_of(&self, line: u32) -> &[u16] {
        &self.per_line[line as usize]
    }

    /// Number of lines owning at least one IoT product.
    pub fn lines_with_any_device(&self) -> u32 {
        self.per_line.iter().filter(|v| !v.is_empty()).count() as u32
    }

    fn churn_step(&self, prev: &[u32], day: u32) -> Vec<u32> {
        let mut slots = prev.to_vec();
        let n = slots.len();
        // Within-/24 rotation: group lines by their /24 position (256
        // consecutive address indexes) and cyclically shift the churned
        // members' slots inside each group.
        let mut group_start = 0usize;
        while group_start < n {
            let group_end = (group_start + 256).min(n);
            let churned: Vec<usize> = (group_start..group_end)
                .filter(|&l| {
                    (mix(self.config.seed ^ 0xC0FF, (l as u64) << 8 | u64::from(day)) % 10_000)
                        < (self.config.churn_within_24 * 10_000.0) as u64
                })
                .collect();
            if churned.len() >= 2 {
                let first = slots[churned[0]];
                for w in 0..churned.len() - 1 {
                    slots[churned[w]] = slots[churned[w + 1]];
                }
                let last = churned.len() - 1;
                slots[churned[last]] = first;
            }
            group_start = group_end;
        }
        // Cross-region rotation: a much smaller global shuffle.
        let cross: Vec<usize> = (0..n)
            .filter(|&l| {
                (mix(self.config.seed ^ 0xBEEF, (l as u64) << 8 | u64::from(day)) % 100_000)
                    < (self.config.churn_cross * 100_000.0) as u64
            })
            .collect();
        if cross.len() >= 2 {
            let first = slots[cross[0]];
            for w in 0..cross.len() - 1 {
                slots[cross[w]] = slots[cross[w + 1]];
            }
            let last = cross.len() - 1;
            slots[cross[last]] = first;
        }
        slots
    }

    /// The day's full line→address-slot table (cheap `Rc` share; consumers
    /// generating a whole hour should grab this once).
    pub fn slots_for_day(&self, day: u32) -> std::rc::Rc<Vec<u32>> {
        self.slots.get_or_build(
            day as usize,
            |prev, d| self.churn_step(prev, d),
            || (0..self.config.lines).collect(),
        )
    }

    /// The address of `line` on `day`.
    pub fn ip_of(&self, line: u32, day: u32) -> Ipv4Addr {
        let slots = self.slots_for_day(day);
        self.config.block.nth(slots[line as usize])
    }

    /// Translate a slot index (from [`Population::slots_for_day`]) to an
    /// address.
    pub fn addr_of_slot(&self, slot: u32) -> Ipv4Addr {
        self.config.block.nth(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_testbed::catalog::data::standard_catalog;

    fn pop(lines: u32) -> Population {
        Population::new(&standard_catalog(), PopulationConfig::isp(lines, 7))
    }

    #[test]
    fn ownership_matches_penetrations() {
        let catalog = standard_catalog();
        let p = pop(50_000);
        for (pi, prod) in catalog.products.iter().enumerate() {
            let got = p.owners_of(pi).len() as f64 / 50_000.0;
            let want = prod.penetration;
            let tol = (want * 50_000.0).sqrt() * 4.0 / 50_000.0 + 1e-4;
            assert!(
                (got - want).abs() <= tol,
                "{}: got {got:.4}, want {want:.4}",
                prod.name
            );
        }
    }

    #[test]
    fn device_ownership_union_is_plausible() {
        // Ownership exceeds the paper's 20 % *detected* share because
        // several widely-owned devices (Google Home, Apple TV, LG TV) are
        // undetectable (§4.2.3); the 20 % figure is asserted on detector
        // output in the integration tests.
        let p = pop(50_000);
        let frac = f64::from(p.lines_with_any_device()) / 50_000.0;
        assert!(
            (0.20..=0.45).contains(&frac),
            "any-device fraction {frac:.3}"
        );
    }

    #[test]
    fn addresses_unique_per_day() {
        let p = pop(2_000);
        for day in [0u32, 1, 5, 13] {
            let mut seen = std::collections::HashSet::new();
            for line in 0..2_000 {
                assert!(seen.insert(p.ip_of(line, day)), "collision day {day}");
            }
        }
    }

    #[test]
    fn churn_changes_some_addresses_mostly_within_slash24() {
        let p = pop(20_000);
        let mut changed = 0;
        let mut cross_24 = 0;
        for line in 0..20_000 {
            let a = p.ip_of(line, 0);
            let b = p.ip_of(line, 1);
            if a != b {
                changed += 1;
                if u32::from(a) >> 8 != u32::from(b) >> 8 {
                    cross_24 += 1;
                }
            }
        }
        assert!(changed > 200, "churn too small: {changed}");
        assert!(
            (cross_24 as f64) < (changed as f64) * 0.5,
            "cross-/24 churn dominates: {cross_24}/{changed}"
        );
    }

    #[test]
    fn ownership_is_deterministic() {
        let a = pop(5_000);
        let b = pop(5_000);
        for pi in 0..standard_catalog().products.len() {
            assert_eq!(a.owners_of(pi), b.owners_of(pi));
        }
    }
}
