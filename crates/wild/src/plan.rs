//! Contact plans: the catalog compiled into per-product sampling tables.
//!
//! The wild generator needs, per product, (a) the total idle packet rate
//! and the per-domain weights to split sampled packets across domains,
//! and (b) the same for the *active-use surplus* (what an owner's
//! interaction hour adds — including the §7.1 active-only domains). Both
//! are precomputed here as cumulative weight tables for O(log d) packet
//! attribution.

use crate::diurnal::UsageShape;
use haystack_testbed::catalog::{Catalog, Category, DomainSpec};
use std::collections::HashMap;

/// Per-product compiled plan.
#[derive(Debug, Clone)]
pub struct ProductPlan {
    /// Index into the catalog's product list.
    pub product: usize,
    /// Usage curve shape.
    pub shape: UsageShape,
    /// Peak probability that an owner actively uses the device in an hour.
    pub peak_use: f64,
    /// Domain ids this product contacts.
    pub domain_ids: Vec<u32>,
    /// Σ idle packets/hour across domains.
    pub idle_lambda: f64,
    /// Cumulative idle weights (same length as `domain_ids`).
    pub idle_cum: Vec<f64>,
    /// Σ additional packets/hour contributed by one active-use hour.
    pub active_extra_lambda: f64,
    /// Cumulative active-surplus weights.
    pub active_cum: Vec<f64>,
}

impl ProductPlan {
    /// Pick a domain index (into `domain_ids`) for one sampled idle
    /// packet, given a uniform draw in `[0, idle_lambda)`.
    pub fn pick_idle(&self, u: f64) -> usize {
        cum_pick(&self.idle_cum, u)
    }

    /// Pick a domain index for one sampled active-surplus packet.
    pub fn pick_active(&self, u: f64) -> usize {
        cum_pick(&self.active_cum, u)
    }
}

fn cum_pick(cum: &[f64], u: f64) -> usize {
    match cum.binary_search_by(|x| x.partial_cmp(&u).expect("finite weights")) {
        Ok(i) => (i + 1).min(cum.len() - 1),
        Err(i) => i.min(cum.len() - 1),
    }
}

/// The compiled contact plan for a catalog.
#[derive(Debug, Clone)]
pub struct ContactPlan {
    /// Global domain table; plan entries index into it.
    pub domains: Vec<DomainSpec>,
    /// One plan per catalog product (same indexing as the catalog).
    pub products: Vec<ProductPlan>,
    /// Background browsing pseudo-plan applied to *every* line (generic
    /// domains only; keeps the §4.1 generic-domain filter honest).
    pub background: ProductPlan,
}

impl ContactPlan {
    /// Compile the plan.
    pub fn new(catalog: &Catalog) -> Self {
        let mut domains: Vec<DomainSpec> = Vec::new();
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut intern = |spec: &DomainSpec, domains: &mut Vec<DomainSpec>| -> u32 {
            if let Some(&id) = index.get(spec.name.as_str()) {
                return id;
            }
            let id = domains.len() as u32;
            index.insert(spec.name.as_str().to_string(), id);
            domains.push(spec.clone());
            id
        };

        let mut products = Vec::with_capacity(catalog.products.len());
        for (pi, prod) in catalog.products.iter().enumerate() {
            let specs = catalog.effective_domains(prod.class);
            let mut domain_ids = Vec::with_capacity(specs.len() + 3);
            let mut idle = Vec::with_capacity(specs.len() + 3);
            let mut active = Vec::with_capacity(specs.len() + 3);
            for s in &specs {
                domain_ids.push(intern(s, &mut domains));
                idle.push(s.rate_with_interactions(0));
                active.push(s.rate_with_interactions(1) - s.rate_with_interactions(0));
            }
            // Light generic chatter (NTP + one web property) so wild IoT
            // lines also produce non-IoT flows.
            let g = &catalog.generic_domains;
            for gi in [pi % 6, 18 + (pi * 7) % 62] {
                let s = &g[gi];
                domain_ids.push(intern(s, &mut domains));
                idle.push(s.idle_pph * 0.3);
                active.push(0.0);
            }
            let peak_use = match prod.category {
                Category::Audio | Category::Video => 0.35,
                Category::HomeAutomation | Category::Appliances => 0.15,
                Category::Surveillance | Category::SmartHubs => 0.08,
            };
            products.push(ProductPlan {
                product: pi,
                shape: UsageShape::for_category(prod.category),
                peak_use,
                domain_ids,
                idle_lambda: idle.iter().sum(),
                idle_cum: cumsum(&idle),
                active_extra_lambda: active.iter().sum(),
                active_cum: cumsum(&active),
            });
        }

        // Background browsing: a light touch of the generic universe per
        // line (real subscriber traffic is far heavier, but only flows to
        // rule IPs matter to the detector — see DESIGN.md).
        let mut bg_ids = Vec::new();
        let mut bg_rates = Vec::new();
        for (gi, s) in catalog.generic_domains.iter().enumerate() {
            if gi % 3 == 0 {
                bg_ids.push(intern(s, &mut domains));
                bg_rates.push(s.idle_pph);
            }
        }
        let background = ProductPlan {
            product: usize::MAX,
            shape: UsageShape::Entertainment,
            peak_use: 0.5,
            domain_ids: bg_ids,
            idle_lambda: bg_rates.iter().sum(),
            idle_cum: cumsum(&bg_rates),
            active_extra_lambda: 0.0,
            active_cum: Vec::new(),
        };

        ContactPlan {
            domains,
            products,
            background,
        }
    }
}

fn cumsum(v: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    v.iter()
        .map(|x| {
            acc += x;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_testbed::catalog::data::standard_catalog;

    #[test]
    fn plans_cover_all_products() {
        let c = standard_catalog();
        let plan = ContactPlan::new(&c);
        assert_eq!(plan.products.len(), c.products.len());
        for p in &plan.products {
            assert!(
                p.idle_lambda > 0.0,
                "product {} has zero idle rate",
                p.product
            );
            assert_eq!(p.domain_ids.len(), p.idle_cum.len());
        }
    }

    #[test]
    fn pick_respects_weights() {
        let c = standard_catalog();
        let plan = ContactPlan::new(&c);
        // Echo Dot's plan: the AVS endpoint dominates → picking with small
        // u lands on a hot domain; u near λ lands later in the list.
        let echo = c
            .products
            .iter()
            .position(|p| p.name == "Echo Dot")
            .unwrap();
        let p = &plan.products[echo];
        let first = p.pick_idle(0.0);
        let last = p.pick_idle(p.idle_lambda - 1e-9);
        assert_eq!(first, 0);
        assert_eq!(last, p.domain_ids.len() - 1);
    }

    #[test]
    fn active_surplus_positive_for_interactive_products() {
        let c = standard_catalog();
        let plan = ContactPlan::new(&c);
        let fire = c.products.iter().position(|p| p.name == "Fire TV").unwrap();
        assert!(plan.products[fire].active_extra_lambda > 100.0);
    }

    #[test]
    fn background_touches_only_generic_domains() {
        let c = standard_catalog();
        let plan = ContactPlan::new(&c);
        let generic_names: std::collections::HashSet<_> =
            c.generic_domains.iter().map(|d| d.name.clone()).collect();
        for &id in &plan.background.domain_ids {
            assert!(generic_names.contains(&plan.domains[id as usize].name));
        }
        assert!(plan.background.idle_lambda > 0.0);
    }

    #[test]
    fn domain_table_has_no_duplicates() {
        let c = standard_catalog();
        let plan = ContactPlan::new(&c);
        let mut seen = std::collections::HashSet::new();
        for d in &plan.domains {
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
    }
}
