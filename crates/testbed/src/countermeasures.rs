//! §7.4 — hiding from the methodology.
//!
//! The paper names the escape hatches itself: *"Given that we are unable
//! to identify IoT services if they are using shared infrastructures
//! (e.g., CDNs), this also points out a good way to hide IoT services"*,
//! and the related-work discussion cites traffic shaping \[36\] against
//! usage inference. Each [`Countermeasure`] transforms a device class's
//! catalog entry the way a privacy-conscious vendor (or firmware update)
//! would; the `ablation_hiding` binary quantifies what each buys.

use crate::catalog::{Catalog, DomainRole, HostingKind};

/// A vendor-side evasion strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Countermeasure {
    /// Re-host every dedicated backend domain behind shared CDN
    /// infrastructure: IP-level attribution becomes impossible (§4.2.3
    /// removes the service), at the cost of CDN fees and latency.
    MoveToSharedInfrastructure,
    /// Firmware keeps idle heartbeats below `max_idle_pph` packets/hour:
    /// presence detection still works eventually, but the time to
    /// detection stretches with the rate (§7.3 "Network activity").
    RateLimit {
        /// Ceiling on idle packets/hour per domain.
        max_idle_pph: f64,
    },
    /// Constant-rate cover traffic (\[36\]-style shaping): every domain
    /// idles at exactly `level_pph`, and interaction bursts are absorbed
    /// into the constant rate. Usage inference (§7.1) loses both of its
    /// signals — while *presence* detection gets easier. Privacy is a
    /// trade, not a free lunch, and this measures it.
    ConstantRateShaping {
        /// The shaped constant rate (idle and active alike).
        level_pph: f64,
    },
}

/// Apply a countermeasure to `class` (the class's own domains only;
/// ancestors are shared with sibling products and a vendor cannot
/// unilaterally re-host them). Returns the modified catalog.
pub fn apply(catalog: &Catalog, class: &str, cm: Countermeasure) -> Catalog {
    let mut out = catalog.clone();
    let Some(spec) = out.classes.iter_mut().find(|c| c.name == class) else {
        return out;
    };
    for d in &mut spec.domains {
        match cm {
            Countermeasure::MoveToSharedInfrastructure => {
                d.hosting = HostingKind::Cdn;
            }
            Countermeasure::RateLimit { max_idle_pph } => {
                d.idle_pph = d.idle_pph.min(max_idle_pph);
            }
            Countermeasure::ConstantRateShaping { level_pph } => {
                d.idle_pph = level_pph;
                d.active_burst = 0.0;
                if d.role == DomainRole::ActiveOnly {
                    // Shaped firmware speaks to every endpoint all the
                    // time — there is no "active-only" tell anymore.
                    d.role = DomainRole::Primary;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::data::standard_catalog;

    #[test]
    fn move_to_shared_rehosts_every_domain() {
        let c = standard_catalog();
        let hidden = apply(&c, "Yi Camera", Countermeasure::MoveToSharedInfrastructure);
        let yi = hidden.class("Yi Camera").unwrap();
        assert!(yi.domains.iter().all(|d| d.hosting == HostingKind::Cdn));
        assert_eq!(yi.monitored_domain_count(), 0, "nothing left to monitor");
        // Other classes untouched.
        assert!(hidden.class("Ring Doorbell").unwrap().monitored_domain_count() > 0);
    }

    #[test]
    fn rate_limit_caps_rates_only() {
        let c = standard_catalog();
        let limited = apply(&c, "Yi Camera", Countermeasure::RateLimit { max_idle_pph: 5.0 });
        let yi = limited.class("Yi Camera").unwrap();
        assert!(yi.domains.iter().all(|d| d.idle_pph <= 5.0));
        // Hosting unchanged: the service is still *theoretically* detectable.
        assert!(yi.monitored_domain_count() > 0);
        // Bursts survive (rate limiting idles, not interactions).
        assert!(yi.domains.iter().any(|d| d.active_burst > 0.0));
    }

    #[test]
    fn shaping_removes_usage_signals() {
        let c = standard_catalog();
        let shaped =
            apply(&c, "Blink Hub & Cam.", Countermeasure::ConstantRateShaping { level_pph: 60.0 });
        let blink = shaped.class("Blink Hub & Cam.").unwrap();
        for d in &blink.domains {
            assert_eq!(d.idle_pph, 60.0);
            assert_eq!(d.active_burst, 0.0);
            assert_ne!(d.role, DomainRole::ActiveOnly);
        }
    }

    #[test]
    fn unknown_class_is_a_no_op() {
        let c = standard_catalog();
        let same = apply(&c, "No Such Device", Countermeasure::MoveToSharedInfrastructure);
        assert_eq!(same.classes.len(), c.classes.len());
        assert_eq!(
            same.class("Yi Camera").unwrap().monitored_domain_count(),
            c.class("Yi Camera").unwrap().monitored_domain_count()
        );
    }
}
