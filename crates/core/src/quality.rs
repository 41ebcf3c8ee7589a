//! Detection-quality evaluation against the simulation's ownership
//! oracle.
//!
//! The paper can mostly argue false negatives ("we only have traffic
//! samples from a subset of IoT devices", §7.3) and checks false
//! positives with the subset experiment (§5). The simulation knows the
//! ground truth for *every* line, so precision and recall are directly
//! measurable — this module is the harness the integration tests and the
//! `accuracy_report` binary share. The detector itself never touches the
//! oracle.

use crate::detector::DetectionQuery;
use crate::pipeline::Pipeline;
use haystack_net::AnonId;
use haystack_wild::IspVantage;
use std::collections::BTreeSet;

/// Confusion counts for one (class, window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// Detected and truly owning.
    pub true_pos: u64,
    /// Detected without owning.
    pub false_pos: u64,
    /// Owning but missed.
    pub false_neg: u64,
}

impl Confusion {
    /// Precision (1.0 when nothing was detected).
    pub fn precision(&self) -> f64 {
        let det = self.true_pos + self.false_pos;
        if det == 0 {
            1.0
        } else {
            self.true_pos as f64 / det as f64
        }
    }

    /// Recall (1.0 when nothing was owned).
    pub fn recall(&self) -> f64 {
        let owned = self.true_pos + self.false_neg;
        if owned == 0 {
            1.0
        } else {
            self.true_pos as f64 / owned as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// The anonymized ids of lines owning any product whose class ancestry
/// includes `class`, on `day` (owner identities shift with IP churn).
pub fn owner_ids(pipeline: &Pipeline, isp: &IspVantage, class: &str, day: u32) -> BTreeSet<AnonId> {
    let mut out = BTreeSet::new();
    for (pi, prod) in pipeline.catalog.products.iter().enumerate() {
        let in_class = pipeline
            .catalog
            .ancestry(prod.class)
            .iter()
            .any(|c| c.name == class);
        if !in_class {
            continue;
        }
        for &line in isp.population().owners_of(pi) {
            out.insert(
                isp.anonymizer()
                    .anonymize(isp.population().ip_of(line, day)),
            );
        }
    }
    out
}

/// Score one class's detections against the oracle. Generic over the
/// detector shape ([`Detector`](crate::detector::Detector) or
/// [`DetectorPool`](crate::parallel::DetectorPool)) via
/// [`DetectionQuery`].
pub fn evaluate<Q: DetectionQuery + ?Sized>(
    pipeline: &Pipeline,
    isp: &IspVantage,
    detector: &mut Q,
    class: &str,
    day: u32,
) -> Confusion {
    let detected: BTreeSet<AnonId> = detector.query_detected_lines(class).into_iter().collect();
    let owners = owner_ids(pipeline, isp, class, day);
    Confusion {
        true_pos: detected.intersection(&owners).count() as u64,
        false_pos: detected.difference(&owners).count() as u64,
        false_neg: owners.difference(&detected).count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Detector, DetectorConfig};
    use crate::hitlist::HitList;
    use haystack_net::DayBin;
    use haystack_wild::IspConfig;

    #[test]
    fn confusion_math() {
        let c = Confusion {
            true_pos: 8,
            false_pos: 2,
            false_neg: 8,
        };
        assert!((c.precision() - 0.8).abs() < 1e-9);
        assert!((c.recall() - 0.5).abs() < 1e-9);
        assert!((c.f1() - 2.0 * 0.8 * 0.5 / 1.3).abs() < 1e-9);
        let empty = Confusion::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }

    #[test]
    fn detections_score_high_precision_on_a_real_day() {
        let p = crate::testutil::shared_pipeline();
        let isp = IspVantage::new(
            &p.catalog,
            IspConfig {
                lines: 8_000,
                sampling: 1_000,
                seed: 77,
                background: false,
            },
        );
        let mut det = Detector::new(
            &p.rules,
            HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
            DetectorConfig::default(),
        );
        for hour in DayBin(0).hours() {
            det.observe_chunk(&isp.capture_hour(&p.world, hour).records);
        }
        let c = evaluate(p, &isp, &mut det, "Alexa Enabled", 0);
        assert!(c.true_pos > 0);
        assert!(c.precision() > 0.97, "precision {:.3}", c.precision());
        assert!(c.recall() > 0.5, "recall {:.3}", c.recall());

        // The same records through a streamed worker pool score
        // identically — evaluate is generic over the detector shape.
        let mut pool = crate::parallel::DetectorPool::new(
            &p.rules,
            &HitList::for_day(&p.rules, &p.dnsdb, DayBin(0)),
            DetectorConfig::default(),
            4,
        );
        let mut chunk = haystack_wild::RecordChunk::default();
        use haystack_wild::VantagePoint;
        for hour in DayBin(0).hours() {
            let mut stream = isp.stream_hour(&p.world, hour, 4_096);
            pool.observe_stream(&mut *stream, &mut chunk).unwrap();
        }
        pool.finish().unwrap();
        let cp = evaluate(p, &isp, &mut pool, "Alexa Enabled", 0);
        assert_eq!(c, cp, "pooled evaluation diverges from sequential");
    }
}
