//! The baseline the paper argues against (§8): traffic-feature device
//! classification in the style of Sivanathan et al. \[34\].
//!
//! \[34\] trains a classifier on per-device traffic characteristics (volume,
//! packet sizes, port mix, endpoint counts) from **full packet captures**.
//! The paper's §8 point is that such features do not survive an ISP's
//! reality — "neither data from core networks subject to sampling … are
//! enough" — while destination signatures do. This module implements a
//! faithful flow-level version of the feature approach (nearest-centroid
//! over normalized feature vectors, the classic light-weight variant) so
//! the `baseline_compare` binary can measure the collapse instead of
//! asserting it.
//!
//! The features use only what headers offer — deliberately: giving the
//! baseline payload features would be comparing against a method that
//! cannot run at the vantage point at all.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One observation the feature extractor consumes: a (possibly sampled)
/// flow aggregate of an entity-window.
#[derive(Debug, Clone, Copy)]
pub struct FlowObs {
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dport: u16,
    /// Packets (sampled count at sampled vantage points).
    pub packets: u64,
    /// Bytes.
    pub bytes: u64,
}

/// Number of features.
pub const N_FEATURES: usize = 8;

/// A normalized feature vector for one (device, window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector(pub [f64; N_FEATURES]);

/// Extract features from an entity-window's flows. Returns `None` for an
/// empty window (nothing to classify — the common case under sampling).
pub fn extract(flows: &[FlowObs]) -> Option<FeatureVector> {
    if flows.is_empty() {
        return None;
    }
    let total_pkts: u64 = flows.iter().map(|f| f.packets).sum();
    let total_bytes: u64 = flows.iter().map(|f| f.bytes).sum();
    if total_pkts == 0 {
        return None;
    }
    let share = |pred: &dyn Fn(u16) -> bool| -> f64 {
        flows
            .iter()
            .filter(|f| pred(f.dport))
            .map(|f| f.packets)
            .sum::<u64>() as f64
            / total_pkts as f64
    };
    let web = share(&|p| p == 443 || p == 80 || p == 8080);
    let ntp = share(&|p| p == 123);
    let mqtt = share(&|p| p == 1883 || p == 8883);
    let push = share(&|p| p == 5223 || p == 5222);
    let dsts: BTreeSet<Ipv4Addr> = flows.iter().map(|f| f.dst).collect();
    let ports: BTreeSet<u16> = flows.iter().map(|f| f.dport).collect();
    Some(FeatureVector([
        web,
        ntp,
        mqtt,
        push,
        (total_pkts as f64).ln_1p() / 12.0, // log-volume, roughly unit-scaled
        (total_bytes as f64 / total_pkts as f64) / 1_500.0, // mean packet size
        (dsts.len() as f64).ln_1p() / 5.0,
        (ports.len() as f64).ln_1p() / 3.0,
    ]))
}

fn distance(a: &FeatureVector, b: &FeatureVector) -> f64 {
    a.0.iter()
        .zip(&b.0)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// A nearest-centroid classifier over device classes.
#[derive(Debug, Clone, Default)]
pub struct CentroidClassifier {
    centroids: BTreeMap<&'static str, FeatureVector>,
}

impl CentroidClassifier {
    /// Fit per-class centroids from labelled windows.
    pub fn fit(samples: &[(&'static str, FeatureVector)]) -> CentroidClassifier {
        let mut sums: BTreeMap<&'static str, ([f64; N_FEATURES], usize)> = BTreeMap::new();
        for (class, fv) in samples {
            let e = sums.entry(class).or_insert(([0.0; N_FEATURES], 0));
            for (acc, x) in e.0.iter_mut().zip(&fv.0) {
                *acc += x;
            }
            e.1 += 1;
        }
        let centroids = sums
            .into_iter()
            .map(|(class, (sum, n))| {
                let mut c = [0.0; N_FEATURES];
                for (ci, s) in c.iter_mut().zip(&sum) {
                    *ci = s / n as f64;
                }
                (class, FeatureVector(c))
            })
            .collect();
        CentroidClassifier { centroids }
    }

    /// Number of classes learned.
    pub fn num_classes(&self) -> usize {
        self.centroids.len()
    }

    /// Predict the nearest class, with its distance.
    pub fn predict(&self, fv: &FeatureVector) -> Option<(&'static str, f64)> {
        self.centroids
            .iter()
            .map(|(class, c)| (*class, distance(fv, c)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
    }
}

/// Convenience: accuracy of the classifier over a labelled evaluation set.
/// Windows whose features cannot be extracted (empty under sampling) count
/// as misclassified — the baseline has no answer for them, which is
/// exactly its failure mode at sparse vantage points.
pub fn accuracy(clf: &CentroidClassifier, eval: &[(&'static str, Option<FeatureVector>)]) -> f64 {
    if eval.is_empty() {
        return 0.0;
    }
    let correct = eval
        .iter()
        .filter(|(label, fv)| {
            fv.as_ref()
                .and_then(|fv| clf.predict(fv))
                .map(|(pred, _)| pred == *label)
                .unwrap_or(false)
        })
        .count();
    correct as f64 / eval.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(dports: &[(u16, u64)]) -> Vec<FlowObs> {
        dports
            .iter()
            .enumerate()
            .map(|(i, (dport, packets))| FlowObs {
                dst: Ipv4Addr::new(198, 18, 0, i as u8 + 1),
                dport: *dport,
                packets: *packets,
                bytes: packets * 500,
            })
            .collect()
    }

    #[test]
    fn extraction_handles_edges() {
        assert!(extract(&[]).is_none());
        let fv = extract(&flows(&[(443, 80), (123, 20)])).unwrap();
        assert!((fv.0[0] - 0.8).abs() < 1e-9, "web share");
        assert!((fv.0[1] - 0.2).abs() < 1e-9, "ntp share");
    }

    #[test]
    fn classifier_separates_distinct_profiles() {
        // "Camera": heavy web upload, few endpoints. "Plug": tiny MQTT.
        let cam = |n: u64| extract(&flows(&[(443, n), (123, 2)])).unwrap();
        let plug = |n: u64| extract(&flows(&[(8883, n), (123, 1)])).unwrap();
        let train: Vec<(&'static str, FeatureVector)> = vec![
            ("cam", cam(5_000)),
            ("cam", cam(4_000)),
            ("plug", plug(40)),
            ("plug", plug(60)),
        ];
        let clf = CentroidClassifier::fit(&train);
        assert_eq!(clf.num_classes(), 2);
        assert_eq!(clf.predict(&cam(4_500)).unwrap().0, "cam");
        assert_eq!(clf.predict(&plug(50)).unwrap().0, "plug");
    }

    #[test]
    fn sampling_collapses_accuracy() {
        // Simulate 1-in-1000 sampling: most windows lose every packet; the
        // survivors keep 1–2 packets and lose the port-mix signal.
        let cam = extract(&flows(&[(443, 5_000), (123, 2)])).unwrap();
        let plug = extract(&flows(&[(8883, 40), (123, 1)])).unwrap();
        let clf = CentroidClassifier::fit(&[("cam", cam), ("plug", plug)]);

        let full: Vec<(&'static str, Option<FeatureVector>)> = vec![
            ("cam", extract(&flows(&[(443, 4_800), (123, 2)]))),
            ("plug", extract(&flows(&[(8883, 55), (123, 1)]))),
        ];
        // Sampled: the camera keeps ~5 packets on one flow; the plug keeps
        // nothing at all.
        let sampled: Vec<(&'static str, Option<FeatureVector>)> = vec![
            ("cam", extract(&flows(&[(443, 5)]))),
            ("plug", extract(&[])),
        ];
        let a_full = accuracy(&clf, &full);
        let a_sampled = accuracy(&clf, &sampled);
        assert!(
            a_full > a_sampled,
            "full {a_full} must beat sampled {a_sampled}"
        );
        assert_eq!(accuracy(&clf, &[]), 0.0);
    }
}
