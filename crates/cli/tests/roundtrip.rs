//! The signature pack must carry real pipeline rules losslessly — a
//! collector loading the file detects exactly what the generating side
//! would.

use haystack_core::detector::{Detector, DetectorConfig};
use haystack_core::hitlist::HitList;
use haystack_core::pack::SignaturePack;
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_net::ports::Proto;
use haystack_net::{AnonId, HourBin};

#[test]
fn real_rules_survive_the_pack_and_detect_identically() {
    let p = Pipeline::run(PipelineConfig::fast(7));
    let sealed = SignaturePack {
        rules: p.rules.as_ref().clone(),
        threshold: 0.35,
        source: "generate(fast,seed=7)".into(),
        comment: String::new(),
    };
    let pack = SignaturePack::load(&sealed.encode()).unwrap();
    let loaded = &pack.rules;

    assert_eq!(pack.threshold, 0.35);
    assert_eq!(loaded.rules.len(), p.rules.rules.len());
    for (a, b) in p.rules.rules.iter().zip(&loaded.rules) {
        assert_eq!(p.rules.class_name(a.class), loaded.class_name(b.class));
        assert_eq!(a.level, b.level);
        assert_eq!(
            a.parent.map(|x| p.rules.class_name(x)),
            b.parent.map(|x| loaded.class_name(x))
        );
        assert_eq!(a.domains.len(), b.domains.len());
        for (da, db) in a.domains.iter().zip(&b.domains) {
            assert_eq!(da.name, db.name);
            assert_eq!(da.ports, db.ports);
            assert_eq!(da.ips, db.ips);
            assert_eq!(da.usage_indicator, db.usage_indicator);
        }
    }
    assert!(
        !p.rules.undetectable.is_empty(),
        "fast(7) has undetectable classes"
    );
    assert_eq!(loaded.undetectable.len(), p.rules.undetectable.len());
    for ((ca, ra), (cb, rb)) in p.rules.undetectable.iter().zip(&loaded.undetectable) {
        assert_eq!(p.rules.class_name(*ca), loaded.class_name(*cb));
        assert_eq!(ra, rb);
    }

    // Identical evidence → identical verdicts, original vs loaded rules.
    let line = AnonId(42);
    let mut orig = Detector::new(
        &p.rules,
        HitList::whole_window(&p.rules),
        DetectorConfig::default(),
    );
    let mut from_pack = Detector::new(
        loaded,
        HitList::whole_window(loaded),
        DetectorConfig::default(),
    );
    // Touch one IP/port of every rule domain.
    let combos: Vec<(std::net::Ipv4Addr, u16)> = p
        .rules
        .rules
        .iter()
        .flat_map(|r| r.domains.iter())
        .filter_map(|d| Some((*d.ips.iter().next()?, *d.ports.iter().next()?)))
        .collect();
    for (ip, port) in combos {
        orig.observe(line, ip, port, Proto::Tcp, true, HourBin(0));
        from_pack.observe(line, ip, port, Proto::Tcp, true, HourBin(0));
    }
    for rule in &p.rules.rules {
        let class = p.rules.class_name(rule.class);
        assert_eq!(
            orig.is_detected(line, class),
            from_pack.is_detected(line, class),
            "verdict diverged for {class}"
        );
    }
}
