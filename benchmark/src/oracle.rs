//! Oracle and accounting: what the programs must have answered, worked
//! out in-harness from the same records, plus the conservation
//! identities and the attempted/failed operation counts.
//!
//! One oracle for every workload: [`ReferenceDetector`] (the
//! pre-optimisation detector kept as the equivalence reference) fed the
//! stream the program was fed. For the daemon the line ids go through
//! [`Anonymizer`] with the daemon's seed, exactly as its engine does;
//! the soak job keeps the generator's line ids.

use crate::daemon::Result;
use crate::gen::{self, StreamSpec};
use haystack_core::detector::DetectorConfig;
use haystack_core::hitlist::MapHitList;
use haystack_core::rules::RuleSet;
use haystack_core::ReferenceDetector;
use haystack_net::{AnonId, Anonymizer};
use serde_json::Value;
use std::net::Ipv4Addr;

/// `--seed` the daemon is started with; keys its anonymizer.
pub const DAEMON_SEED: u64 = 42;
/// `haystack serve`'s default detection threshold.
pub const SERVE_THRESHOLD: f64 = 0.4;

/// The anonymizer `haystack serve --seed 42` builds.
pub fn daemon_anonymizer() -> Anonymizer {
    Anonymizer::new(DAEMON_SEED, DAEMON_SEED ^ 0x9E37_79B9_7F4A_7C15)
}

/// How the program under test names lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineIds {
    /// `haystack serve`: `anonymize(src)` of the exported flow record.
    Daemon,
    /// `haystack soak`: the generator's own line id.
    Soak,
}

/// Detected lines per class, classes in rule order, lines ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Detections {
    /// `(class name, sorted line ids)`.
    pub classes: Vec<(String, Vec<u64>)>,
}

impl Detections {
    /// The class with the most detected lines (first on ties).
    pub fn largest_class(&self) -> Option<&str> {
        let mut best: Option<&(String, Vec<u64>)> = None;
        for c in &self.classes {
            if best.is_none_or(|b| c.1.len() > b.1.len()) {
                best = Some(c);
            }
        }
        best.map(|(name, _)| name.as_str())
    }
}

/// Replay the first `records` records of the stream through
/// [`ReferenceDetector`].
pub fn replay(
    rules: &RuleSet,
    targets: &[(Ipv4Addr, u16)],
    seed: u64,
    spec: StreamSpec,
    records: u64,
    ids: LineIds,
    threshold: f64,
) -> Detections {
    let config = DetectorConfig {
        threshold,
        require_established: false,
    };
    let mut det = ReferenceDetector::new(rules, MapHitList::whole_window(rules), config);
    let anon = daemon_anonymizer();
    let mut left = records;
    gen::for_each_chunk(targets, seed, spec, |_, chunk| {
        let take = chunk.len().min(left as usize);
        left -= take as u64;
        for w in &chunk[..take] {
            let line = match ids {
                // What the engine computes from the decoded flow record.
                LineIds::Daemon => anon.anonymize(w.src_ip),
                LineIds::Soak => w.line,
            };
            det.observe(line, w.dst, w.dport, w.proto, true, w.hour);
        }
    });
    Detections {
        classes: rules
            .rules
            .iter()
            .map(|r| {
                let name = rules.class_name(r.class);
                let lines = det
                    .detected_lines(name)
                    .into_iter()
                    .map(|AnonId(l)| l)
                    .collect();
                (name.to_string(), lines)
            })
            .collect(),
    }
}

/// Parse a `GET /detections` body.
pub fn parse_detections(body: &str) -> Result<Detections> {
    let doc: Value =
        serde_json::from_str(body).map_err(|e| format!("/detections is not JSON: {e}"))?;
    let classes = doc["classes"]
        .as_array()
        .ok_or("/detections has no classes array")?;
    let mut out = Detections::default();
    for c in classes {
        let name = c["class"]
            .as_str()
            .ok_or("/detections class without a name")?;
        let lines: Option<Vec<u64>> = c["lines"]
            .as_array()
            .and_then(|a| a.iter().map(Value::as_u64).collect());
        let lines = lines.ok_or_else(|| format!("/detections class {name:?} has no line list"))?;
        if c["count"].as_u64() != Some(lines.len() as u64) {
            return Err(format!(
                "/detections class {name:?}: count disagrees with its line list"
            ));
        }
        out.classes.push((name.to_string(), lines));
    }
    Ok(out)
}

/// How strictly a `/detections` body must match the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Match {
    /// Class by class and line by line (the lossless paths).
    Exact,
    /// Every reported line must be in the oracle (the shedding path).
    Subset,
}

/// Hold a `/detections` body against the oracle.
pub fn check_detections(expected: &Detections, body: &str, how: Match) -> Result<()> {
    let got = parse_detections(body)?;
    if got.classes.len() != expected.classes.len() {
        return Err(format!(
            "/detections lists {} classes, the oracle {}",
            got.classes.len(),
            expected.classes.len()
        ));
    }
    for ((want_name, want), (got_name, got)) in expected.classes.iter().zip(&got.classes) {
        if want_name != got_name {
            return Err(format!(
                "/detections class {got_name:?} where the oracle has {want_name:?}"
            ));
        }
        if !got.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "/detections class {got_name:?}: lines not strictly ascending"
            ));
        }
        let ok = match how {
            Match::Exact => got == want,
            Match::Subset => got.iter().all(|l| want.binary_search(l).is_ok()),
        };
        if !ok {
            let stray = got.iter().find(|l| want.binary_search(l).is_err());
            let missing = want.iter().find(|l| got.binary_search(l).is_err());
            return Err(format!(
                "/detections class {got_name:?}: {} lines, oracle {} \
                 (first line the oracle lacks: {stray:?}, first line the daemon lacks: {missing:?})",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// Hold a soak `--out` file (`class\tdetected_lines` rows) against the
/// oracle's per-class counts.
pub fn check_soak_out(expected: &Detections, text: &str) -> Result<()> {
    let mut rows = text.lines();
    if rows.next() != Some("class\tdetected_lines") {
        return Err("soak --out: missing header row".into());
    }
    for (name, lines) in &expected.classes {
        let want = format!("{name}\t{}", lines.len());
        match rows.next() {
            Some(row) if row == want => {}
            other => return Err(format!("soak --out: expected {want:?}, found {other:?}")),
        }
    }
    match rows.next() {
        None => Ok(()),
        Some(extra) => Err(format!("soak --out: unexpected extra row {extra:?}")),
    }
}

/// The admission and decode books of one `/stats` document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Books {
    /// Datagrams a listener pulled off a socket.
    pub received: u64,
    /// Datagrams handed to the engine.
    pub admitted: u64,
    /// Datagrams dropped at the full queue.
    pub shed: u64,
    /// Datagrams the engine has ingested.
    pub datagrams: u64,
    /// Records decoded.
    pub records: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// Batches the pool rejected.
    pub pool_errors: u64,
    /// Admitted but not yet ingested.
    pub queue_depth: u64,
}

impl Books {
    /// Read the books out of a `/stats` document.
    pub fn parse(stats: &Value) -> Result<Books> {
        let field = |key: &str| {
            stats[key]
                .as_u64()
                .ok_or_else(|| format!("/stats lacks a numeric {key:?}"))
        };
        Ok(Books {
            received: field("received")?,
            admitted: field("admitted")?,
            shed: field("shed")?,
            datagrams: field("datagrams")?,
            records: field("records")?,
            decode_errors: field("decode_errors")?,
            pool_errors: field("pool_errors")?,
            queue_depth: field("queue_depth")?,
        })
    }

    /// The identities every path keeps: each received datagram was
    /// admitted or shed, nothing failed to decode, the pool took every
    /// batch, and the reported backlog is the admitted-minus-ingested
    /// difference.
    pub fn check_conservation(&self) -> Result<()> {
        if self.received != self.admitted + self.shed {
            return Err(format!(
                "/stats unbalanced: received {} != admitted {} + shed {}",
                self.received, self.admitted, self.shed
            ));
        }
        if self.decode_errors != 0 || self.pool_errors != 0 {
            return Err(format!(
                "/stats: {} decode errors, {} pool errors",
                self.decode_errors, self.pool_errors
            ));
        }
        if self.queue_depth != self.admitted.saturating_sub(self.datagrams) {
            return Err(format!(
                "/stats: queue_depth {} != admitted {} - ingested {}",
                self.queue_depth, self.admitted, self.datagrams
            ));
        }
        Ok(())
    }

    /// The lossless path on top of that: nothing shed, and exactly what
    /// was sent arrived and was decoded.
    pub fn check_lossless(&self, sent_datagrams: u64, sent_records: u64) -> Result<()> {
        self.check_conservation()?;
        if self.shed != 0 {
            return Err(format!("lossless path shed {} datagrams", self.shed));
        }
        if self.received != sent_datagrams || self.datagrams != sent_datagrams {
            return Err(format!(
                "sent {sent_datagrams} datagrams; daemon received {} and ingested {}",
                self.received, self.datagrams
            ));
        }
        if self.records != sent_records {
            return Err(format!(
                "sent {sent_records} records; daemon decoded {}",
                self.records
            ));
        }
        Ok(())
    }

    /// The shedding path: the kernel may drop before the listener, the
    /// queue may shed after it, but no datagram appears from nowhere.
    /// Returns `kernel_dropped = sent − received`.
    pub fn check_flood(&self, sent_datagrams: u64) -> Result<u64> {
        self.check_conservation()?;
        sent_datagrams.checked_sub(self.received).ok_or_else(|| {
            format!(
                "daemon received {} datagrams but only {sent_datagrams} were sent",
                self.received
            )
        })
    }
}

/// Operations attempted and failed in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Records sent on a lossless path, queries, checkpoints, restarts.
    pub attempted: u64,
    /// Records not decoded on a lossless path, non-200 answers.
    pub failed: u64,
}

impl Ops {
    /// Count `n` operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Detections {
        Detections {
            classes: vec![
                ("Alexa Enabled".into(), vec![3, 9, 27]),
                ("Ring".into(), vec![]),
            ],
        }
    }

    const GOOD: &str = r#"{"classes":[{"class":"Alexa Enabled","count":3,"lines":[3,9,27]},{"class":"Ring","count":0,"lines":[]}]}"#;

    #[test]
    fn a_faithful_detections_body_passes() {
        check_detections(&oracle(), GOOD, Match::Exact).expect("exact");
        check_detections(&oracle(), GOOD, Match::Subset).expect("subset");
        assert_eq!(oracle().largest_class(), Some("Alexa Enabled"));
    }

    #[test]
    fn a_corrupted_detections_body_is_caught() {
        // One line id changed.
        let wrong_line = GOOD.replace("[3,9,27]", "[3,9,28]");
        let e = check_detections(&oracle(), &wrong_line, Match::Exact).unwrap_err();
        assert!(e.contains("Alexa Enabled") && e.contains("28"), "{e}");
        assert!(check_detections(&oracle(), &wrong_line, Match::Subset).is_err());
        // One line dropped: wrong when exact, fine as a subset.
        let dropped = GOOD.replace(
            "\"count\":3,\"lines\":[3,9,27]",
            "\"count\":2,\"lines\":[3,27]",
        );
        assert!(check_detections(&oracle(), &dropped, Match::Exact).is_err());
        check_detections(&oracle(), &dropped, Match::Subset).expect("a subset is allowed");
        // A count that disagrees with its list, a class renamed, a class
        // missing, lines out of order, and a truncated body.
        assert!(check_detections(
            &oracle(),
            &GOOD.replace("\"count\":3", "\"count\":4"),
            Match::Exact
        )
        .is_err());
        assert!(check_detections(&oracle(), &GOOD.replace("Ring", "Rong"), Match::Exact).is_err());
        let one_class = r#"{"classes":[{"class":"Alexa Enabled","count":3,"lines":[3,9,27]}]}"#;
        assert!(check_detections(&oracle(), one_class, Match::Exact).is_err());
        assert!(check_detections(
            &oracle(),
            &GOOD.replace("[3,9,27]", "[9,3,27]"),
            Match::Subset
        )
        .is_err());
        assert!(check_detections(&oracle(), &GOOD[..40], Match::Exact).is_err());
    }

    fn stats(received: u64, admitted: u64, shed: u64, datagrams: u64, records: u64) -> Value {
        serde_json::json!({
            "received": received, "admitted": admitted, "shed": shed,
            "datagrams": datagrams, "records": records,
            "decode_errors": 0, "pool_errors": 0,
            "queue_depth": admitted - datagrams,
        })
    }

    #[test]
    fn balanced_books_pass_and_unbalanced_books_are_caught() {
        let ok = Books::parse(&stats(100, 100, 0, 100, 3_000)).expect("parses");
        ok.check_lossless(100, 3_000)
            .expect("balanced and complete");
        // received != admitted + shed.
        let e = Books::parse(&stats(100, 90, 5, 90, 2_700))
            .unwrap()
            .check_conservation()
            .unwrap_err();
        assert!(e.contains("unbalanced"), "{e}");
        // Balanced, but the lossless path shed or lost something.
        assert!(Books::parse(&stats(100, 95, 5, 95, 2_850))
            .unwrap()
            .check_lossless(100, 3_000)
            .is_err());
        assert!(Books::parse(&stats(99, 99, 0, 99, 2_970))
            .unwrap()
            .check_lossless(100, 3_000)
            .is_err());
        assert!(Books::parse(&stats(100, 100, 0, 100, 2_999))
            .unwrap()
            .check_lossless(100, 3_000)
            .is_err());
        // The flood path tolerates shed and kernel drops, not excess.
        let flood = Books::parse(&stats(80, 60, 20, 60, 1_800)).unwrap();
        assert_eq!(flood.check_flood(100), Ok(20));
        assert!(flood.check_flood(79).is_err());
        // Decode errors and a missing field fail everywhere.
        let mut bad = stats(100, 100, 0, 100, 3_000);
        bad["decode_errors"] = serde_json::json!(1);
        assert!(Books::parse(&bad).unwrap().check_conservation().is_err());
        assert!(Books::parse(&serde_json::json!({"received": 1})).is_err());
    }

    #[test]
    fn soak_out_rows_are_held_to_the_oracle_counts() {
        let good = "class\tdetected_lines\nAlexa Enabled\t3\nRing\t0\n";
        check_soak_out(&oracle(), good).expect("matches");
        assert!(check_soak_out(&oracle(), &good.replace("\t3", "\t2")).is_err());
        assert!(check_soak_out(&oracle(), "class\tdetected_lines\nAlexa Enabled\t3\n").is_err());
        assert!(check_soak_out(&oracle(), &format!("{good}Extra\t1\n")).is_err());
    }

    #[test]
    fn ops_accumulate() {
        let mut ops = Ops::default();
        ops.add(3_000, 0);
        ops.add(10, 1);
        assert_eq!(
            ops,
            Ops {
                attempted: 3_010,
                failed: 1
            }
        );
    }
}
