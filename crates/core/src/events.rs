//! The NDJSON detection-event stream (DESIGN.md §14).
//!
//! One event per (line, rule) state transition into *detected*: the
//! hour the rule's evidence threshold was first met, together with how
//! many distinct domains had been seen by then. Events are **derived**
//! from exported [`DetectorState`] — the hot path pays nothing, a
//! resumed run re-derives the identical stream, and the derivation is
//! independent of worker count because shard states partition lines.
//!
//! Output is byte-determinate: events sort by (hour, rule, line) and
//! each serializes as one hand-formatted JSON line, so `haystack detect
//! --events` captures diff clean across runs and `GET /events` responses
//! are reproducible fixtures.

use crate::checkpoint::DetectorState;
use crate::rules::RuleSet;
use haystack_net::{AnonId, HourBin};

/// One line-state transition into *detected*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionEvent {
    /// The subscriber line.
    pub line: AnonId,
    /// Rule index within the rule set.
    pub rule: u16,
    /// Distinct evidence domains seen at transition time.
    pub evidence: u32,
    /// Hour the rule's threshold was first met.
    pub hour: HourBin,
}

/// Derive the event stream from exported detector shard states.
///
/// Shards partition lines, so concatenating shard states loses nothing
/// and duplicates nothing; the final sort makes the result independent
/// of shard count and order.
pub fn events_from_states(rules: &RuleSet, states: &[DetectorState]) -> Vec<DetectionEvent> {
    let mut out = Vec::new();
    for state in states {
        for (ri, entries) in state.rules.iter().enumerate() {
            if ri >= rules.rules.len() {
                continue; // foreign state; extra rules carry no meaning here
            }
            for e in entries {
                if let Some(hour) = e.first_met {
                    out.push(DetectionEvent {
                        line: e.line,
                        rule: ri as u16,
                        evidence: e.mask.count_ones(),
                        hour,
                    });
                }
            }
        }
    }
    out.sort_unstable_by_key(|e| (e.hour, e.rule, e.line));
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// class names are tame, but the format must never emit invalid JSON.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize one event as an NDJSON line (no trailing newline). `day`
/// is present in `haystack detect --events` output (which spans days)
/// and absent from the daemon's `GET /events` (which streams one day).
pub fn ndjson_line(rules: &RuleSet, event: &DetectionEvent, day: Option<u32>) -> String {
    let mut out = String::with_capacity(96);
    out.push('{');
    if let Some(day) = day {
        out.push_str(&format!("\"day\":{day},"));
    }
    out.push_str(&format!("\"line\":{},\"class\":", event.line.0));
    let class = rules
        .rules
        .get(usize::from(event.rule))
        .map(|r| rules.class_name(r.class))
        .unwrap_or("<unknown>");
    push_json_str(&mut out, class);
    out.push_str(&format!(
        ",\"evidence\":{},\"hour\":{}}}",
        event.evidence, event.hour.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::LineEvidence;
    use crate::rules::RuleSetBuilder;
    use haystack_testbed::catalog::DetectionLevel;

    fn rules() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.rule("Alexa Enabled", DetectionLevel::Platform, None, vec![]);
        b.rule(
            "Fire \"TV\"",
            DetectionLevel::Product,
            Some("Alexa Enabled"),
            vec![],
        );
        b.build()
    }

    fn ev(line: u64, mask: u64, first_met: Option<u32>) -> LineEvidence {
        LineEvidence {
            line: AnonId(line),
            mask,
            first_met: first_met.map(HourBin),
        }
    }

    #[test]
    fn only_transitions_become_events_and_order_is_canonical() {
        let rules = rules();
        let shard_a = DetectorState {
            rules: vec![
                vec![ev(5, 0b111, Some(9)), ev(2, 0b1, None)],
                vec![ev(3, 0b11, Some(4))],
            ],
        };
        let shard_b = DetectorState {
            rules: vec![vec![ev(1, 0b1, Some(9))], vec![]],
        };
        let events = events_from_states(&rules, &[shard_a.clone(), shard_b.clone()]);
        assert_eq!(
            events,
            vec![
                DetectionEvent {
                    line: AnonId(3),
                    rule: 1,
                    evidence: 2,
                    hour: HourBin(4)
                },
                DetectionEvent {
                    line: AnonId(1),
                    rule: 0,
                    evidence: 1,
                    hour: HourBin(9)
                },
                DetectionEvent {
                    line: AnonId(5),
                    rule: 0,
                    evidence: 3,
                    hour: HourBin(9)
                },
            ]
        );
        // Shard order must not matter.
        assert_eq!(events, events_from_states(&rules, &[shard_b, shard_a]));
    }

    #[test]
    fn ndjson_lines_are_exact_and_escaped() {
        let rules = rules();
        let e = DetectionEvent {
            line: AnonId(7),
            rule: 0,
            evidence: 2,
            hour: HourBin(30),
        };
        assert_eq!(
            ndjson_line(&rules, &e, Some(1)),
            "{\"day\":1,\"line\":7,\"class\":\"Alexa Enabled\",\"evidence\":2,\"hour\":30}"
        );
        let quoted = DetectionEvent {
            line: AnonId(8),
            rule: 1,
            evidence: 1,
            hour: HourBin(0),
        };
        assert_eq!(
            ndjson_line(&rules, &quoted, None),
            "{\"line\":8,\"class\":\"Fire \\\"TV\\\"\",\"evidence\":1,\"hour\":0}"
        );
    }
}
