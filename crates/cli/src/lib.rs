//! JSON persistence for rule sets, and the CLI's plumbing.
//!
//! An operator runs the §2–§4 pipeline once (it needs the testbeds), then
//! ships the resulting rules to collectors as a JSON document; collectors
//! only need the rules plus a passive-DNS feed to rebuild daily hitlists.
//! The format is versioned and intentionally dumb — one object per rule,
//! primitive types only — so non-Rust consumers can read it.

// `deny`, not `forbid`: [`sig`] alone opts out, for its two libc
// `signal(2)` calls.
#![deny(unsafe_code)]

use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
use haystack_dns::DomainName;
use haystack_testbed::catalog::DetectionLevel;
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

pub mod resume;
#[allow(unsafe_code)]
pub mod sig;

/// Format version written into every document.
pub const FORMAT_VERSION: u32 = 1;

fn level_str(l: DetectionLevel) -> &'static str {
    match l {
        DetectionLevel::Platform => "platform",
        DetectionLevel::Manufacturer => "manufacturer",
        DetectionLevel::Product => "product",
    }
}

fn level_from(s: &str) -> Result<DetectionLevel, String> {
    match s {
        "platform" => Ok(DetectionLevel::Platform),
        "manufacturer" => Ok(DetectionLevel::Manufacturer),
        "product" => Ok(DetectionLevel::Product),
        other => Err(format!("unknown detection level {other:?}")),
    }
}

/// Serialize a rule set to the versioned JSON document.
pub fn rules_to_json(rules: &RuleSet) -> Value {
    json!({
        "format_version": FORMAT_VERSION,
        "rules": rules.rules.iter().map(|r| json!({
            "class": rules.class_name(r.class),
            "level": level_str(r.level),
            "parent": r.parent.map(|p| rules.class_name(p)),
            "domains": r.domains.iter().map(|d| json!({
                "name": d.name.as_str(),
                "ports": d.ports.iter().collect::<Vec<_>>(),
                "ips": d.ips.iter().map(|ip| ip.to_string()).collect::<Vec<_>>(),
                "usage_indicator": d.usage_indicator,
            })).collect::<Vec<_>>(),
        })).collect::<Vec<_>>(),
        "undetectable": rules.undetectable.iter().map(|(c, r)| json!({
            "class": rules.class_name(*c),
            "reason": format!("{r:?}"),
        })).collect::<Vec<_>>(),
    })
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Deserialize a rule set. Class names are interned into the rule
/// set's own [`haystack_core::ClassTable`] in document order.
pub fn rules_from_json(doc: &Value) -> Result<RuleSet, String> {
    let version = doc
        .get("format_version")
        .and_then(Value::as_u64)
        .ok_or("missing format_version")?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(format!("unsupported format version {version}"));
    }
    let mut b = RuleSetBuilder::new();
    let rules = doc.get("rules").and_then(Value::as_array).ok_or("missing rules array")?;
    for r in rules {
        let class = str_field(r, "class")?;
        let level = level_from(str_field(r, "level")?)?;
        let parent = match r.get("parent") {
            Some(Value::String(p)) => Some(p.as_str()),
            _ => None,
        };
        let mut domains = Vec::new();
        for d in r.get("domains").and_then(Value::as_array).ok_or("missing domains")? {
            let name = DomainName::parse(str_field(d, "name")?)
                .map_err(|e| format!("bad domain name: {e}"))?;
            let ports: BTreeSet<u16> = d
                .get("ports")
                .and_then(Value::as_array)
                .ok_or("missing ports")?
                .iter()
                .map(|p| {
                    p.as_u64()
                        .and_then(|v| u16::try_from(v).ok())
                        .ok_or_else(|| format!("bad port {p}"))
                })
                .collect::<Result<_, _>>()?;
            let ips: BTreeSet<Ipv4Addr> = d
                .get("ips")
                .and_then(Value::as_array)
                .ok_or("missing ips")?
                .iter()
                .map(|ip| {
                    ip.as_str()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("bad ip {ip}"))
                })
                .collect::<Result<_, _>>()?;
            let usage_indicator =
                d.get("usage_indicator").and_then(Value::as_bool).unwrap_or(false);
            domains.push(RuleDomain { name, ports, ips, usage_indicator });
        }
        b.rule(class, level, parent, domains);
    }
    Ok(b.build())
}

pub mod log {
    //! Verbosity-gated stderr logging for the `haystack` binary.
    //!
    //! Progress notes go through [`note_args`] (the [`note!`] macro) and
    //! are silenced by `--quiet`, keeping machine-readable stdout/stderr
    //! clean; errors always print. Every message — emitted or suppressed
    //! — is tallied into the `cli` telemetry scope when telemetry is on,
    //! so `haystack metrics` accounts for its own chatter.
    //!
    //! [`note!`]: crate::note

    use haystack_core::telemetry;
    use std::fmt;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// `--quiet`: progress notes are swallowed (errors still print).
    pub const QUIET: u8 = 0;
    /// Default: progress notes on stderr.
    pub const NORMAL: u8 = 1;

    static VERBOSITY: AtomicU8 = AtomicU8::new(NORMAL);

    /// Set the process-wide verbosity from the `--quiet` flag.
    pub fn set_quiet(quiet: bool) {
        VERBOSITY.store(if quiet { QUIET } else { NORMAL }, Ordering::Relaxed);
    }

    /// Whether progress notes are currently suppressed.
    pub fn is_quiet() -> bool {
        VERBOSITY.load(Ordering::Relaxed) == QUIET
    }

    fn count(name: &str) {
        // Handles are cheap no-ops unless telemetry is compiled in and
        // enabled; log volume is tens of lines, so no caching needed.
        if telemetry::enabled() {
            telemetry::global().scope("cli").counter(name).inc();
        }
    }

    /// A progress note: stderr unless `--quiet`, counted either way.
    pub fn note_args(args: fmt::Arguments<'_>) {
        if is_quiet() {
            count("notes_suppressed");
        } else {
            eprintln!("{args}");
            count("notes_emitted");
        }
    }

    /// An error: always stderr, `error:`-prefixed, never silenced.
    pub fn error_args(args: fmt::Arguments<'_>) {
        eprintln!("error: {args}");
        count("errors");
    }

    /// Unconditional bare stderr output (usage/help text).
    pub fn raw_args(args: fmt::Arguments<'_>) {
        eprintln!("{args}");
        count("raw_emitted");
    }
}

/// Read the numeric flag `--key`, or `default` when it was not passed;
/// a value that does not parse is a usage error (exit 2).
pub fn num<T: std::str::FromStr>(
    flags: &std::collections::HashMap<String, String>,
    key: &str,
    default: T,
) -> T {
    let Some(v) = flags.get(key) else { return default };
    v.parse().unwrap_or_else(|_| {
        cli_error!("--{key} needs a number");
        std::process::exit(2);
    })
}

/// Print a progress note to stderr unless `--quiet` is in effect.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        $crate::log::note_args(format_args!($($arg)*))
    };
}

/// Print an `error:`-prefixed line to stderr (never silenced).
#[macro_export]
macro_rules! cli_error {
    ($($arg:tt)*) => {
        $crate::log::error_args(format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.rule(
            "Alexa Enabled",
            DetectionLevel::Platform,
            None,
            vec![RuleDomain {
                name: DomainName::parse("avs-alexa.amazon-iot.com").unwrap(),
                ports: [443u16].into_iter().collect(),
                ips: ["198.18.0.1".parse().unwrap(), "198.18.0.2".parse().unwrap()]
                    .into_iter()
                    .collect(),
                usage_indicator: false,
            }],
        );
        b.rule(
            "Amazon Product",
            DetectionLevel::Manufacturer,
            Some("Alexa Enabled"),
            vec![RuleDomain {
                name: DomainName::parse("d1.amazon-iot.com").unwrap(),
                ports: [443u16, 8883].into_iter().collect(),
                ips: ["198.18.0.9".parse().unwrap()].into_iter().collect(),
                usage_indicator: true,
            }],
        );
        b.build()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let rules = sample();
        let doc = rules_to_json(&rules);
        let loaded = rules_from_json(&doc).unwrap();
        assert_eq!(loaded.rules.len(), 2);
        for (a, b) in rules.rules.iter().zip(&loaded.rules) {
            assert_eq!(rules.class_name(a.class), loaded.class_name(b.class));
            assert_eq!(a.level, b.level);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.domains.len(), b.domains.len());
            for (da, db) in a.domains.iter().zip(&b.domains) {
                assert_eq!(da.name, db.name);
                assert_eq!(da.ports, db.ports);
                assert_eq!(da.ips, db.ips);
                assert_eq!(da.usage_indicator, db.usage_indicator);
            }
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut doc = rules_to_json(&sample());
        doc["format_version"] = json!(99);
        assert!(rules_from_json(&doc).unwrap_err().contains("version"));
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(rules_from_json(&json!({})).is_err());
        assert!(rules_from_json(&json!({"format_version": 1})).is_err());
        let mut doc = rules_to_json(&sample());
        doc["rules"][0]["domains"][0]["ips"][0] = json!("not-an-ip");
        assert!(rules_from_json(&doc).is_err());
        let mut doc = rules_to_json(&sample());
        doc["rules"][0]["level"] = json!("galaxy");
        assert!(rules_from_json(&doc).is_err());
    }
}
