//! Result files and the `compare` sub-command.

use crate::daemon::{self, Result};
use crate::pin::{Cpus, Placement};
use crate::spec::{Better, END_TO_END};
use crate::stats;
use serde_json::Value;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn file_line(path: &str) -> Option<String> {
    Some(std::fs::read_to_string(path).ok()?.trim().to_string())
}

/// What every result file records about where it was measured.
pub fn environment(placement: &Placement) -> Value {
    let root = daemon::repo_root();
    let commit = command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]);
    serde_json::json!({
        "commit": commit,
        // Not `available_parallelism`: the harness has confined itself.
        "nproc": placement.cpus(Cpus::All).len(),
        "kernel": file_line("/proc/sys/kernel/osrelease"),
        "rustc": command_line("rustc", &["-V"]),
        "rmem_default": file_line("/proc/sys/net/core/rmem_default"),
        "placement": placement.describe(),
    })
}

/// Samples of one end-to-end metric on one workload, out of a result
/// file written by `run`.
fn samples(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let rows = doc["workloads"].as_array()?;
    let row = rows.iter().find(|r| r["name"].as_str() == Some(workload))?;
    let values = row["end_to_end"][metric]["values"].as_array()?;
    values.iter().map(Value::as_f64).collect()
}

/// Verdict of one workload × metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// neither of the above can be said — unless every run of B reads
    /// better than every run of A.
    Unresolved,
    /// One of the files has no samples of this metric on this workload:
    /// a truncated or partial file proves nothing.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judge samples `b` against samples `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    if stats::spread(a).max(stats::spread(b)) > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Smallest and largest of `v`.
pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Per workload × end-to-end metric of two result documents: both
/// medians with min/max, the bound and the verdict. Returns how many
/// rows were not `ok`; a row either document lacks is one of them.
fn compare_docs(a: &Value, b: &Value) -> usize {
    println!(
        "{:<16} {:<18} {:>14} {:>27} {:>14} {:>27} {:>6}  verdict",
        "workload", "metric", "A median", "A [min, max]", "B median", "B [min, max]", "bound"
    );
    let mut not_ok = 0;
    for w in crate::spec::Workload::ALL {
        for m in END_TO_END {
            let side = |doc: &Value| samples(doc, w.name(), m.name).filter(|v| !v.is_empty());
            let (va, vb) = (side(a), side(b));
            let verdict = match (&va, &vb) {
                (Some(va), Some(vb)) => judge(va, vb, m.better, m.bound),
                _ => Verdict::Missing,
            };
            not_ok += usize::from(verdict != Verdict::Ok);
            let show = |v: &Option<Vec<f64>>| match v {
                Some(v) => {
                    let (lo, hi) = min_max(v);
                    (
                        format!("{:.4}", stats::median(v)),
                        format!("[{lo:.4}, {hi:.4}]"),
                    )
                }
                None => ("-".to_string(), "-".to_string()),
            };
            let ((a_median, a_range), (b_median, b_range)) = (show(&va), show(&vb));
            println!(
                "{:<16} {:<18} {a_median:>14} {a_range:>27} {b_median:>14} {b_range:>27} {:>5.0}%  {}",
                w.name(),
                m.name,
                m.bound * 100.0,
                verdict.label()
            );
        }
    }
    not_ok
}

/// `compare A.json B.json`; see [`compare_docs`].
pub fn compare(a_path: &str, b_path: &str) -> Result<usize> {
    let load = |path: &str| -> Result<Value> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare_docs(&load(a_path)?, &load(b_path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +5 % is inside a 10 % bound, +20 % is not.
        assert_eq!(
            judge(&a, &[105.0, 104.0, 106.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[120.0, 119.0, 121.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&a, &[120.0, 119.0, 121.0], Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
        // A side noisier than the bound cannot be called either way …
        let noisy = [70.0, 100.0, 130.0, 90.0, 115.0];
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        let fast_but_noisy = [40.0, 60.0, 80.0, 50.0, 70.0];
        assert_eq!(judge(&a, &fast_but_noisy, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_row_either_file_lacks_is_not_ok() {
        let row = |name: &str| {
            let metrics: Vec<(String, Value)> = END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        serde_json::json!({"values": [1.0, 1.0, 1.0]}),
                    )
                })
                .collect();
            serde_json::json!({"name": name, "end_to_end": Value::Object(metrics)})
        };
        let rows: Vec<Value> = crate::spec::Workload::ALL
            .iter()
            .map(|w| row(w.name()))
            .collect();
        let full = serde_json::json!({ "workloads": rows.clone() });
        assert_eq!(compare_docs(&full, &full), 0);
        // B was cut short after its first workload.
        let cut = serde_json::json!({ "workloads": [rows[0].clone()] });
        let missing = (rows.len() - 1) * END_TO_END.len();
        assert_eq!(compare_docs(&full, &cut), missing);
        assert_eq!(compare_docs(&cut, &full), missing);
        // Nothing in common, or an empty sample list: every row counts.
        let empty = serde_json::json!({});
        assert_eq!(compare_docs(&empty, &empty), rows.len() * END_TO_END.len());
        let mut hollow = full.clone();
        hollow["workloads"][0]["end_to_end"]["ingest_rps"]["values"] = serde_json::json!([]);
        assert_eq!(compare_docs(&full, &hollow), 1);
    }

    #[test]
    fn samples_are_read_from_a_result_document() {
        let doc = serde_json::json!({
            "workloads": [{
                "name": "serve_miss99",
                "end_to_end": {"ingest_rps": {"unit": "1/s", "values": [3.0, 3.5]}},
            }]
        });
        assert_eq!(
            samples(&doc, "serve_miss99", "ingest_rps"),
            Some(vec![3.0, 3.5])
        );
        assert_eq!(samples(&doc, "serve_miss99", "setup_s"), None);
        assert_eq!(samples(&doc, "soak_thread", "ingest_rps"), None);
    }
}
