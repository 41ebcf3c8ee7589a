//! The repository's benchmark: one record stream through the real
//! daemon (and the real soak job) for the end-to-end metrics, and the
//! same datagrams through every layer in-process for the ledger.
//! See `README.md` beside this package.

mod calib;
mod daemon;
mod gen;
mod load;
mod oracle;
mod pin;
mod proc;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use daemon::Result;
use serde_json::Value;
use spec::{Workload, DEFAULT_SECONDS, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use workloads::{Ctx, LiveRun};

#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

const USAGE: &str = "usage:
  haystack-benchmark run [--seed N] [--seconds S] [--smoke]
      every workload, repeated; medians with min/max, the ledger, a result file
  haystack-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
      one run of one workload; last stdout line is the result as JSON
      (--trace 0: end-to-end metrics; --trace 1: per-layer metrics)
  haystack-benchmark compare A.json B.json
      hold two result files of `run` against each metric's bound
workloads: serve_miss99 serve_hit50 serve_udp_flood serve_query_mix soak_thread soak_process";

/// Parsed `--key value` arguments (`--smoke` takes no value).
#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args> {
    let mut out = Args {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(out)
}

/// Print each `(name, unit, value)` as a row of `workload` and return
/// the rows as the members of a `metrics` object.
fn print_metrics<'a>(
    workload: Workload,
    metrics: impl IntoIterator<Item = (&'a str, &'a str, f64)>,
) -> Vec<(String, Value)> {
    metrics
        .into_iter()
        .map(|(name, unit, value)| {
            println!("{:<16} {name:<42} {value:>18.4} {unit}", workload.name());
            (
                name.to_string(),
                serde_json::json!({ "value": value, "unit": unit }),
            )
        })
        .collect()
}

/// The end-to-end metrics of a run, every one present and positive.
fn end_to_end_of(workload: Workload, run: &LiveRun) -> Result<Vec<(&'static str, f64)>> {
    END_TO_END
        .iter()
        .map(|m| match run.e2e.get(m.name) {
            Some(&v) if v.is_finite() && v > 0.0 => Ok((m.name, v)),
            other => Err(format!(
                "{}: metric {} came out as {other:?}",
                workload.name(),
                m.name
            )),
        })
        .collect()
}

/// One run of one workload, as the driver asks for it.
fn run_one(args: &Args, workload: Workload) -> Result<()> {
    let ctx = Ctx::prepare(false)?;
    let live = workloads::run(&ctx, workload, args.seed, args.seconds, args.trace)?;
    let metrics = if args.trace {
        let ledger = trace::ledger(&ctx, workload, args.seed, args.seconds, &live)?;
        print_metrics(
            workload,
            PER_LAYER.iter().map(|m| (m.name, m.unit, ledger[m.name])),
        )
    } else {
        let values = end_to_end_of(workload, &live)?;
        print_metrics(
            workload,
            END_TO_END
                .iter()
                .zip(values)
                .map(|(m, (_, v))| (m.name, m.unit, v)),
        )
    };
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(true)),
        (
            "attempted".to_string(),
            serde_json::json!(live.ops.attempted.max(1)),
        ),
        ("failed".to_string(), serde_json::json!(live.ops.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!("{result}");
    Ok(())
}

/// Every workload, repeated; medians, the ledger and a result file.
fn run_all(args: &Args) -> Result<()> {
    let seconds = if args.smoke {
        args.seconds / 16.0
    } else {
        args.seconds
    };
    let ctx = Ctx::prepare(args.smoke)?;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let repeats = if args.smoke { 1 } else { workload.repeats() };
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut ops = oracle::Ops::default();
        let mut last = None;
        for repeat in 0..repeats {
            eprintln!("{} run {}/{repeats} ...", workload.name(), repeat + 1);
            // The stream comes from the seed alone, so repeats measure
            // the same work; the ledger reuses the last repeat's run.
            let ledger_too = !args.smoke && repeat + 1 == repeats;
            let live = workloads::run(&ctx, workload, args.seed, seconds, ledger_too)?;
            for (name, v) in end_to_end_of(workload, &live)? {
                samples.entry(name).or_default().push(v);
            }
            ops.add(live.ops.attempted, live.ops.failed);
            last = Some(live);
        }
        let mut e2e = Vec::new();
        for m in END_TO_END {
            let v = &samples[m.name];
            let (lo, hi) = report::min_max(v);
            let median = stats::median(v);
            println!(
                "{:<16} {:<42} {:>18.4} {:<6} [min {lo:.4}, max {hi:.4}, n={}]",
                workload.name(),
                m.name,
                median,
                m.unit,
                v.len()
            );
            e2e.push((
                m.name.to_string(),
                serde_json::json!({ "unit": m.unit, "median": median, "min": lo, "max": hi, "values": v.clone() }),
            ));
        }
        println!(
            "{:<16} {:<42} {:>18} count",
            workload.name(),
            "ops_attempted",
            ops.attempted
        );
        println!(
            "{:<16} {:<42} {:>18} count",
            workload.name(),
            "ops_failed",
            ops.failed
        );
        let layers = if args.smoke {
            Vec::new()
        } else {
            let live = last.as_ref().expect("at least one repeat ran");
            let ledger = trace::ledger(&ctx, workload, args.seed, seconds, live)?;
            print_metrics(
                workload,
                PER_LAYER.iter().map(|m| (m.name, m.unit, ledger[m.name])),
            )
        };
        rows.push(serde_json::json!({
            "name": workload.name(),
            "program_on": workload.cpus().label(),
            "runs": repeats,
            "ops_attempted": ops.attempted,
            "ops_failed": ops.failed,
            "end_to_end": Value::Object(e2e),
            "per_layer": Value::Object(layers),
        }));
    }
    let doc = serde_json::json!({
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "environment": report::environment(&ctx.placement),
        "workloads": rows,
    });
    let name = if args.smoke {
        "smoke".to_string()
    } else {
        format!("run_seed{}", args.seed)
    };
    let path = daemon::repo_root()
        .join("benchmark/out")
        .join(format!("{name}.json"));
    std::fs::write(&path, format!("{doc:#}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn dispatch(argv: &[String]) -> Result<i32> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(USAGE.into());
    };
    match command.as_str() {
        "run" => {
            let args = parse_args(rest)?;
            match args.workload {
                Some(workload) if !args.smoke => run_one(&args, workload)?,
                Some(_) => return Err("--smoke runs every workload; drop --workload".into()),
                None => run_all(&args)?,
            }
            Ok(0)
        }
        "compare" => match rest {
            [a, b] => Ok(if report::compare(a, b)? == 0 { 0 } else { 1 }),
            _ => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("haystack-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
