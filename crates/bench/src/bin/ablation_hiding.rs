//! Ablation: §7.4's evasion strategies, measured.
//!
//! For one camera class (Yi Camera), re-run the *entire* pipeline —
//! ground truth, classification, dedication, rules — after each vendor
//! countermeasure, then compare what the ISP can still see:
//!
//! * baseline            — detected quickly, usage inferable;
//! * move to CDN         — §4.2.3 removes the service: undetectable;
//! * rate-limit firmware — detectable, but detection time stretches;
//! * constant-rate shaping — *more* detectable, but usage inference dies.

use haystack_bench::Args;
use haystack_core::crosscheck::{detection_times, CrosscheckConfig};
use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_testbed::catalog::data::standard_catalog;
use haystack_testbed::countermeasures::{apply, Countermeasure};
use haystack_testbed::ExperimentKind;

const CLASS: &str = "Yi Camera";

fn run(label: &str, catalog: haystack_testbed::catalog::Catalog, args: &Args) {
    let config = if args.fast {
        PipelineConfig::fast(args.seed)
    } else {
        PipelineConfig {
            seed: args.seed,
            ..Default::default()
        }
    };
    eprintln!("# [{label}] rebuilding pipeline ...");
    let p = Pipeline::run_with_catalog(config, catalog);
    let rule = p.rules.rule(CLASS);
    let excluded = p
        .rules
        .undetectable
        .iter()
        .find(|(c, _)| p.rules.class_name(*c) == CLASS);
    let hours = if args.fast { Some(8) } else { None };
    let detect = |kind: ExperimentKind| -> String {
        let times = detection_times(
            &p,
            &CrosscheckConfig {
                sampling: 1_000,
                kind,
                hours,
            },
            &[0.4],
        );
        match times.iter().find(|t| t.class == CLASS) {
            Some(t) => match t.hours_to_detect {
                Some(h) => format!("{h} h"),
                None => "never (window)".into(),
            },
            None => "no rule".into(),
        }
    };
    let usage_indicators = rule
        .map(|r| r.domains.iter().filter(|d| d.usage_indicator).count())
        .unwrap_or(0);
    println!(
        "{label}\t{}\t{}\t{}\t{}\t{}",
        rule.map(|r| r.domains.len().to_string())
            .unwrap_or_else(|| "-".into()),
        excluded
            .map(|(_, r)| format!("{r:?}"))
            .unwrap_or_else(|| "detectable".into()),
        detect(ExperimentKind::Active),
        detect(ExperimentKind::Idle),
        if usage_indicators > 0 { "yes" } else { "no" },
    );
}

fn main() {
    let args = Args::parse();
    println!("# ablation_hiding: {CLASS} under §7.4 countermeasures (D=0.4, sampling 1/1000)");
    println!("variant\trule_domains\tstatus\tdetect_active\tdetect_idle\tusage_inferable");
    let base = standard_catalog();
    run("baseline", base.clone(), &args);
    run(
        "move_to_cdn",
        apply(&base, CLASS, Countermeasure::MoveToSharedInfrastructure),
        &args,
    );
    run(
        "rate_limit_5pph",
        apply(
            &base,
            CLASS,
            Countermeasure::RateLimit { max_idle_pph: 5.0 },
        ),
        &args,
    );
    run(
        "constant_shaping_120pph",
        apply(
            &base,
            CLASS,
            Countermeasure::ConstantRateShaping { level_pph: 120.0 },
        ),
        &args,
    );
    println!("# paper §7.4: shared infrastructure is 'a good way to hide IoT services';");
    println!(
        "# shaping ([36]) kills usage inference but leaves — or strengthens — presence detection."
    );
}
