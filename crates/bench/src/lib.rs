//! Shared scaffolding for the reproduction binaries and benches.
//!
//! Every paper table/figure has a binary under `src/bin/` (see DESIGN.md's
//! per-experiment index); they share the argument conventions and builders
//! here. All binaries accept:
//!
//! * `--fast` — shrink ground-truth windows and populations for a smoke
//!   run (minutes → seconds);
//! * `--lines N` — ISP population size (default 100 000);
//! * `--seed N` — RNG seed (default 42).
//!
//! Output is TSV on stdout with `#`-prefixed commentary, so results can
//! be diffed into EXPERIMENTS.md or piped into a plotter.

use haystack_core::pipeline::{Pipeline, PipelineConfig};
use haystack_wild::{IspConfig, IspVantage, IxpConfig, IxpVantage};

/// Parsed common CLI arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Smoke-run mode.
    pub fast: bool,
    /// ISP subscriber lines.
    pub lines: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Args {
    /// Parse from `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> Args {
        let mut args = Args {
            fast: false,
            lines: 100_000,
            seed: 42,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--fast" => args.fast = true,
                "--lines" => {
                    args.lines = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--lines needs a number"));
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <bin> [--fast] [--lines N] [--seed N]");
    std::process::exit(2);
}

/// Build the §2–§4 pipeline at the requested fidelity.
pub fn build_pipeline(args: &Args) -> Pipeline {
    let config = if args.fast {
        PipelineConfig::fast(args.seed)
    } else {
        PipelineConfig {
            seed: args.seed,
            ..Default::default()
        }
    };
    eprintln!(
        "# building pipeline (ground truth {} h active / {} h idle) ...",
        config.active_hours, config.idle_hours
    );
    Pipeline::run(config)
}

/// Standard ISP vantage point for the wild figures.
pub fn build_isp(pipeline: &Pipeline, args: &Args) -> IspVantage {
    IspVantage::new(
        &pipeline.catalog,
        IspConfig {
            lines: if args.fast {
                args.lines.min(10_000)
            } else {
                args.lines
            },
            sampling: 1_000,
            seed: args.seed ^ 0x15B,
            background: false,
        },
    )
}

/// Standard IXP vantage point for Figures 15/16.
pub fn build_ixp(pipeline: &Pipeline, args: &Args) -> IxpVantage {
    let scale = if args.fast { 4 } else { 1 };
    IxpVantage::new(
        &pipeline.catalog,
        IxpConfig {
            sampling: 10_000,
            seed: args.seed ^ 0x1C9,
            big_eyeballs: 6,
            big_lines: (args.lines / 8 / scale).max(500),
            tail_members: 34 / scale,
            tail_lines: 400 / scale,
            route_visibility: 0.5,
            spoofed_per_hour: 2_000 / scale,
        },
    )
}

/// The study window figures use: the paper's full two weeks, or three
/// days in `--fast` mode.
pub fn study_window(args: &Args) -> haystack_net::StudyWindow {
    if args.fast {
        haystack_net::StudyWindow::days(0, 3)
    } else {
        haystack_net::StudyWindow::FULL
    }
}

/// Run the standard §6.2 ISP study (shared by Figures 11–14 and 18).
pub fn run_standard_isp_study(
    pipeline: &Pipeline,
    args: &Args,
) -> (IspVantage, haystack_core::report::IspStudyResult) {
    let isp = build_isp(pipeline, args);
    eprintln!(
        "# running ISP study: {} lines, sampling 1/1000, {} days ...",
        isp.config().lines,
        study_window(args).num_days()
    );
    let result = haystack_core::report::run_isp_study(
        pipeline,
        &pipeline.world,
        &isp,
        &haystack_core::report::IspStudyConfig {
            window: study_window(args),
            ..Default::default()
        },
    );
    (isp, result)
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.166), "16.6%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
