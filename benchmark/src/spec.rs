//! The names: workloads, end-to-end metrics with their bounds, and
//! per-layer metrics. `BENCHMARK.json` at the repository root repeats
//! them for the driver; a unit test holds the two together.

use crate::gen::StreamSpec;
use crate::pin::Cpus;

/// Run length the sizes in the README are quoted for, and the default
/// of `--seconds`.
pub const DEFAULT_SECONDS: f64 = 8.0;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload. Each bound is
/// three times the widest spread the metric showed on any workload
/// (`tests::WIDEST_SPREAD`), rounded up to a multiple of 5 %, and at most
/// the 25 % the driver's contract allows.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ingest_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_record",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ckpt_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "restart_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric: name and unit. No bound — these explain a
/// change in an end-to-end metric, they do not gate one.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (`BENCHMARK.json` repeats it; nothing here acts on it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer ledger. A layer a workload does not run reports zero.
pub const PER_LAYER: &[PerLayer] = &[
    // Time, from the in-process replay.
    lo("flow.listener.ns_per_datagram", "ns"),
    lo("flow.collector.ns_per_record", "ns"),
    lo("net.convert.ns_per_record", "ns"),
    lo("core.usage.ns_per_record", "ns"),
    lo("core.staleness.ns_per_record", "ns"),
    lo("core.parallel.ns_per_record", "ns"),
    lo("core.parallel.dispatch_ns_per_record", "ns"),
    lo("core.detector.ns_per_record", "ns"),
    lo("core.checkpoint.delta_ms", "ms"),
    lo("core.checkpoint.full_ms", "ms"),
    lo("wild.soak.ns_per_record", "ns"),
    lo("inproc.sum_ns_per_record", "ns"),
    lo("e2e.wall_ns_per_record", "ns"),
    lo("e2e.raw_wall_ns_per_record", "ns"),
    lo("host.speed_factor", "ratio"),
    lo("cli.serve.gap_ns_per_record", "ns"),
    lo("cli.soak.gap_ns_per_record", "ns"),
    // Shares of the live run's wall time per record. The engine-thread
    // layers and the gap sum to 1; listener and detector run on other
    // threads and are shown beside them.
    lo("flow.collector.share", "share"),
    lo("net.convert.share", "share"),
    lo("core.usage.share", "share"),
    lo("core.staleness.share", "share"),
    lo("core.parallel.share", "share"),
    lo("wild.soak.share", "share"),
    lo("cli.gap.share", "share"),
    lo("flow.listener.share", "share"),
    lo("core.detector.share", "share"),
    // Work done.
    hi("flow.listener.calls", "count"),
    hi("flow.listener.records_in", "count"),
    hi("flow.collector.calls", "count"),
    hi("flow.collector.records_in", "count"),
    hi("net.convert.calls", "count"),
    hi("net.convert.records_in", "count"),
    hi("core.usage.calls", "count"),
    hi("core.usage.records_in", "count"),
    hi("core.staleness.calls", "count"),
    hi("core.staleness.records_in", "count"),
    hi("core.parallel.calls", "count"),
    hi("core.parallel.records_in", "count"),
    hi("core.detector.calls", "count"),
    hi("core.detector.records_in", "count"),
    hi("core.checkpoint.calls", "count"),
    hi("core.checkpoint.records_in", "count"),
    // Waste and size.
    lo("flow.collector.allocs_per_record", "count"),
    lo("core.detector.allocs_per_record", "count"),
    hi("flow.collector.template_hit_share", "share"),
    lo("core.detector.gate_pass_share", "share"),
    hi("core.detector.match_share", "share"),
    hi("core.usage.match_share", "share"),
    lo("core.detector.state_entries", "count"),
    lo("core.checkpoint.dirty_entries", "count"),
    lo("core.checkpoint.delta_bytes", "bytes"),
    lo("core.checkpoint.full_bytes", "bytes"),
    // Outside counters of the live run.
    hi("flow.listener.received", "count"),
    hi("flow.listener.admitted", "count"),
    lo("flow.listener.shed", "count"),
    lo("flow.listener.kernel_dropped", "count"),
    lo("flow.listener.queue_depth_p95", "count"),
    hi("flow.listener.udp_goodput_rps", "1/s"),
    lo("cli.serve.http.query_ms_p50", "ms"),
    lo("cli.serve.http.query_ms_p99", "ms"),
    lo("cli.serve.http.detections_ms_p50", "ms"),
    lo("cli.serve.http.ckpt_ms_max", "ms"),
    lo("core.checkpoint.pause_ms_mean", "ms"),
    lo("core.checkpoint.pause_ms_max", "ms"),
    hi("core.checkpoint.full_over_delta_ratio", "ratio"),
    lo("core.procpool.ns_per_record_over_thread", "ns"),
    // Harness health.
    lo("gen.prepare_s", "s"),
    lo("gen.busy_share", "share"),
    lo("gen.late_ms_p99", "ms"),
    hi("gen.offered_rps", "1/s"),
    lo("gen.skipped_slots", "count"),
    lo("trace.overhead_share", "share"),
];

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 99 %-miss stream over the TCP replay listener, closed loop.
    ServeMiss99,
    /// 50 %-hit stream, same transport.
    ServeHit50,
    /// 99 %-miss stream as raw UDP at a fixed offered rate, open loop.
    ServeUdpFlood,
    /// 10 %-hit stream paced over TCP beside queries and checkpoints.
    ServeQueryMix,
    /// `haystack soak` with in-process shard threads.
    SoakThread,
    /// `haystack soak --isolate process`.
    SoakProcess,
}

/// UDP rate of `serve_udp_flood`'s measured phase, records per second:
/// one the daemon sustains on one CPU in the host's slowest phases
/// (measured capacity there: 2.2–3.8 M records/s).
pub const FLOOD_SUSTAINED_RPS: f64 = 1_500_000.0;
/// Share of the run's seconds the sustained phase is offered for.
pub const FLOOD_SUSTAINED_SHARE: f64 = 3.0 / 8.0;
/// Offered UDP rate of `serve_udp_flood`'s overload phase, records per
/// second: above what the daemon can take in the host's fastest phases
/// (of the issue's 4 M a spinning sender offers 3.8 M, and the daemon
/// was measured to keep up with that for seconds on end), and far enough
/// under what the sender can offer in the slowest (5.1 M) for the
/// [`FLOOD_MIN_OFFERED_SHARE`] check not to trip on the host's weather.
pub const FLOOD_OFFERED_RPS: f64 = 4_500_000.0;
/// Share of the run's seconds the overload is offered for.
pub const FLOOD_OVERLOAD_SHARE: f64 = 3.0 / 16.0;
/// Least share of [`FLOOD_OFFERED_RPS`] the sender must achieve for a
/// flood run to count.
pub const FLOOD_MIN_OFFERED_SHARE: f64 = 0.9;
/// Paced TCP rate of `serve_query_mix`, records per second.
pub const QUERY_MIX_RPS: f64 = 400_000.0;
/// Records per simulated hour of the soak workloads.
pub const SOAK_RECORDS_PER_HOUR: u64 = 4_000_000;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::ServeMiss99,
        Workload::ServeHit50,
        Workload::ServeUdpFlood,
        Workload::ServeQueryMix,
        Workload::SoakThread,
        Workload::SoakProcess,
    ];

    /// Name, as printed and as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMiss99 => "serve_miss99",
            Workload::ServeHit50 => "serve_hit50",
            Workload::ServeUdpFlood => "serve_udp_flood",
            Workload::ServeQueryMix => "serve_query_mix",
            Workload::SoakThread => "soak_thread",
            Workload::SoakProcess => "soak_process",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (repeated in `BENCHMARK.json`).
    #[cfg(test)]
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeMiss99 => {
                "paper's regime: 99% miss over TCP, closed loop, daemon on one CPU; listener, collector, convert and the daemon shell do the work"
            }
            Workload::ServeHit50 => {
                "same path, 50% hits, daemon on all CPUs: usage, probe, line state and shard dispatch dominate; by-pass workload for gate/transport work"
            }
            Workload::ServeUdpFlood => {
                "99% miss as raw UDP, open loop, daemon on one CPU: 1.5 M records/s sustained (measured), then 4.5 M/s offered to force shedding in the same listener and queue"
            }
            Workload::ServeQueryMix => {
                "10% hits paced at 0.4 M records/s beside /line, /detections and checkpoint requests, daemon on one CPU: reads and snapshots next to writes"
            }
            Workload::SoakThread => {
                "haystack soak on all CPUs, thread shards: no sockets or codec, only generation, dispatch, detector kernel and hourly checkpoints"
            }
            Workload::SoakProcess => {
                "haystack soak --isolate process on all CPUs: the HAYPROC pipe path to child shards, on a prefix of soak_thread's stream"
            }
        }
    }

    /// Repeats in a full `run`.
    pub fn repeats(self) -> usize {
        match self {
            Workload::ServeQueryMix => 3,
            _ => 5,
        }
    }

    /// The CPUs the workload's program runs on (see [`crate::pin`]):
    /// all of them where the shards do real work side by side, one
    /// where the work is the listener → engine pipeline.
    pub fn cpus(self) -> Cpus {
        match self {
            Workload::ServeHit50 | Workload::SoakThread | Workload::SoakProcess => Cpus::All,
            Workload::ServeMiss99 | Workload::ServeUdpFlood | Workload::ServeQueryMix => Cpus::One,
        }
    }

    /// Whether the workload drives `haystack soak` (else `haystack serve`).
    pub fn is_soak(self) -> bool {
        matches!(self, Workload::SoakThread | Workload::SoakProcess)
    }

    /// The stream of a run sized for `seconds`. At the default 8 s:
    /// S99 = 16 h × 1 M (12 h for the flood), S50 = 8 h × 1 M, S10 =
    /// 4 h × 0.8 M, soak = 12 h and 5 h × 4 M.
    pub fn stream(self, seconds: f64) -> StreamSpec {
        let total = |per_second: f64| (seconds * per_second).round() as u64;
        match self {
            Workload::ServeMiss99 => StreamSpec::sized(10_000, total(2_000_000.0)),
            Workload::ServeHit50 => StreamSpec::sized(500_000, total(1_000_000.0)),
            // Both phases in full; the rest of the run is drain and epilogue.
            Workload::ServeUdpFlood => StreamSpec::sized(
                10_000,
                total(
                    FLOOD_SUSTAINED_RPS * FLOOD_SUSTAINED_SHARE
                        + FLOOD_OFFERED_RPS * FLOOD_OVERLOAD_SHARE,
                ),
            ),
            Workload::ServeQueryMix => StreamSpec::sized(100_000, total(QUERY_MIX_RPS)),
            Workload::SoakThread => soak_stream(total(6_000_000.0)),
            Workload::SoakProcess => soak_stream(total(2_500_000.0)),
        }
    }
}

/// Soak streams come in whole hours of [`SOAK_RECORDS_PER_HOUR`] (a
/// short smoke run shrinks the one hour instead).
fn soak_stream(total: u64) -> StreamSpec {
    let hours = total / SOAK_RECORDS_PER_HOUR;
    if hours == 0 {
        StreamSpec {
            hit_ppm: 10_000,
            hours: 1,
            records_per_hour: total.max(30),
        }
    } else {
        StreamSpec {
            hit_ppm: 10_000,
            hours: hours as u32,
            records_per_hour: SOAK_RECORDS_PER_HOUR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The widest spread (interquartile distance over the median of ten
    /// seeds) each end-to-end metric showed on any workload in the two
    /// sweeps the README's "Steadiness" table comes from, in
    /// [`END_TO_END`]'s order.
    const WIDEST_SPREAD: [(&str, f64); 7] = [
        ("ingest_rps", 0.0914),
        ("cpu_ns_per_record", 0.0711),
        ("peak_rss_mib", 0.0897),
        ("query_ms", 0.0906),
        ("ckpt_ms", 0.1198),
        ("restart_s", 0.0795),
        ("setup_s", 0.0577),
    ];

    #[test]
    fn bounds_are_three_times_the_widest_spread() {
        for (m, (name, widest)) in END_TO_END.iter().zip(WIDEST_SPREAD) {
            assert_eq!(m.name, name);
            let in_steps_of_5 = (3.0 * widest * 20.0).ceil() / 20.0;
            let want = in_steps_of_5.min(0.25);
            assert!(
                m.name == "setup_s" || (m.bound - want).abs() < 1e-9,
                "{name}: bound {} but 3 × {widest} asks for {want}",
                m.bound
            );
        }
        // Set-up gets the largest bound there is, whatever its spread:
        // the driver's contract asks for that.
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END.last().map(|m| (m.name, m.bound)),
            Some(("setup_s", largest))
        );
    }

    #[test]
    fn default_sizes_are_the_documented_ones() {
        let s = |w: Workload| {
            let s = w.stream(DEFAULT_SECONDS);
            (s.hit_ppm, s.hours, s.records_per_hour)
        };
        assert_eq!(s(Workload::ServeMiss99), (10_000, 16, 1_000_000));
        assert_eq!(s(Workload::ServeHit50), (500_000, 8, 1_000_000));
        assert_eq!(s(Workload::ServeUdpFlood), (10_000, 12, 937_500));
        assert_eq!(s(Workload::ServeQueryMix), (100_000, 4, 800_000));
        assert_eq!(s(Workload::SoakThread), (10_000, 12, 4_000_000));
        assert_eq!(s(Workload::SoakProcess), (10_000, 5, 4_000_000));
        // The smoke size still yields a non-empty stream everywhere.
        for w in Workload::ALL {
            assert!(
                w.stream(DEFAULT_SECONDS / 16.0).records() >= 30,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn names_are_unique_and_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_repeats_this_file() {
        let path = crate::daemon::repo_root().join("BENCHMARK.json");
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<Value> { doc[key].as_array().expect(key).clone() };

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, j) in Workload::ALL.iter().zip(&workloads) {
            assert_eq!(j["name"].as_str(), Some(w.name()));
            assert_eq!(j["why"].as_str(), Some(w.why()));
        }
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(&e2e) {
            assert_eq!(j["name"].as_str(), Some(m.name));
            assert_eq!(j["unit"].as_str(), Some(m.unit));
            assert_eq!(j["better"].as_str(), Some(m.better.label()));
            assert_eq!(j["bound"].as_f64(), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, j) in PER_LAYER.iter().zip(&layers) {
            assert_eq!(j["name"].as_str(), Some(m.name));
            assert_eq!(j["unit"].as_str(), Some(m.unit));
            assert_eq!(j["better"].as_str(), Some(m.better.label()));
        }
        assert_eq!(doc["run_seconds"].as_u64(), Some(DEFAULT_SECONDS as u64));
        assert_eq!(doc["paths"].as_array().map(Vec::len), Some(1));
    }
}
