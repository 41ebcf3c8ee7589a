//! Process-link equivalence (DESIGN.md §15): a [`DetectorPool`] on
//! process shards — real `haystack shard-worker` children spoken to
//! over HAYPROC pipe frames — must be observationally identical to one
//! on thread shards and to the [`ReferenceDetector`] oracle, for any
//! rule set, record feed, chunking, and worker count. The equivalence
//! must survive an ungraceful mid-stream SIGKILL of a worker, and a
//! crash-looping shard must trip the circuit breaker within its
//! configured bound instead of respawning forever. Both links hang off
//! one supervisor, so the same feed and the same kill schedule must
//! also leave the two pools' books — status rows, shard states —
//! identical (`transport_parity_*`). The pool's feeder gates records
//! against the whole-window hitlist before any crosses a pipe, so the
//! gate's false positives and a process pool's `set_hitlist` are pinned
//! here too.
//!
//! These tests live in the CLI crate because only it has the worker
//! binary: `CARGO_BIN_EXE_haystack` points at the real executable whose
//! `shard-worker` arm the pool spawns.

use haystack_core::checkpoint::{DetectorState, LineEvidence};
use haystack_core::detector::DetectorConfig;
use haystack_core::events::{events_from_states, ndjson_line};
use haystack_core::fasthash::mix64;
use haystack_core::hitlist::{HitList, MapHitList};
use haystack_core::parallel::{DetectorPool, RespawnPolicy, ShardStatus};
use haystack_core::reference::ReferenceDetector;
use haystack_core::rules::{RuleDomain, RuleSet, RuleSetBuilder};
use haystack_dns::zone::RotationPolicy;
use haystack_dns::{DnsDb, DomainName, Resolver, ZoneDb};
use haystack_net::ports::Proto;
use haystack_net::{AnonId, DayBin, HourBin, Prefix4, SimTime};
use haystack_testbed::catalog::DetectionLevel;
use haystack_wild::WildRecord;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

/// The worker command every test pool spawns: the real CLI binary's
/// `shard-worker` arm.
fn worker_cmd() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_haystack").to_string(),
        "shard-worker".to_string(),
    ]
}

/// A pool on `workers` process shards.
fn process_shards(rules: &RuleSet, config: DetectorConfig, workers: usize) -> DetectorPool {
    DetectorPool::with_process_shards(rules, config, workers, &worker_cmd()).expect("spawn workers")
}

/// A fixed class-name universe keeps generated rule sets comparable.
const CLASSES: [&str; 3] = ["P0", "P1", "P2"];
const PORTS: [u16; 2] = [443, 8883];

fn pool_ip(idx: u8) -> Ipv4Addr {
    Ipv4Addr::new(198, 18, 33, idx % 8)
}

/// One generated domain: (ip pool index, port pool index, usage flag).
type DomainSpec = (u8, u8, bool);

fn build_rules(specs: &[Vec<DomainSpec>]) -> RuleSet {
    let mut b = RuleSetBuilder::new();
    for (ri, domains) in specs.iter().enumerate() {
        b.rule(
            CLASSES[ri],
            DetectionLevel::Manufacturer,
            None,
            domains
                .iter()
                .enumerate()
                .map(|(di, &(ip, port, usage_indicator))| RuleDomain {
                    name: DomainName::parse(&format!("d{di}.p{ri}.example")).unwrap(),
                    ports: [PORTS[port as usize % PORTS.len()]].into_iter().collect(),
                    ips: [pool_ip(ip)].into_iter().collect(),
                    usage_indicator,
                })
                .collect(),
        );
    }
    b.build()
}

/// One generated record: (line, ip idx, port idx, packets, hour).
type RecordSpec = (u64, u8, u8, u64, u32);

fn build_record(&(line, ip, port, packets, hour): &RecordSpec) -> WildRecord {
    let src = Ipv4Addr::new(100, 64, 0, line as u8);
    WildRecord {
        line: AnonId(line),
        line_slash24: Prefix4::slash24_of(src),
        src_ip: src,
        dst: pool_ip(ip),
        dport: PORTS[port as usize % PORTS.len()],
        proto: Proto::Tcp,
        packets,
        bytes: packets * 500,
        established: true,
        hour: HourBin(hour),
    }
}

fn record_strategy() -> impl Strategy<Value = Vec<RecordSpec>> {
    prop::collection::vec((0u64..40, 0u8..8, 0u8..2, 1u64..30, 0u32..48), 0..200)
}

fn rules_strategy() -> impl Strategy<Value = Vec<Vec<DomainSpec>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..8, 0u8..2, any::<bool>()), 1..4),
        1..=3,
    )
}

/// Sorted detections per class, from any backend's query surface.
fn detections(rules: &RuleSet, mut query: impl FnMut(&str) -> Vec<AnonId>) -> Vec<Vec<AnonId>> {
    rules
        .rules
        .iter()
        .map(|r| {
            let mut lines = query(rules.class_name(r.class));
            lines.sort_unstable();
            lines
        })
        .collect()
}

/// The oracle's `(is_detected, confidence)` for `line`, per rule in
/// rule order: what `DetectorPool::line_verdicts` must answer.
fn oracle_verdicts(rules: &RuleSet, oracle: &ReferenceDetector, line: AnonId) -> Vec<(bool, f64)> {
    rules
        .rules
        .iter()
        .map(|r| rules.class_name(r.class))
        .map(|c| (oracle.is_detected(line, c), oracle.confidence(line, c)))
        .collect()
}

/// (line, rule) entries held across the pool's shards.
fn entries(pool: &mut DetectorPool) -> usize {
    pool.shard_states()
        .expect("states")
        .iter()
        .map(DetectorState::entry_count)
        .sum()
}

proptest! {
    // Each case spawns real child processes, so the case budget is
    // deliberately small; the record/chunk/worker space still varies
    // per case.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Process shards ≡ thread shards ≡ ReferenceDetector for arbitrary rule
    /// sets, feeds, chunk sizes, and worker counts.
    #[test]
    fn process_pool_equals_thread_pool_and_reference(
        specs in rules_strategy(),
        records in record_strategy(),
        chunk_size in 1usize..64,
        proc_workers in 1usize..4,
        thread_workers in 1usize..4,
        threshold_pick in 0usize..3,
    ) {
        let rules = build_rules(&specs);
        let threshold = [0.3f64, 0.5, 0.9][threshold_pick];
        let config = DetectorConfig { threshold, require_established: false };
        let records: Vec<WildRecord> = records.iter().map(build_record).collect();

        let mut proc_pool = process_shards(&rules, config, proc_workers);
        let mut thread_pool = DetectorPool::new(
            &rules,
            &HitList::whole_window(&rules),
            config,
            thread_workers,
        );
        let mut oracle =
            ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);

        for chunk in records.chunks(chunk_size) {
            proc_pool.observe_records(chunk).expect("proc observe");
            thread_pool.observe_records(chunk).expect("thread observe");
            for r in chunk {
                oracle.observe_wild(r);
            }
        }
        proc_pool.finish().expect("proc finish");
        thread_pool.finish().expect("thread finish");

        let by_proc = detections(&rules, |c| proc_pool.detected_lines(c).expect("proc query"));
        let by_thread =
            detections(&rules, |c| thread_pool.detected_lines(c).expect("thread query"));
        let by_oracle = detections(&rules, |c| oracle.detected_lines(c));
        prop_assert_eq!(&by_proc, &by_thread, "process vs thread pool diverge");
        prop_assert_eq!(&by_proc, &by_oracle, "process pool vs reference diverge");

        // Per-line verdicts and confidences agree too, on every line of
        // the feed's universe, detected or not.
        for line in (0..40).map(AnonId) {
            let want = oracle_verdicts(&rules, &oracle, line);
            prop_assert_eq!(&proc_pool.line_verdicts(line).expect("proc verdicts"), &want);
            prop_assert_eq!(&thread_pool.line_verdicts(line).expect("thread verdicts"), &want);
        }
        prop_assert_eq!(entries(&mut proc_pool), oracle.state_size());
        prop_assert_eq!(entries(&mut thread_pool), oracle.state_size());
    }

    /// SIGKILL of one worker mid-stream changes nothing observable:
    /// the supervisor restores the shard's checkpoint, replays retained
    /// chunks, and the final detections, NDJSON events, and state sizes
    /// are byte-identical to an uninterrupted in-process run.
    #[test]
    fn sigkill_mid_stream_is_byte_identical(
        specs in rules_strategy(),
        records in record_strategy(),
        kill_frac in 0.0f64..=1.0,
        workers in 2usize..4,
    ) {
        let rules = build_rules(&specs);
        let config = DetectorConfig { threshold: 0.4, require_established: false };
        let records: Vec<WildRecord> = records.iter().map(build_record).collect();
        let chunks: Vec<&[WildRecord]> = records.chunks(16).collect();
        let kill_at = ((chunks.len() as f64) * kill_frac) as usize;
        let victim = kill_at % workers;

        let mut proc_pool = process_shards(&rules, config, workers);
        let mut thread_pool =
            DetectorPool::new(&rules, &HitList::whole_window(&rules), config, 2);
        let mut oracle =
            ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);
        for (i, chunk) in chunks.iter().enumerate() {
            if i == kill_at {
                proc_pool.kill_shard(victim).expect("SIGKILL");
            }
            proc_pool.observe_records(chunk).expect("proc observe");
            thread_pool.observe_records(chunk).expect("thread observe");
            for r in *chunk {
                oracle.observe_wild(r);
            }
        }
        if kill_at >= chunks.len() {
            // The kill landed after the last chunk; deliver it anyway so
            // every generated case exercises a death.
            proc_pool.kill_shard(victim).expect("SIGKILL");
        }
        proc_pool.finish().expect("proc finish");
        thread_pool.finish().expect("thread finish");

        let by_proc = detections(&rules, |c| proc_pool.detected_lines(c).expect("proc query"));
        let by_thread =
            detections(&rules, |c| thread_pool.detected_lines(c).expect("thread query"));
        prop_assert_eq!(&by_proc, &by_thread, "SIGKILL changed the detections");

        // The derived NDJSON event stream is byte-identical as well.
        let proc_events: Vec<String> =
            events_from_states(&rules, &proc_pool.shard_states().expect("proc states"))
                .iter()
                .map(|e| ndjson_line(&rules, e, None))
                .collect();
        let thread_events: Vec<String> =
            events_from_states(&rules, &thread_pool.shard_states().expect("thread states"))
                .iter()
                .map(|e| ndjson_line(&rules, e, None))
                .collect();
        prop_assert_eq!(proc_events, thread_events, "SIGKILL changed the event stream");
        for line in (0..40).map(AnonId) {
            prop_assert_eq!(
                proc_pool.line_verdicts(line).expect("proc verdicts"),
                oracle_verdicts(&rules, &oracle, line),
                "SIGKILL changed line {:?}'s verdicts", line
            );
        }
        prop_assert_eq!(entries(&mut proc_pool), entries(&mut thread_pool));
        prop_assert_eq!(entries(&mut proc_pool), oracle.state_size());
    }
}

/// A crash-looping worker trips the breaker within `trip_after` fast
/// deaths: the shard degrades (visible in `shard_status`), its evidence
/// queues instead of being lost, and an operator `reset_breaker`
/// restores service with the queued evidence replayed — detections
/// equal to a never-degraded run.
#[test]
fn crash_loop_trips_breaker_then_operator_reset_recovers() {
    let rules = build_rules(&[vec![(0, 0, false), (1, 0, false)]]);
    let config = DetectorConfig {
        threshold: 0.4,
        require_established: false,
    };
    let policy = RespawnPolicy {
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
        fast_window: Duration::from_secs(600),
        trip_after: 3,
    };
    let mut pool = process_shards(&rules, config, 1);
    pool.set_respawn_policy(policy);

    // Evidence from before the crash loop.
    let pre: Vec<WildRecord> = (0..8).map(|i| build_record(&(i, 0, 0, 4, 0))).collect();
    pool.observe_records(&pre).expect("pre-crash observe");
    pool.finish().expect("pre-crash finish");

    // Deterministic crash loop: every probe after a SIGKILL finds the
    // shard dead and heals it; the third fast death opens the breaker.
    let mut tripped_after = None;
    for death in 1..=3 {
        pool.kill_shard(0).expect("SIGKILL");
        // Any synchronous request notices the death and heals (or trips).
        let _ = pool.finish();
        if pool.shard_status()[0].status == ShardStatus::Degraded {
            tripped_after = Some(death);
            break;
        }
    }
    assert_eq!(
        tripped_after,
        Some(3),
        "breaker must trip on the 3rd fast death"
    );

    // Degraded: new evidence queues with exact accounting, not silently
    // dropped, and queries fail loudly.
    let post: Vec<WildRecord> = (8..16).map(|i| build_record(&(i, 1, 0, 4, 1))).collect();
    pool.observe_records(&post)
        .expect("degraded observe queues");
    let report = &pool.shard_status()[0];
    assert_eq!(report.status, ShardStatus::Degraded);
    assert_eq!(
        report.queued,
        post.len() as u64,
        "all post-trip records queued"
    );
    assert_eq!(report.shed, 0);
    assert!(
        pool.detected_lines(CLASSES[0]).is_err(),
        "degraded shard fails queries"
    );

    // Operator reset: breaker closes, the queue replays, and the state
    // matches a pool that never degraded.
    pool.reset_breaker(0).expect("operator reset");
    assert_eq!(pool.shard_status()[0].status, ShardStatus::Ok);
    pool.finish().expect("post-reset finish");

    let mut clean = process_shards(&rules, config, 1);
    clean.observe_records(&pre).expect("clean observe");
    clean.observe_records(&post).expect("clean observe");
    clean.finish().expect("clean finish");
    assert_eq!(
        pool.detected_lines(CLASSES[0]).expect("recovered query"),
        clean.detected_lines(CLASSES[0]).expect("clean query"),
        "recovered pool diverges from a never-degraded run"
    );
    let mut oracle = ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);
    for r in pre.iter().chain(&post) {
        oracle.observe_wild(r);
    }
    for line in (0..16).map(AnonId) {
        let want = oracle_verdicts(&rules, &oracle, line);
        assert_eq!(
            pool.line_verdicts(line).expect("recovered verdicts"),
            want,
            "{line:?}"
        );
    }
    assert_eq!(entries(&mut pool), entries(&mut clean));
    assert_eq!(entries(&mut pool), oracle.state_size());
}

/// One supervisor, two links: the same record feed and the same
/// `kill_shard` / crash-loop / operator-reset schedule through a
/// thread-linked and a process-linked pool must leave identical books —
/// `shard_status()` rows (`status`, `queued`, `shed`) after every phase,
/// `shard_states()` bytes, detections and per-line verdicts — at 1, 2
/// and 4 workers.
#[test]
fn transport_parity_same_feed_and_kill_schedule_give_identical_books() {
    let rules = build_rules(&[vec![(0, 0, false), (1, 0, false)], vec![(2, 1, true)]]);
    let config = DetectorConfig {
        threshold: 0.4,
        require_established: false,
    };
    // A window no test run outlasts: the trip point depends on the
    // death count alone, never on scheduling.
    let policy = RespawnPolicy {
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
        fast_window: Duration::from_secs(600),
        trip_after: 3,
    };
    // Every record hits one of the three indexed (ip, port) keys, so
    // every one passes the feeder's gate and reaches the books compared
    // below — the degraded queue and its sheds count survivors only.
    const HITS: [(u8, u8); 3] = [(0, 0), (1, 0), (2, 1)];
    let feed = |n: u64, salt: u64| -> Vec<WildRecord> {
        (0..n)
            .map(|i| {
                let k = i.wrapping_mul(0x9E37_79B9).wrapping_add(salt);
                let (ip, port) = HITS[((k >> 8) % 3) as usize];
                build_record(&(k % 40, ip, port, 1 + k % 29, 0))
            })
            .collect()
    };
    let (before, during, after) = (feed(900, 1), feed(150_000, 2), feed(900, 3));

    for workers in [1usize, 2, 4] {
        let mut pools = [
            (
                "thread",
                DetectorPool::new(&rules, &HitList::whole_window(&rules), config, workers),
            ),
            ("process", process_shards(&rules, config, workers)),
        ];
        // Per pool: the status rows after each phase, then the final
        // shard-state bytes and detections.
        let mut books = Vec::new();
        for (link, pool) in &mut pools {
            let link = *link;
            pool.set_respawn_policy(policy);
            let mut rows = Vec::new();

            // A healed mid-stream kill: death #1 for the last shard.
            let victim = workers - 1;
            for (i, chunk) in before.chunks(16).enumerate() {
                if i == 20 {
                    pool.kill_shard(victim).expect("kill");
                }
                pool.observe_records(chunk).expect("observe");
            }
            pool.finish().expect("finish heals the kill");
            rows.push(pool.shard_status());
            assert_eq!(
                rows[0][victim].status,
                ShardStatus::Ok,
                "{link}: answered since"
            );

            // Crash loop: kills until the breaker opens — deaths #2, #3.
            let mut deaths = 1;
            while pool.shard_status()[victim].status != ShardStatus::Degraded {
                pool.kill_shard(victim).expect("kill");
                let _ = pool.finish();
                deaths += 1;
                assert!(
                    deaths <= 3,
                    "{link}: breaker must trip on the 3rd fast death"
                );
            }
            rows.push(pool.shard_status());

            // Degraded: its records queue to the bound, then shed; the
            // other shards keep absorbing.
            pool.observe_records(&during).expect("degraded observe");
            pool.flush().expect("degraded flush");
            rows.push(pool.shard_status());
            if workers == 1 {
                let row = rows[2][0];
                assert_eq!(
                    row.queued + row.shed,
                    during.len() as u64,
                    "{link}: exact accounting"
                );
                assert!(row.shed > 0, "{link}: the schedule must exercise shedding");
            }

            // Operator reset, the rest of the feed, and the final books.
            pool.reset_breaker(victim).expect("reset");
            pool.observe_records(&after).expect("observe");
            pool.finish().expect("finish");
            rows.push(pool.shard_status());
            let shard_states = pool.shard_states().expect("states");
            let states: Vec<Vec<u8>> = shard_states.iter().map(|s| s.encode()).collect();
            let found = detections(&rules, |c| pool.detected_lines(c).expect("query"));
            assert!(
                found.iter().any(|lines| !lines.is_empty()),
                "{link}: nothing detected"
            );

            // The oracle sees what the pool kept: every record except
            // the victim's `during` records past its degraded queue,
            // which holds the oldest. `before` leaves evidence on all 40
            // lines, so the victim's state names the lines it owns.
            let victim_lines: Vec<AnonId> = shard_states[victim]
                .rules
                .iter()
                .flatten()
                .map(|e| e.line)
                .collect();
            let owned: usize = shard_states
                .iter()
                .map(|s| {
                    let mut lines: Vec<AnonId> = s.rules.iter().flatten().map(|e| e.line).collect();
                    lines.sort_unstable();
                    lines.dedup();
                    lines.len()
                })
                .sum();
            assert_eq!(owned, 40, "{link}: every line owned by exactly one shard");
            let mut room = rows[2][victim].queued;
            let kept = during.iter().filter(|r| {
                if !victim_lines.contains(&r.line) {
                    return true;
                }
                let keep = room > 0;
                room = room.saturating_sub(1);
                keep
            });
            let mut oracle =
                ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);
            for r in before.iter().chain(kept).chain(&after) {
                oracle.observe_wild(r);
            }
            assert!(
                merged(&shard_states).encode() == oracle.export_state().encode(),
                "{link}"
            );
            let verdicts: Vec<Vec<(bool, f64)>> = (0..40)
                .map(|line| pool.line_verdicts(AnonId(line)).expect("line verdicts"))
                .collect();
            for (line, got) in (0..40).map(AnonId).zip(&verdicts) {
                assert_eq!(
                    got,
                    &oracle_verdicts(&rules, &oracle, line),
                    "{link}: line {line:?}"
                );
            }
            assert!(
                verdicts.iter().flatten().any(|v| v.0),
                "{link}: no line detected"
            );
            books.push((rows, states, found, verdicts));
        }
        let process = books.pop().expect("process books");
        let thread = books.pop().expect("thread books");
        assert_eq!(
            thread.0, process.0,
            "{workers} workers: shard_status rows diverge"
        );
        assert!(
            thread.1 == process.1,
            "{workers} workers: shard_states bytes diverge"
        );
        assert_eq!(thread.2, process.2, "{workers} workers: detections diverge");
        assert_eq!(
            thread.3, process.3,
            "{workers} workers: line verdicts diverge"
        );
    }
}

/// Up to 16 keys `10.99.x.y:443` that are absent from `rules`' hitlist
/// but pass its fingerprint gate (hash-colliding tag bits), found by
/// brute force through the gate's own public hash pipeline.
fn fingerprint_colliders(rules: &RuleSet) -> Vec<Ipv4Addr> {
    let hl = HitList::whole_window(rules);
    let colliders: Vec<Ipv4Addr> = (0..=u16::MAX)
        .map(|i| Ipv4Addr::new(10, 99, (i >> 8) as u8, i as u8))
        .filter(|&ip| hl.prefilter_pass(mix64(HitList::pack_key(ip, 443))))
        .take(16)
        .collect();
    assert!(
        !colliders.is_empty(),
        "no fingerprint collision found in a /16 scan"
    );
    for &ip in &colliders {
        assert!(
            hl.lookup(ip, 443).is_empty(),
            "collider {ip} must be absent"
        );
    }
    colliders
}

/// One record from `line` to `dst:dport` in `hour`.
fn record_to(line: u64, dst: Ipv4Addr, dport: u16, hour: u32) -> WildRecord {
    WildRecord {
        dst,
        dport,
        ..build_record(&(line, 0, 0, 1, hour))
    }
}

/// The pool's per-shard states folded into one, entries sorted by line
/// per rule — what a single detector over the same records exports.
fn merged(states: &[DetectorState]) -> DetectorState {
    let mut rules = vec![Vec::new(); states[0].rules.len()];
    for state in states {
        for (ri, entries) in state.rules.iter().enumerate() {
            rules[ri].extend_from_slice(entries);
        }
    }
    for entries in &mut rules {
        entries.sort_unstable_by_key(|e: &LineEvidence| e.line);
    }
    DetectorState { rules }
}

/// The feeder's gate in front of process shards: fingerprint colliders
/// cross the pipe (they pass the gate) and the child's probe rejects
/// them, proven misses never cross. At 1, 2 and 4 workers a colliders-
/// only feed leaves no state, and a 99 %-miss feed with the colliders
/// woven in gives the reference detector's detections and state bytes.
#[test]
fn feeder_gate_on_process_shards_equals_reference_on_colliders_and_misses() {
    let rules = build_rules(&[
        vec![(0, 0, false), (1, 0, false), (3, 1, false)],
        vec![(2, 1, true)],
    ]);
    let config = DetectorConfig {
        threshold: 0.4,
        require_established: false,
    };
    let colliders = fingerprint_colliders(&rules);
    let colliding: Vec<WildRecord> = (0..colliders.len() * 13)
        .map(|i| record_to(i as u64 % 5, colliders[i % colliders.len()], 443, 0))
        .collect();
    // One rule hit per hundred records, one collider per 150, 151.64/16
    // background (outside every rule) otherwise.
    let hits = [(0u8, 0u8), (1, 0), (3, 1), (2, 1)];
    let feed: Vec<WildRecord> = (0..20_000u32)
        .map(|i| {
            let line = u64::from(i % 31);
            if i % 150 == 75 {
                WildRecord {
                    line: AnonId(line),
                    ..colliding[(i / 150) as usize % colliding.len()]
                }
            } else if i % 100 == 0 {
                let (ip, port) = hits[(i / 100) as usize % hits.len()];
                build_record(&(line, ip, port, 1, i / 1_000))
            } else {
                record_to(
                    line,
                    Ipv4Addr::new(151, 64, (i >> 8) as u8, i as u8),
                    443,
                    i / 1_000,
                )
            }
        })
        .collect();
    let mut oracle = ReferenceDetector::new(&rules, MapHitList::whole_window(&rules), config);
    for r in &feed {
        oracle.observe_wild(r);
    }
    let want = oracle.export_state().encode();
    let by_oracle = detections(&rules, |c| oracle.detected_lines(c));
    assert!(
        by_oracle.iter().any(|lines| !lines.is_empty()),
        "the hits must detect"
    );

    for workers in [1usize, 2, 4] {
        let mut pool = process_shards(&rules, config, workers);
        pool.observe_records(&colliding).expect("observe colliders");
        pool.finish().expect("finish");
        assert_eq!(entries(&mut pool), 0, "{workers} workers: collider state");

        for chunk in feed.chunks(777) {
            pool.observe_records(chunk).expect("observe");
        }
        pool.finish().expect("finish");
        let by_proc = detections(&rules, |c| pool.detected_lines(c).expect("query"));
        assert_eq!(by_proc, by_oracle, "{workers} workers: detections");
        let states = pool.shard_states().expect("states");
        assert!(
            merged(&states).encode() == want,
            "{workers} workers: state bytes diverge"
        );
        for line in (0..31).map(AnonId) {
            let want = oracle_verdicts(&rules, &oracle, line);
            assert_eq!(
                pool.line_verdicts(line).expect("verdicts"),
                want,
                "{workers}: {line:?}"
            );
        }
    }
}

/// A process pool's children can only detect with the whole-window
/// hitlist, so its feeder gates with that one whatever `set_hitlist` is
/// handed: a pool that swaps in a day hitlist mid-feed ends with the
/// detections and shard-state bytes of one that never swaps. The same
/// swap on thread shards does change the answer — the feed is sensitive
/// to it.
#[test]
fn process_pool_set_hitlist_keeps_the_whole_window() {
    let rules = build_rules(&[
        vec![(0, 0, false), (1, 0, false)],
        vec![(2, 1, true), (3, 0, false)],
    ]);
    let config = DetectorConfig {
        threshold: 0.4,
        require_established: false,
    };
    // Passive DNS saw two of the four domains on other addresses on day
    // 0, so that day's hitlist drops their whole-window keys.
    let mut zones = ZoneDb::new();
    let mut dnsdb = DnsDb::new();
    for (name, ip) in [("d0.p0.example", 9u8), ("d1.p1.example", 10)] {
        let name = DomainName::parse(name).unwrap();
        let moved = vec![Ipv4Addr::new(198, 18, 34, ip)];
        zones.insert_pool(name.clone(), moved, RotationPolicy::STABLE);
        let seen = Resolver::new(&zones).resolve(&name, SimTime(0)).unwrap();
        dnsdb.record_resolution(&seen, SimTime(0));
    }
    let day0 = HitList::for_day(&rules, &dnsdb, DayBin(0));
    // Each line hits every whole-window key once.
    let keys = [(0u8, 0u8), (1, 0), (2, 1), (3, 0)];
    let feed: Vec<WildRecord> = (0..8u64)
        .flat_map(|line| keys.map(|(ip, port)| build_record(&(line, ip, port, 1, line as u32))))
        .collect();
    let (first, rest) = feed.split_at(feed.len() / 2);
    let run = |pool: &mut DetectorPool, swap: bool| {
        pool.observe_records(first).expect("observe");
        if swap {
            pool.set_hitlist(&day0).expect("set_hitlist");
        }
        pool.observe_records(rest).expect("observe");
        pool.finish().expect("finish");
        let found = detections(&rules, |c| pool.detected_lines(c).expect("query"));
        let states: Vec<Vec<u8>> = pool
            .shard_states()
            .expect("states")
            .iter()
            .map(|s| s.encode())
            .collect();
        (found, states)
    };
    let want = run(&mut process_shards(&rules, config, 2), false);
    assert_eq!(run(&mut process_shards(&rules, config, 2), true), want);
    let whole = HitList::whole_window(&rules);
    let swapped_threads = run(&mut DetectorPool::new(&rules, &whole, config, 2), true);
    assert_ne!(
        swapped_threads, want,
        "day 0's hitlist must differ from the whole window's"
    );
}
