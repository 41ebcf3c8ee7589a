//! Host-speed reference.
//!
//! The sandboxes this benchmark runs in share their cores' caches and
//! their memory system with other tenants. On an otherwise idle machine
//! a fixed loop that misses its first-level cache was measured to run up
//! to 1.6 times slower for phases of a fraction of a second to a minute,
//! while a loop that stays in registers never moved; the phases of the
//! two CPUs only partly coincide. The programs under test move with the
//! first kind: pinned to one CPU, the daemon decoded the same stream at
//! 2.7 M records/s and 350 ns of CPU per record in one phase and at
//! 3.9 M and 250 ns in the next, flipping several times within a run.
//! Raw times of the same commit therefore differ between runs by more
//! than any bound worth gating on.
//!
//! The remedy is a clock that ticks in *reference seconds*: one meter
//! thread on each CPU a program may run on (see [`crate::pin`]) times a
//! small fixed kernel (no system calls, no allocation) about twenty
//! times a second for the whole run, and every measured interval is
//! divided by how much slower than [`NOMINAL_BURST_NS`] the kernel ran
//! during it, averaged over the CPUs the workload's program ran on.
//! Ten runs of `soak_thread` whose median resume took 0.19 s by the wall
//! clock with a spread (interquartile distance over the median) of 7.9 %
//! read 0.14 s in reference seconds with a spread of 2.4 %. The kernel
//! walks a 2 MiB table at random and is this file's own code, so no
//! change to the programs under test can move it. It costs the programs
//! 3–5 % of their CPU. Wall time per record as the clock on the wall saw
//! it, and the factor itself, are kept in the per-layer ledger.

use crate::pin::{Cpus, Placement};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Iterations of one burst.
const BURST_ITERATIONS: u64 = 100_000;
/// Words in the burst's table (2 MiB).
const TABLE_WORDS: usize = 1 << 18;
/// Bursts per sample; the fastest is kept (the first one after a pause
/// mostly refills the cache, and one that was preempted says nothing
/// about the machine's speed).
const BURSTS_PER_SAMPLE: usize = 3;
/// Pause between samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(40);
/// What one burst takes on the machine the README's numbers come from
/// when no other tenant is interfering. Only ratios between commits
/// matter, so any constant would do; this one keeps the factor near 1.
pub const NOMINAL_BURST_NS: f64 = 300_000.0;
/// Shortest stretch of time a factor is read over: a shorter interval
/// (one checkpoint, one query) is widened to this around its middle, so
/// that it does not hang on a single sample.
const SHORTEST_WINDOW: Duration = Duration::from_millis(250);

#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, at: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used so far, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_ns() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut at = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `at` is a live, writable `struct timespec`.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut at) };
    at.secs as f64 * 1e9 + at.nanos as f64
}

/// Run the reference kernel once; returns the CPU time it took in
/// nanoseconds. The thread's CPU clock, not the wall clock: the meter
/// shares its CPU with the program, whose threads preempt it whenever a
/// datagram wakes them, and the time they then run is the program's
/// speed, not the host's.
fn burst(table: &mut [u64]) -> f64 {
    let t0 = thread_cpu_ns();
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..BURST_ITERATIONS {
        h = (h ^ (h >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
        let slot = &mut table[(h >> 40) as usize % TABLE_WORDS];
        if *slot & 1 == 1 {
            acc = acc.wrapping_add(*slot);
        } else {
            acc ^= h;
        }
        *slot = slot.wrapping_add(h);
    }
    std::hint::black_box(acc);
    thread_cpu_ns() - t0
}

/// One sample: when it was taken and the fastest burst, in nanoseconds.
type Sample = (Instant, f64);

/// How much slower than nominal the samples say the host ran between
/// `from` and `to` (1.0 = nominal, 1.4 = forty per cent slower): the
/// mean of the samples inside the interval, widened to
/// [`SHORTEST_WINDOW`] if shorter, or failing any the nearest sample.
fn factor_of(samples: &[Sample], from: Instant, to: Instant) -> f64 {
    let len = to.saturating_duration_since(from);
    let mid = from + len / 2;
    let half = len.max(SHORTEST_WINDOW) / 2;
    let distance = |t: Instant| t.max(mid).duration_since(t.min(mid));
    let inside: Vec<f64> = samples
        .iter()
        .filter(|(t, _)| distance(*t) <= half)
        .map(|(_, ns)| *ns)
        .collect();
    let ns = if inside.is_empty() {
        samples
            .iter()
            .min_by_key(|(t, _)| distance(*t))
            .map_or(NOMINAL_BURST_NS, |(_, ns)| *ns)
    } else {
        inside.iter().sum::<f64>() / inside.len() as f64
    };
    ns / NOMINAL_BURST_NS
}

/// One CPU's meter thread: whether it is sampling, and its samples.
#[derive(Debug)]
struct CpuMeter {
    cpu: usize,
    watched: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<Sample>>>,
}

/// The meter threads, one per CPU, and what each has measured so far.
/// The threads stop when the meter is dropped.
#[derive(Debug)]
pub struct Meter {
    placement: Placement,
    stop: Arc<AtomicBool>,
    cpus: Vec<CpuMeter>,
    handles: Vec<JoinHandle<()>>,
}

/// The meter as read by one workload: the reference clock of the CPUs
/// its program runs on.
#[derive(Debug, Clone, Copy)]
pub struct Clock<'a> {
    meter: &'a Meter,
    cpus: Cpus,
}

impl Meter {
    /// Start a thread on each of `placement`'s CPUs. A first sample of
    /// every CPU is in place before this returns; after it only the CPUs
    /// last named to [`Meter::watch`] are sampled.
    pub fn start(placement: Placement) -> Meter {
        let stop = Arc::new(AtomicBool::new(false));
        let mut cpus = Vec::new();
        let mut handles = Vec::new();
        for cpu in placement.cpus(Cpus::All) {
            let meter = CpuMeter {
                cpu,
                watched: Arc::new(AtomicBool::new(true)),
                samples: Arc::new(Mutex::new(Vec::with_capacity(4_096))),
            };
            let (stop, watched, out) = (
                Arc::clone(&stop),
                Arc::clone(&meter.watched),
                Arc::clone(&meter.samples),
            );
            let (first_tx, first_rx) = std::sync::mpsc::channel();
            let handle = std::thread::Builder::new()
                .name(format!("bench-meter-{cpu}"))
                .spawn(move || {
                    Placement::stay_on(cpu);
                    let mut table = vec![0u64; TABLE_WORDS];
                    while !stop.load(Ordering::Relaxed) {
                        if watched.load(Ordering::Relaxed) {
                            let best = (0..BURSTS_PER_SAMPLE)
                                .map(|_| burst(&mut table))
                                .fold(f64::INFINITY, f64::min);
                            out.lock()
                                .expect("readers do not panic holding the lock")
                                .push((Instant::now(), best));
                            let _ = first_tx.send(());
                        }
                        std::thread::sleep(SAMPLE_EVERY);
                    }
                })
                .expect("spawn a meter thread");
            let _ = first_rx.recv();
            cpus.push(meter);
            handles.push(handle);
        }
        Meter {
            placement,
            stop,
            cpus,
            handles,
        }
    }

    /// Sample the CPUs `cpus` names, and only those, from now on — a
    /// meter thread on a CPU the program does not use would only be in
    /// the harness's way there — and return their clock.
    pub fn watch(&self, cpus: Cpus) -> Clock<'_> {
        let named = self.placement.cpus(cpus);
        for meter in &self.cpus {
            meter
                .watched
                .store(named.contains(&meter.cpu), Ordering::Relaxed);
        }
        Clock { meter: self, cpus }
    }
}

impl Clock<'_> {
    /// The host-speed factor over `[from, to]` (see [`factor_of`]): the
    /// mean over this clock's CPUs.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let cpus = self.meter.placement.cpus(self.cpus);
        let factors: Vec<f64> = self
            .meter
            .cpus
            .iter()
            .filter(|meter| cpus.contains(&meter.cpu))
            .map(|meter| {
                factor_of(
                    &meter.samples.lock().expect("a meter thread does not panic"),
                    from,
                    to,
                )
            })
            .collect();
        factors.iter().sum::<f64>() / factors.len().max(1) as f64
    }

    /// `to − from` in reference seconds, for an interval the programs
    /// were running throughout.
    pub fn reference_secs(&self, from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() / self.factor(from, to)
    }

    /// `to − from` in reference seconds, for an interval of which the
    /// programs were running for `busy_secs` only: the time they ran
    /// stretches with the host's speed, the waits in between (poll
    /// intervals, sleeps, hand-offs) do not.
    pub fn reference_secs_busy(&self, from: Instant, to: Instant, busy_secs: f64) -> f64 {
        let wall = to.saturating_duration_since(from).as_secs_f64();
        let busy = busy_secs.clamp(0.0, wall);
        wall - busy + busy / self.factor(from, to)
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_averages_the_samples_inside_and_falls_back_to_the_nearest() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let samples = [
            (at(0), NOMINAL_BURST_NS),
            (at(1_000), 1.5 * NOMINAL_BURST_NS),
            (at(2_000), 1.3 * NOMINAL_BURST_NS),
            (at(9_000), 2.0 * NOMINAL_BURST_NS),
        ];
        assert!((factor_of(&samples, at(500), at(2_500)) - 1.4).abs() < 1e-12);
        // A 20 ms interval is widened to 250 ms and then holds a sample.
        assert!((factor_of(&samples, at(1_090), at(1_110)) - 1.5).abs() < 1e-12);
        // No sample near [4 000, 5 000]: the one at 2 000 is nearest.
        assert!((factor_of(&samples, at(4_000), at(5_000)) - 1.3).abs() < 1e-12);
        assert!((factor_of(&samples, at(7_000), at(8_000)) - 2.0).abs() < 1e-12);
        // No samples at all: nominal.
        assert_eq!(factor_of(&[], at(0), at(10)), 1.0);
    }

    #[test]
    fn the_meter_samples_until_stopped() {
        let t0 = Instant::now();
        let meter = Meter::start(Placement::survey().expect("affinity is readable"));
        std::thread::sleep(Duration::from_millis(150));
        for cpu in &meter.cpus {
            assert!(cpu.samples.lock().unwrap().len() >= 2);
        }
        let meter = meter.watch(Cpus::All);
        let now = Instant::now();
        let f = meter.factor(t0, now);
        assert!(f.is_finite() && f > 0.0);
        let wall = (now - t0).as_secs_f64();
        assert!((meter.reference_secs(t0, now) * f - wall).abs() < 1e-9);
        // Only the busy part is rescaled; more than the whole is the whole.
        assert!((meter.reference_secs_busy(t0, now, 0.0) - wall).abs() < 1e-9);
        let half = meter.reference_secs_busy(t0, now, wall / 2.0);
        assert!((half - (wall / 2.0 + wall / 2.0 / f)).abs() < 1e-9);
        assert!((meter.reference_secs_busy(t0, now, 2.0 * wall) - wall / f).abs() < 1e-9);
    }
}
