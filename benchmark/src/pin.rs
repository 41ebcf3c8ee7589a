//! CPU placement: which CPUs the programs under test run on, and where
//! the harness stays out of their way.
//!
//! A workload runs its program under one of two placements
//! ([`Cpus`], chosen in [`crate::spec::Workload::cpus`] and stated in
//! `BENCHMARK.json`):
//!
//! * [`Cpus::All`] — every CPU this process may use, for the workloads
//!   whose shards do real work in parallel (`serve_hit50`, `soak_thread`,
//!   `soak_process`). Confined to one CPU a pool that ran its shards one
//!   after the other would read as fast as one that ran them side by
//!   side, and `soak_process` would measure context switches, not its
//!   pipes: measured here on two CPUs, `soak_process` streams 6.1 M
//!   records/s against 3.6 M on one.
//! * [`Cpus::One`] — the highest-numbered CPU alone, for the workloads
//!   whose work is the listener → engine pipeline with the shards all
//!   but idle (`serve_miss99`, `serve_udp_flood`, `serve_query_mix`).
//!   Left to the scheduler on two CPUs, that pipeline flips every few
//!   seconds between its listener and engine threads sharing a CPU and
//!   sitting on different ones — where every datagram's cache lines
//!   cross cores it was measured a quarter slower on a third more CPU
//!   time (3.0 M records/s at 408 ns against 4.1 M at 303 ns) — and whole
//!   runs of the same commit land in one state or the other.
//!
//! What moves data for the program runs beside it: the TCP senders
//! (the closed loop is blocked on back-pressure, the paced one asleep,
//! for all but a few per cent of the time) and the in-process replay.
//! The rest stays on the harness's side, the CPUs left over by
//! [`Cpus::One`]: the flood's sender, which spins on the clock and must
//! keep its schedule whatever the program does, the request thread, the
//! generator and the oracle.

use std::os::unix::process::CommandExt;
use std::process::Command;

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs a workload's program runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cpus {
    /// One CPU, to itself.
    One,
    /// Every CPU the benchmark may use.
    All,
}

impl Cpus {
    /// The words result files use.
    pub fn label(self) -> &'static str {
        match self {
            Cpus::One => "one CPU",
            Cpus::All => "all CPUs",
        }
    }
}

/// Which CPUs each side runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    harness: CpuSet,
    one: CpuSet,
    all: CpuSet,
}

/// CPUs set in `set`, ascending.
fn cpus_of(set: &CpuSet) -> Vec<usize> {
    (0..set.len() * 64)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

fn set_of(cpus: &[usize]) -> CpuSet {
    let mut set = [0u64; 16];
    for &cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    set
}

/// Split the CPUs in `allowed`: the highest-numbered one for
/// [`Cpus::One`], the rest for the harness. With a single CPU everything
/// shares it.
fn split(allowed: &CpuSet) -> Placement {
    let cpus = cpus_of(allowed);
    match cpus.split_last() {
        Some((&last, rest)) if !rest.is_empty() => Placement {
            harness: set_of(rest),
            one: set_of(&[last]),
            all: *allowed,
        },
        _ => Placement {
            harness: *allowed,
            one: *allowed,
            all: *allowed,
        },
    }
}

/// Move the calling thread (and what it starts from now on) to `set`.
fn move_to(set: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `set` is a live buffer of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The CPUs this process may run on.
fn allowed() -> Result<CpuSet, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(allowed)
}

impl Placement {
    /// The CPUs this process may run on, split without moving anything.
    pub fn survey() -> Result<Placement, String> {
        Ok(split(&allowed()?))
    }

    /// Split the CPUs this process may run on and move the harness (this
    /// thread, and every thread and child it starts from now on) to its
    /// side. Call it after anything that should use every CPU, such as
    /// the build.
    pub fn take() -> Result<Placement, String> {
        let placement = Placement::survey()?;
        move_to(&placement.harness).map_err(|e| format!("sched_setaffinity: {e}"))?;
        Ok(placement)
    }

    fn set(&self, cpus: Cpus) -> CpuSet {
        match cpus {
            Cpus::One => self.one,
            Cpus::All => self.all,
        }
    }

    /// The CPUs of `cpus`, ascending.
    pub fn cpus(&self, cpus: Cpus) -> Vec<usize> {
        cpus_of(&self.set(cpus))
    }

    /// Make `cmd`'s child (and what it spawns) run on `cpus`.
    pub fn confine(&self, cmd: &mut Command, cpus: Cpus) {
        let set = self.set(cpus);
        // SAFETY: the hook runs in the forked child before exec and makes
        // one system call on a buffer it owns: no allocation, no lock.
        unsafe {
            cmd.pre_exec(move || move_to(&set));
        }
    }

    /// Run `f` on the calling thread with that thread moved to `cpus`,
    /// beside the program, then move it back.
    pub fn beside_program<T>(&self, cpus: Cpus, f: impl FnOnce() -> T) -> T {
        // A failure leaves the thread where it was, which is harmless.
        let _ = move_to(&self.set(cpus));
        let out = f();
        let _ = move_to(&self.harness);
        out
    }

    /// Move the calling thread to `cpu` alone, for good (a meter thread).
    pub fn stay_on(cpu: usize) {
        let _ = move_to(&set_of(&[cpu]));
    }

    /// For the result file: the CPUs of each side.
    pub fn describe(&self) -> serde_json::Value {
        serde_json::json!({
            "harness_cpus": cpus_of(&self.harness),
            "program_cpus_one": cpus_of(&self.one),
            "program_cpus_all": cpus_of(&self.all),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_cpu_is_the_one_and_all_stay_all() {
        let sides = |p: &Placement| (cpus_of(&p.harness), p.cpus(Cpus::One), p.cpus(Cpus::All));
        assert_eq!(
            sides(&split(&set_of(&[0, 1]))),
            (vec![0], vec![1], vec![0, 1])
        );
        assert_eq!(
            sides(&split(&set_of(&[2, 3, 70]))),
            (vec![2, 3], vec![70], vec![2, 3, 70])
        );
        // One CPU: shared.
        assert_eq!(sides(&split(&set_of(&[5]))), (vec![5], vec![5], vec![5]));
    }

    #[test]
    fn a_confined_child_sees_only_its_cpus() {
        // Do not move the test process itself: only compute the split.
        let placement = Placement::survey().expect("affinity is readable");
        let mut cmd = Command::new("cat");
        cmd.arg("/proc/self/status");
        placement.confine(&mut cmd, Cpus::One);
        let out = cmd.output().expect("cat runs");
        let status = String::from_utf8_lossy(&out.stdout);
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("status lists the allowed CPUs")
            .trim();
        let want = placement.cpus(Cpus::One);
        assert_eq!(want.len(), 1);
        assert_eq!(list, want[0].to_string());
    }
}
