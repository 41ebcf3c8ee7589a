//! `/proc` readers: CPU time and peak resident memory of a process the
//! harness is measuring from outside.

use std::time::Duration;

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`,
/// 100 on every Linux architecture the repository builds for).
const TICKS_PER_SEC: u64 = 100;

/// CPU tick counters of one `/proc/<pid>/stat` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatTicks {
    /// User-mode ticks of the process.
    pub utime: u64,
    /// Kernel-mode ticks of the process.
    pub stime: u64,
    /// User-mode ticks of its waited-for children.
    pub cutime: u64,
    /// Kernel-mode ticks of its waited-for children.
    pub cstime: u64,
}

impl StatTicks {
    /// All four counters: the process and the children it has reaped.
    pub fn total(&self) -> u64 {
        self.utime + self.stime + self.reaped()
    }

    /// The children it has reaped.
    pub fn reaped(&self) -> u64 {
        self.cutime + self.cstime
    }
}

/// Parse the CPU counters out of a `stat` line. The command name (field
/// 2) is parenthesised and may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<StatTicks> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || fields.next()?.parse::<u64>().ok();
    Some(StatTicks {
        utime: next()?,
        stime: next()?,
        cutime: next()?,
        cstime: next()?,
    })
}

/// Convert clock ticks to time.
pub fn ticks_to_duration(ticks: u64) -> Duration {
    Duration::from_millis(ticks * 1_000 / TICKS_PER_SEC)
}

/// CPU counters of process `pid`, `None` once it is gone.
pub fn cpu_ticks(pid: u32) -> Option<StatTicks> {
    parse_stat_ticks(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// CPU counters of the harness itself (its `cutime`/`cstime` grow when
/// it reaps a child — how a finished soak job's CPU time is read).
pub fn self_cpu_ticks() -> StatTicks {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .unwrap_or_default()
}

/// Pull `VmHWM` (peak resident set, KiB) out of a `status` document.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A hostile command name: spaces and a closing parenthesis.
        let line = "4242 (hay )stack) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    731 19 5 2 20 0 6 0 100 1000000 250 18446744073709551615";
        let t = parse_stat_ticks(line).expect("parses");
        assert_eq!(
            t,
            StatTicks {
                utime: 731,
                stime: 19,
                cutime: 5,
                cstime: 2
            }
        );
        assert_eq!(t.total(), 757);
        assert_eq!(ticks_to_duration(t.utime), Duration::from_millis(7_310));
        assert_eq!(parse_stat_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\thaystack\nVmPeak:\t  900000 kB\nVmHWM:\t  228352 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(228_352));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn the_readers_see_this_process() {
        let me = std::process::id();
        assert!(cpu_ticks(me).is_some());
        assert!(peak_rss_mib(me).expect("linux") > 0.0);
        assert!(cpu_ticks(u32::MAX).is_none());
    }
}
