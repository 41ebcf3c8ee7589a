//! Load generation: the frame coalescer, the two pacers and the TCP and
//! UDP senders. One sender thread per run, one data connection.

use crate::gen::Encoded;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// Largest `write_all` the TCP sender issues.
pub const COALESCE_BYTES: usize = 64 * 1024;
/// Datagrams per open-loop UDP slot.
pub const UDP_BURST: usize = 8;

/// Cut `starts` (frame offsets plus the end offset, see
/// [`Encoded::frame_starts`]) into runs of whole frames of at most
/// `limit` bytes. Returns frame indices `c` such that run `k` is frames
/// `c[k]..c[k+1]`. A single frame larger than `limit` gets a run of its
/// own rather than being split.
pub fn coalesce(starts: &[usize], limit: usize) -> Vec<usize> {
    let frames = starts.len().saturating_sub(1);
    let mut cuts = vec![0];
    let mut run_start = 0;
    for i in 0..frames {
        if starts[i + 1] - starts[run_start] > limit && i > run_start {
            cuts.push(i);
            run_start = i;
        }
    }
    if frames > 0 {
        cuts.push(frames);
    }
    cuts
}

/// What a sender did.
#[derive(Debug, Clone, Default)]
pub struct SendReport {
    /// Datagrams handed to the socket.
    pub datagrams: usize,
    /// Wall time from the first write to the last.
    pub elapsed: Duration,
    /// Thread CPU time the sender used over that interval.
    pub cpu: Duration,
    /// How late each paced step ran, in milliseconds (open loops only).
    pub late_ms: Vec<f64>,
    /// Open-loop slots skipped because the sender was late.
    pub skipped_slots: u64,
}

/// CPU time of the calling thread, from `/proc/thread-self/stat`
/// (utime + stime, in seconds).
pub fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| crate::proc::parse_stat_ticks(&s))
        .map_or(Duration::ZERO, |t| {
            crate::proc::ticks_to_duration(t.utime + t.stime)
        })
}

/// Closed loop: write the first `datagrams` datagrams of the stream as
/// fast as TCP back-pressure allows, in coalesced runs.
/// `on_first_write` fires just before the first byte leaves, so the
/// caller's clock starts there.
pub fn send_tcp_closed(
    addr: SocketAddr,
    stream: &Encoded,
    datagrams: usize,
    on_first_write: impl FnOnce(),
) -> std::io::Result<SendReport> {
    let cuts = coalesce(&stream.frame_starts()[..=datagrams], COALESCE_BYTES);
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let cpu0 = thread_cpu();
    on_first_write();
    let t0 = Instant::now();
    for run in cuts.windows(2) {
        conn.write_all(stream.framed(run[0], run[1]))?;
    }
    conn.flush()?;
    let elapsed = t0.elapsed();
    let cpu = thread_cpu().saturating_sub(cpu0);
    // Closing the write side tells the daemon's frame reader the stream
    // ended at a frame boundary.
    conn.shutdown(std::net::Shutdown::Write)?;
    Ok(SendReport {
        datagrams,
        elapsed,
        cpu,
        ..SendReport::default()
    })
}

/// A fixed-rate schedule for a stream that must be sent in full:
/// datagram `i` is due at `i × interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// `per_second` items per second.
    pub fn per_second(per_second: f64) -> Schedule {
        Schedule {
            interval_ns: (1e9 / per_second).max(1.0) as u64,
        }
    }

    /// Items due by `now_ns` (the item at time zero is due immediately).
    pub fn due_by(&self, now_ns: u64) -> usize {
        (now_ns / self.interval_ns) as usize + 1
    }

    /// When item `i` is due.
    pub fn due_at(&self, i: usize) -> u64 {
        i as u64 * self.interval_ns
    }
}

/// Open loop over the lossless path: send the whole stream on
/// `schedule`, waking every millisecond and writing whatever has come
/// due. Nothing is dropped — the work is fixed — so a late wake sends
/// more at once, and how late it ran is reported.
pub fn send_tcp_paced(
    addr: SocketAddr,
    stream: &Encoded,
    schedule: Schedule,
    on_first_write: impl FnOnce(),
) -> std::io::Result<SendReport> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut report = SendReport::default();
    let cpu0 = thread_cpu();
    on_first_write();
    let t0 = Instant::now();
    let total = stream.datagrams();
    let mut sent = 0;
    while sent < total {
        let now = t0.elapsed().as_nanos() as u64;
        let due = schedule.due_by(now).min(total);
        if due > sent {
            report
                .late_ms
                .push((now - schedule.due_at(sent)) as f64 / 1e6);
            conn.write_all(stream.framed(sent, due))?;
            sent = due;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    conn.flush()?;
    report.datagrams = sent;
    report.elapsed = t0.elapsed();
    report.cpu = thread_cpu().saturating_sub(cpu0);
    conn.shutdown(std::net::Shutdown::Write)?;
    Ok(report)
}

/// Open-loop slot pacer that never catches up: slot `k` is due at
/// `k × interval`; a caller that arrives late runs the one slot that is
/// due and the slots it slept through are skipped, not sent in a burst.
#[derive(Debug, Clone)]
pub struct SlotPacer {
    interval_ns: u64,
    next_slot: u64,
    /// Slots skipped so far.
    pub skipped: u64,
}

/// What [`SlotPacer::poll`] tells the caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Nothing is due; sleep this many nanoseconds.
    Wait(u64),
    /// Run one slot now; it is this many nanoseconds late.
    Run(u64),
}

impl SlotPacer {
    /// One slot every `interval_ns`.
    pub fn new(interval_ns: u64) -> SlotPacer {
        SlotPacer {
            interval_ns: interval_ns.max(1),
            next_slot: 0,
            skipped: 0,
        }
    }

    /// Decide at time `now_ns` (since the run began).
    pub fn poll(&mut self, now_ns: u64) -> Slot {
        let due = self.next_slot * self.interval_ns;
        if now_ns < due {
            return Slot::Wait(due - now_ns);
        }
        // The next slot is the first one strictly in the future.
        let upcoming = now_ns / self.interval_ns + 1;
        self.skipped += upcoming - self.next_slot - 1;
        self.next_slot = upcoming;
        Slot::Run(now_ns - due)
    }
}

/// Open loop over UDP: offer `records_per_sec` for `duration` from
/// datagram `first` of the stream on, in slots of [`UDP_BURST`]
/// datagrams. Between slots the sender spins on the clock: a slot is
/// 53 µs at 4.5 M records/s, and `thread::sleep` cannot keep a schedule
/// that fine (50 µs of timer slack plus the wake-up: asked for 4 M
/// records/s, a sleeping sender was measured to offer 2.08 M). The
/// stream is sent in order, so what was sent is always a prefix.
pub fn send_udp_open(
    addr: SocketAddr,
    stream: &Encoded,
    first: usize,
    records_per_sec: f64,
    duration: Duration,
    on_first_write: impl FnOnce(),
) -> std::io::Result<SendReport> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.connect(addr)?;
    let slots_per_sec = records_per_sec / 30.0 / UDP_BURST as f64;
    let mut pacer = SlotPacer::new((1e9 / slots_per_sec) as u64);
    let mut report = SendReport::default();
    let cpu0 = thread_cpu();
    on_first_write();
    let t0 = Instant::now();
    let total = stream.datagrams();
    let mut sent = first;
    while sent < total {
        let now = t0.elapsed();
        if now >= duration {
            break;
        }
        match pacer.poll(now.as_nanos() as u64) {
            Slot::Wait(_) => std::hint::spin_loop(),
            Slot::Run(late_ns) => {
                report.late_ms.push(late_ns as f64 / 1e6);
                for i in sent..(sent + UDP_BURST).min(total) {
                    socket.send(stream.datagram(i))?;
                }
                sent = (sent + UDP_BURST).min(total);
            }
        }
    }
    report.datagrams = sent - first;
    report.elapsed = t0.elapsed();
    report.cpu = thread_cpu().saturating_sub(cpu0);
    report.skipped_slots = pacer.skipped;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescer_keeps_frames_whole_and_runs_under_the_limit() {
        // Frames of 40 bytes; limit 100 → two frames per run.
        let starts: Vec<usize> = (0..=5).map(|i| i * 40).collect();
        assert_eq!(coalesce(&starts, 100), vec![0, 2, 4, 5]);
        // Every run is whole frames, in order, covering everything once.
        let cuts = coalesce(&starts, 100);
        for w in cuts.windows(2) {
            assert!(starts[w[1]] - starts[w[0]] <= 100);
        }
        // An oversized frame travels alone instead of being split.
        assert_eq!(coalesce(&[0, 500, 540], 100), vec![0, 1, 2]);
        // Exactly at the limit still fits.
        assert_eq!(coalesce(&[0, 50, 100], 100), vec![0, 2]);
        assert_eq!(coalesce(&[], 100), vec![0]);
    }

    #[test]
    fn coalescer_fills_64k_runs_from_real_frames() {
        let mut enc = Encoded::default();
        for _ in 0..200 {
            enc.push(&[0u8; 1_184], 30);
        }
        let cuts = coalesce(enc.frame_starts(), COALESCE_BYTES);
        let per_run = COALESCE_BYTES / 1_188;
        assert_eq!(cuts[1] - cuts[0], per_run);
        assert_eq!(*cuts.last().unwrap(), 200);
        let total: usize = cuts.windows(2).map(|w| enc.framed(w[0], w[1]).len()).sum();
        assert_eq!(total, enc.framed_len());
    }

    #[test]
    fn slot_pacer_skips_when_late_and_never_bursts() {
        let mut p = SlotPacer::new(100);
        assert_eq!(p.poll(0), Slot::Run(0));
        assert_eq!(p.poll(10), Slot::Wait(90));
        assert_eq!(p.poll(100), Slot::Run(0));
        // Woke at 570: slot 2 (due at 200) runs 370 late; slots 3, 4 and
        // 5 were slept through and are skipped.
        assert_eq!(p.poll(570), Slot::Run(370));
        assert_eq!(p.skipped, 3);
        // No catch-up: the very next poll has to wait for slot 6.
        assert_eq!(p.poll(571), Slot::Wait(29));
        assert_eq!(p.poll(600), Slot::Run(0));
        assert_eq!(p.skipped, 3);
    }

    #[test]
    fn schedule_counts_what_is_due() {
        let s = Schedule::per_second(1_000.0);
        assert_eq!(s.due_by(0), 1);
        assert_eq!(s.due_by(999_999), 1);
        assert_eq!(s.due_by(1_000_000), 2);
        assert_eq!(s.due_at(2), 2_000_000);
    }
}
