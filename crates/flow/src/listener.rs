//! The daemon's socket front-end: bounded admission with explicit shed
//! accounting, plus the two transports `haystack serve` listens on.
//!
//! Overload policy (DESIGN.md §13): the admission queue between the
//! sockets and the collector engine is *bounded*. When the engine falls
//! behind, the UDP path sheds — drops the datagram and counts it, per
//! source — because UDP gives no backpressure and an unbounded buffer
//! is just a slow OOM. The TCP replay path blocks instead: it exists
//! for tests and controlled replays, where losing a datagram to timing
//! would make "byte-identical after restart" unprovable. The invariant,
//! which `benchmark/` checks on every run's `/stats`: `received ==
//! admitted + shed`, always.
//!
//! TCP framing is trivial — a big-endian `u32` length then the datagram
//! bytes — because NetFlow/IPFIX datagrams are self-contained; the
//! stream just needs record boundaries.

use crate::collector::peek_source;
use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// Largest frame the TCP replay path accepts. A NetFlow/IPFIX datagram
/// rides UDP in deployment, so nothing legitimate exceeds 64 KiB; a
/// larger length prefix is a corrupt or hostile stream.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// How long socket reads block before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long an accept loop pauses when the process is out of descriptors
/// or socket memory: long enough for a connection to close, short enough
/// that the plane is back within a blink.
const EXHAUSTION_PAUSE: Duration = Duration::from_millis(5);

/// Shared admission counters. All monotonic; `received` is every
/// datagram a listener pulled off a socket, and exactly one of
/// `admitted` / `shed` is bumped for each, so
/// `received == admitted + shed` holds at every instant.
#[derive(Debug, Default)]
pub struct AdmissionStats {
    received: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    shed_by_source: Mutex<HashMap<u32, u64>>,
    accept_retries: AtomicU64,
}

impl AdmissionStats {
    /// Datagrams pulled off a socket (admitted or shed).
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// Datagrams handed to the engine.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Datagrams dropped because the queue was full (or the engine
    /// was gone).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Shed counts attributed to a source id (datagrams too short to
    /// carry one land under source 0), sorted by source id.
    pub fn shed_by_source(&self) -> Vec<(u32, u64)> {
        let map = self.shed_by_source.lock().expect("shed map poisoned");
        let mut out: Vec<(u32, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Transient `accept` errors the TCP replay listener rode out
    /// (see [`accept_retry`]).
    pub fn accept_retries(&self) -> u64 {
        self.accept_retries.load(Ordering::Relaxed)
    }

    fn note_shed(&self, datagram: &[u8]) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        let source = peek_source(datagram).map_or(0, |(_, s)| s);
        let mut map = self.shed_by_source.lock().expect("shed map poisoned");
        *map.entry(source).or_insert(0) += 1;
    }
}

/// Producer side of the bounded admission queue. Clone freely — every
/// listener thread holds one.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    tx: SyncSender<Bytes>,
    stats: Arc<AdmissionStats>,
    /// Declared after `tx` on purpose: fields drop in declaration order,
    /// so the consumer is woken *after* this handle's sender is gone and
    /// a wake for the last handle finds the channel already disconnected.
    /// (Waking from an `impl Drop for AdmissionQueue` would run before
    /// `tx` drops: the consumer sees `Empty`, parks again, and nobody is
    /// left to wake it.)
    waker: Waker,
}

/// The consumer thread to unpark, shared by every clone of a queue.
/// Dropping one wakes the consumer: a producer handle just went away.
#[derive(Debug, Clone, Default)]
struct Waker(Arc<OnceLock<Thread>>);

impl Waker {
    fn wake(&self) {
        if let Some(consumer) = self.0.get() {
            consumer.unpark();
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        self.wake();
    }
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` in-flight datagrams. Returns
    /// the producer handle, the engine's receive side, and the shared
    /// counters.
    pub fn bounded(capacity: usize) -> (AdmissionQueue, Receiver<Bytes>, Arc<AdmissionStats>) {
        assert!(capacity > 0, "admission queue capacity must be positive");
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        let stats = Arc::new(AdmissionStats::default());
        (
            AdmissionQueue {
                tx,
                stats: Arc::clone(&stats),
                waker: Waker::default(),
            },
            rx,
            stats,
        )
    }

    /// Register the thread that consumes this queue's receive side, for a
    /// consumer that `park`s instead of blocking in `recv`: it is unparked
    /// after every admitted datagram and whenever a producer handle (this
    /// one or any clone) is dropped — by then that handle's sender is
    /// gone, so the wake for the last one finds `Disconnected`. One
    /// consumer per queue; a second registration is ignored. Without one,
    /// nothing is woken and `recv` on the receiver works as ever.
    pub fn wake_on_admit(&self, consumer: Thread) {
        let _ = self.waker.0.set(consumer);
    }

    /// Non-blocking admission — the UDP path. Returns `false` (and
    /// counts a shed) when the queue is full or the engine is gone.
    pub fn offer(&self, datagram: Bytes) -> bool {
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(datagram) {
            Ok(()) => {
                self.stats.admitted.fetch_add(1, Ordering::Relaxed);
                self.waker.wake();
                true
            }
            Err(TrySendError::Full(d)) | Err(TrySendError::Disconnected(d)) => {
                self.stats.note_shed(&d);
                false
            }
        }
    }

    /// Blocking admission — the lossless TCP replay path. Backpressures
    /// the sender instead of shedding; returns `false` only when the
    /// engine has shut down (counted as a shed to keep the invariant).
    pub fn push(&self, datagram: Bytes) -> bool {
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        match self.tx.send(datagram) {
            Ok(()) => {
                self.stats.admitted.fetch_add(1, Ordering::Relaxed);
                self.waker.wake();
                true
            }
            Err(e) => {
                self.stats.note_shed(&e.0);
                false
            }
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> Arc<AdmissionStats> {
        Arc::clone(&self.stats)
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, datagram: &[u8]) -> io::Result<()> {
    assert!(
        datagram.len() <= MAX_FRAME_LEN,
        "datagram exceeds frame bound"
    );
    w.write_all(&(datagram.len() as u32).to_be_bytes())?;
    w.write_all(datagram)
}

/// Bytes a [`FrameReader`] buffers: two maximal frames with their length
/// prefixes, so that a read into the tail always has room for the rest of
/// the frame being assembled.
const FRAME_BUF_LEN: usize = 2 * (4 + MAX_FRAME_LEN);

/// Incremental frame reader over a possibly-timeout-interrupted stream.
/// A read timeout surfaces as `WouldBlock`/`TimedOut` with all partial
/// bytes retained, so callers can poll a shutdown flag and resume
/// without losing framing.
///
/// One fixed buffer, filled by reads as large as the stream will give
/// and consumed by a cursor: frames are copied out of `buf[start..end]`,
/// and the unconsumed bytes move to the front only when the tail could
/// no longer hold a maximal frame — once per ~64 KiB, not once per frame.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Box<[u8]>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: vec![0; FRAME_BUF_LEN].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }

    /// The next complete frame, `Ok(None)` on clean EOF at a frame
    /// boundary. EOF mid-frame is `UnexpectedEof`; an implausible
    /// length prefix is `InvalidData`.
    pub fn next_frame(&mut self) -> io::Result<Option<Bytes>> {
        loop {
            if let [a, b, c, d, rest @ ..] = &self.buf[self.start..self.end] {
                let len = u32::from_be_bytes([*a, *b, *c, *d]) as usize;
                if len > MAX_FRAME_LEN {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds bound {MAX_FRAME_LEN}"),
                    ));
                }
                if let Some(frame) = rest.get(..len) {
                    let frame = Bytes::from(frame);
                    self.start += 4 + len;
                    return Ok(Some(frame));
                }
            }
            // Rewind when nothing is pending (free), or when the space
            // after `start` could not hold a maximal frame. The pending
            // bytes are short of one frame, so after this the tail is
            // never empty and a zero-byte read can only mean EOF.
            if self.start == self.end || self.buf.len() - self.start < 4 + MAX_FRAME_LEN {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return if self.start == self.end {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream ended mid-frame",
                        ))
                    };
                }
                Ok(n) => self.end += n,
                Err(e) => return Err(e),
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Classify an `accept` error for the daemon's accept loops (the TCP
/// replay listener here, the HTTP plane in `haystack serve`). `Some` is
/// for the kinds that say nothing about the listening socket, and holds
/// how long to pause before accepting again: nothing when one queued
/// connection went bad (the peer reset it before it was accepted) or a
/// signal interrupted the call, a few milliseconds when the process is
/// out of descriptors or socket memory, so connections can close. `None`
/// is everything else — a listener that is genuinely dead (`EBADF`,
/// `EINVAL`, `ENOTSOCK`), which the loop reports and leaves.
pub fn accept_retry(e: &io::Error) -> Option<Duration> {
    // EMFILE / ENFILE / ENOBUFS have no stable `ErrorKind`.
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOBUFS: i32 = 105;
    match e.kind() {
        io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::Interrupted => Some(Duration::ZERO),
        io::ErrorKind::OutOfMemory => Some(EXHAUSTION_PAUSE),
        _ if matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS)) => Some(EXHAUSTION_PAUSE),
        _ => None,
    }
}

/// Run a UDP listener until `shutdown` is set: each datagram is offered
/// to the queue, shedding (with accounting) when the engine is behind.
pub fn spawn_udp_listener(
    socket: UdpSocket,
    queue: AdmissionQueue,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    socket
        .set_read_timeout(Some(POLL_INTERVAL))
        .expect("udp read timeout");
    std::thread::Builder::new()
        .name("hay-udp".into())
        .spawn(move || {
            let mut buf = [0u8; MAX_FRAME_LEN];
            while !shutdown.load(Ordering::Relaxed) {
                match socket.recv_from(&mut buf) {
                    Ok((n, _)) => {
                        queue.offer(Bytes::from(&buf[..n]));
                    }
                    Err(e) if is_timeout(&e) => {}
                    Err(_) => break,
                }
            }
        })
        .expect("spawn udp listener")
}

/// Run a TCP accept loop until `shutdown` is set. Each connection gets
/// its own handler thread reading length-prefixed frames and pushing
/// them losslessly (blocking on backpressure). Handler threads are
/// joined before the accept thread exits.
pub fn spawn_tcp_listener(
    listener: TcpListener,
    queue: AdmissionQueue,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    listener.set_nonblocking(true).expect("tcp nonblocking");
    std::thread::Builder::new()
        .name("hay-tcp".into())
        .spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while !shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Reap as we go: a weeks-long daemon fed by
                        // reconnecting exporters must not keep a handle
                        // per connection it ever served.
                        handlers.retain(|h| !h.is_finished());
                        let q = queue.clone();
                        let stop = Arc::clone(&shutdown);
                        let h = std::thread::Builder::new()
                            .name("hay-tcp-conn".into())
                            .spawn(move || handle_tcp_conn(stream, q, stop))
                            .expect("spawn tcp handler");
                        handlers.push(h);
                    }
                    Err(e) if is_timeout(&e) => std::thread::sleep(POLL_INTERVAL),
                    Err(e) => match accept_retry(&e) {
                        Some(pause) => {
                            queue.stats.accept_retries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(pause);
                        }
                        None => {
                            eprintln!("hay-tcp: accept failed, listener closed: {e}");
                            break;
                        }
                    },
                }
            }
            for h in handlers {
                let _ = h.join();
            }
        })
        .expect("spawn tcp listener")
}

fn handle_tcp_conn(stream: TcpStream, queue: AdmissionQueue, shutdown: Arc<AtomicBool>) {
    stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .expect("tcp read timeout");
    let mut frames = FrameReader::new(stream);
    while !shutdown.load(Ordering::Relaxed) {
        match frames.next_frame() {
            Ok(Some(datagram)) => {
                if !queue.push(datagram) {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) if is_timeout(&e) => {}
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::{Ipv4Addr, SocketAddr};

    /// A minimal v9 header carrying `source` in its source-id word.
    fn v9_stub(source: u32) -> Bytes {
        let mut b = Vec::new();
        b.extend_from_slice(&9u16.to_be_bytes());
        b.extend_from_slice(&0u16.to_be_bytes());
        b.extend_from_slice(&[0u8; 12]);
        b.extend_from_slice(&source.to_be_bytes());
        Bytes::from(b)
    }

    #[test]
    fn offer_sheds_at_capacity_with_source_attribution() {
        let (q, rx, stats) = AdmissionQueue::bounded(2);
        assert!(q.offer(v9_stub(7)));
        assert!(q.offer(v9_stub(7)));
        // Queue full: the next two shed, attributed to their sources.
        assert!(!q.offer(v9_stub(7)));
        assert!(!q.offer(v9_stub(8)));
        // Too short to peek a source: attributed to source 0.
        assert!(!q.offer(Bytes::from_static(&[0, 9])));
        assert_eq!(stats.received(), 5);
        assert_eq!(stats.admitted(), 2);
        assert_eq!(stats.shed(), 3);
        assert_eq!(stats.received(), stats.admitted() + stats.shed());
        assert_eq!(stats.shed_by_source(), vec![(0, 1), (7, 1), (8, 1)]);
        // Draining frees capacity; admission resumes.
        rx.recv().unwrap();
        assert!(q.offer(v9_stub(9)));
    }

    #[test]
    fn push_blocks_instead_of_shedding() {
        let (q, rx, stats) = AdmissionQueue::bounded(1);
        assert!(q.push(v9_stub(1)));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push(v9_stub(2)));
        // The push above blocks until we drain one slot.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(stats.admitted(), 1, "second push must still be waiting");
        rx.recv().unwrap();
        assert!(h.join().unwrap());
        assert_eq!(stats.admitted(), 2);
        assert_eq!(stats.shed(), 0);
        // Receiver gone: push fails and is accounted as shed.
        drop(rx);
        assert!(!q.push(v9_stub(3)));
        assert_eq!(stats.received(), stats.admitted() + stats.shed());
    }

    /// A consumer that parks instead of blocking in `recv`, as the
    /// daemon's engine does: returns what ended its wait and how long
    /// after `since` it saw it. Its parks are far longer than the bound
    /// the tests assert, so only a wake can meet it.
    fn parked_consumer(
        rx: Receiver<Bytes>,
        since: Arc<Mutex<std::time::Instant>>,
    ) -> JoinHandle<(Result<Bytes, std::sync::mpsc::TryRecvError>, Duration)> {
        std::thread::spawn(move || loop {
            match rx.try_recv() {
                Err(std::sync::mpsc::TryRecvError::Empty) => {
                    std::thread::park_timeout(Duration::from_secs(10))
                }
                other => return (other, since.lock().unwrap().elapsed()),
            }
        })
    }

    #[test]
    fn parked_consumer_sees_disconnect_when_the_last_handle_drops() {
        // Hazard: a wake that runs before the sender is dropped lets the
        // consumer see `Empty`, park again, and sleep out its timeout.
        for round in 0..200 {
            let (q, rx, _) = AdmissionQueue::bounded(4);
            let since = Arc::new(Mutex::new(std::time::Instant::now()));
            let consumer = parked_consumer(rx, Arc::clone(&since));
            q.wake_on_admit(consumer.thread().clone());
            let clones: Vec<AdmissionQueue> = (0..3).map(|_| q.clone()).collect();
            // Let the consumer settle into its park on odd rounds; race
            // it on even ones.
            if round % 2 == 1 {
                std::thread::sleep(Duration::from_millis(2));
            }
            drop(clones);
            *since.lock().unwrap() = std::time::Instant::now();
            drop(q);
            let (seen, after) = consumer.join().unwrap();
            assert_eq!(seen, Err(std::sync::mpsc::TryRecvError::Disconnected));
            assert!(
                after < Duration::from_millis(100),
                "round {round}: woke after {after:?}"
            );
        }
    }

    #[test]
    fn parked_consumer_is_woken_by_offer_and_by_push() {
        type Admit = fn(&AdmissionQueue, Bytes) -> bool;
        for admit in [
            AdmissionQueue::offer as Admit,
            AdmissionQueue::push as Admit,
        ] {
            let (q, rx, _) = AdmissionQueue::bounded(4);
            let since = Arc::new(Mutex::new(std::time::Instant::now()));
            let consumer = parked_consumer(rx, Arc::clone(&since));
            q.clone().wake_on_admit(consumer.thread().clone());
            std::thread::sleep(Duration::from_millis(20)); // parked by now
            *since.lock().unwrap() = std::time::Instant::now();
            assert!(admit(&q, v9_stub(3)));
            let (seen, after) = consumer.join().unwrap();
            assert_eq!(seen, Ok(v9_stub(3)));
            assert!(after < Duration::from_millis(100), "woke after {after:?}");
        }
    }

    #[test]
    fn accept_errors_are_classified() {
        use io::ErrorKind::*;
        for kind in [ConnectionAborted, ConnectionReset, Interrupted] {
            assert_eq!(accept_retry(&kind.into()), Some(Duration::ZERO), "{kind:?}");
        }
        assert_eq!(accept_retry(&OutOfMemory.into()), Some(EXHAUSTION_PAUSE));
        for errno in [23, 24, 105] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(accept_retry(&e), Some(EXHAUSTION_PAUSE), "errno {errno}");
        }
        // ECONNABORTED as the kernel reports it, not just as a kind.
        assert_eq!(
            accept_retry(&io::Error::from_raw_os_error(103)),
            Some(Duration::ZERO)
        );
        // A dead listener: EBADF, EINVAL, ENOTSOCK — and anything unnamed.
        for errno in [9, 22, 88] {
            assert_eq!(
                accept_retry(&io::Error::from_raw_os_error(errno)),
                None,
                "errno {errno}"
            );
        }
        for kind in [InvalidInput, NotConnected, PermissionDenied, Other] {
            assert_eq!(accept_retry(&kind.into()), None, "{kind:?}");
        }
    }

    #[test]
    fn tcp_listener_reaps_finished_handlers_and_survives_reconnects() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (q, rx, stats) = AdmissionQueue::bounded(64);
        let shutdown = Arc::new(AtomicBool::new(false));
        let h = spawn_tcp_listener(listener, q, Arc::clone(&shutdown));
        // Many short connections, one frame each: every one is served.
        for i in 0..20u32 {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(&mut stream, &v9_stub(i)).unwrap();
            drop(stream);
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), v9_stub(i));
        }
        shutdown.store(true, Ordering::Relaxed);
        h.join().unwrap();
        assert_eq!(stats.admitted(), 20);
        assert_eq!(stats.accept_retries(), 0);
    }

    #[test]
    fn frame_codec_round_trips() {
        let mut wire = Vec::new();
        let frames = [v9_stub(1), Bytes::from_static(b""), v9_stub(u32::MAX)];
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = FrameReader::new(Cursor::new(wire));
        for f in &frames {
            assert_eq!(r.next_frame().unwrap().as_deref(), Some(f.as_ref()));
        }
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_reader_rejects_midstream_eof_and_huge_lengths() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &v9_stub(5)).unwrap();
        let mut r = FrameReader::new(Cursor::new(wire[..wire.len() - 3].to_vec()));
        assert_eq!(
            r.next_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        let mut r = FrameReader::new(Cursor::new(huge));
        assert_eq!(
            r.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A stream that hands out at most `step` bytes per `read` and raises
    /// `WouldBlock` once at each offset in `blocks` (ascending).
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        step: usize,
        blocks: Vec<usize>,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.blocks.first() == Some(&self.pos) {
                self.blocks.remove(0);
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let until = self
                .blocks
                .first()
                .map_or(self.data.len(), |b| (*b).min(self.data.len()));
            let n = self.step.min(buf.len()).min(until - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Every frame of the stream, riding out timeouts like the TCP
    /// handler does.
    fn frames_of(stream: Trickle) -> Vec<Bytes> {
        let mut r = FrameReader::new(stream);
        let mut out = Vec::new();
        loop {
            match r.next_frame() {
                Ok(Some(f)) => out.push(f),
                Ok(None) => return out,
                Err(e) if is_timeout(&e) => {}
                Err(e) => panic!("frame {}: {e}", out.len()),
            }
        }
    }

    #[test]
    fn frames_are_independent_of_how_reads_split_the_stream() {
        // Sizes around every edge of the cursor buffer: empty, tiny,
        // datagram-sized, maximal; enough of them to wrap it many times.
        let sizes = [
            0,
            1,
            3,
            4,
            5,
            1_164,
            1_464,
            4_096,
            MAX_FRAME_LEN,
            40_000,
            MAX_FRAME_LEN - 1,
        ];
        let want: Vec<Bytes> = (0..60usize)
            .map(|i| {
                let len = sizes[i % sizes.len()];
                Bytes::from((0..len).map(|j| (i * 31 + j) as u8).collect::<Vec<u8>>())
            })
            .collect();
        let mut wire = Vec::new();
        for f in &want {
            write_frame(&mut wire, f).unwrap();
        }
        for step in [1, 2, 3, 7, 4_095, 4_097, 65_536] {
            let stream = Trickle {
                data: wire.clone(),
                pos: 0,
                step,
                blocks: Vec::new(),
            };
            assert_eq!(frames_of(stream), want, "{step} bytes per read");
        }
        // A timeout at every split point of one frame (the 1 164-byte one
        // and its prefix) loses nothing and duplicates nothing.
        let at: usize = want[..5].iter().map(|f| 4 + f.len()).sum();
        let blocks: Vec<usize> = (at..=at + 4 + want[5].len()).collect();
        let stream = Trickle {
            data: wire.clone(),
            pos: 0,
            step: 4_097,
            blocks,
        };
        assert_eq!(frames_of(stream), want);
    }

    #[test]
    fn frame_length_bound_is_exact() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &vec![7u8; MAX_FRAME_LEN]).unwrap();
        wire.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_be_bytes());
        wire.extend_from_slice(&vec![7u8; MAX_FRAME_LEN + 1]);
        let mut r = FrameReader::new(Cursor::new(wire));
        assert_eq!(r.next_frame().unwrap().unwrap().len(), MAX_FRAME_LEN);
        assert_eq!(
            r.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // EOF inside the length prefix and inside the body are both
        // mid-frame, however the reads fall.
        let mut wire = Vec::new();
        write_frame(&mut wire, &v9_stub(5)).unwrap();
        for cut in [2, 4, wire.len() - 1] {
            let stream = Trickle {
                data: wire[..cut].to_vec(),
                pos: 0,
                step: 3,
                blocks: vec![1],
            };
            let mut r = FrameReader::new(stream);
            assert!(is_timeout(&r.next_frame().unwrap_err()));
            assert_eq!(
                r.next_frame().unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn udp_listener_delivers_datagrams() {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr: SocketAddr = socket.local_addr().unwrap();
        let (q, rx, stats) = AdmissionQueue::bounded(64);
        let shutdown = Arc::new(AtomicBool::new(false));
        let h = spawn_udp_listener(socket, q, Arc::clone(&shutdown));
        let sender = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        for _ in 0..3 {
            sender.send_to(&v9_stub(4), addr).unwrap();
        }
        for _ in 0..3 {
            let d = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(d, v9_stub(4));
        }
        // The listener counts a datagram admitted after the queue took
        // it, so its books are only final once it has been joined.
        shutdown.store(true, Ordering::Relaxed);
        h.join().unwrap();
        assert_eq!(stats.admitted(), 3);
    }

    #[test]
    fn tcp_listener_is_lossless_under_backpressure() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        // Tiny queue: the writer must be backpressured, never shed.
        let (q, rx, stats) = AdmissionQueue::bounded(2);
        let shutdown = Arc::new(AtomicBool::new(false));
        let h = spawn_tcp_listener(listener, q, Arc::clone(&shutdown));
        let total = 50u32;
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for i in 0..total {
                write_frame(&mut stream, &v9_stub(i)).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..total {
            got.push(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        }
        writer.join().unwrap();
        let want: Vec<Bytes> = (0..total).map(v9_stub).collect();
        assert_eq!(got, want, "tcp path must preserve order and lose nothing");
        // The handler counts a datagram admitted after the queue took it,
        // so its books are only final once it has been joined.
        shutdown.store(true, Ordering::Relaxed);
        h.join().unwrap();
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.admitted(), u64::from(total));
    }
}
