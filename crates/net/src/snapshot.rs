//! The binary snapshot codec every crash-safe component shares.
//!
//! Long-lived pipeline state — detector line maps, collector template
//! caches, stream watermarks — is persisted as *framed* snapshots:
//! an 8-byte magic, a format version, a length-prefixed payload, and a
//! trailing FNV-1a checksum over everything before it. [`seal`] builds a
//! frame, [`open`] verifies one; a truncated or bit-flipped frame is a
//! typed [`SnapError`], never a panic, so checkpoint loaders can fall
//! back to an older generation (DESIGN.md §12).
//!
//! [`SnapWriter`] / [`SnapReader`] are the little-endian payload codec.
//! Every integer is fixed-width, every byte string is length-prefixed,
//! and floats travel as raw IEEE-754 bits ([`SnapWriter::put_f64_bits`])
//! so a restore replays *bit-identical* state — the staleness monitor's
//! decayed baselines depend on exact float fold order, and a snapshot
//! must not launder them through a decimal representation.

use std::fmt;

/// Length of a frame magic, in bytes.
pub const MAGIC_LEN: usize = 8;

/// Fixed frame overhead: magic + version + payload length + checksum.
pub const FRAME_OVERHEAD: usize = MAGIC_LEN + 4 + 8 + 8;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the announced content did.
    Truncated,
    /// The frame's magic does not match the expected component magic.
    BadMagic,
    /// The frame's format version is not the one this build reads.
    BadVersion {
        /// Version found in the frame.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The trailing checksum does not match the frame contents.
    Checksum {
        /// Checksum recorded in the frame.
        stored: u64,
        /// Checksum computed over the frame contents.
        computed: u64,
    },
    /// Structurally invalid payload (impossible count, bad tag, …).
    Malformed(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "snapshot magic mismatch"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            SnapError::Checksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit over `bytes` — the frame checksum. Not cryptographic;
/// it detects truncation and bit rot, which is the fault model here
/// (local disk, not an adversary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wrap `payload` in a checksummed frame.
pub fn seal(magic: &[u8; MAGIC_LEN], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Verify a frame and return its payload slice. Checks, in order:
/// length, magic, version, payload length, checksum.
pub fn open<'a>(
    magic: &[u8; MAGIC_LEN],
    version: u32,
    frame: &'a [u8],
) -> Result<&'a [u8], SnapError> {
    if frame.len() < FRAME_OVERHEAD {
        return Err(SnapError::Truncated);
    }
    if &frame[..MAGIC_LEN] != magic {
        return Err(SnapError::BadMagic);
    }
    let found = u32::from_le_bytes(frame[MAGIC_LEN..MAGIC_LEN + 4].try_into().unwrap());
    if found != version {
        return Err(SnapError::BadVersion {
            found,
            expected: version,
        });
    }
    let len = u64::from_le_bytes(frame[MAGIC_LEN + 4..MAGIC_LEN + 12].try_into().unwrap()) as usize;
    if frame.len() != FRAME_OVERHEAD + len {
        return Err(SnapError::Truncated);
    }
    let body_end = frame.len() - 8;
    let stored = u64::from_le_bytes(frame[body_end..].try_into().unwrap());
    let computed = fnv1a64(&frame[..body_end]);
    if stored != computed {
        return Err(SnapError::Checksum { stored, computed });
    }
    Ok(&frame[MAGIC_LEN + 12..body_end])
}

/// Whether a frame's trailing checksum matches its contents, regardless
/// of magic or version. [`open`] checks the version *before* the
/// checksum, so a `BadVersion` alone cannot distinguish "written by a
/// different build" from "bit rot that happened to land on the version
/// word". Loaders that want to report version skew precisely (resume
/// validation, daemon restarts) call this first: checksum-valid +
/// `BadVersion` is genuine skew worth a targeted error; checksum-invalid
/// is corruption and falls back to an older generation.
pub fn checksum_ok(frame: &[u8]) -> bool {
    if frame.len() < FRAME_OVERHEAD {
        return false;
    }
    let body_end = frame.len() - 8;
    let stored = u64::from_le_bytes(frame[body_end..].try_into().unwrap());
    stored == fnv1a64(&frame[..body_end])
}

/// The version word of a frame, without verifying anything else.
/// Returns `None` when the buffer is too short to even carry one.
pub fn peek_version(frame: &[u8]) -> Option<u32> {
    if frame.len() < MAGIC_LEN + 4 {
        return None;
    }
    Some(u32::from_le_bytes(
        frame[MAGIC_LEN..MAGIC_LEN + 4].try_into().unwrap(),
    ))
}

/// Little-endian payload writer. All methods append; call
/// [`SnapWriter::into_bytes`] to take the buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw IEEE-754 bits (exact round trip).
    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Take the accumulated payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian payload reader over a borrowed buffer. Every read is
/// bounds-checked and returns [`SnapError::Truncated`] instead of
/// panicking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its raw bits.
    pub fn f64_bits(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// Read a count field, rejecting values that could not possibly fit
    /// in the remaining buffer (defends against allocating from a
    /// corrupted length before the checksum is consulted).
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, SnapError> {
        let n = self.u64()? as usize;
        if min_item_bytes > 0 && n > self.remaining() / min_item_bytes {
            return Err(SnapError::Malformed("impossible element count"));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"HAYTEST\0";

    #[test]
    fn payload_round_trips() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64_bits(-0.0);
        w.put_f64_bits(f64::from_bits(0x7FF0_0000_0000_0001)); // a signaling NaN pattern
        w.put_bytes(b"hello");
        w.put_str("wörld");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64_bits().unwrap().to_bits(), 0x7FF0_0000_0000_0001);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.bytes().unwrap(), "wörld".as_bytes());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sealed_frame_opens() {
        let frame = seal(MAGIC, 3, b"payload");
        assert_eq!(open(MAGIC, 3, &frame).unwrap(), b"payload");
    }

    #[test]
    fn truncation_is_detected() {
        let frame = seal(MAGIC, 1, &[9u8; 100]);
        for cut in [0usize, 5, FRAME_OVERHEAD, frame.len() - 1] {
            assert_eq!(
                open(MAGIC, 1, &frame[..cut]),
                Err(SnapError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = seal(MAGIC, 1, b"some state worth protecting");
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    open(MAGIC, 1, &bad).is_err(),
                    "flip byte {i} bit {bit} not caught"
                );
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let frame = seal(MAGIC, 2, b"x");
        assert_eq!(open(b"OTHERMAG", 2, &frame), Err(SnapError::BadMagic));
        assert_eq!(
            open(MAGIC, 3, &frame),
            Err(SnapError::BadVersion {
                found: 2,
                expected: 3
            })
        );
    }

    #[test]
    fn reader_never_panics_on_garbage() {
        let garbage = [0xFFu8; 16];
        let mut r = SnapReader::new(&garbage);
        // A corrupted length prefix must not trigger a huge allocation
        // or a slice panic.
        assert!(r.bytes().is_err());
        let mut r = SnapReader::new(&garbage);
        assert!(r.count(4).is_err());
    }

    #[test]
    fn checksum_ok_separates_skew_from_rot() {
        let frame = seal(MAGIC, 2, b"state");
        // Intact frame from a different version: checksum holds, version peeks.
        assert!(checksum_ok(&frame));
        assert_eq!(peek_version(&frame), Some(2));
        assert_eq!(
            open(MAGIC, 3, &frame),
            Err(SnapError::BadVersion {
                found: 2,
                expected: 3
            })
        );
        // Flip a bit in the version word: open still says BadVersion, but
        // the checksum now betrays corruption.
        let mut rotten = frame.clone();
        rotten[MAGIC_LEN] ^= 0x04;
        assert!(matches!(
            open(MAGIC, 2, &rotten),
            Err(SnapError::BadVersion { .. })
        ));
        assert!(!checksum_ok(&rotten));
        // Too-short buffers are never checksum-valid.
        assert!(!checksum_ok(&frame[..4]));
        assert_eq!(peek_version(&frame[..4]), None);
    }

    #[test]
    fn empty_payload_is_legal() {
        let frame = seal(MAGIC, 1, &[]);
        assert_eq!(open(MAGIC, 1, &frame).unwrap(), b"");
    }
}
