//! Length-prefixed stream framing over the §12 snapshot codec
//! (DESIGN.md §15).
//!
//! A frame on the wire is exactly the sealed byte string produced by
//! [`crate::snapshot::seal`]: magic, version, payload length, payload,
//! trailing FNV-1a checksum. Reading a frame from a byte stream needs
//! no extra envelope — the fixed prefix carries enough to know how many
//! bytes remain, and the checksum at the tail proves the frame survived
//! the pipe intact. The process-isolated detector pool speaks this
//! protocol over child stdin/stdout pipes; a child killed mid-write
//! leaves a torn frame that fails validation instead of silently
//! corrupting the peer.

use crate::snapshot::{SnapError, MAGIC_LEN};
use std::fmt;
use std::io::{self, Read, Write};

/// Bytes of a sealed frame before the payload: magic + version + length.
pub const FRAME_HEADER: usize = MAGIC_LEN + 4 + 8;

/// A stream-framing failure: an I/O error on the pipe, a frame that
/// fails the codec's structural checks, or a declared payload length
/// over the reader's cap.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The frame failed the snapshot codec's validation (bad magic, or
    /// the stream ended mid-frame — the peer died with a frame half
    /// written).
    Snap(SnapError),
    /// The declared payload length exceeds the reader's cap — either a
    /// corrupt header or a peer speaking the wrong protocol. The frame
    /// is rejected before any allocation.
    TooLarge {
        /// The length the header declared.
        declared: u64,
        /// The reader's cap.
        max: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Snap(e) => write!(f, "frame codec: {e}"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame declares {declared} payload bytes (cap {max})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<SnapError> for FrameError {
    fn from(e: SnapError) -> FrameError {
        FrameError::Snap(e)
    }
}

/// Write one sealed frame and flush, so the peer's blocking read always
/// observes a complete frame once this returns.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Read one sealed frame with the expected `magic` from a byte stream.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed
/// the stream between frames); a stream ending *inside* a frame is
/// [`SnapError::Truncated`]. Only the magic and the length cap are
/// validated here — call [`crate::snapshot::open`] on the returned
/// bytes to check the version and checksum.
pub fn read_frame(
    r: &mut impl Read,
    magic: &[u8; MAGIC_LEN],
    max_payload: u64,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0usize;
    // Hand-rolled instead of `read_exact`: zero bytes before the first
    // header byte is a clean shutdown, not an error.
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(FrameError::Snap(SnapError::Truncated));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    if &header[..MAGIC_LEN] != magic {
        return Err(FrameError::Snap(SnapError::BadMagic));
    }
    let len = u64::from_le_bytes(
        header[MAGIC_LEN + 4..FRAME_HEADER]
            .try_into()
            .expect("8 bytes"),
    );
    if len > max_payload {
        return Err(FrameError::TooLarge {
            declared: len,
            max: max_payload,
        });
    }
    // Payload plus the trailing checksum.
    let total = FRAME_HEADER + len as usize + 8;
    let mut frame = vec![0u8; total];
    frame[..FRAME_HEADER].copy_from_slice(&header);
    r.read_exact(&mut frame[FRAME_HEADER..]).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Snap(SnapError::Truncated)
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{open, seal};
    use std::io::Cursor;

    const MAGIC: &[u8; 8] = b"HAYTEST\0";

    #[test]
    fn frames_round_trip_back_to_back() {
        let a = seal(MAGIC, 1, b"first");
        let b = seal(MAGIC, 1, b"second payload");
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();

        let mut r = Cursor::new(buf);
        let fa = read_frame(&mut r, MAGIC, 1 << 20)
            .unwrap()
            .expect("first frame");
        assert_eq!(open(MAGIC, 1, &fa).unwrap(), b"first");
        let fb = read_frame(&mut r, MAGIC, 1 << 20)
            .unwrap()
            .expect("second frame");
        assert_eq!(open(MAGIC, 1, &fb).unwrap(), b"second payload");
        assert!(
            read_frame(&mut r, MAGIC, 1 << 20).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn torn_frame_is_truncated_not_a_hang_or_a_panic() {
        let a = seal(MAGIC, 1, b"whole payload bytes");
        for cut in 1..a.len() {
            let mut r = Cursor::new(a[..cut].to_vec());
            match read_frame(&mut r, MAGIC, 1 << 20) {
                Err(FrameError::Snap(SnapError::Truncated)) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_magic_is_rejected_before_the_body() {
        let a = seal(b"WRONGMG\0", 1, b"payload");
        let mut r = Cursor::new(a);
        assert!(matches!(
            read_frame(&mut r, MAGIC, 1 << 20),
            Err(FrameError::Snap(SnapError::BadMagic))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut frame = seal(MAGIC, 1, b"x");
        // Forge an absurd length into the header.
        frame[MAGIC_LEN + 4..MAGIC_LEN + 12].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut r, MAGIC, 1 << 20),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn corrupted_body_fails_the_checksum_at_open() {
        let mut a = seal(MAGIC, 1, b"payload under test");
        let mid = FRAME_HEADER + 3;
        a[mid] ^= 0xFF;
        let mut r = Cursor::new(a);
        let f = read_frame(&mut r, MAGIC, 1 << 20)
            .unwrap()
            .expect("frame reads");
        assert!(matches!(
            open(MAGIC, 1, &f),
            Err(SnapError::Checksum { .. })
        ));
    }
}
