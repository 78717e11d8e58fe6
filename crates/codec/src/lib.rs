//! Shared binary codec for every persistent incsim artifact.
//!
//! Three on-disk formats grew up independently in this workspace — the
//! `INCSIM01` engine snapshot, the `INCSWAL1` write-ahead log, and the
//! serialized epoch-ring records that ride inside v2 checkpoints. They
//! all need the same four things, collected here so each format layers
//! its schema on one audited substrate instead of re-rolling it:
//!
//! * **Integrity framing** — `[len u32 LE][crc32 u32 LE][payload]`
//!   frames ([`put_frame_with`], [`frame_at`], [`frame_offsets`]) with an
//!   IEEE [`crc32`] so torn tails and bit flips are detected, never
//!   silently replayed.
//! * **Little-endian primitives** — fixed-width writers
//!   ([`put_u32`]/[`put_u64`]/[`put_f64`]) and the matching
//!   [`Cursor`] reader for in-memory payloads.
//! * **Varints** — LEB128 ([`put_uvarint`]/[`Cursor::uvarint`]) for
//!   counts and sparse indices where fixed width would dominate the
//!   record (epoch-ring factor pairs are mostly small integers).
//! * **Versioned record envelopes** — `[version u8][body…]`
//!   ([`put_record`], [`record`]) so formats can evolve while old
//!   bytes stay readable.
//!
//! Payload decoding is `Option`-based: a `None` from [`Cursor`] means
//! "these bytes do not parse", and the caller owns the policy (truncate
//! a torn tail, quarantine a record, surface a typed error). Streaming
//! decoding ([`CountingReader`]) is `Result`-based and tracks the byte
//! offset so failures can be pinned for forensics.
//!
//! The crate is dependency-free and does no I/O of its own beyond the
//! `std::io` traits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Read, Write};

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB8_8320)
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `bytes` (the zlib/PNG variant; check value for
/// `b"123456789"` is `0xCBF4_3926`).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC_TABLE[idx];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian writers
// ---------------------------------------------------------------------------

/// Appends a single byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends `v` as 4 little-endian bytes.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes (IEEE-754 bit pattern, so the
/// round trip is bit-exact — NaN payloads and signed zeros included).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Maximum encoded length of a LEB128 `u64` (ceil(64 / 7) groups).
pub const MAX_UVARINT_LEN: usize = 10;

/// Appends `v` as an unsigned LEB128 varint (1–10 bytes; values below
/// 128 take a single byte).
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

// ---------------------------------------------------------------------------
// Streaming little-endian writers (std::io)
// ---------------------------------------------------------------------------

/// Writes `v` as 4 little-endian bytes.
///
/// # Errors
/// Propagates writer errors.
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes `v` as 8 little-endian bytes.
///
/// # Errors
/// Propagates writer errors.
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes `v` as 8 little-endian bytes (bit-exact IEEE-754).
///
/// # Errors
/// Propagates writer errors.
pub fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

// ---------------------------------------------------------------------------
// Cursor: Option-based reader over an in-memory payload
// ---------------------------------------------------------------------------

/// A bounds-checked reader over a byte slice.
///
/// Every accessor returns `None` once the slice is exhausted (or a
/// varint is malformed) instead of panicking; [`Cursor::pos`] reports
/// how far decoding got, for error offsets.
#[derive(Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Byte offset of the next read.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed — decoders use this to
    /// reject trailing garbage.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Consumes exactly `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let b = self.take(1)?;
        Some(b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    /// Reads a little-endian `f64` (bit-exact IEEE-754).
    pub fn f64(&mut self) -> Option<f64> {
        let b = self.take(8)?;
        Some(f64::from_le_bytes(b.try_into().ok()?))
    }

    /// Reads an unsigned LEB128 varint. Rejects encodings longer than
    /// [`MAX_UVARINT_LEN`] bytes and ones that overflow 64 bits, so a
    /// corrupt length can never decode to a plausible value.
    pub fn uvarint(&mut self) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return None; // overflows u64
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
            shift += 7;
            if shift > 63 {
                return None; // longer than 10 bytes
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Record envelopes
// ---------------------------------------------------------------------------

/// Appends a versioned record envelope: `[version u8][body…]`.
///
/// The envelope is how a format revs in place: readers inspect the
/// version byte first and route to the matching body decoder (or
/// degrade gracefully for versions from the future).
pub fn put_record(out: &mut Vec<u8>, version: u8, body: &[u8]) {
    out.push(version);
    out.extend_from_slice(body);
}

/// Splits a record envelope into `(version, body)`. `None` on empty
/// input.
#[must_use]
pub fn record(bytes: &[u8]) -> Option<(u8, &[u8])> {
    let (&version, body) = bytes.split_first()?;
    Some((version, body))
}

// ---------------------------------------------------------------------------
// Length/CRC framing
// ---------------------------------------------------------------------------

/// Bytes of frame overhead: `[len u32 LE][crc32 u32 LE]`.
pub const FRAME_HEADER: usize = 8;

/// Appends one `[len][crc][payload]` frame whose payload `write`
/// encodes straight into `out`: the header is reserved first and
/// back-patched with the payload's length and CRC, so a large payload is
/// never staged in a buffer of its own.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] when the payload does not fit the
/// `u32` length field; `out` is then left as it was.
pub fn put_frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    write(out);
    let payload = &out[start + FRAME_HEADER..];
    let Ok(len) = u32::try_from(payload.len()) else {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds the u32 length field",
        ));
    };
    let crc = crc32(payload);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Reads a little-endian `u32` at `offset`, or `None` past the end.
#[must_use]
pub fn le_u32_at(bytes: &[u8], offset: usize) -> Option<u32> {
    let end = offset.checked_add(4)?;
    let slice = bytes.get(offset..end)?;
    Some(u32::from_le_bytes(slice.try_into().ok()?))
}

/// Decodes the frame starting at `offset`: returns `(payload,
/// next_offset)` when the frame is complete and its CRC matches,
/// `None` for a torn or corrupt frame.
#[must_use]
pub fn frame_at(bytes: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let len = le_u32_at(bytes, offset)? as usize;
    let stored_crc = le_u32_at(bytes, offset + 4)?;
    let start = offset.checked_add(FRAME_HEADER)?;
    let end = start.checked_add(len)?;
    let payload = bytes.get(start..end)?;
    if crc32(payload) != stored_crc {
        return None;
    }
    Some((payload, end))
}

/// Offsets of every intact frame in `bytes` starting at `start`
/// (typically just past a file magic). The final element is the byte
/// offset one past the last intact frame — the "valid length" a
/// recovery pass truncates a torn log to.
#[must_use]
pub fn frame_offsets(bytes: &[u8], start: usize) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = start;
    while let Some((_, next)) = frame_at(bytes, pos) {
        offsets.push(pos);
        pos = next;
    }
    offsets.push(pos);
    offsets
}

// ---------------------------------------------------------------------------
// CountingReader: streaming decode with offset tracking
// ---------------------------------------------------------------------------

/// Errors from streaming decode via [`CountingReader`].
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed (anything but clean truncation).
    Io(io::Error),
    /// The stream ended mid-structure. `offset` is the byte position
    /// the failed read started at.
    Truncated {
        /// Byte position of the read that hit end-of-stream.
        offset: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Truncated { offset } => {
                write!(f, "stream truncated at byte {offset}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// A reader that tracks its byte offset so every decode failure can be
/// pinned to the position it happened at. Truncation is reported as
/// [`StreamError::Truncated`], not `Io`: a short stream is a structural
/// defect of the artifact, not a transport failure of the reader.
pub struct CountingReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> CountingReader<R> {
    /// Wraps `inner` with the offset at zero.
    pub fn new(inner: R) -> Self {
        CountingReader { inner, offset: 0 }
    }

    /// Byte offset of the next read (advances only on success, so on
    /// error it pins where the failed read began).
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Fills `buf` exactly.
    ///
    /// # Errors
    /// [`StreamError::Truncated`] at the current offset when the stream
    /// ends early; [`StreamError::Io`] for other reader failures.
    pub fn fill(&mut self, buf: &mut [u8]) -> Result<(), StreamError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(StreamError::Truncated {
                offset: self.offset,
            }),
            Err(e) => Err(StreamError::Io(e)),
        }
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// As [`CountingReader::fill`].
    pub fn read_u64(&mut self) -> Result<u64, StreamError> {
        let mut buf = [0u8; 8];
        self.fill(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a little-endian `f64` (bit-exact IEEE-754).
    ///
    /// # Errors
    /// As [`CountingReader::fill`].
    pub fn read_f64(&mut self) -> Result<f64, StreamError> {
        let mut buf = [0u8; 8];
        self.fill(&mut buf)?;
        Ok(f64::from_le_bytes(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8(), Some(0xAB));
        assert_eq!(c.u32(), Some(0xDEAD_BEEF));
        assert_eq!(c.u64(), Some(u64::MAX - 7));
        assert_eq!(c.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(c.f64().map(f64::to_bits), Some(0x7FF8_0000_0000_1234));
        assert!(c.at_end());
        assert_eq!(c.u8(), None);
    }

    #[test]
    fn uvarint_round_trips_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert!(buf.len() <= MAX_UVARINT_LEN);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.uvarint(), Some(v), "value {v}");
            assert!(c.at_end());
        }
    }

    #[test]
    fn uvarint_rejects_overflow_and_overlength() {
        // 11 continuation groups: longer than any valid u64 encoding.
        let over_length = [0x80u8; 10];
        let mut long = over_length.to_vec();
        long.push(0x01);
        assert_eq!(Cursor::new(&long).uvarint(), None);
        // 10 bytes but the top group carries bits past 2^64.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert_eq!(Cursor::new(&overflow).uvarint(), None);
        // Truncated mid-varint.
        assert_eq!(Cursor::new(&[0x80u8]).uvarint(), None);
    }

    #[test]
    fn record_envelope_round_trips() {
        let mut buf = Vec::new();
        put_record(&mut buf, 2, b"body");
        assert_eq!(record(&buf), Some((2u8, &b"body"[..])));
        assert_eq!(record(&[]), None);
    }

    #[test]
    fn frames_walk_and_stop_at_corruption() {
        let mut buf = Vec::new();
        for payload in [&b"alpha"[..], b"", b"beta"] {
            put_frame_with(&mut buf, |p| p.extend_from_slice(payload)).unwrap();
        }
        let offs = frame_offsets(&buf, 0);
        assert_eq!(offs.len(), 4);
        assert_eq!(*offs.last().unwrap(), buf.len());
        let (p0, _) = frame_at(&buf, offs[0]).unwrap();
        assert_eq!(p0, b"alpha");
        let (p1, _) = frame_at(&buf, offs[1]).unwrap();
        assert_eq!(p1, b"");

        // Flip a payload bit in the middle frame: walking stops there.
        let mut bad = buf.clone();
        bad[offs[2] + FRAME_HEADER] ^= 0x10;
        let offs2 = frame_offsets(&bad, 0);
        assert_eq!(offs2.len(), 3);
        assert_eq!(*offs2.last().unwrap(), offs[2]);

        // A torn tail (frame header promises more bytes than exist).
        let torn = &buf[..buf.len() - 2];
        let offs3 = frame_offsets(torn, 0);
        assert_eq!(*offs3.last().unwrap(), offs[2]);
    }

    #[test]
    fn counting_reader_pins_truncation_offset() {
        let bytes = 42u64.to_le_bytes();
        let mut r = CountingReader::new(&bytes[..]);
        assert_eq!(r.read_u64().unwrap(), 42);
        assert_eq!(r.offset(), 8);
        match r.read_u64() {
            Err(StreamError::Truncated { offset: 8 }) => {}
            other => panic!("expected truncation at 8, got {other:?}"),
        }
        // Offset does not advance on failure.
        assert_eq!(r.offset(), 8);
    }

    #[test]
    fn counting_reader_reads_f64_bits() {
        let mut buf = Vec::new();
        write_f64(&mut buf, 1.5).unwrap();
        write_u64(&mut buf, 7).unwrap();
        write_u32(&mut buf, 9).unwrap();
        let mut r = CountingReader::new(&buf[..]);
        assert_eq!(r.read_f64().unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(r.read_u64().unwrap(), 7);
        assert_eq!(r.offset(), 16);
    }
}
