//! Primitive wire codec: little-endian scalars, length-prefixed byte
//! strings, and the frame header shared by every message.
//!
//! The full frame and payload layouts are specified in
//! [`docs/PROTOCOL.md`](https://example.invalid/fastbn) (repository file
//! `docs/PROTOCOL.md`); this module implements exactly that spec. All
//! multi-byte integers are **little-endian**; `f64` travels as the raw
//! IEEE-754 bit pattern (`to_bits`/`from_bits`), which is what makes the
//! "byte-identical over the wire" guarantee literal.

use std::io::{self, Read, Write};

/// Protocol version carried in every frame header. Version 5 retired
/// `mode` tag 4 (the work-stealing scheduler), so the default strategy's
/// canonical bytes now carry `mode` 3. Version 4 added the
/// SIMD kernel-tier fields in `StatsReply` (`simd_kernel` plus the
/// per-tier fill counters). Version 3 added upload-once dataset
/// handles: the `DatasetPut` frame pair, the dataset-reference tag in
/// `Learn`/`Fit` payloads, the `UnknownDataset` error code, and the
/// cache-accounting fields in `StatsReply` (see `docs/PROTOCOL.md` §1
/// for the compatibility rules). Version 2 added the `Metrics` frame
/// pair and the observability fields in `StatsReply`, `HealthReply`,
/// and the search-stats section.
pub const PROTOCOL_VERSION: u8 = 5;

/// Upper bound on a frame's byte length (header + payload). Frames
/// announcing more are rejected before any allocation — a malformed or
/// hostile peer cannot make the daemon reserve gigabytes.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// Bytes of frame header that follow the 4-byte length prefix
/// (version:1, kind:1, request id:4).
pub const HEADER_AFTER_LEN: usize = 6;

/// Decoding failure: the bytes did not match the spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before the announced structure was complete.
    Truncated,
    /// A tag/enum byte had no defined meaning.
    BadTag(u8),
    /// A length or count field exceeded its documented bound.
    OutOfBounds(&'static str),
    /// The frame header announced an unsupported protocol version.
    BadVersion(u8),
    /// The frame length field exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            WireError::OutOfBounds(what) => write!(f, "field out of bounds: {what}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::FrameTooLarge(n) => write!(f, "frame length {n} exceeds maximum"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only payload encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a `u16` (LE).
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32` (LE).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64` (LE).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` as its raw IEEE-754 bits (LE).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Append raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a UTF-8 string with a `u32` length prefix.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Cursor-style payload decoder over a borrowed byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte was consumed — catches trailing garbage
    /// that a sloppy (or version-skewed) encoder appended.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::OutOfBounds("trailing bytes"))
        }
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16` (LE).
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32` (LE).
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64` (LE).
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its raw IEEE-754 bits (LE).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::OutOfBounds("invalid utf-8"))
    }
}

/// One decoded frame: its kind byte, correlation id, and payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The frame-kind byte (see `protocol::kind`).
    pub kind: u8,
    /// The request id this frame belongs to (client-assigned; responses
    /// and events echo it back).
    pub request_id: u32,
    /// The kind-specific payload.
    pub payload: Vec<u8>,
}

/// Encode a complete frame: `len:u32 | version:u8 | kind:u8 |
/// request_id:u32 | payload`, with `len` counting everything after
/// itself.
pub fn encode_frame(kind: u8, request_id: u32, payload: &[u8]) -> Vec<u8> {
    let len = (HEADER_AFTER_LEN + payload.len()) as u32;
    let mut out = Vec::with_capacity(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write a complete frame to `w` (one `write_all`; the frame bytes are
/// contiguous so a concurrent reader never sees a torn header).
pub fn write_frame(
    w: &mut impl Write,
    kind: u8,
    request_id: u32,
    payload: &[u8],
) -> io::Result<()> {
    w.write_all(&encode_frame(kind, request_id, payload))
}

/// Blocking frame read: exactly one frame or an error. EOF before the
/// first byte yields `Ok(None)`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::FrameTooLarge(len),
        ));
    }
    if (len as usize) < HEADER_AFTER_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Truncated,
        ));
    }
    let mut rest = vec![0u8; len as usize];
    r.read_exact(&mut rest)?;
    frame_from_rest(rest).map(Some).map_err(io::Error::other)
}

fn frame_from_rest(rest: Vec<u8>) -> Result<Frame, WireError> {
    let version = rest[0];
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = rest[1];
    let request_id = u32::from_le_bytes(rest[2..6].try_into().unwrap());
    Ok(Frame {
        kind,
        request_id,
        payload: rest[HEADER_AFTER_LEN..].to_vec(),
    })
}

/// Incremental frame decoder for non-blocking sockets: feed it whatever
/// bytes arrived, pop complete frames as they materialize.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        if (len as usize) < HEADER_AFTER_LEN {
            return Err(WireError::Truncated);
        }
        if self.buf.len() < 4 + len as usize {
            return Ok(None);
        }
        let rest: Vec<u8> = self.buf[4..4 + len as usize].to_vec();
        self.buf.drain(..4 + len as usize);
        frame_from_rest(rest).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7)
            .u16(513)
            .u32(70_000)
            .u64(1 << 40)
            .f64(-0.25)
            .str("héllo")
            .bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 513);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.25f64).to_bits());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Enc::new();
        e.u32(5);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64(), Err(WireError::Truncated));
        let mut d = Dec::new(&bytes);
        // Length prefix says 5 bytes follow, but none do.
        assert_eq!(d.bytes(), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut e = Enc::new();
        e.u8(1).u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u8().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn frames_round_trip_blocking_and_incremental() {
        let frame = encode_frame(0x41, 9, &[0xAA, 0xBB]);
        let mut cursor = std::io::Cursor::new(frame.clone());
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got.kind, 0x41);
        assert_eq!(got.request_id, 9);
        assert_eq!(got.payload, vec![0xAA, 0xBB]);

        // Incremental: feed byte by byte; the frame appears exactly once.
        let mut dec = FrameDecoder::new();
        let mut seen = Vec::new();
        for b in &frame {
            dec.feed(&[*b]);
            if let Some(f) = dec.next_frame().unwrap() {
                seen.push(f);
            }
        }
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].payload, vec![0xAA, 0xBB]);
    }

    #[test]
    fn eof_before_frame_is_none() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(bytes.clone());
        assert!(read_frame(&mut cursor).is_err());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = encode_frame(0x01, 1, &[]);
        frame[4] = 99; // version byte
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert_eq!(dec.next_frame(), Err(WireError::BadVersion(99)));
    }
}
