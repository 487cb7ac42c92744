//! The one byte codec behind every binary format in the workspace:
//! reduction objects (`FRRO`), checkpoints (`FRCK`), cluster and serve
//! messages (`FRDM`, `FRSV`), traces (`FRTR`), metrics (`FRMT`), sparse
//! sidecars (`FRSP`) and datasets (`FRDS`). DESIGN.md "Binary formats"
//! tabulates them.
//!
//! Everything is little-endian. Decoding is total: a [`Cursor`] over
//! untrusted bytes returns a value or a typed [`DecodeError`], never
//! panics, and checks every declared length or count against the bytes
//! still unread *before* allocating, so a decode allocates at most a
//! constant plus a multiple of its input length. Each format keeps its
//! own error enum and converts from [`DecodeError`] once.

use std::fmt;
use std::io::{self, Read};

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends before `what`: decoding it needed the input to
    /// reach byte `need`, and it has `have`.
    Truncated {
        /// The field being read.
        what: &'static str,
        /// Input length the field needed.
        need: u64,
        /// Actual input length.
        have: u64,
    },
    /// A declared length or count is over its format's limit.
    TooLarge {
        /// The field being read.
        what: &'static str,
        /// The declared value.
        value: u64,
        /// The format's limit.
        max: u64,
    },
    /// The input does not start with the format's magic.
    BadMagic {
        /// The magic this format requires.
        expected: &'static [u8; 4],
    },
    /// The input declares a version this build does not read.
    BadVersion {
        /// Which format or codec the version belongs to.
        what: &'static str,
        /// The declared version.
        found: u64,
        /// The only version this build reads.
        expected: u64,
    },
    /// A string field is not UTF-8.
    NotUtf8 {
        /// The field being read.
        what: &'static str,
    },
    /// Bytes are left over after the last field.
    Trailing {
        /// How many.
        extra: usize,
    },
    /// A trailing [`fnv1a64`] checksum does not match the bytes it
    /// covers.
    Checksum {
        /// Checksum stored in the input.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            DecodeError::TooLarge { what, value, max } => {
                write!(f, "{what} {value} exceeds limit {max}")
            }
            DecodeError::BadMagic { expected } => {
                write!(
                    f,
                    "bad magic (expected {})",
                    String::from_utf8_lossy(*expected)
                )
            }
            DecodeError::BadVersion {
                what,
                found,
                expected,
            } => write!(
                f,
                "unsupported {what} version {found} (expected {expected})"
            ),
            DecodeError::NotUtf8 { what } => write!(f, "{what} is not UTF-8"),
            DecodeError::Trailing { extra } => write!(f, "{extra} trailing bytes"),
            DecodeError::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Fail unless a declared version is the one this build reads.
pub fn expect_version(what: &'static str, found: u64, expected: u64) -> Result<(), DecodeError> {
    if found == expected {
        Ok(())
    } else {
        Err(DecodeError::BadVersion {
            what,
            found,
            expected,
        })
    }
}

/// A bounds-checked little-endian reader over untrusted bytes. Every
/// read names its field (`what`) for the error it may return.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, what: &'static str, need: u64) -> DecodeError {
        DecodeError::Truncated {
            what,
            need,
            have: self.buf.len() as u64,
        }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            Some(end) => Err(self.truncated(what, end as u64)),
            None => Err(self.truncated(what, u64::MAX)),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// A `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// An `i64`.
    #[inline]
    pub fn i64(&mut self, what: &'static str) -> Result<i64, DecodeError> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// An `f64`.
    #[inline]
    pub fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// Fail unless the next four bytes are `magic`.
    pub fn magic(&mut self, magic: &'static [u8; 4]) -> Result<(), DecodeError> {
        if self.take(4, "magic")? == magic {
            Ok(())
        } else {
            Err(DecodeError::BadMagic { expected: magic })
        }
    }

    /// Check that `count` items of `item_bytes` each fit in the bytes
    /// not yet read, and return the count as a `usize`. Call it before
    /// allocating for `count` items.
    pub fn fits(
        &self,
        count: u64,
        item_bytes: u64,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let need = count
            .checked_mul(item_bytes.max(1))
            .and_then(|b| b.checked_add(self.pos as u64))
            .ok_or(DecodeError::TooLarge {
                what,
                value: count,
                max: u64::MAX / item_bytes.max(1),
            })?;
        if need > self.buf.len() as u64 {
            return Err(self.truncated(what, need));
        }
        Ok(count as usize)
    }

    /// A `u32` count of items at most `max`, each at least `item_bytes`
    /// long, checked against the bytes not yet read.
    pub fn count(
        &mut self,
        max: u32,
        item_bytes: u64,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let n = self.u32(what)?;
        if n > max {
            return Err(DecodeError::TooLarge {
                what,
                value: n.into(),
                max: max.into(),
            });
        }
        self.fits(n.into(), item_bytes, what)
    }

    /// A `u32`-length-prefixed byte blob of at most `max` bytes.
    pub fn bytes(&mut self, max: u32, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.count(max, 1, what)?;
        self.take(n, what)
    }

    /// A `u32`-length-prefixed UTF-8 string of at most `max` bytes.
    pub fn str(&mut self, max: u32, what: &'static str) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes(max, what)?).map_err(|_| DecodeError::NotUtf8 { what })
    }

    #[inline]
    fn words<T>(
        &mut self,
        n: usize,
        what: &'static str,
        f: fn([u8; 8]) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.fits(n as u64, 8, what)?;
        let bytes = self.take(n * 8, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                f(w)
            })
            .collect())
    }

    /// `n` consecutive `f64`s (no count prefix), read in bulk.
    #[inline]
    pub fn f64_array(&mut self, n: usize, what: &'static str) -> Result<Vec<f64>, DecodeError> {
        self.words(n, what, f64::from_le_bytes)
    }

    /// `n` consecutive `u64`s (no count prefix).
    pub fn u64_array(&mut self, n: usize, what: &'static str) -> Result<Vec<u64>, DecodeError> {
        self.words(n, what, u64::from_le_bytes)
    }

    /// A `u32` count (at most `max`) followed by that many `f64`s — the
    /// inverse of [`put_f64s`].
    pub fn f64s(&mut self, max: u32, what: &'static str) -> Result<Vec<f64>, DecodeError> {
        let n = self.count(max, 8, what)?;
        self.f64_array(n, what)
    }

    /// A `u32` count (at most `max`) followed by that many `i64`s — the
    /// inverse of [`put_i64s`].
    pub fn i64s(&mut self, max: u32, what: &'static str) -> Result<Vec<i64>, DecodeError> {
        let n = self.count(max, 8, what)?;
        self.words(n, what, i64::from_le_bytes)
    }

    /// Verify the trailing [`fnv1a64`] checksum that [`seal`] appended
    /// and return a cursor over the bytes it covers, positioned where
    /// this one stands.
    pub fn unseal(self) -> Result<Cursor<'a>, DecodeError> {
        let Some(body_end) = self.buf.len().checked_sub(8).filter(|&e| e >= self.pos) else {
            return Err(self.truncated("checksum trailer", self.pos as u64 + 8));
        };
        let (body, trailer) = self.buf.split_at(body_end);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(trailer);
        let stored = u64::from_le_bytes(stored);
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(DecodeError::Checksum { stored, computed });
        }
        Ok(Cursor {
            buf: body,
            pos: self.pos,
        })
    }

    /// Fail if any byte is left unread.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(DecodeError::Trailing { extra }),
        }
    }
}

/// Append a `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length and the string's bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a `u32` length and the bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a `u32` count and the `i64`s.
pub fn put_i64s(out: &mut Vec<u8>, xs: &[i64]) {
    put_u32(out, xs.len() as u32);
    for &x in xs {
        put_i64(out, x);
    }
}

/// Append a `u32` count and the `f64`s.
pub fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_u32(out, xs.len() as u32);
    put_f64_array(out, xs);
}

/// Append the `f64`s with no count prefix.
pub fn put_f64_array(out: &mut Vec<u8>, xs: &[f64]) {
    out.reserve(xs.len() * 8);
    for &x in xs {
        put_f64(out, x);
    }
}

/// Append the [`fnv1a64`] of everything in `out` so far, as a `u64`;
/// [`Cursor::unseal`] checks it.
pub fn seal(out: &mut Vec<u8>) {
    let sum = fnv1a64(out);
    put_u64(out, sum);
}

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV1A64_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a, 64-bit: the workspace's one content hash (frame and
/// reduction-object checksums, program- and kernel-cache keys, metric
/// shards).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// Continue an FNV-1a hash at state `h` over `bytes`.
#[inline]
pub fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Length of a stream frame header.
pub const FRAME_HEADER_LEN: usize = 10;

/// Capacity a frame's payload buffer starts at, however long the header
/// says the payload is: the buffer grows only as bytes arrive, so a
/// header alone cannot make the reader allocate `max_len`.
const FRAME_INITIAL_CAPACITY: usize = 64 << 10;

/// The stream framing of the cluster (`FRDM`) and serve (`FRSV`)
/// protocols:
///
/// ```text
/// magic   4 bytes
/// version u8      (mismatch is a typed error)
/// type    u8      (message discriminant)
/// len     u32 LE  (payload length, at most max_len)
/// payload len bytes
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Framing {
    /// Frame magic.
    pub magic: &'static [u8; 4],
    /// The only protocol version read or written.
    pub version: u8,
    /// Upper bound on a payload.
    pub max_len: u32,
}

impl Framing {
    /// One frame of message type `type_byte` whose payload `payload`
    /// appends.
    pub fn encode(&self, type_byte: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(self.magic);
        out.push(self.version);
        out.push(type_byte);
        put_u32(&mut out, 0);
        payload(&mut out);
        let len = (out.len() - FRAME_HEADER_LEN) as u32;
        out[6..FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Read one frame: its type byte and payload. Header damage is a
    /// [`DecodeError`]; a socket error or a stream ending mid-frame is
    /// the reader's `io::Error` (`UnexpectedEof` for a short read).
    pub fn read<E>(&self, r: &mut impl Read) -> Result<(u8, Vec<u8>), E>
    where
        E: From<io::Error> + From<DecodeError>,
    {
        let mut header = [0u8; FRAME_HEADER_LEN];
        r.read_exact(&mut header)?;
        let mut h = Cursor::new(&header);
        h.magic(self.magic)?;
        expect_version("wire", h.u8("version")?.into(), self.version.into())?;
        let type_byte = h.u8("type")?;
        let len = h.u32("frame length")?;
        if len > self.max_len {
            return Err(DecodeError::TooLarge {
                what: "frame length",
                value: len.into(),
                max: self.max_len.into(),
            }
            .into());
        }
        let len = len as usize;
        let mut payload = Vec::with_capacity(len.min(FRAME_INITIAL_CAPACITY));
        r.take(len as u64).read_to_end(&mut payload)?;
        if payload.len() < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "failed to fill whole buffer",
            )
            .into());
        }
        Ok((type_byte, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), FNV1A64_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"ab"), fnv1a64_extend(fnv1a64(b"a"), b"b"));
    }

    #[test]
    fn reads_what_the_writers_wrote() {
        let mut out = Vec::new();
        out.extend_from_slice(b"TEST");
        put_u16(&mut out, 7);
        out.push(9);
        put_u64(&mut out, u64::MAX);
        put_str(&mut out, "héllo");
        put_i64s(&mut out, &[-1, 2]);
        put_f64s(&mut out, &[0.5, -8.0]);
        put_f64_array(&mut out, &[1.5]);
        seal(&mut out);
        let mut r = Cursor::new(&out);
        r.magic(b"TEST").unwrap();
        assert_eq!(r.u16("v").unwrap(), 7);
        let mut r = r.unseal().unwrap();
        assert_eq!(r.u8("b").unwrap(), 9);
        assert_eq!(r.u64("u").unwrap(), u64::MAX);
        assert_eq!(r.str(16, "s").unwrap(), "héllo");
        assert_eq!(r.i64s(4, "i").unwrap(), vec![-1, 2]);
        assert_eq!(r.f64s(4, "f").unwrap(), vec![0.5, -8.0]);
        assert_eq!(r.f64_array(1, "a").unwrap(), vec![1.5]);
        r.finish().unwrap();
    }

    #[test]
    fn damage_is_typed() {
        let mut r = Cursor::new(b"FR");
        assert!(matches!(
            r.magic(b"FRXX"),
            Err(DecodeError::Truncated {
                need: 4,
                have: 2,
                ..
            })
        ));
        assert!(matches!(
            Cursor::new(b"NOPE").magic(b"FRXX"),
            Err(DecodeError::BadMagic { .. })
        ));
        let e = expect_version("wire", 6, 7).unwrap_err();
        assert_eq!(e.to_string(), "unsupported wire version 6 (expected 7)");
        // A count over its limit, and one the input cannot hold.
        let big = u32::MAX.to_le_bytes();
        assert!(matches!(
            Cursor::new(&big).count(10, 1, "n"),
            Err(DecodeError::TooLarge { .. })
        ));
        assert!(matches!(
            Cursor::new(&big).f64s(u32::MAX, "n"),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            Cursor::new(&big).fits(u64::MAX, 8, "n"),
            Err(DecodeError::TooLarge { .. })
        ));
        let mut sealed = b"body".to_vec();
        seal(&mut sealed);
        sealed[0] ^= 1;
        assert!(matches!(
            Cursor::new(&sealed).unseal(),
            Err(DecodeError::Checksum { .. })
        ));
        assert!(matches!(
            Cursor::new(b"short").unseal(),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            Cursor::new(b"x").finish(),
            Err(DecodeError::Trailing { extra: 1 })
        ));
        let bad_utf8 = [1, 0, 0, 0, 0xff];
        assert!(matches!(
            Cursor::new(&bad_utf8).str(4, "s"),
            Err(DecodeError::NotUtf8 { .. })
        ));
    }

    #[derive(Debug)]
    enum TestError {
        Io(io::Error),
        Decode(DecodeError),
    }

    impl From<io::Error> for TestError {
        fn from(e: io::Error) -> TestError {
            TestError::Io(e)
        }
    }

    impl From<DecodeError> for TestError {
        fn from(e: DecodeError) -> TestError {
            TestError::Decode(e)
        }
    }

    const FRAMING: Framing = Framing {
        magic: b"TEST",
        version: 3,
        max_len: 1 << 20,
    };

    #[test]
    fn frames_round_trip_and_reject_damage() {
        let frame = FRAMING.encode(5, |out| put_str(out, "payload"));
        assert_eq!(&frame[..6], b"TEST\x03\x05");
        let (t, payload) = FRAMING.read::<TestError>(&mut &frame[..]).unwrap();
        assert_eq!((t, &payload[4..]), (5, &b"payload"[..]));
        // A short payload is the reader's UnexpectedEof, as read_exact's.
        let short = FRAMING.read::<TestError>(&mut &frame[..frame.len() - 1]);
        assert!(matches!(short, Err(TestError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof));
        let mut skewed = frame.clone();
        skewed[4] = 2;
        assert!(matches!(
            FRAMING.read::<TestError>(&mut &skewed[..]),
            Err(TestError::Decode(DecodeError::BadVersion { found: 2, .. }))
        ));
        let mut huge = frame;
        huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            FRAMING.read::<TestError>(&mut &huge[..]),
            Err(TestError::Decode(DecodeError::TooLarge { .. }))
        ));
    }
}
