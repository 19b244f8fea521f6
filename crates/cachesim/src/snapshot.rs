//! Versioned, checksummed snapshot serialization for deterministic
//! checkpoint/resume (DESIGN.md §11).
//!
//! A snapshot is a flat byte buffer: a fixed header (magic, format
//! version, payload length), the payload, and a trailing FNV-1a
//! integrity checksum over the payload. Inside the payload every
//! component writes one *section* — a name tag plus a length-prefixed
//! body — so a reader can verify it is decoding the component it
//! expects and that the component consumed exactly the bytes it wrote.
//! All integers are little-endian; floats are stored as their IEEE-754
//! bit patterns, so restore is bit-exact.
//!
//! Corrupted input (truncation, bit flips, version skew, component
//! mismatch) always surfaces as a descriptive [`SnapshotError`]; the
//! reader never panics and never silently misloads
//! (`tests/snapshot_corruption.rs`).

use std::fmt;

/// Current snapshot format version. Bump on any layout change.
///
/// Version 2 stores every rank pool canonically, as its sorted
/// `(key, addr)` pairs, instead of a treap arena. Version 3 drops the
/// recorder's spilled-row counter.
pub const FORMAT_VERSION: u32 = 3;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 4] = *b"FSSN";

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the expected data (truncated file).
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// The leading magic bytes are wrong — not a snapshot file.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The payload checksum does not match (bit rot / partial write).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The snapshot is structurally valid but describes a different
    /// configuration than the engine it is being restored into.
    Mismatch {
        /// Human-readable description of the disagreement.
        context: String,
    },
    /// A decoded value is out of range or internally inconsistent.
    Corrupt {
        /// Human-readable description of the bad value.
        context: String,
    },
}

impl SnapshotError {
    /// A [`SnapshotError::Truncated`] with context.
    pub fn truncated(context: impl Into<String>) -> Self {
        SnapshotError::Truncated {
            context: context.into(),
        }
    }

    /// A [`SnapshotError::Mismatch`] with context.
    pub fn mismatch(context: impl Into<String>) -> Self {
        SnapshotError::Mismatch {
            context: context.into(),
        }
    }

    /// A [`SnapshotError::Corrupt`] with context.
    pub fn corrupt(context: impl Into<String>) -> Self {
        SnapshotError::Corrupt {
            context: context.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Mismatch { context } => {
                write!(f, "snapshot does not match this engine: {context}")
            }
            SnapshotError::Corrupt { context } => write!(f, "snapshot corrupt: {context}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over a byte slice (same family as
/// [`prng::seed_for`](crate::prng::seed_for)'s name hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Builds a snapshot buffer: primitives, strings and named
/// length-prefixed sections. [`finish`](SnapshotWriter::finish) seals
/// the buffer with the header and checksum.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// Offsets of the length placeholders of currently open sections.
    open: Vec<usize>,
}

impl SnapshotWriter {
    /// Start an empty snapshot.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize (stored as u64).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an f64 as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a bool (one byte).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed opaque byte blob — e.g. a complete
    /// nested snapshot stream embedded in a larger container file.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Open a named section: the name tag plus a length placeholder
    /// patched by the matching [`end`](SnapshotWriter::end).
    pub fn begin(&mut self, name: &str) {
        self.str(name);
        self.open.push(self.buf.len());
        self.u64(0); // placeholder body length
    }

    /// Close the innermost open section.
    ///
    /// # Panics
    /// Panics if no section is open (writer bug, not input-dependent).
    pub fn end(&mut self) {
        let at = self.open.pop().expect("SnapshotWriter::end without begin");
        let body = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&body.to_le_bytes());
    }

    /// Seal the snapshot: header, payload, trailing checksum.
    ///
    /// # Panics
    /// Panics if a section is still open (writer bug).
    pub fn finish(self) -> Vec<u8> {
        assert!(self.open.is_empty(), "unclosed snapshot section");
        let mut out = Vec::with_capacity(self.buf.len() + 24);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.buf);
        out.extend_from_slice(&fnv1a(&self.buf).to_le_bytes());
        out
    }
}

/// Decodes a snapshot produced by [`SnapshotWriter`]. Construction
/// ([`open`](SnapshotReader::open)) validates the header and checksum;
/// every read returns a descriptive error instead of panicking on bad
/// input.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
    /// End offsets of currently open sections.
    ends: Vec<usize>,
}

impl<'a> SnapshotReader<'a> {
    /// Validate header + checksum and position the reader at the start
    /// of the payload.
    ///
    /// # Errors
    /// [`SnapshotError`] on truncation, bad magic, version skew or a
    /// checksum mismatch.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 16 {
            return Err(SnapshotError::truncated("header"));
        }
        if bytes[0..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let Some(total) = len.checked_add(24) else {
            return Err(SnapshotError::corrupt("payload length overflows"));
        };
        if bytes.len() < total {
            return Err(SnapshotError::truncated("payload"));
        }
        let payload = &bytes[16..16 + len];
        let stored = u64::from_le_bytes(bytes[16 + len..24 + len].try_into().expect("8 bytes"));
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok(SnapshotReader {
            payload,
            pos: 0,
            ends: Vec::new(),
        })
    }

    fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.payload.len())
            .ok_or_else(|| SnapshotError::truncated(context))?;
        if let Some(&section_end) = self.ends.last() {
            if end > section_end {
                return Err(SnapshotError::corrupt(format!(
                    "{context} reads past its section boundary"
                )));
            }
        }
        let bytes = &self.payload[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2, "u16")?.try_into().expect("2 bytes"),
        ))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.u64()? as i64)
    }

    /// Read a usize (stored as u64).
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] if the value does not fit a usize.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::corrupt("usize value out of range"))
    }

    /// Read an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] on any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::corrupt(format!(
                "bool byte must be 0 or 1, got {other}"
            ))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string body")?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::corrupt("string is not UTF-8"))
    }

    /// Read a length-prefixed byte blob written by
    /// [`SnapshotWriter::bytes`].
    ///
    /// # Errors
    /// [`SnapshotError`] on truncation or an implausible length.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.seq_len(1)?;
        self.take(len, "byte blob")
    }

    /// Read a sequence length, bounds-checked against the bytes that
    /// could possibly back it (each element needs at least
    /// `min_elem_bytes`). Prevents a corrupt length from driving a
    /// huge allocation.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] if the length is implausible.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.usize()?;
        let remaining = self.payload.len() - self.pos;
        if len.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(SnapshotError::corrupt(format!(
                "sequence length {len} exceeds remaining snapshot bytes"
            )));
        }
        Ok(len)
    }

    /// Enter a named section, verifying the tag.
    ///
    /// # Errors
    /// [`SnapshotError::Mismatch`] if the next section is not `name`.
    pub fn begin(&mut self, name: &str) -> Result<(), SnapshotError> {
        let found = self.str()?;
        if found != name {
            return Err(SnapshotError::mismatch(format!(
                "expected section `{name}`, found `{found}`"
            )));
        }
        let body = self.usize()?;
        let end = self
            .pos
            .checked_add(body)
            .filter(|&e| e <= self.payload.len())
            .ok_or_else(|| SnapshotError::truncated(format!("section `{name}` body")))?;
        self.ends.push(end);
        Ok(())
    }

    /// Leave the innermost section, verifying it was fully consumed.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] if bytes remain unread in the
    /// section (layout disagreement between writer and reader).
    pub fn end(&mut self) -> Result<(), SnapshotError> {
        let end = self
            .ends
            .pop()
            .ok_or_else(|| SnapshotError::corrupt("section end without begin"))?;
        if self.pos != end {
            return Err(SnapshotError::corrupt(format!(
                "section not fully consumed: {} bytes left",
                end - self.pos
            )));
        }
        Ok(())
    }

    /// Verify the whole payload was consumed.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] on trailing unread bytes.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.payload.len() {
            return Err(SnapshotError::corrupt(format!(
                "{} trailing bytes after the last section",
                self.payload.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Write a `u64 → u64` map deterministically (entries sorted by key) —
/// Fx-hashed maps iterate in arbitrary order, which would make
/// snapshot bytes nondeterministic.
pub fn write_u64_map(w: &mut SnapshotWriter, map: &crate::fxmap::FxHashMap<u64, u64>) {
    let mut entries: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    w.usize(entries.len());
    for (k, v) in entries {
        w.u64(k);
        w.u64(v);
    }
}

/// Read a map written by [`write_u64_map`].
///
/// # Errors
/// Propagates decode errors; rejects duplicate keys.
pub fn read_u64_map(
    r: &mut SnapshotReader,
) -> Result<crate::fxmap::FxHashMap<u64, u64>, SnapshotError> {
    let len = r.seq_len(16)?;
    let mut map = crate::fxmap::FxHashMap::default();
    map.reserve(len);
    for _ in 0..len {
        let k = r.u64()?;
        let v = r.u64()?;
        if map.insert(k, v).is_some() {
            return Err(SnapshotError::corrupt("duplicate key in serialized map"));
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives_and_sections() {
        let mut w = SnapshotWriter::new();
        w.begin("outer");
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(0.1 + 0.2);
        w.bool(true);
        w.str("hello");
        w.begin("inner");
        w.usize(123);
        w.end();
        w.end();
        let bytes = w.finish();

        let mut r = SnapshotReader::open(&bytes).unwrap();
        r.begin("outer").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        r.begin("inner").unwrap();
        assert_eq!(r.usize().unwrap(), 123);
        r.end().unwrap();
        r.end().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let mut w = SnapshotWriter::new();
        w.begin("s");
        w.u64(0xDEAD_BEEF);
        w.str("payload");
        w.end();
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::open(&bytes[..cut]).and_then(|mut r| {
                r.begin("s")?;
                r.u64()?;
                r.str()?;
                r.end()?;
                r.finish()
            });
            assert!(err.is_err(), "truncation at {cut} went undetected");
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let mut w = SnapshotWriter::new();
        w.begin("s");
        w.u64(123_456_789);
        w.end();
        let bytes = w.finish();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1 << (byte % 8);
            let result = SnapshotReader::open(&bad).and_then(|mut r| {
                r.begin("s")?;
                r.u64()?;
                r.end()?;
                r.finish()
            });
            assert!(result.is_err(), "bit flip in byte {byte} went undetected");
        }
    }

    #[test]
    fn wrong_version_is_rejected_with_both_versions_named() {
        let w = SnapshotWriter::new();
        let mut bytes = w.finish();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        // Version precedes the checksum-protected payload, so patch is
        // visible as a version error, not a checksum error.
        match SnapshotReader::open(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn wrong_section_name_is_a_mismatch() {
        let mut w = SnapshotWriter::new();
        w.begin("lru");
        w.end();
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        match r.begin("lfu") {
            Err(SnapshotError::Mismatch { context }) => {
                assert!(
                    context.contains("lfu") && context.contains("lru"),
                    "{context}"
                );
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn under_consumed_section_is_corrupt() {
        let mut w = SnapshotWriter::new();
        w.begin("s");
        w.u64(1);
        w.u64(2);
        w.end();
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        r.begin("s").unwrap();
        r.u64().unwrap();
        assert!(matches!(r.end(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn reads_cannot_cross_section_boundaries() {
        let mut w = SnapshotWriter::new();
        w.begin("small");
        w.u8(1);
        w.end();
        w.u64(99);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        r.begin("small").unwrap();
        assert!(r.u64().is_err(), "read crossed the section boundary");
    }

    #[test]
    fn implausible_sequence_length_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(r.seq_len(8), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn u64_map_round_trips_sorted() {
        let mut map = crate::fxmap::FxHashMap::default();
        for i in 0..100u64 {
            map.insert(i * 7919, i);
        }
        let mut w = SnapshotWriter::new();
        write_u64_map(&mut w, &map);
        // Determinism: a second serialization of the same map is
        // byte-identical despite arbitrary hash iteration order.
        let mut w2 = SnapshotWriter::new();
        write_u64_map(&mut w2, &map);
        let (a, b) = (w.finish(), w2.finish());
        assert_eq!(a, b);
        let mut r = SnapshotReader::open(&a).unwrap();
        let back = read_u64_map(&mut r).unwrap();
        assert_eq!(back, map);
    }
}
