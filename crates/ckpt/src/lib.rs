//! The `bimodal-ckpt-v1` snapshot format and atomic file helpers.
//!
//! A checkpoint is a sequence of named, individually checksummed
//! sections behind a magic/version header. Sections keep corruption
//! diagnosable — a flipped bit names the section it landed in instead of
//! producing garbage state three crates away — and let readers skip
//! sections they do not understand.
//!
//! The value encoding is deliberately dumb: little-endian fixed-width
//! integers, `u64` length prefixes, `f64` as IEEE bits. Every consumer of
//! the format lives in this workspace, so there is no schema evolution
//! machinery; the version byte gates incompatible changes wholesale.
//!
//! A type whose state is a plain list of fields, each restored without
//! checks, declares its [`Snapshot`] impl once with [`snapshot_fields!`].
//! Write the impl by hand when `load` must validate what it reads (an
//! enum tag, a non-zero capacity, a length that must match the
//! configuration) or when the bytes are not the field list (a sorted map,
//! a derived encoding). Either way the order of the writes is the wire
//! format: reordering a field list changes the bytes, and checkpoints
//! written before the change stop loading.
//!
//! Nothing here allocates per value on the write path beyond the growing
//! output buffer, and reads never panic on malformed input: every decode
//! error surfaces as a typed [`CkptError`] naming the section being read.

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic, followed by a `u32` version.
pub const MAGIC: &[u8; 12] = b"bimodal-ckpt";
/// Current format version.
pub const VERSION: u32 = 1;

/// Why a checkpoint could not be read (or written).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Underlying filesystem error.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file (or a section payload) ended early.
    Truncated {
        /// Section being decoded, or `"header"`.
        section: String,
    },
    /// A section's checksum does not match its payload.
    Checksum {
        /// Name of the offending section.
        section: String,
    },
    /// A section decoded to structurally impossible values.
    Corrupt {
        /// Name of the offending section.
        section: String,
        /// What was wrong.
        detail: String,
    },
    /// A section required by the reader is absent.
    MissingSection {
        /// Name of the missing section.
        section: String,
    },
    /// The checkpoint does not belong to the run being resumed.
    Mismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a bimodal-ckpt file (bad magic)"),
            CkptError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {VERSION})"
                )
            }
            CkptError::Truncated { section } => {
                write!(f, "checkpoint truncated while reading section '{section}'")
            }
            CkptError::Checksum { section } => {
                write!(f, "checksum mismatch in checkpoint section '{section}'")
            }
            CkptError::Corrupt { section, detail } => {
                write!(f, "corrupt checkpoint section '{section}': {detail}")
            }
            CkptError::MissingSection { section } => {
                write!(f, "checkpoint is missing section '{section}'")
            }
            CkptError::Mismatch { detail } => {
                write!(f, "checkpoint does not match this run: {detail}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// FNV-1a over a byte slice — the per-section checksum. Not
/// cryptographic; it only needs to catch torn writes and bit rot.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Append-only little-endian value writer backing one section.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends raw bytes with a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over one section's payload; every read is bounds-checked and
/// reports the section name on failure.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `buf`, attributing errors to `section`.
    #[must_use]
    pub fn new(buf: &'a [u8], section: &'a str) -> Self {
        SnapshotReader {
            buf,
            pos: 0,
            section,
        }
    }

    /// The section this reader decodes (for error construction).
    #[must_use]
    pub fn section(&self) -> &str {
        self.section
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// A [`CkptError::Corrupt`] attributed to this section.
    #[must_use]
    pub fn corrupt(&self, detail: impl Into<String>) -> CkptError {
        CkptError::Corrupt {
            section: self.section.to_owned(),
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CkptError::Truncated {
                section: self.section.to_owned(),
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Result<u128, CkptError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("sized"),
        ))
    }

    /// Reads an `i32`.
    pub fn i32(&mut self) -> Result<i32, CkptError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    /// Reads a `usize` (stored as `u64`), guarding against values that
    /// cannot index memory on this host.
    pub fn usize(&mut self) -> Result<usize, CkptError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("length {v} overflows usize")))
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        let n = self.bounded_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid UTF-8 string"))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CkptError> {
        let n = self.bounded_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length prefix, rejecting lengths beyond the remaining
    /// payload (a bit flip in a length field must not trigger a huge
    /// allocation before the bounds check catches it).
    pub fn bounded_len(&mut self) -> Result<usize, CkptError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(CkptError::Truncated {
                section: self.section.to_owned(),
            });
        }
        Ok(n)
    }
}

/// A type that can serialize its full state into a section and rebuild
/// itself from it.
pub trait Snapshot: Sized {
    /// Appends this value's state.
    fn save(&self, w: &mut SnapshotWriter);
    /// Reads one value back.
    ///
    /// # Errors
    ///
    /// Propagates decode errors ([`CkptError::Truncated`] /
    /// [`CkptError::Corrupt`]) from the reader.
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError>;
}

macro_rules! snapshot_prim {
    ($t:ty, $w:ident, $r:ident) => {
        impl Snapshot for $t {
            fn save(&self, w: &mut SnapshotWriter) {
                w.$w(*self);
            }
            fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
                r.$r()
            }
        }
    };
}

/// Implements [`Snapshot`] for a struct from one ordered field list:
/// `save` writes each field through its own `Snapshot` impl and `load`
/// reads them back in the same order, so the two cannot disagree. The
/// list is the wire format (see the crate docs). Invoke the macro with
/// braces, so rustfmt leaves the list as written.
///
/// ```
/// use bimodal_ckpt::{Snapshot, SnapshotReader, SnapshotWriter};
/// #[derive(Debug, PartialEq)]
/// struct Location { channel: u32, row: u64 }
/// bimodal_ckpt::snapshot_fields! { Location { channel, row } }
///
/// let mut w = SnapshotWriter::new();
/// Location { channel: 1, row: 2 }.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, [1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
/// let back = Location::load(&mut SnapshotReader::new(&bytes, "doc"));
/// assert_eq!(back, Ok(Location { channel: 1, row: 2 }));
/// ```
#[macro_export]
macro_rules! snapshot_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Snapshot for $ty {
            fn save(&self, w: &mut $crate::SnapshotWriter) {
                $($crate::Snapshot::save(&self.$field, w);)+
            }
            fn load(r: &mut $crate::SnapshotReader<'_>) -> Result<Self, $crate::CkptError> {
                // Struct-literal fields evaluate in the order written.
                Ok($ty { $($field: $crate::Snapshot::load(r)?,)+ })
            }
        }
    };
}

snapshot_prim!(u8, u8, u8);
snapshot_prim!(u16, u16, u16);
snapshot_prim!(u32, u32, u32);
snapshot_prim!(u64, u64, u64);
snapshot_prim!(u128, u128, u128);
snapshot_prim!(i32, i32, i32);
snapshot_prim!(i64, i64, i64);
snapshot_prim!(f64, f64, f64);
snapshot_prim!(bool, bool, bool);

impl Snapshot for usize {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(*self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        r.usize()
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut SnapshotWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        r.str()
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        let n = r.bounded_len()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        let n = r.bounded_len()?;
        let mut v = VecDeque::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push_back(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(r.corrupt(format!("invalid Option tag {b}"))),
        }
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Snapshot + Copy + Default, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut SnapshotWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        let mut a = [T::default(); N];
        for slot in &mut a {
            *slot = T::load(r)?;
        }
        Ok(a)
    }
}

/// An in-memory `bimodal-ckpt-v1` file: ordered named sections.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CkptFile {
    sections: Vec<(String, Vec<u8>)>,
}

impl CkptFile {
    /// An empty file.
    #[must_use]
    pub fn new() -> Self {
        CkptFile::default()
    }

    /// Adds (or replaces) a section.
    pub fn put(&mut self, name: &str, payload: Vec<u8>) {
        if let Some(s) = self.sections.iter_mut().find(|(n, _)| n == name) {
            s.1 = payload;
        } else {
            self.sections.push((name.to_owned(), payload));
        }
    }

    /// Section names in file order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// A reader over the named section.
    ///
    /// # Errors
    ///
    /// [`CkptError::MissingSection`] when absent.
    pub fn section<'a>(&'a self, name: &'a str) -> Result<SnapshotReader<'a>, CkptError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, p)| SnapshotReader::new(p, n))
            .ok_or_else(|| CkptError::MissingSection {
                section: name.to_owned(),
            })
    }

    /// Serializes header + checksummed sections.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses a serialized file, verifying magic, version and every
    /// section checksum.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s for bad magic/version, truncation (naming the
    /// section being read) and checksum mismatches (naming the section).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let header_err = || CkptError::Truncated {
            section: "header".to_owned(),
        };
        if bytes.len() < MAGIC.len() + 8 {
            if !bytes.starts_with(&MAGIC[..bytes.len().min(MAGIC.len())]) {
                return Err(CkptError::BadMagic);
            }
            return Err(header_err());
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let mut pos = MAGIC.len();
        let rd_u32 = |bytes: &[u8], pos: &mut usize| -> Option<u32> {
            let s = bytes.get(*pos..*pos + 4)?;
            *pos += 4;
            Some(u32::from_le_bytes(s.try_into().expect("sized")))
        };
        let version = rd_u32(bytes, &mut pos).ok_or_else(header_err)?;
        if version != VERSION {
            return Err(CkptError::BadVersion { found: version });
        }
        let count = rd_u32(bytes, &mut pos).ok_or_else(header_err)?;
        let mut sections = Vec::new();
        for _ in 0..count {
            let name_len = rd_u32(bytes, &mut pos).ok_or_else(header_err)? as usize;
            let name_bytes = bytes.get(pos..pos + name_len).ok_or_else(header_err)?;
            pos += name_len;
            let name = String::from_utf8(name_bytes.to_vec()).map_err(|_| CkptError::Corrupt {
                section: "header".to_owned(),
                detail: "section name is not UTF-8".to_owned(),
            })?;
            let len_bytes = bytes
                .get(pos..pos + 8)
                .ok_or_else(|| CkptError::Truncated {
                    section: name.clone(),
                })?;
            pos += 8;
            let payload_len = usize::try_from(u64::from_le_bytes(
                len_bytes.try_into().expect("sized"),
            ))
            .map_err(|_| CkptError::Corrupt {
                section: name.clone(),
                detail: "section length overflows usize".to_owned(),
            })?;
            let sum_bytes = bytes
                .get(pos..pos + 8)
                .ok_or_else(|| CkptError::Truncated {
                    section: name.clone(),
                })?;
            pos += 8;
            let expected = u64::from_le_bytes(sum_bytes.try_into().expect("sized"));
            let payload = bytes.get(
                pos..pos
                    .checked_add(payload_len)
                    .ok_or_else(|| CkptError::Truncated {
                        section: name.clone(),
                    })?,
            );
            let payload = payload.ok_or_else(|| CkptError::Truncated {
                section: name.clone(),
            })?;
            pos += payload_len;
            if fnv1a(payload) != expected {
                return Err(CkptError::Checksum { section: name });
            }
            sections.push((name, payload.to_vec()));
        }
        Ok(CkptFile { sections })
    }

    /// Reads and parses a checkpoint from disk.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] on filesystem failure, otherwise the parse
    /// errors of [`CkptFile::from_bytes`].
    pub fn read(path: &Path) -> Result<Self, CkptError> {
        let bytes =
            fs::read(path).map_err(|e| CkptError::Io(format!("{}: {e}", path.display())))?;
        CkptFile::from_bytes(&bytes)
    }

    /// Writes the checkpoint atomically, keeping the previous checkpoint
    /// as `<path>.prev` (double buffering): a crash mid-write leaves
    /// either the old or the new file intact, never a torn one.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] on filesystem failure.
    pub fn write(&self, path: &Path) -> Result<(), CkptError> {
        let io = |e: std::io::Error| CkptError::Io(format!("{}: {e}", path.display()));
        if path.exists() {
            let prev = sibling(path, ".prev");
            fs::rename(path, &prev).map_err(io)?;
        }
        atomic_write(path, &self.to_bytes()).map_err(io)
    }
}

/// `path` with `suffix` appended to its file name (same directory, so a
/// rename between the two is atomic).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    name.push_str(suffix);
    path.with_file_name(name)
}

/// Writes `bytes` to `path` via a temp file in the same directory plus an
/// atomic rename, so a crash never leaves a torn or partial file at
/// `path`. The temp name embeds the process id, so concurrent writers of
/// *different* content to the same path do not trample each other's temp
/// files mid-write.
///
/// # Errors
///
/// Any underlying filesystem error; the temp file is removed on failure.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = sibling(path, &format!(".{}.tmp", std::process::id()));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// String flavor of [`atomic_write`] for text artifacts (JSON reports,
/// metrics, histories).
///
/// # Errors
///
/// Any underlying filesystem error.
pub fn atomic_write_str(path: &Path, text: &str) -> std::io::Result<()> {
    atomic_write(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        0xABu8.save(&mut w);
        0xBEEFu16.save(&mut w);
        0xDEAD_BEEFu32.save(&mut w);
        u64::MAX.save(&mut w);
        (u128::MAX - 7).save(&mut w);
        (-42i32).save(&mut w);
        (-7i64).save(&mut w);
        3.5f64.save(&mut w);
        true.save(&mut w);
        "héllo".to_owned().save(&mut w);
        vec![1u64, 2, 3].save(&mut w);
        Some(9u32).save(&mut w);
        Option::<u32>::None.save(&mut w);
        [1u8, 2, 3].save(&mut w);
        (4u32, 5u64).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes, "test");
        assert_eq!(u8::load(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::load(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::load(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::load(&mut r).unwrap(), u64::MAX);
        assert_eq!(u128::load(&mut r).unwrap(), u128::MAX - 7);
        assert_eq!(i32::load(&mut r).unwrap(), -42);
        assert_eq!(i64::load(&mut r).unwrap(), -7);
        assert!((f64::load(&mut r).unwrap() - 3.5).abs() < f64::EPSILON);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(String::load(&mut r).unwrap(), "héllo");
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(Option::<u32>::load(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u32>::load(&mut r).unwrap(), None);
        assert_eq!(<[u8; 3]>::load(&mut r).unwrap(), [1, 2, 3]);
        assert_eq!(<(u32, u64)>::load(&mut r).unwrap(), (4, 5));
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_read_names_section() {
        let mut w = SnapshotWriter::new();
        7u64.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4], "engine");
        match u64::load(&mut r) {
            Err(CkptError::Truncated { section }) => assert_eq!(section, "engine"),
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX); // absurd Vec length
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes, "s");
        assert!(Vec::<u64>::load(&mut r).is_err());
    }

    #[test]
    fn file_round_trips_and_checks_magic_version_checksum() {
        let mut f = CkptFile::new();
        f.put("meta", vec![1, 2, 3]);
        f.put("engine", vec![9; 100]);
        let bytes = f.to_bytes();
        let back = CkptFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.names(), vec!["meta", "engine"]);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(CkptFile::from_bytes(&bad), Err(CkptError::BadMagic));

        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[MAGIC.len()] = 99;
        assert_eq!(
            CkptFile::from_bytes(&wrong),
            Err(CkptError::BadVersion { found: 99 })
        );

        // A flipped payload bit names its section.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1; // inside "engine"'s payload
        flipped[last] ^= 0x01;
        assert_eq!(
            CkptFile::from_bytes(&flipped),
            Err(CkptError::Checksum {
                section: "engine".to_owned()
            })
        );

        // Truncation mid-section names the section.
        let cut = &bytes[..bytes.len() - 10];
        match CkptFile::from_bytes(cut) {
            Err(CkptError::Truncated { section }) => assert_eq!(section, "engine"),
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("bimodal-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        atomic_write_str(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        atomic_write_str(&path, "second, longer content").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second, longer content");
        // No temp litter left behind.
        let litter: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(litter.is_empty(), "temp files left: {litter:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_write_keeps_previous_as_prev() {
        let dir = std::env::temp_dir().join(format!("bimodal-ckpt-prev-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let mut a = CkptFile::new();
        a.put("meta", vec![1]);
        a.write(&path).unwrap();
        let mut b = CkptFile::new();
        b.put("meta", vec![2]);
        b.write(&path).unwrap();
        assert_eq!(CkptFile::read(&path).unwrap(), b);
        assert_eq!(CkptFile::read(&dir.join("run.ckpt.prev")).unwrap(), a);
        fs::remove_dir_all(&dir).unwrap();
    }
}
