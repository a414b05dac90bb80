//! Durable file primitives: atomic commits, checksummed frames, and a
//! synced append-only journal.
//!
//! Everything the crash-recovery subsystem persists goes through this
//! module, so the commit discipline lives in exactly one place:
//!
//! * [`atomic_write_file`] / [`atomic_write_with`] — write to a
//!   same-directory temp file, `sync_all`, rename over the target, then
//!   fsync the directory. A crash at any point leaves either the old file
//!   or the new file, never a torn mix.
//! * [`seal_frame`] / [`open_frame`] — a versioned, FNV-1a-64-checksummed
//!   binary envelope for whole-file artifacts (checkpoints, metadata).
//! * [`JournalWriter`] / [`read_journal`] — an append-only record log
//!   where every append is synced before returning; readers stop at the
//!   first torn record, so a crash mid-append loses only the tail. On
//!   reopen the writer truncates any torn tail away before appending, so
//!   post-restart records are never shadowed behind torn bytes.
//! * [`ByteWriter`] / [`ByteReader`] — the hand-rolled little-endian
//!   codec every persisted structure encodes itself with.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit hash — the checksum used by every frame and journal
/// record (detects torn/corrupted persisted bytes; it is *not* a MAC —
/// authenticity of secret payloads comes from the AEAD layer above).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One step of the SplitMix64 generator: advances `state` and returns the
/// next output. The one dependency-free generator behind fault-injection
/// streams, per-round fault seeds, trace ids and load schedules, pinned
/// bit for bit so those streams never depend on an RNG crate.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Errors from decoding persisted bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the encoding requires.
    Truncated,
    /// The frame's magic tag did not match.
    BadMagic,
    /// The frame's format version did not match.
    BadVersion {
        /// Version found in the frame.
        got: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The checksum did not match (torn or corrupted bytes).
    BadChecksum,
    /// A field held a value the decoder cannot accept.
    Invalid(&'static str),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated input"),
            CodecError::BadMagic => f.write_str("bad magic tag"),
            CodecError::BadVersion { got, expected } => {
                write!(f, "format version {got} (expected {expected})")
            }
            CodecError::BadChecksum => f.write_str("checksum mismatch"),
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian append-only encoder (see [`ByteReader`] for the inverse).
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Little-endian decoder over a byte slice (inverse of [`ByteWriter`]).
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool encoded as one byte (`0` or `1`).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.get_u64()? as usize;
        if self.remaining() < len.saturating_mul(8) {
            return Err(CodecError::Truncated);
        }
        (0..len).map(|_| self.get_u64()).collect()
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Fails unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes"))
        }
    }
}

/// Frame header size: magic(4) + version(4) + payload length(8).
const FRAME_HEADER: usize = 16;
/// Frame trailer size: FNV-1a-64 checksum.
const FRAME_TRAILER: usize = 8;

/// Wraps `payload` in a versioned, checksummed envelope:
/// `magic(4) ‖ version(4 LE) ‖ len(8 LE) ‖ payload ‖ fnv64(header‖payload)`.
pub fn seal_frame(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len() + FRAME_TRAILER);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a [`seal_frame`] envelope and returns the payload slice.
///
/// # Errors
///
/// [`CodecError::BadChecksum`] on torn/corrupted bytes, [`CodecError::BadMagic`]
/// / [`CodecError::BadVersion`] on tag mismatches, [`CodecError::Truncated`]
/// when the frame is shorter than its declared length.
pub fn open_frame(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<&[u8], CodecError> {
    if bytes.len() < FRAME_HEADER + FRAME_TRAILER {
        return Err(CodecError::Truncated);
    }
    if bytes[..4] != magic {
        return Err(CodecError::BadMagic);
    }
    let got_version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if got_version != version {
        return Err(CodecError::BadVersion {
            got: got_version,
            expected: version,
        });
    }
    let len = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]) as usize;
    if bytes.len() != FRAME_HEADER + len + FRAME_TRAILER {
        return Err(CodecError::Truncated);
    }
    let body = &bytes[..FRAME_HEADER + len];
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[FRAME_HEADER + len..]);
    if fnv1a64(body) != u64::from_le_bytes(sum) {
        return Err(CodecError::BadChecksum);
    }
    Ok(&bytes[FRAME_HEADER..FRAME_HEADER + len])
}

/// Writes `bytes` to `path` atomically: same-directory temp file,
/// `sync_all`, rename over the target, fsync the directory. A crash leaves
/// either the previous file or the complete new one.
///
/// # Errors
///
/// Propagates I/O errors from any step.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |f| f.write_all(bytes))
}

/// [`atomic_write_file`] for content too large to hold as one buffer:
/// `write` streams it into the temp file, and the same sync, rename and
/// directory fsync then commit it.
///
/// # Errors
///
/// Propagates I/O errors from `write` or any commit step.
pub fn atomic_write_with(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut tmp: PathBuf = path.to_path_buf();
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    tmp.set_file_name(name);
    {
        let mut f = File::create(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    fsync_dir(dir)
}

/// Fsyncs a directory so a rename inside it is durable.
///
/// # Errors
///
/// Propagates I/O errors from opening or syncing the directory.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    let d = File::open(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    })?;
    d.sync_all()
}

/// Journal record header: payload length (`u32` LE).
const RECORD_HEADER: usize = 4;

/// An append-only record log where every append is synced before
/// returning. Records are length-prefixed and checksummed; [`read_journal`]
/// stops at the first torn record, so a crash mid-append loses only the
/// unsynced tail.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Opens (creating if needed) the journal at `path` for appending.
    ///
    /// Any torn tail left by a crash mid-append is truncated to the end of
    /// the last intact record (and the truncation synced) before the
    /// writer returns, so new appends land where readers will see them —
    /// a record appended after untrimmed torn bytes would be invisible to
    /// [`read_journal`] forever. When the call creates the file, the
    /// parent directory is fsync'd so the new directory entry survives a
    /// power loss (the file's own `sync_data` does not cover it).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open(path: &Path) -> io::Result<Self> {
        let existed = path.exists();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let intact = scan_records(&bytes).1;
        if intact < bytes.len() {
            file.set_len(intact as u64)?;
            file.sync_all()?;
        }
        if !existed {
            fsync_dir(path.parent().unwrap_or_else(|| Path::new(".")))?;
        }
        Ok(JournalWriter { file })
    }

    /// Appends one record and syncs it to stable storage before returning.
    /// Returns the bytes the record added to the file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the record must be considered torn.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len() + FRAME_TRAILER);
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        rec.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        self.file.write_all(&rec)?;
        self.file.sync_data()?;
        Ok(rec.len() as u64)
    }
}

/// Scans journal bytes, returning every intact payload and the byte
/// length of the intact prefix (the scan stops at the first torn record:
/// truncated length, short payload, or checksum mismatch).
fn scan_records(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= RECORD_HEADER + FRAME_TRAILER {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let body_start = pos + RECORD_HEADER;
        let Some(sum_start) = body_start.checked_add(len) else {
            break;
        };
        if bytes.len() < sum_start + FRAME_TRAILER {
            break; // torn tail
        }
        let payload = &bytes[body_start..sum_start];
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[sum_start..sum_start + FRAME_TRAILER]);
        if fnv1a64(payload) != u64::from_le_bytes(sum) {
            break; // torn tail
        }
        out.push(payload.to_vec());
        pos = sum_start + FRAME_TRAILER;
    }
    (out, pos)
}

/// Reads every intact record of a journal, stopping silently at the first
/// torn one (truncated length, short payload, or checksum mismatch — the
/// expected state after a crash mid-append). A missing file reads as empty.
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn read_journal(path: &Path) -> io::Result<Vec<Vec<u8>>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    Ok(scan_records(&bytes).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fedora-durable-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn codec_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(f64::INFINITY);
        w.put_f64(-1.5);
        w.put_bytes(b"payload");
        w.put_u64s(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap(), -1.5);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_u64s().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_truncation() {
        let mut w = ByteWriter::new();
        w.put_u64(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..4]);
        assert_eq!(r.get_u64(), Err(CodecError::Truncated));
        // Length prefix larger than the remaining bytes.
        let mut w = ByteWriter::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).get_bytes(),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            ByteReader::new(&bytes).get_u64s(),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn frame_roundtrip_and_detection() {
        const MAGIC: [u8; 4] = *b"FDTC";
        let payload = b"checkpoint body".to_vec();
        let frame = seal_frame(MAGIC, 3, &payload);
        assert_eq!(open_frame(&frame, MAGIC, 3).unwrap(), &payload[..]);
        // Wrong magic / version.
        assert_eq!(open_frame(&frame, *b"XXXX", 3), Err(CodecError::BadMagic));
        assert_eq!(
            open_frame(&frame, MAGIC, 4),
            Err(CodecError::BadVersion {
                got: 3,
                expected: 4
            })
        );
        // Any flipped payload bit fails the checksum.
        let mut bad = frame.clone();
        bad[FRAME_HEADER + 2] ^= 0x10;
        assert_eq!(open_frame(&bad, MAGIC, 3), Err(CodecError::BadChecksum));
        // Truncation detected.
        assert_eq!(
            open_frame(&frame[..frame.len() - 1], MAGIC, 3),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let path = temp_path("atomic");
        atomic_write_file(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write_file(&path, b"second version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version");
        let mut tmp = path.clone();
        let mut name = tmp.file_name().unwrap().to_os_string();
        name.push(".tmp");
        tmp.set_file_name(name);
        assert!(!tmp.exists(), "temp file must not survive the commit");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_appends_and_reads_back() {
        let path = temp_path("journal");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JournalWriter::open(&path).unwrap();
            j.append(b"one").unwrap();
            j.append(b"").unwrap();
            j.append(b"three").unwrap();
        }
        // Reopen appends, not truncates.
        {
            let mut j = JournalWriter::open(&path).unwrap();
            j.append(b"four").unwrap();
        }
        let records = read_journal(&path).unwrap();
        assert_eq!(
            records,
            vec![
                b"one".to_vec(),
                b"".to_vec(),
                b"three".to_vec(),
                b"four".to_vec()
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_tolerates_torn_tail() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JournalWriter::open(&path).unwrap();
            j.append(b"committed").unwrap();
            j.append(b"doomed").unwrap();
        }
        // Tear the last record mid-payload, as a crash mid-append would.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![b"committed".to_vec()]);
        // A corrupted (bit-flipped) tail record is dropped the same way,
        // while the intact prefix survives.
        let mut bytes = full.clone();
        let in_doomed_payload = bytes.len() - 10;
        bytes[in_doomed_payload] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![b"committed".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let path = temp_path("torn-reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JournalWriter::open(&path).unwrap();
            j.append(b"committed").unwrap();
            j.append(b"doomed").unwrap();
        }
        // Tear the last record mid-payload, as a crash mid-append would.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        // Reopening trims the torn bytes, so the post-restart append is
        // visible to readers (appended after untrimmed torn bytes, it
        // would be shadowed forever) and no torn ciphertext stays on disk.
        {
            let mut j = JournalWriter::open(&path).unwrap();
            j.append(b"after-crash").unwrap();
        }
        assert_eq!(
            read_journal(&path).unwrap(),
            vec![b"committed".to_vec(), b"after-crash".to_vec()]
        );
        let intact_record = |payload: &[u8]| RECORD_HEADER + payload.len() + FRAME_TRAILER;
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (intact_record(b"committed") + intact_record(b"after-crash")) as u64,
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_reads_empty() {
        assert!(read_journal(&temp_path("missing")).unwrap().is_empty());
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn splitmix64_known_answers() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut state), 0x06c4_5d18_8009_454f);
    }
}
