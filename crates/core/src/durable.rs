//! Durable crash recovery: the write-ahead round journal, the checkpoint
//! and device-image formats, and the crash-point vocabulary of the chaos
//! harness.
//!
//! A state directory holds three kinds of file (DESIGN.md §8):
//!
//! * **`journal.log`, the write-ahead round journal.** Before a round
//!   mutates any ORAM state, a *round-begin* record (round number,
//!   intended ε charge, request digest, per-round fault seed, caller RNG
//!   seed hint) is appended and synced. After the round's checkpoint is
//!   durable, a *round-commit* record seals it. Recovery restores the last
//!   durable checkpoint and charges every torn round's ε anyway, so a
//!   crash can never *under*-report leakage.
//! * **`ckpt-<g>.bin`, checkpoint generation `g`** (format v6, see
//!   [`CHECKPOINT_VERSION`]; a v5 directory is refused with `format
//!   version 5 (expected 6)`). It holds the sealed controller state and a
//!   *redo section*: every device page changed since the generation
//!   before it (its *base*), copied exactly as the bucket store sealed
//!   it. Each file is written with the atomic temp-file + rename + fsync
//!   discipline of [`fedora_storage::durable`]. Generations are
//!   monotonic, and a checkpoint older than the journal's newest commit
//!   is a rollback and is refused at restore.
//! * **`device.img`, the device's pages.** [`DurableState::create`]
//!   writes it whole and atomically, once; after that it is only written
//!   in place. It runs one generation behind: committing generation `g`
//!   writes its base's redo pages into it, after the Commit record. So a
//!   commit costs the pages the round wrote plus the controller state,
//!   not the device.
//!
//! **Crash points** are named instants where the chaos harness can "kill"
//! the server mid-round and assert that recovery lands exactly on the
//! last committed round.
//!
//! Journal records and the controller state are sealed with the server's
//! AEAD (subkey `"durable"`): the journal holds per-round privacy
//! accounting and the controller state holds stash plaintext and the
//! position map, neither of which may rest on disk in the clear. Nonces
//! never repeat: journal records use a monotonic sequence number (not the
//! round number, which repeats when an aborted round is retried) and
//! checkpoints use their monotonic generation. The image and the redo
//! pages are not sealed a second time. Each page already is a bucket
//! ciphertext under a nonce derived from the EO count, and the
//! checkpointed EO count is what makes a stale or altered page
//! detectable, exactly as on the SSD itself.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fedora_crypto::aead::{ChaCha20Poly1305, Key, Nonce};
use fedora_storage::durable::{
    atomic_write_file, atomic_write_with, open_frame, read_journal, seal_frame, ByteReader,
    ByteWriter, CodecError, JournalWriter,
};
use fedora_storage::ssd::SsdError;
use fedora_storage::{splitmix64, FaultConfig, SimSsd};
use fedora_telemetry::{Counter, Registry};

/// Checkpoint frame magic tag.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FDCK";
/// Checkpoint frame format version. v2 added the aggregation-mode
/// optimizer state to the body; v3 drops the bucket write counters,
/// access traces and operation counts and adds the main ORAM's
/// repaired-bucket map; v4 drops the position maps' access counter and
/// oblivious-mode flag, so each map is its leaf array alone; v5 keeps
/// only the buffer ORAM's per-bucket counters (no DRAM image, position
/// map, stash or working set: checkpoints are taken between rounds, when
/// the buffer is empty); v6 moves the device pages out of the sealed body
/// into `device.img` plus a per-generation redo section, and stores the
/// ε ledger as runs of equal ε. A v5 directory is refused with
/// `format version 5 (expected 6)`.
pub const CHECKPOINT_VERSION: u32 = 6;

/// Journal file name inside a state directory.
const JOURNAL_FILE: &str = "journal.log";
/// Device image file name inside a state directory.
const IMAGE_FILE: &str = "device.img";
/// Nonce domain of round-begin journal records.
const KIND_BEGIN: u8 = 1;
/// Nonce domain of round-commit journal records.
const KIND_COMMIT: u8 = 2;
/// Nonce domain of checkpoint bodies (disjoint from journal kinds).
const CHECKPOINT_DOMAIN: u32 = 3;
/// AAD binding checkpoint ciphertext to its role (the base generation is
/// appended, so the redo chain cannot be relinked).
const CHECKPOINT_AAD: &[u8] = b"fedora-checkpoint";

/// A named instant where the chaos harness can kill the server mid-round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// After the round-begin journal record is durable, before any ORAM
    /// state changes.
    PostJournalBegin,
    /// After the first main-ORAM access of the read phase.
    MidFetch,
    /// After the first main-ORAM insertion of the write phase.
    MidEvictionWrite,
    /// After the round's checkpoint is durable (data synced), before the
    /// round-commit journal record — the classic "commit marker lost"
    /// window.
    PostDataSyncPreCommit,
}

impl CrashPoint {
    /// Every crash point, in round order.
    pub fn all() -> [CrashPoint; 4] {
        [
            CrashPoint::PostJournalBegin,
            CrashPoint::MidFetch,
            CrashPoint::MidEvictionWrite,
            CrashPoint::PostDataSyncPreCommit,
        ]
    }

    /// The stable kebab-case name (CLI flag value, telemetry attribute).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::PostJournalBegin => "post-journal-begin",
            CrashPoint::MidFetch => "mid-fetch",
            CrashPoint::MidEvictionWrite => "mid-eviction-write",
            CrashPoint::PostDataSyncPreCommit => "post-data-sync-pre-commit",
        }
    }
}

impl core::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for CrashPoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CrashPoint::all()
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown crash point '{s}'"))
    }
}

/// Errors from the durability subsystem (journal + checkpoint I/O and
/// decoding). I/O errors are carried as strings so the error stays
/// `Clone + PartialEq` like every other [`crate::server::FedoraError`]
/// variant.
#[derive(Clone, Debug, PartialEq)]
pub enum DurableError {
    /// A filesystem operation failed.
    Io(String),
    /// Persisted bytes failed to decode (truncation, checksum, shape).
    Codec(CodecError),
    /// A journal record or checkpoint failed AEAD authentication: the
    /// state directory was tampered with (a torn *tail* is tolerated; a
    /// torn or forged *interior* record is not).
    Unauthentic {
        /// The record's sequence number (or checkpoint generation).
        seq: u64,
    },
    /// Recovery was requested but the state directory holds no loadable
    /// checkpoint.
    NoCheckpoint,
    /// A durable operation was requested on a server with no state
    /// directory attached (see `FedoraServer::enable_durability`).
    NotEnabled,
    /// `FedoraServer::enable_durability` was pointed at a directory that
    /// already holds a checkpoint. Attaching a fresh server there would
    /// mix two servers' journals and device pages; resume the directory
    /// with `FedoraServer::recover` instead.
    StateExists,
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e.to_string())
    }
}

impl From<SsdError> for DurableError {
    fn from(e: SsdError) -> Self {
        DurableError::Io(format!("device: {e}"))
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> Self {
        DurableError::Codec(e)
    }
}

impl core::fmt::Display for DurableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DurableError::Io(msg) => write!(f, "durable I/O: {msg}"),
            DurableError::Codec(e) => write!(f, "durable decode: {e}"),
            DurableError::Unauthentic { seq } => {
                write!(f, "durable record {seq} failed authentication")
            }
            DurableError::NoCheckpoint => f.write_str("no checkpoint to restore"),
            DurableError::NotEnabled => f.write_str("durability is not enabled"),
            DurableError::StateExists => {
                f.write_str("state directory already holds a checkpoint: resume it with recover")
            }
        }
    }
}

impl std::error::Error for DurableError {}

/// A restart-stable chaos plan: one master seed plus per-operation fault
/// rates. Each round derives its injector seed from (master seed, round
/// number), and the derived seed is journaled in that round's begin
/// record — so a campaign replayed across a crash/restore re-arms the
/// *same* fault stream for the same round, making chaos campaigns
/// reproducible end-to-end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed for the whole campaign.
    pub master_seed: u64,
    /// Per-read bit-flip probability.
    pub bitflip: f64,
    /// Per-read rollback-replay probability.
    pub rollback: f64,
    /// Per-operation transient-failure probability.
    pub transient: f64,
}

impl FaultPlan {
    /// The injector seed for `round` (deterministic in the plan): one
    /// SplitMix64 step, so consecutive rounds get statistically
    /// independent chaos streams from one master seed.
    pub fn round_seed(&self, round: u64) -> u64 {
        let mut state = self.master_seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F);
        splitmix64(&mut state)
    }

    /// The injector configuration to arm for `round`.
    pub fn config_for_round(&self, round: u64) -> FaultConfig {
        FaultConfig::chaos(
            self.round_seed(round),
            self.bitflip,
            self.rollback,
            self.transient,
        )
    }
}

/// The write-ahead record synced before a round mutates any ORAM state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeginRecord {
    /// Journal sequence number (monotonic, never reused).
    pub seq: u64,
    /// The round about to run (the server's committed-round counter).
    pub round: u64,
    /// The ε this round intends to charge. Recovery charges it for torn
    /// rounds so a crash can only over-report, never under-report.
    pub epsilon: f64,
    /// Public request count `K`.
    pub k_requests: u64,
    /// FNV-1a-64 digest of the request id sequence (the "client set";
    /// kept as a digest so the journal stays O(1) per round).
    pub request_digest: u64,
    /// The fault-injector seed armed for this round, if a [`FaultPlan`]
    /// is active.
    pub fault_seed: Option<u64>,
    /// The caller-provided RNG seed hint for this round (0 when unset).
    pub seed_hint: u64,
}

/// The record sealing a round after its checkpoint is durable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommitRecord {
    /// Journal sequence number.
    pub seq: u64,
    /// The round that committed.
    pub round: u64,
    /// The checkpoint generation holding this round's state.
    pub generation: u64,
    /// Cumulative ε after this round (the accountant's total).
    pub total_epsilon: f64,
    /// FNV-1a-64 digest of the round's scrubbed [`RoundReport`]
    /// encoding, for recovery cross-checks.
    ///
    /// [`RoundReport`]: crate::server::RoundReport
    pub report_digest: u64,
}

/// One authenticated journal record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JournalRecord {
    /// Round begin (write-ahead).
    Begin(BeginRecord),
    /// Round commit.
    Commit(CommitRecord),
}

impl JournalRecord {
    /// The record's journal sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            JournalRecord::Begin(b) => b.seq,
            JournalRecord::Commit(c) => c.seq,
        }
    }
}

/// Statistics of one checkpoint write (the `durable.checkpoint.*` and
/// `durable.redo.*` telemetry series mirror these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The generation written.
    pub generation: u64,
    /// Bytes of the sealed controller state (ciphertext and tag).
    pub bytes: u64,
    /// Device pages in the redo section: those changed since the previous
    /// generation.
    pub redo_pages: u64,
    /// Bytes of those pages (`redo_pages` × page size).
    pub redo_bytes: u64,
    /// Host wall-clock spent on the checkpoint, in nanoseconds: encoding,
    /// sealing and syncing it, plus writing the previous generation's
    /// pages into the device image.
    pub ns: u64,
}

/// The device pages one checkpoint generation carries, exactly as the
/// bucket store sealed them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RedoPages {
    /// Bytes per page.
    pub page_bytes: usize,
    /// Page numbers, ascending.
    pub pages: Vec<u64>,
    /// The pages' bytes, concatenated in `pages` order.
    pub data: Vec<u8>,
}

impl RedoPages {
    /// `(page number, bytes)` pairs, in page order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages
            .iter()
            .copied()
            .zip(self.data.chunks_exact(self.page_bytes.max(1)))
    }
}

/// One loaded checkpoint generation.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The generation.
    pub generation: u64,
    /// The generation its redo pages are relative to; `None` for the
    /// baseline written together with the whole device image.
    pub base: Option<u64>,
    /// The decrypted controller state.
    pub body: Vec<u8>,
    /// Every device page changed since `base`.
    pub redo: RedoPages,
}

fn journal_aad(kind: u8, seq: u64) -> [u8; 9] {
    let mut aad = [0u8; 9];
    aad[0] = kind;
    aad[1..9].copy_from_slice(&seq.to_le_bytes());
    aad
}

fn checkpoint_aad(base: Option<u64>) -> Vec<u8> {
    let mut aad = CHECKPOINT_AAD.to_vec();
    aad.push(u8::from(base.is_some()));
    aad.extend_from_slice(&base.unwrap_or(0).to_le_bytes());
    aad
}

fn checkpoint_file(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation:020}.bin"))
}

/// Lists checkpoint generations present in `dir`, ascending.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<u64>, DurableError> {
    let mut gens = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(gens),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".bin"))
        {
            if let Ok(g) = gen.parse::<u64>() {
                gens.push(g);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Reads and authenticates every intact journal record in `dir`.
///
/// A torn tail (crash mid-append) is dropped silently, matching
/// [`read_journal`]'s contract; an *interior* record that fails AEAD
/// authentication is tampering and errors out.
///
/// # Errors
///
/// [`DurableError`] on I/O failure, decode failure, or tampering.
pub fn read_records(dir: &Path, key: &Key) -> Result<Vec<JournalRecord>, DurableError> {
    let aead = ChaCha20Poly1305::new(key);
    let payloads = read_journal(&dir.join(JOURNAL_FILE))?;
    let mut out = Vec::with_capacity(payloads.len());
    for payload in &payloads {
        let mut r = ByteReader::new(payload);
        let kind = r.get_u8()?;
        let seq = r.get_u64()?;
        let ct = r.get_raw(r.remaining())?;
        let nonce = Nonce::from_u64_pair(u32::from(kind), seq);
        let body = aead
            .decrypt(&nonce, ct, &journal_aad(kind, seq))
            .map_err(|_| DurableError::Unauthentic { seq })?;
        let mut b = ByteReader::new(&body);
        let record = match kind {
            KIND_BEGIN => {
                let round = b.get_u64()?;
                let epsilon = b.get_f64()?;
                let k_requests = b.get_u64()?;
                let request_digest = b.get_u64()?;
                let has_fault = b.get_bool()?;
                let fault_seed = b.get_u64()?;
                let seed_hint = b.get_u64()?;
                JournalRecord::Begin(BeginRecord {
                    seq,
                    round,
                    epsilon,
                    k_requests,
                    request_digest,
                    fault_seed: has_fault.then_some(fault_seed),
                    seed_hint,
                })
            }
            KIND_COMMIT => JournalRecord::Commit(CommitRecord {
                seq,
                round: b.get_u64()?,
                generation: b.get_u64()?,
                total_epsilon: b.get_f64()?,
                report_digest: b.get_u64()?,
            }),
            _ => return Err(CodecError::Invalid("unknown journal record kind").into()),
        };
        b.expect_end()?;
        out.push(record);
    }
    Ok(out)
}

/// Loads the newest loadable checkpoint in `dir`, falling back to the
/// previous generation if the newest fails to load. Returns `None` when
/// no checkpoint file exists.
///
/// # Errors
///
/// The newest checkpoint's error when every candidate fails.
pub fn load_latest_checkpoint(dir: &Path, key: &Key) -> Result<Option<Checkpoint>, DurableError> {
    let gens = list_checkpoints(dir)?;
    let mut first_err = None;
    for &gen in gens.iter().rev() {
        match load_checkpoint(dir, key, gen) {
            Ok(ckpt) => return Ok(Some(ckpt)),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(None),
    }
}

/// Loads one checkpoint generation: checks its frame, decrypts the
/// controller state and splits out the redo pages.
///
/// # Errors
///
/// [`DurableError`] on I/O failure, frame damage, or tampering.
pub fn load_checkpoint(dir: &Path, key: &Key, generation: u64) -> Result<Checkpoint, DurableError> {
    let bytes = fs::read(checkpoint_file(dir, generation))?;
    let payload = open_frame(&bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let mut r = ByteReader::new(payload);
    if r.get_u64()? != generation {
        return Err(CodecError::Invalid("checkpoint generation mismatch").into());
    }
    let has_base = r.get_bool()?;
    let base = r.get_u64()?;
    let base = has_base.then_some(base);
    if base.is_some_and(|b| b >= generation) {
        return Err(CodecError::Invalid("checkpoint base is not an older generation").into());
    }
    let sealed = r.get_bytes()?;
    let page_bytes = r.get_u64()? as usize;
    let pages = r.get_u64s()?;
    let len = pages
        .len()
        .checked_mul(page_bytes)
        .ok_or(CodecError::Invalid("redo section size overflows"))?;
    let data = r.get_raw(len)?.to_vec();
    r.expect_end()?;
    let aead = ChaCha20Poly1305::new(key);
    let nonce = Nonce::from_u64_pair(CHECKPOINT_DOMAIN, generation);
    let body = aead
        .decrypt(&nonce, &sealed, &checkpoint_aad(base))
        .map_err(|_| DurableError::Unauthentic { seq: generation })?;
    Ok(Checkpoint {
        generation,
        base,
        body,
        redo: RedoPages {
            page_bytes,
            pages,
            data,
        },
    })
}

/// The open durable state of one server: the journal appender, the
/// monotonic sequence and generation counters, and the chain of
/// checkpoint generations that recovery may still need. Counters are
/// recovered from the directory contents on open, so they keep climbing
/// across restarts (nonce uniqueness depends on this).
///
/// It owns the order of the commit protocol's file work. A commit of
/// generation `g` is:
///
/// 1. [`write_checkpoint`](Self::write_checkpoint): the atomic write of
///    `ckpt-g` (sealed controller state plus the pages changed since the
///    previous generation).
/// 2. The caller's crash point `post-data-sync-pre-commit`.
/// 3. [`append_commit`](Self::append_commit): the Commit record.
/// 4. [`apply_and_prune`](Self::apply_and_prune): the previous
///    generation's redo pages are written into `device.img`, taking their
///    bytes from the live device, and the image is `fdatasync`ed.
/// 5. Still in `apply_and_prune`: every generation but the previous one
///    and `g` is deleted.
///
/// The image therefore runs one generation behind, and falling back from
/// a damaged `ckpt-g` to its predecessor keeps working.
#[derive(Debug)]
pub struct DurableState {
    dir: PathBuf,
    journal: JournalWriter,
    aead: ChaCha20Poly1305,
    next_seq: u64,
    next_generation: u64,
    /// Retained generations, oldest first, each with the pages of its
    /// redo section not yet written into the image. The last is the
    /// generation the live device is at: the next checkpoint's base.
    chain: Vec<(u64, Vec<u64>)>,
    /// `durable.bytes.written`: checkpoint files, image writes and journal
    /// records.
    bytes_written: Counter,
}

impl DurableState {
    /// Opens the journal (trimming a torn tail) and resumes the sequence
    /// and generation counters past everything already in `dir`.
    fn open(dir: &Path, key: Key, registry: &Registry) -> Result<Self, DurableError> {
        // Open the writer first: it truncates any torn tail a crash
        // mid-append left behind, so (a) records appended from here on are
        // never shadowed behind torn bytes, and (b) resuming the sequence
        // from the intact records below cannot reuse an AEAD nonce against
        // surviving torn ciphertext — the torn bytes are gone.
        let journal = JournalWriter::open(&dir.join(JOURNAL_FILE))?;
        // Sequence resume needs only the plaintext headers; tampered
        // ciphertext is caught by read_records at recovery time.
        let mut next_seq = 0;
        for payload in read_journal(&dir.join(JOURNAL_FILE))? {
            let mut r = ByteReader::new(&payload);
            let _kind = r.get_u8()?;
            next_seq = next_seq.max(r.get_u64()?.saturating_add(1));
        }
        let next_generation = list_checkpoints(dir)?
            .last()
            .map(|g| g.saturating_add(1))
            .unwrap_or(0);
        Ok(DurableState {
            dir: dir.to_path_buf(),
            journal,
            aead: ChaCha20Poly1305::new(&key),
            next_seq,
            next_generation,
            chain: Vec::new(),
            bytes_written: registry.counter("durable.bytes.written"),
        })
    }

    /// Initialises a fresh state directory for `device`: writes the whole
    /// device image atomically, forgets the device's dirty pages (the
    /// image holds them all) and opens an empty journal. The caller writes
    /// the baseline checkpoint next, with
    /// [`write_checkpoint`](Self::write_checkpoint).
    ///
    /// # Errors
    ///
    /// [`DurableError::StateExists`] when `dir` already holds a checkpoint;
    /// [`DurableError::Io`] on I/O failure.
    pub fn create(
        dir: &Path,
        key: Key,
        device: &mut SimSsd,
        registry: &Registry,
    ) -> Result<Self, DurableError> {
        if !list_checkpoints(dir)?.is_empty() {
            return Err(DurableError::StateExists);
        }
        fs::create_dir_all(dir)?;
        atomic_write_with(&dir.join(IMAGE_FILE), |file| {
            let mut out = BufWriter::new(file);
            for page in 0..device.num_pages() {
                out.write_all(&device.snapshot_page(page).map_err(io::Error::other)?)?;
            }
            out.flush()
        })?;
        device.clear_dirty();
        let state = Self::open(dir, key, registry)?;
        state.bytes_written.add(device.capacity_bytes());
        Ok(state)
    }

    /// Attaches to the state directory `landed` was loaded from and
    /// restores `device`'s pages to that generation: loads `device.img`,
    /// replays the redo section of every retained generation on the base
    /// chain that ends at `landed`, oldest first, then writes every
    /// retained generation older than `landed` back into the image and
    /// syncs it. Everything is read and checked before anything is
    /// written. The device's statistics and written-page map come from
    /// the controller state and are not touched here.
    ///
    /// # Errors
    ///
    /// [`DurableError::Codec`] when the image is missing or not the
    /// device's size, or a redo section does not fit the device; the load
    /// error of a retained generation on the chain that fails to load;
    /// [`DurableError::Io`] on I/O failure.
    pub fn resume(
        dir: &Path,
        key: Key,
        landed: Checkpoint,
        device: &mut SimSsd,
        registry: &Registry,
    ) -> Result<Self, DurableError> {
        // The base chain, newest first: it stops at the first generation
        // no longer on disk, whose pages the image already holds.
        let mut chain = vec![landed];
        while let Some(base) = chain.last().and_then(|c| c.base) {
            if !checkpoint_file(dir, base).exists() {
                break;
            }
            chain.push(load_checkpoint(dir, &key, base)?);
        }
        chain.reverse();
        let pb = device.profile().page_bytes;
        for ckpt in &chain {
            if ckpt.redo.page_bytes != pb
                || ckpt.redo.pages.iter().any(|&p| p >= device.num_pages())
            {
                return Err(CodecError::Invalid("redo section does not fit the device").into());
            }
        }
        let image = dir.join(IMAGE_FILE);
        let mut file = match File::open(&image) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(CodecError::Invalid("device image missing").into())
            }
            Err(e) => return Err(e.into()),
        };
        if file.metadata()?.len() != device.capacity_bytes() {
            return Err(CodecError::Invalid("device image size mismatch").into());
        }
        let mut page = vec![0u8; pb];
        for p in 0..device.num_pages() {
            file.read_exact(&mut page)?;
            device.restore_page(p, &page)?;
        }
        for ckpt in &chain {
            for (p, bytes) in ckpt.redo.iter() {
                device.restore_page(p, bytes)?;
            }
        }
        device.clear_dirty();
        let mut state = Self::open(dir, key, registry)?;
        state.chain = chain
            .into_iter()
            .map(|c| (c.generation, c.redo.pages))
            .collect();
        state.apply(device)?;
        Ok(state)
    }

    fn append(&mut self, kind: u8, body: &[u8]) -> Result<u64, DurableError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let nonce = Nonce::from_u64_pair(u32::from(kind), seq);
        let ct = self.aead.encrypt(&nonce, body, &journal_aad(kind, seq));
        let mut w = ByteWriter::new();
        w.put_u8(kind);
        w.put_u64(seq);
        w.put_raw(&ct);
        let bytes = self.journal.append(&w.into_bytes())?;
        self.bytes_written.add(bytes);
        Ok(seq)
    }

    /// Appends (and syncs) a round-begin record. Returns its sequence
    /// number.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when the append or sync fails.
    #[allow(clippy::too_many_arguments)]
    pub fn append_begin(
        &mut self,
        round: u64,
        epsilon: f64,
        k_requests: u64,
        request_digest: u64,
        fault_seed: Option<u64>,
        seed_hint: u64,
    ) -> Result<u64, DurableError> {
        let mut w = ByteWriter::new();
        w.put_u64(round);
        w.put_f64(epsilon);
        w.put_u64(k_requests);
        w.put_u64(request_digest);
        w.put_bool(fault_seed.is_some());
        w.put_u64(fault_seed.unwrap_or(0));
        w.put_u64(seed_hint);
        self.append(KIND_BEGIN, &w.into_bytes())
    }

    /// Appends (and syncs) a round-commit record. Returns its sequence
    /// number.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when the append or sync fails.
    pub fn append_commit(
        &mut self,
        round: u64,
        generation: u64,
        total_epsilon: f64,
        report_digest: u64,
    ) -> Result<u64, DurableError> {
        let mut w = ByteWriter::new();
        w.put_u64(round);
        w.put_u64(generation);
        w.put_f64(total_epsilon);
        w.put_u64(report_digest);
        self.append(KIND_COMMIT, &w.into_bytes())
    }

    /// Step 1 of a commit: seals `body` and writes it, with every page of
    /// `device` changed since the previous generation, as the next
    /// checkpoint generation, atomically (temp file, `sync_all`, rename,
    /// directory fsync). Only once the file is durable are the device's
    /// dirty pages forgotten, so a failed write loses none of them. The
    /// returned stats carry no time; the caller measures it.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when any filesystem step fails.
    pub fn write_checkpoint(
        &mut self,
        body: &[u8],
        device: &mut SimSsd,
    ) -> Result<CheckpointStats, DurableError> {
        let generation = self.next_generation;
        self.next_generation += 1;
        let base = self.chain.last().map(|&(g, _)| g);
        let nonce = Nonce::from_u64_pair(CHECKPOINT_DOMAIN, generation);
        let sealed = self.aead.encrypt(&nonce, body, &checkpoint_aad(base));
        let pages = device.dirty_pages();
        let pb = device.profile().page_bytes;
        let mut w = ByteWriter::new();
        w.put_u64(generation);
        w.put_bool(base.is_some());
        w.put_u64(base.unwrap_or(0));
        w.put_bytes(&sealed);
        w.put_u64(pb as u64);
        w.put_u64s(&pages);
        for &page in &pages {
            w.put_raw(&device.snapshot_page(page)?);
        }
        let frame = seal_frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &w.into_bytes());
        atomic_write_file(&checkpoint_file(&self.dir, generation), &frame)?;
        self.bytes_written.add(frame.len() as u64);
        device.clear_dirty();
        let redo_pages = pages.len() as u64;
        self.chain.push((generation, pages));
        Ok(CheckpointStats {
            generation,
            bytes: sealed.len() as u64,
            redo_pages,
            redo_bytes: redo_pages * pb as u64,
            ns: 0,
        })
    }

    /// Steps 4 and 5 of a commit, run after the Commit record: writes the
    /// previous generation's redo pages into `device.img`, taking their
    /// bytes from the live `device`, and `fdatasync`s it; then deletes
    /// every checkpoint file except that generation and the newest. A crash anywhere in here is repaired by recovery, which
    /// re-applies every retained generation older than the one it lands
    /// on.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when the image write or sync fails (nothing is
    /// pruned then, and the next commit retries the pages).
    pub fn apply_and_prune(&mut self, device: &SimSsd) -> Result<(), DurableError> {
        self.apply(device)?;
        for gen in list_checkpoints(&self.dir)? {
            if !self.chain.iter().any(|&(g, _)| g == gen) {
                let _ = fs::remove_file(checkpoint_file(&self.dir, gen));
            }
        }
        Ok(())
    }

    /// Writes the redo pages of every chain generation older than the
    /// newest into `device.img`, taking their bytes from the live
    /// `device`, and `fdatasync`s it. The bytes may be newer than the
    /// generation's own, which is harmless: its redo section stays on
    /// disk until the next apply, and recovery replays it first. Then
    /// keeps only the newest generation and its base on the chain.
    fn apply(&mut self, device: &SimSsd) -> Result<(), DurableError> {
        let newest = self.chain.len().saturating_sub(1);
        let mut pages: Vec<u64> = self.chain[..newest]
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        pages.sort_unstable();
        pages.dedup();
        if !pages.is_empty() {
            let pb = device.profile().page_bytes as u64;
            let mut image = OpenOptions::new()
                .write(true)
                .open(self.dir.join(IMAGE_FILE))?;
            for &page in &pages {
                image.seek(SeekFrom::Start(page * pb))?;
                image.write_all(&device.snapshot_page(page)?)?;
            }
            image.sync_data()?;
            self.bytes_written.add(pages.len() as u64 * pb);
        }
        for (_, p) in &mut self.chain[..newest] {
            p.clear();
        }
        self.chain.drain(..newest.saturating_sub(1));
        Ok(())
    }
}

/// FNV-1a-64 digest of a request id sequence (order-sensitive).
pub fn request_digest(requests: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(requests.len() * 8);
    for &id in requests {
        bytes.extend_from_slice(&id.to_le_bytes());
    }
    fedora_storage::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fedora-core-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn key() -> Key {
        Key::from_bytes([0x5E; 32]).derive_subkey("durable")
    }

    /// Journal-only access, as the server's constructors open it.
    fn open_journal(dir: &Path) -> DurableState {
        fs::create_dir_all(dir).unwrap();
        DurableState::open(dir, key(), &Registry::disabled()).unwrap()
    }

    fn device() -> SimSsd {
        SimSsd::new(fedora_storage::SsdProfile::pm9a1_like(), 8)
    }

    #[test]
    fn crash_point_names_roundtrip() {
        for p in CrashPoint::all() {
            assert_eq!(p.name().parse::<CrashPoint>().unwrap(), p);
        }
        assert!("nonsense".parse::<CrashPoint>().is_err());
    }

    #[test]
    fn journal_records_roundtrip_and_resume_seq() {
        let dir = temp_dir("journal");
        let mut d = open_journal(&dir);
        d.append_begin(0, 1.0, 4, request_digest(&[1, 2, 2, 3]), Some(99), 7)
            .unwrap();
        d.append_commit(0, 0, 1.0, 0xABCD).unwrap();
        drop(d);
        // Reopen: sequence keeps climbing (nonce uniqueness across
        // restarts), and both records decode + authenticate.
        let mut d = open_journal(&dir);
        let seq = d.append_begin(1, 1.0, 2, 0, None, 0).unwrap();
        assert_eq!(seq, 2);
        let records = read_records(&dir, &key()).unwrap();
        assert_eq!(records.len(), 3);
        let JournalRecord::Begin(b) = records[0] else {
            panic!("expected begin");
        };
        assert_eq!(b.round, 0);
        assert_eq!(b.fault_seed, Some(99));
        assert_eq!(b.seed_hint, 7);
        let JournalRecord::Commit(c) = records[1] else {
            panic!("expected commit");
        };
        assert_eq!(c.report_digest, 0xABCD);
        assert_eq!(records[2].seq(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_trimmed_and_post_restart_records_stay_visible() {
        let dir = temp_dir("torn-tail");
        let mut d = open_journal(&dir);
        d.append_begin(0, 0.5, 1, 0, None, 0).unwrap(); // seq 0
        d.append_commit(0, 0, 0.5, 1).unwrap(); // seq 1
        d.append_begin(1, 0.5, 1, 0, None, 0).unwrap(); // seq 2 — will be torn
        drop(d);
        // Tear the last record mid-ciphertext, as a real crash mid-append
        // would.
        let path = dir.join("journal.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        // Reopen: the torn tail is truncated away, so seq 2 is reissued
        // over a clean file (no nonce reuse against surviving torn
        // ciphertext) and the new record is visible to recovery instead
        // of being shadowed behind torn bytes.
        let mut d = open_journal(&dir);
        assert_eq!(d.append_begin(1, 0.5, 2, 7, None, 0).unwrap(), 2);
        d.append_commit(1, 1, 1.0, 9).unwrap(); // seq 3
        drop(d);
        let records = read_records(&dir, &key()).unwrap();
        assert_eq!(records.len(), 4);
        let JournalRecord::Begin(b) = records[2] else {
            panic!("expected post-restart begin");
        };
        assert_eq!((b.seq, b.round, b.k_requests), (2, 1, 2));
        let JournalRecord::Commit(c) = records[3] else {
            panic!("expected post-restart commit");
        };
        assert_eq!((c.seq, c.round, c.total_epsilon), (3, 1, 1.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_journal_record_is_unauthentic() {
        let dir = temp_dir("tamper");
        let mut d = open_journal(&dir);
        d.append_begin(0, 1.0, 4, 0, None, 0).unwrap();
        d.append_commit(0, 0, 1.0, 0).unwrap();
        drop(d);
        // Flip a ciphertext bit in the *first* record (interior, not a
        // torn tail): header is 4 (len) + 1 (kind) + 8 (seq) bytes in.
        let path = dir.join("journal.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes[14] ^= 1;
        // Recompute the storage-layer checksum so only AEAD can object.
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        let sum = fedora_storage::fnv1a64(&bytes[4..4 + len]);
        bytes[4 + len..4 + len + 8].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_records(&dir, &key()),
            Err(DurableError::Unauthentic { seq: 0 })
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_rotate_and_keep_last_two() {
        let dir = temp_dir("ckpt");
        let mut dev = device();
        let mut d = DurableState::create(&dir, key(), &mut dev, &Registry::disabled()).unwrap();
        assert!(dev.dirty_pages().is_empty(), "the image holds every page");
        for i in 0..4u8 {
            dev.write_page(u64::from(i), &vec![i; 4096]).unwrap();
            let stats = d.write_checkpoint(&[i; 32], &mut dev).unwrap();
            assert_eq!(stats.generation, u64::from(i));
            assert_eq!((stats.redo_pages, stats.redo_bytes), (1, 4096));
            assert!(stats.bytes > 32);
            d.apply_and_prune(&dev).unwrap();
        }
        assert_eq!(list_checkpoints(&dir).unwrap(), vec![2, 3]);
        let ckpt = load_latest_checkpoint(&dir, &key()).unwrap().unwrap();
        assert_eq!((ckpt.generation, ckpt.base), (3, Some(2)));
        assert_eq!(ckpt.body, vec![3u8; 32]);
        assert_eq!(ckpt.redo.pages, vec![3]);
        assert_eq!(ckpt.redo.data, vec![3u8; 4096]);
        // A damaged newest generation falls back to the previous one.
        let newest = checkpoint_file(&dir, 3);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let ckpt = load_latest_checkpoint(&dir, &key()).unwrap().unwrap();
        assert_eq!(ckpt.generation, 2);
        assert_eq!(ckpt.body, vec![2u8; 32]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_replays_the_chain_and_writes_older_generations_back() {
        let dir = temp_dir("resume");
        let mut dev = device();
        dev.write_page(7, &vec![0xAA; 4096]).unwrap();
        let mut d = DurableState::create(&dir, key(), &mut dev, &Registry::disabled()).unwrap();
        d.write_checkpoint(b"g0", &mut dev).unwrap();
        d.apply_and_prune(&dev).unwrap();
        for (gen, page) in [(1u8, 1u64), (2, 2)] {
            dev.write_page(page, &vec![gen; 4096]).unwrap();
            dev.write_page(5, &vec![gen; 4096]).unwrap();
            d.write_checkpoint(&[gen], &mut dev).unwrap();
        }
        // Crash before generation 2's apply: the image still lacks
        // generation 1's pages and both redo sections are on disk.
        drop(d);
        let image = fs::read(dir.join(IMAGE_FILE)).unwrap();
        assert_eq!(image[4096], 0);
        assert_eq!(image[7 * 4096], 0xAA);
        let landed = load_latest_checkpoint(&dir, &key()).unwrap().unwrap();
        assert_eq!(landed.generation, 2);
        let mut fresh = device();
        let d =
            DurableState::resume(&dir, key(), landed, &mut fresh, &Registry::disabled()).unwrap();
        for page in 0..8 {
            assert_eq!(
                fresh.snapshot_page(page),
                dev.snapshot_page(page),
                "page {page}"
            );
        }
        assert!(fresh.dirty_pages().is_empty());
        assert_eq!(*fresh.stats(), fedora_storage::DeviceStats::new());
        assert_eq!(d.chain, vec![(1, vec![]), (2, vec![2, 5])]);
        // Generation 1's pages are in the image now, synced before return.
        let image = fs::read(dir.join(IMAGE_FILE)).unwrap();
        assert_eq!(image[4096], 1);
        assert_eq!(image[5 * 4096], 2, "bytes come from the landed device");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_missing_or_wrong_size_image() {
        let dir = temp_dir("image");
        let mut dev = device();
        let mut d = DurableState::create(&dir, key(), &mut dev, &Registry::disabled()).unwrap();
        d.write_checkpoint(b"g0", &mut dev).unwrap();
        drop(d);
        let image = dir.join(IMAGE_FILE);
        let bytes = fs::read(&image).unwrap();
        fs::write(&image, &bytes[..bytes.len() - 1]).unwrap();
        let landed = load_latest_checkpoint(&dir, &key()).unwrap().unwrap();
        let err = DurableState::resume(
            &dir,
            key(),
            landed.clone(),
            &mut device(),
            &Registry::disabled(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DurableError::Codec(CodecError::Invalid("device image size mismatch"))
        );
        fs::remove_file(&image).unwrap();
        let err = DurableState::resume(&dir, key(), landed, &mut device(), &Registry::disabled())
            .unwrap_err();
        assert_eq!(
            err,
            DurableError::Codec(CodecError::Invalid("device image missing"))
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn older_checkpoint_format_is_refused_with_its_version() {
        let dir = temp_dir("old-format");
        let mut dev = device();
        let mut d = DurableState::create(&dir, key(), &mut dev, &Registry::disabled()).unwrap();
        d.write_checkpoint(&[7; 32], &mut dev).unwrap();
        // Re-frame the same payload as the previous format version.
        let path = checkpoint_file(&dir, 0);
        let bytes = fs::read(&path).unwrap();
        let payload = open_frame(&bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION).unwrap();
        let old = seal_frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION - 1, payload);
        fs::write(&path, old).unwrap();
        let err = load_latest_checkpoint(&dir, &key()).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "durable decode: format version {} (expected {})",
                CHECKPOINT_VERSION - 1,
                CHECKPOINT_VERSION
            )
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = temp_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(load_latest_checkpoint(&dir, &key()).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_seeds_are_stable_and_distinct() {
        let plan = FaultPlan {
            master_seed: 42,
            bitflip: 0.1,
            rollback: 0.0,
            transient: 0.2,
        };
        assert_eq!(plan.round_seed(3), plan.round_seed(3));
        assert_ne!(plan.round_seed(3), plan.round_seed(4));
        let cfg = plan.config_for_round(3);
        assert_eq!(cfg.seed, plan.round_seed(3));
        assert_eq!(cfg.bitflip_per_read, 0.1);
        assert_eq!(cfg.transient_per_read, 0.2);
    }

    #[test]
    fn request_digest_is_order_sensitive() {
        assert_eq!(request_digest(&[1, 2, 3]), request_digest(&[1, 2, 3]));
        assert_ne!(request_digest(&[1, 2, 3]), request_digest(&[3, 2, 1]));
    }
}
