//! Durable crash recovery: the write-ahead round journal, the checkpoint
//! format, and the crash-point vocabulary of the chaos harness.
//!
//! The durability contract (DESIGN.md §8):
//!
//! * **Write-ahead round journal** — before a round mutates any ORAM
//!   state, a *round-begin* record (round number, intended ε charge,
//!   request digest, per-round fault seed, caller RNG seed hint) is
//!   appended and synced. After the round's checkpoint is durable, a
//!   *round-commit* record seals it. Recovery replays the journal to the
//!   last durable checkpoint and rolls torn rounds back — but charges
//!   their ε anyway, so a crash can never *under*-report leakage.
//! * **Checkpoints** — the full server state in a checksummed, versioned
//!   binary frame, written with the atomic temp-file + rename + fsync
//!   discipline of [`fedora_storage::durable`]. Generations are monotonic
//!   and the last two are retained; a checkpoint older than the journal's
//!   newest commit is a rollback and is refused at restore.
//! * **Crash points** — named instants where the chaos harness can "kill"
//!   the server mid-round and assert that recovery lands exactly on the
//!   last committed round.
//!
//! Journal records and checkpoint bodies are sealed with the server's
//! AEAD (subkey `"durable"`): the journal holds per-round privacy
//! accounting and the checkpoint holds stash/buffer plaintext, neither of
//! which may rest on disk in the clear. Nonces never repeat: journal
//! records use a monotonic sequence number (not the round number, which
//! repeats when an aborted round is retried) and checkpoints use their
//! monotonic generation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fedora_crypto::aead::{ChaCha20Poly1305, Key, Nonce};
use fedora_storage::durable::{
    atomic_write_file, open_frame, read_journal, seal_frame, ByteReader, ByteWriter, CodecError,
    JournalWriter,
};
use fedora_storage::{splitmix64, FaultConfig};

/// Checkpoint frame magic tag.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FDCK";
/// Checkpoint frame format version. v2 added the aggregation-mode
/// optimizer state to the body; v3 drops the bucket write counters,
/// access traces and operation counts and adds the main ORAM's
/// repaired-bucket map; v4 drops the position maps' access counter and
/// oblivious-mode flag, so each map is its leaf array alone.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Journal file name inside a state directory.
const JOURNAL_FILE: &str = "journal.log";
/// Nonce domain of round-begin journal records.
const KIND_BEGIN: u8 = 1;
/// Nonce domain of round-commit journal records.
const KIND_COMMIT: u8 = 2;
/// Nonce domain of checkpoint bodies (disjoint from journal kinds).
const CHECKPOINT_DOMAIN: u32 = 3;
/// AAD binding checkpoint ciphertext to its role.
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
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e.to_string())
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

/// Statistics of one checkpoint write (the `durable.checkpoint.*`
/// telemetry series mirror these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The generation written.
    pub generation: u64,
    /// On-disk frame size in bytes.
    pub bytes: u64,
    /// Host wall-clock spent encoding + syncing, in nanoseconds.
    pub ns: u64,
}

fn journal_aad(kind: u8, seq: u64) -> [u8; 9] {
    let mut aad = [0u8; 9];
    aad[0] = kind;
    aad[1..9].copy_from_slice(&seq.to_le_bytes());
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

/// Loads and decrypts the newest loadable checkpoint in `dir`, falling
/// back to the previous generation if the newest fails to decode.
/// Returns `(generation, plaintext body)`, or `None` when no checkpoint
/// file exists.
///
/// # Errors
///
/// The newest checkpoint's error when every candidate fails.
pub fn load_latest_checkpoint(
    dir: &Path,
    key: &Key,
) -> Result<Option<(u64, Vec<u8>)>, DurableError> {
    let gens = list_checkpoints(dir)?;
    let mut first_err = None;
    for &gen in gens.iter().rev() {
        match load_checkpoint(dir, key, gen) {
            Ok(body) => return Ok(Some((gen, body))),
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

/// Loads and decrypts one checkpoint generation.
///
/// # Errors
///
/// [`DurableError`] on I/O failure, frame damage, or tampering.
pub fn load_checkpoint(dir: &Path, key: &Key, generation: u64) -> Result<Vec<u8>, DurableError> {
    let bytes = fs::read(checkpoint_file(dir, generation))?;
    let payload = open_frame(&bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let mut r = ByteReader::new(payload);
    let gen_inside = r.get_u64()?;
    if gen_inside != generation {
        return Err(CodecError::Invalid("checkpoint generation mismatch").into());
    }
    let ct = r.get_raw(r.remaining())?;
    let aead = ChaCha20Poly1305::new(key);
    let nonce = Nonce::from_u64_pair(CHECKPOINT_DOMAIN, generation);
    aead.decrypt(&nonce, ct, CHECKPOINT_AAD)
        .map_err(|_| DurableError::Unauthentic { seq: generation })
}

/// The open durable state of one server: the journal appender plus the
/// monotonic sequence and generation counters. Counters are recovered
/// from the directory contents on open, so they keep climbing across
/// restarts (nonce uniqueness depends on this).
#[derive(Debug)]
pub struct DurableState {
    dir: PathBuf,
    journal: JournalWriter,
    aead: ChaCha20Poly1305,
    next_seq: u64,
    next_generation: u64,
}

impl DurableState {
    /// Opens (creating if needed) the state directory and its journal,
    /// resuming the sequence/generation counters past everything already
    /// on disk.
    ///
    /// # Errors
    ///
    /// [`DurableError`] on I/O failure or undecodable existing records.
    pub fn open(dir: &Path, key: Key) -> Result<Self, DurableError> {
        fs::create_dir_all(dir)?;
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
        })
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The next checkpoint generation to be written.
    pub fn next_generation(&self) -> u64 {
        self.next_generation
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
        self.journal.append(&w.into_bytes())?;
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

    /// Seals `body` into the next checkpoint generation and commits it
    /// atomically (temp file + `sync_all` + rename + directory fsync).
    /// Keeps the last two generations, pruning older files. Returns the
    /// generation and its on-disk size.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when any filesystem step fails.
    pub fn write_checkpoint(&mut self, body: &[u8]) -> Result<(u64, u64), DurableError> {
        let generation = self.next_generation;
        self.next_generation += 1;
        let nonce = Nonce::from_u64_pair(CHECKPOINT_DOMAIN, generation);
        let ct = self.aead.encrypt(&nonce, body, CHECKPOINT_AAD);
        let mut w = ByteWriter::new();
        w.put_u64(generation);
        w.put_raw(&ct);
        let frame = seal_frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &w.into_bytes());
        atomic_write_file(&checkpoint_file(&self.dir, generation), &frame)?;
        // Keep-last-2: the newest survives a torn successor, the one
        // before it survives a corrupted newest.
        for old in list_checkpoints(&self.dir)? {
            if old + 1 < generation {
                let _ = fs::remove_file(checkpoint_file(&self.dir, old));
            }
        }
        Ok((generation, frame.len() as u64))
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
        let mut d = DurableState::open(&dir, key()).unwrap();
        d.append_begin(0, 1.0, 4, request_digest(&[1, 2, 2, 3]), Some(99), 7)
            .unwrap();
        d.append_commit(0, 0, 1.0, 0xABCD).unwrap();
        drop(d);
        // Reopen: sequence keeps climbing (nonce uniqueness across
        // restarts), and both records decode + authenticate.
        let mut d = DurableState::open(&dir, key()).unwrap();
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
        let mut d = DurableState::open(&dir, key()).unwrap();
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
        let mut d = DurableState::open(&dir, key()).unwrap();
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
        let mut d = DurableState::open(&dir, key()).unwrap();
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
        let mut d = DurableState::open(&dir, key()).unwrap();
        for i in 0..4u8 {
            let (gen, bytes) = d.write_checkpoint(&[i; 32]).unwrap();
            assert_eq!(gen, u64::from(i));
            assert!(bytes > 32);
        }
        assert_eq!(list_checkpoints(&dir).unwrap(), vec![2, 3]);
        let (gen, body) = load_latest_checkpoint(&dir, &key()).unwrap().unwrap();
        assert_eq!(gen, 3);
        assert_eq!(body, vec![3u8; 32]);
        // A damaged newest generation falls back to the previous one.
        let newest = checkpoint_file(&dir, 3);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let (gen, body) = load_latest_checkpoint(&dir, &key()).unwrap().unwrap();
        assert_eq!(gen, 2);
        assert_eq!(body, vec![2u8; 32]);
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
