//! Encrypted bucket stores over simulated devices.
//!
//! A [`BucketStore`] owns the untrusted memory holding an ORAM tree's
//! buckets, each sealed with ChaCha20-Poly1305 under the nonce
//! `(node, count)` with the node id as associated data. Two backends exist:
//!
//! * [`SsdBucketStore`] — buckets padded onto whole 4-KiB pages of a
//!   [`SimSsd`]; path reads/writes use batched page I/O (the device's
//!   internal parallelism). This backs FEDORA's main ORAM.
//! * [`DramBucketStore`] — buckets as byte ranges of a [`SimDram`]. This
//!   backs the buffer ORAM and the recursive position map.
//!
//! A store keeps no counters: the controller that owns the tree passes
//! each bucket's counter with every read and write, and seals every bucket
//! once, at counter 0, when it builds the tree (a fresh store holds no
//! sealed bucket). [`RawOram`](crate::raw::RawOram) derives the main
//! ORAM's counters from its eviction count — RAW ORAM writes buckets only
//! in EO accesses, in a fixed order, so one root counter determines them
//! all (paper §5.2) — and [`PathOram`](crate::path_oram::PathOram) keeps
//! one counter per node.

use std::collections::BTreeSet;

use fedora_crypto::aead::{ChaCha20Poly1305, Key, Nonce, TAG_LEN};
use fedora_crypto::IntegrityError;
use fedora_par::WorkerPool;
use fedora_storage::fault::{FaultConfig, FaultStats};
use fedora_storage::profile::{DramProfile, SsdProfile};
use fedora_storage::ssd::SsdError;
use fedora_storage::stats::DeviceStats;
use fedora_storage::{
    AccessOp, AccessRecord, AccessTraceRecorder, ByteReader, ByteWriter, CodecError,
    DeviceTelemetry, SimDram, SimSsd,
};
use fedora_telemetry::{Counter, Registry};

use crate::bucket::Bucket;
use crate::geometry::TreeGeometry;
use crate::OramError;

/// How many decrypt attempts a resilient read makes beyond the first.
pub const DEFAULT_RETRY_LIMIT: u32 = 4;

/// How many older counters both stores probe when classifying a tag
/// mismatch as a rollback (stale replay) versus corruption.
pub const ROLLBACK_WINDOW: u64 = 8;

/// Counters of integrity events observed by a store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Tag mismatches classified as corruption (one per failed attempt).
    pub detected_corruption: u64,
    /// Tag mismatches classified as rollback replays.
    pub detected_rollback: u64,
    /// Transient device failures that were retried.
    pub transient_retries: u64,
    /// Reads that ultimately succeeded after at least one failed attempt.
    pub recovered: u64,
    /// Buckets quarantined after retries were exhausted.
    pub quarantined: u64,
}

impl IntegrityStats {
    /// Total faults detected (corruption + rollback + transient).
    pub fn detected_total(&self) -> u64 {
        self.detected_corruption + self.detected_rollback + self.transient_retries
    }

    /// Element-wise difference (`self - earlier`), for measuring one phase.
    pub fn since(&self, earlier: &IntegrityStats) -> IntegrityStats {
        IntegrityStats {
            detected_corruption: self.detected_corruption - earlier.detected_corruption,
            detected_rollback: self.detected_rollback - earlier.detected_rollback,
            transient_retries: self.transient_retries - earlier.transient_retries,
            recovered: self.recovered - earlier.recovered,
            quarantined: self.quarantined - earlier.quarantined,
        }
    }
}

/// Outcome of a full-tree MAC verification pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Buckets examined.
    pub checked: u64,
    /// Buckets whose MAC verified (possibly after retries).
    pub healthy: u64,
    /// Buckets that failed unrecoverably, with the classified kind.
    pub failed: Vec<(u64, IntegrityError)>,
}

impl ScrubReport {
    /// True when every bucket verified.
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Abstract encrypted bucket storage. Every read and write names the
/// bucket's counter; the caller must never seal two different plaintexts
/// at one `(node, count)`.
pub trait BucketStore {
    /// The tree geometry this store was provisioned for.
    fn geometry(&self) -> TreeGeometry;

    /// Reads and decrypts `node`'s bucket sealed at counter `count`.
    ///
    /// # Errors
    ///
    /// [`OramError::Integrity`] when authentication fails,
    /// [`OramError::Device`] on sizing bugs.
    fn read_bucket(&mut self, node: u64, count: u64) -> Result<Bucket, OramError>;

    /// Seals `bucket` at counter `count` and writes it to `node`.
    ///
    /// # Errors
    ///
    /// [`OramError::Device`] on sizing bugs.
    fn write_bucket(&mut self, node: u64, bucket: &Bucket, count: u64) -> Result<(), OramError>;

    /// Reads the whole path to `leaf` (root first), bucket `i` at
    /// `counts[i]`. Backends may batch.
    ///
    /// # Errors
    ///
    /// As for [`read_bucket`](Self::read_bucket).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != depth + 1`.
    fn read_path(&mut self, leaf: u64, counts: &[u64]) -> Result<Vec<Bucket>, OramError> {
        let nodes = self.geometry().path_nodes(leaf);
        assert_eq!(counts.len(), nodes.len(), "one counter per path level");
        nodes
            .into_iter()
            .zip(counts)
            .map(|(node, &count)| self.read_bucket(node, count))
            .collect()
    }

    /// Writes the whole path to `leaf` (root first), bucket `i` sealed at
    /// `counts[i]`. Backends may batch.
    ///
    /// # Errors
    ///
    /// As for [`write_bucket`](Self::write_bucket).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` or `counts` do not hold `depth + 1` entries.
    fn write_path(
        &mut self,
        leaf: u64,
        buckets: &[Bucket],
        counts: &[u64],
    ) -> Result<(), OramError> {
        let nodes = self.geometry().path_nodes(leaf);
        assert_eq!(buckets.len(), nodes.len(), "one bucket per path level");
        assert_eq!(counts.len(), nodes.len(), "one counter per path level");
        for ((node, bucket), &count) in nodes.into_iter().zip(buckets).zip(counts) {
            self.write_bucket(node, bucket, count)?;
        }
        Ok(())
    }

    /// Device statistics of the backing store.
    fn device_stats(&self) -> DeviceStats;

    /// Resets the backing device statistics.
    fn reset_device_stats(&mut self);

    /// Attaches telemetry so the store mirrors its device traffic, AEAD
    /// activity, and integrity events into `registry`. The default is a
    /// no-op for backends without instrumentation.
    fn set_telemetry(&mut self, _registry: &Registry) {}

    /// Counters of integrity events (detections, retries, quarantines).
    fn integrity_stats(&self) -> IntegrityStats {
        IntegrityStats::default()
    }

    /// Nodes quarantined after unrecoverable integrity failures, ascending.
    fn quarantined_nodes(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Clears `node`'s quarantine flag once its controller has re-sealed
    /// it. The default is a no-op for backends without quarantine.
    fn clear_quarantine(&mut self, _node: u64) {}
}

/// Telemetry handles mirroring [`IntegrityStats`] into a registry.
///
/// Unlike [`IntegrityStats`], which checkpoints persist and recovery
/// restores, these counters are monotonic registry series: they keep the
/// process's full fault history.
#[derive(Debug, Default)]
struct IntegrityTelemetry {
    registry: Registry,
    retries: Counter,
    detected_corruption: Counter,
    detected_rollback: Counter,
    recovered: Counter,
    quarantined: Counter,
}

impl IntegrityTelemetry {
    fn attach(registry: &Registry) -> Self {
        IntegrityTelemetry {
            registry: registry.clone(),
            retries: registry.counter("integrity.retries"),
            detected_corruption: registry.counter("integrity.detected_corruption"),
            detected_rollback: registry.counter("integrity.detected_rollback"),
            recovered: registry.counter("integrity.recovered"),
            quarantined: registry.counter("integrity.quarantined"),
        }
    }
}

fn bucket_nonce(node: u64, count: u64) -> Nonce {
    Nonce::from_u64_pair(node as u32, count)
}

fn bucket_aad(node: u64) -> [u8; 8] {
    node.to_le_bytes()
}

/// Decrypts `raw` as `node`'s bucket at an explicit counter. Free-standing
/// (no `&self`) so batched path decrypts can fan out across workers while
/// borrowing only the AEAD and geometry.
fn decrypt_bucket(
    aead: &ChaCha20Poly1305,
    geometry: &TreeGeometry,
    node: u64,
    raw: &[u8],
    count: u64,
) -> Option<Bucket> {
    let ct_len = geometry.bucket_plain_bytes() + TAG_LEN;
    let plain = aead
        .decrypt(
            &bucket_nonce(node, count),
            &raw[..ct_len],
            &bucket_aad(node),
        )
        .ok()?;
    Some(Bucket::from_bytes(
        &plain,
        geometry.z(),
        geometry.block_bytes(),
    ))
}

/// Classifies a tag mismatch on `node`'s bucket read at `count`: bytes
/// that authenticate at one of the [`ROLLBACK_WINDOW`] counters below
/// `count` are a replayed stale page; anything else is corruption.
fn classify(
    aead: &ChaCha20Poly1305,
    geometry: &TreeGeometry,
    node: u64,
    raw: &[u8],
    count: u64,
) -> IntegrityError {
    let lo = count.saturating_sub(ROLLBACK_WINDOW);
    if (lo..count)
        .rev()
        .any(|c| decrypt_bucket(aead, geometry, node, raw, c).is_some())
    {
        IntegrityError::Rollback
    } else {
        IntegrityError::Corruption
    }
}

/// Bucket store over the simulated SSD (page-granular, batched I/O).
#[derive(Debug)]
pub struct SsdBucketStore {
    geometry: TreeGeometry,
    aead: ChaCha20Poly1305,
    ssd: SimSsd,
    pages_per_bucket: u64,
    retry_limit: u32,
    integrity: IntegrityStats,
    quarantined: BTreeSet<u64>,
    telemetry: IntegrityTelemetry,
    pool: WorkerPool,
    /// Reused page-id scratch for path reads (no per-access allocation).
    scratch_pages: Vec<u64>,
}

impl SsdBucketStore {
    /// Provisions a zero-filled SSD exactly large enough for the tree. The
    /// controller that owns the tree seals every bucket when it builds it.
    ///
    /// # Panics
    ///
    /// Panics if the tree has ≥ 2³² nodes (nonce-domain limit of this
    /// in-memory simulator; the paper-scale configs are driven analytically).
    pub fn new(geometry: TreeGeometry, key: Key, profile: SsdProfile) -> Self {
        assert!(
            geometry.num_nodes() < u32::MAX as u64,
            "tree too large for simulation"
        );
        let pages_per_bucket = geometry.pages_per_bucket(profile.page_bytes);
        SsdBucketStore {
            geometry,
            aead: ChaCha20Poly1305::new(&key),
            ssd: SimSsd::new(profile, geometry.num_nodes() * pages_per_bucket),
            pages_per_bucket,
            retry_limit: DEFAULT_RETRY_LIMIT,
            integrity: IntegrityStats::default(),
            quarantined: BTreeSet::new(),
            telemetry: IntegrityTelemetry::default(),
            pool: WorkerPool::serial(),
            scratch_pages: Vec::new(),
        }
    }

    /// Attaches telemetry: the backing SSD mirrors page traffic under the
    /// `storage` prefix, the AEAD counts its operations, and integrity
    /// events (retries, detections, recoveries, quarantines) feed monotonic
    /// counters plus journal entries.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = IntegrityTelemetry::attach(registry);
        self.ssd
            .set_telemetry(DeviceTelemetry::attach(registry, "storage"));
        self.aead.set_telemetry(registry);
    }

    /// Attaches a shadow-mode access recorder to the backing SSD so the
    /// physical page-access sequence can be audited for obliviousness
    /// (see [`AccessTraceRecorder`]).
    pub fn set_access_recorder(&mut self, recorder: AccessTraceRecorder) {
        self.ssd.set_access_recorder(recorder);
    }

    /// Pages per bucket in this store's layout — the divisor that maps a
    /// physical page number back to its tree node for trace analysis.
    pub fn pages_per_bucket(&self) -> u64 {
        self.pages_per_bucket
    }

    /// Splits a recorded page trace of this store into the path accesses
    /// an adversary watching the device sees, as `(leaf, written)` pairs.
    /// A path read is `depth + 1` buckets of page reads whose last bucket
    /// is the leaf; it was written back (an EO access, or any Path ORAM
    /// access) when the next `depth + 1` buckets are page writes. The
    /// trace must hold whole path accesses only, with no retried reads.
    pub fn observed_paths(&self, trace: &[AccessRecord]) -> Vec<(u64, bool)> {
        let per_path = (self.geometry.num_levels() as u64 * self.pages_per_bucket) as usize;
        let first_leaf = self.geometry.num_leaves() - 1;
        let mut paths = Vec::new();
        let mut rest = trace;
        while rest.len() >= per_path {
            let (read, tail) = rest.split_at(per_path);
            let leaf = read[per_path - 1].page / self.pages_per_bucket - first_leaf;
            let written = tail.first().is_some_and(|r| r.op == AccessOp::Write);
            rest = if written { &tail[per_path..] } else { tail };
            paths.push((leaf, written));
        }
        paths
    }

    /// Sets how many times a failed bucket read is retried before the
    /// bucket is quarantined (0 = fail on the first violation).
    pub fn set_retry_limit(&mut self, retries: u32) {
        self.retry_limit = retries;
    }

    /// Sets the worker-thread count for path encrypt/decrypt. The device
    /// I/O stays a single batched call either way, so the physical access
    /// trace — and every result — is identical for any thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = WorkerPool::new(threads);
    }

    /// Arms the backing SSD's fault injector, fixing the rollback group
    /// size to this store's bucket↔page layout so injected replays are
    /// bucket-consistent.
    pub fn arm_faults(&mut self, mut config: FaultConfig) {
        config.pages_per_group = self.pages_per_bucket;
        self.ssd.arm_faults(config);
    }

    /// Disarms the backing SSD's fault injector.
    pub fn disarm_faults(&mut self) {
        self.ssd.disarm_faults();
    }

    /// Counters from the backing SSD's injector (zeros when disarmed).
    pub fn fault_stats(&self) -> FaultStats {
        self.ssd.fault_stats()
    }

    /// The backing SSD (for wear/lifetime queries).
    pub fn ssd(&self) -> &SimSsd {
        &self.ssd
    }

    /// Mutable access to the backing SSD — the fault/attack-injection
    /// surface used by integrity tests (bit flips, rollbacks).
    pub fn ssd_mut(&mut self) -> &mut SimSsd {
        &mut self.ssd
    }

    fn page_base(&self, node: u64) -> u64 {
        node * self.pages_per_bucket
    }

    /// Serializes the store's durable state — cumulative integrity
    /// statistics, the quarantine set, and the SSD's metadata (see
    /// [`SimSsd::encode_state`]) — into `w` for checkpointing. The SSD's
    /// pages are the durable writer's to copy, through [`Self::ssd`].
    /// Bucket counters belong to the controller; the AEAD key, resilience
    /// knobs, telemetry handles, worker pool, and armed fault injector are
    /// not persisted (recovery re-derives, reconfigures or re-arms them).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        let s = &self.integrity;
        for v in [
            s.detected_corruption,
            s.detected_rollback,
            s.transient_retries,
            s.recovered,
            s.quarantined,
        ] {
            w.put_u64(v);
        }
        let quarantined: Vec<u64> = self.quarantined.iter().copied().collect();
        w.put_u64s(&quarantined);
        self.ssd.encode_state(w);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a freshly constructed store of the same geometry. Recovered
    /// quarantined nodes stay excluded exactly as before the restart.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a geometry mismatch.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.integrity = IntegrityStats {
            detected_corruption: r.get_u64()?,
            detected_rollback: r.get_u64()?,
            transient_retries: r.get_u64()?,
            recovered: r.get_u64()?,
            quarantined: r.get_u64()?,
        };
        let quarantined = r.get_u64s()?;
        if quarantined.iter().any(|&n| n >= self.geometry.num_nodes()) {
            return Err(CodecError::Invalid("quarantined node out of range"));
        }
        self.quarantined = quarantined.into_iter().collect();
        self.ssd.decode_state(r)
    }

    fn put(&mut self, node: u64, bucket: &Bucket, count: u64) -> Result<(), OramError> {
        let plain = bucket.to_bytes();
        let mut ct = self
            .aead
            .encrypt(&bucket_nonce(node, count), &plain, &bucket_aad(node));
        let page_bytes = self.ssd.profile().page_bytes;
        ct.resize(self.pages_per_bucket as usize * page_bytes, 0);
        let base = self.page_base(node);
        let writes: Vec<(u64, Vec<u8>)> = ct
            .chunks_exact(page_bytes)
            .enumerate()
            .map(|(i, chunk)| (base + i as u64, chunk.to_vec()))
            .collect();
        self.write_pages_resilient(&writes, node)
    }

    /// Batched write with bounded retry on transient device failures.
    /// Retrying is idempotent: the ciphertext is already fixed, so a
    /// repeated attempt writes the same bytes.
    fn write_pages_resilient(
        &mut self,
        writes: &[(u64, Vec<u8>)],
        blame_node: u64,
    ) -> Result<(), OramError> {
        let mut failures = 0u32;
        loop {
            match self.ssd.write_pages(writes) {
                Ok(()) => return Ok(()),
                Err(SsdError::Transient { .. }) => {
                    self.integrity.transient_retries += 1;
                    self.telemetry.retries.incr();
                    failures += 1;
                    if failures > self.retry_limit {
                        return Err(OramError::Integrity {
                            kind: IntegrityError::Transient,
                            node: blame_node,
                        });
                    }
                }
                Err(_) => return Err(OramError::Device),
            }
        }
    }

    /// Records a detection for one failed decrypt attempt at `count` and
    /// returns the classified kind.
    fn note_violation(&mut self, node: u64, raw: &[u8], count: u64) -> IntegrityError {
        let kind = classify(&self.aead, &self.geometry, node, raw, count);
        match kind {
            IntegrityError::Rollback => {
                self.integrity.detected_rollback += 1;
                self.telemetry.detected_rollback.incr();
            }
            _ => {
                self.integrity.detected_corruption += 1;
                self.telemetry.detected_corruption.incr();
            }
        }
        // Every detected violation triggers exactly one re-read attempt.
        self.telemetry.retries.incr();
        kind
    }

    /// Reads and decrypts `node` at `count`, retrying transient failures
    /// and re-reading on tag mismatches (in-flight faults heal on re-read).
    /// `failures` carries violations already observed by the caller (the
    /// batched path read) so the retry budget is shared.
    fn read_bucket_resilient(
        &mut self,
        node: u64,
        count: u64,
        mut failures: u32,
        mut last_kind: IntegrityError,
    ) -> Result<Bucket, OramError> {
        let base = self.page_base(node);
        self.scratch_pages.clear();
        self.scratch_pages
            .extend((0..self.pages_per_bucket).map(|i| base + i));
        while failures <= self.retry_limit {
            match self.ssd.read_pages(&self.scratch_pages) {
                Ok(raw_pages) => {
                    let raw: Vec<u8> = raw_pages.concat();
                    if let Some(bucket) =
                        decrypt_bucket(&self.aead, &self.geometry, node, &raw, count)
                    {
                        if failures > 0 {
                            self.integrity.recovered += 1;
                            self.telemetry.recovered.incr();
                        }
                        return Ok(bucket);
                    }
                    last_kind = self.note_violation(node, &raw, count);
                    failures += 1;
                }
                Err(SsdError::Transient { .. }) => {
                    self.integrity.transient_retries += 1;
                    self.telemetry.retries.incr();
                    last_kind = IntegrityError::Transient;
                    failures += 1;
                }
                Err(_) => return Err(OramError::Device),
            }
        }
        self.integrity.quarantined += 1;
        self.quarantined.insert(node);
        self.telemetry.quarantined.incr();
        self.telemetry.registry.event(
            "integrity.quarantine",
            &[
                ("node", node.into()),
                ("kind", format!("{last_kind:?}").into()),
            ],
        );
        Err(OramError::Integrity {
            kind: last_kind,
            node,
        })
    }
}

impl BucketStore for SsdBucketStore {
    fn geometry(&self) -> TreeGeometry {
        self.geometry
    }

    fn read_bucket(&mut self, node: u64, count: u64) -> Result<Bucket, OramError> {
        self.read_bucket_resilient(node, count, 0, IntegrityError::Corruption)
    }

    fn write_bucket(&mut self, node: u64, bucket: &Bucket, count: u64) -> Result<(), OramError> {
        self.put(node, bucket, count)
    }

    fn read_path(&mut self, leaf: u64, counts: &[u64]) -> Result<Vec<Bucket>, OramError> {
        // One batched page read for the whole path: this is what lets the
        // SSD's internal parallelism hide per-page latency. Buckets that
        // fail the batch decrypt are re-read individually (in-flight
        // faults heal on re-read); a transient failure of the whole batch
        // falls back to per-bucket resilient reads.
        let nodes = self.geometry.path_nodes(leaf);
        assert_eq!(counts.len(), nodes.len(), "one counter per path level");
        self.scratch_pages.clear();
        for &node in &nodes {
            let base = self.page_base(node);
            self.scratch_pages
                .extend((0..self.pages_per_bucket).map(|i| base + i));
        }
        let raw_pages = match self.ssd.read_pages(&self.scratch_pages) {
            Ok(raw) => raw,
            Err(SsdError::Transient { .. }) => {
                self.integrity.transient_retries += 1;
                self.telemetry.retries.incr();
                return nodes
                    .iter()
                    .zip(counts)
                    .map(|(&node, &count)| {
                        self.read_bucket_resilient(node, count, 1, IntegrityError::Transient)
                    })
                    .collect();
            }
            Err(_) => return Err(OramError::Device),
        };
        let per = self.pages_per_bucket as usize;
        // The device traffic above is a single batched call; the host-side
        // cost of a path read is the per-bucket AEAD below, so fan it out.
        // Workers only verify/decrypt — failures are handled serially
        // afterwards in node order, identical to the serial code.
        let decrypted: Vec<Option<Bucket>> = {
            let pool = self.pool;
            let aead = &self.aead;
            let geometry = &self.geometry;
            pool.map_indices(nodes.len(), |i| {
                if per == 1 {
                    decrypt_bucket(aead, geometry, nodes[i], &raw_pages[i], counts[i])
                } else {
                    let raw = raw_pages[i * per..(i + 1) * per].concat();
                    decrypt_bucket(aead, geometry, nodes[i], &raw, counts[i])
                }
            })
        };
        let mut out = Vec::with_capacity(nodes.len());
        for (i, (&node, maybe)) in nodes.iter().zip(decrypted).enumerate() {
            match maybe {
                Some(bucket) => out.push(bucket),
                None => {
                    let raw: Vec<u8> = raw_pages[i * per..(i + 1) * per].concat();
                    let kind = self.note_violation(node, &raw, counts[i]);
                    out.push(self.read_bucket_resilient(node, counts[i], 1, kind)?);
                }
            }
        }
        Ok(out)
    }

    fn write_path(
        &mut self,
        leaf: u64,
        buckets: &[Bucket],
        counts: &[u64],
    ) -> Result<(), OramError> {
        let nodes = self.geometry.path_nodes(leaf);
        assert_eq!(buckets.len(), nodes.len(), "one bucket per path level");
        assert_eq!(counts.len(), nodes.len(), "one counter per path level");
        let page_bytes = self.ssd.profile().page_bytes;
        let per = self.pages_per_bucket as usize;
        // Each bucket's ciphertext depends only on its own (node, counter)
        // pair, so the AEAD work fans out over the pool while the device
        // write below stays one batched call in node order.
        let ciphertexts: Vec<Vec<u8>> = {
            let pool = self.pool;
            let aead = &self.aead;
            pool.map_indices(nodes.len(), |i| {
                let plain = buckets[i].to_bytes();
                let mut ct = aead.encrypt(
                    &bucket_nonce(nodes[i], counts[i]),
                    &plain,
                    &bucket_aad(nodes[i]),
                );
                ct.resize(per * page_bytes, 0);
                ct
            })
        };
        let mut writes = Vec::with_capacity(nodes.len() * per);
        for (&node, ct) in nodes.iter().zip(&ciphertexts) {
            let base = self.page_base(node);
            for (i, chunk) in ct.chunks_exact(page_bytes).enumerate() {
                writes.push((base + i as u64, chunk.to_vec()));
            }
        }
        self.write_pages_resilient(&writes, nodes[0])
    }

    fn device_stats(&self) -> DeviceStats {
        *self.ssd.stats()
    }

    fn reset_device_stats(&mut self) {
        self.ssd.reset_stats();
    }

    fn set_telemetry(&mut self, registry: &Registry) {
        SsdBucketStore::set_telemetry(self, registry);
    }

    fn integrity_stats(&self) -> IntegrityStats {
        self.integrity
    }

    fn quarantined_nodes(&self) -> Vec<u64> {
        self.quarantined.iter().copied().collect()
    }

    fn clear_quarantine(&mut self, node: u64) {
        self.quarantined.remove(&node);
    }
}

/// Bucket store over simulated DRAM (byte-granular).
#[derive(Debug)]
pub struct DramBucketStore {
    geometry: TreeGeometry,
    aead: ChaCha20Poly1305,
    dram: SimDram,
    stride: u64,
}

impl DramBucketStore {
    /// Provisions zero-filled DRAM for the tree. The controller that owns
    /// the tree seals every bucket when it builds it.
    ///
    /// # Panics
    ///
    /// Panics if the tree has ≥ 2³² nodes.
    pub fn new(geometry: TreeGeometry, key: Key, profile: DramProfile) -> Self {
        assert!(
            geometry.num_nodes() < u32::MAX as u64,
            "tree too large for simulation"
        );
        let stride = geometry.bucket_stored_bytes() as u64;
        DramBucketStore {
            geometry,
            aead: ChaCha20Poly1305::new(&key),
            dram: SimDram::new(profile, geometry.num_nodes() * stride),
            stride,
        }
    }

    /// Convenience constructor using the default DDR5-like profile.
    pub fn with_default_dram(geometry: TreeGeometry, key: Key) -> Self {
        Self::new(geometry, key, DramProfile::default())
    }
}

impl BucketStore for DramBucketStore {
    fn geometry(&self) -> TreeGeometry {
        self.geometry
    }

    fn read_bucket(&mut self, node: u64, count: u64) -> Result<Bucket, OramError> {
        let mut raw = vec![0u8; self.stride as usize];
        self.dram
            .read(node * self.stride, &mut raw)
            .map_err(|_| OramError::Device)?;
        decrypt_bucket(&self.aead, &self.geometry, node, &raw, count).ok_or_else(|| {
            let kind = classify(&self.aead, &self.geometry, node, &raw, count);
            OramError::Integrity { kind, node }
        })
    }

    fn write_bucket(&mut self, node: u64, bucket: &Bucket, count: u64) -> Result<(), OramError> {
        let ct = self.aead.encrypt(
            &bucket_nonce(node, count),
            &bucket.to_bytes(),
            &bucket_aad(node),
        );
        self.dram
            .write(node * self.stride, &ct)
            .map_err(|_| OramError::Device)
    }

    fn device_stats(&self) -> DeviceStats {
        *self.dram.stats()
    }

    fn reset_device_stats(&mut self) {
        self.dram.reset_stats();
    }

    fn set_telemetry(&mut self, registry: &Registry) {
        self.dram
            .set_telemetry(DeviceTelemetry::attach(registry, "dram.store"));
        self.aead.set_telemetry(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;

    fn geo() -> TreeGeometry {
        TreeGeometry::new(3, 4, 32)
    }

    fn key() -> Key {
        Key::from_bytes([7u8; 32])
    }

    fn empty_path() -> Vec<Bucket> {
        vec![Bucket::empty(4, 32); 4]
    }

    #[test]
    fn ssd_bucket_roundtrip() {
        let mut s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        let mut b = Bucket::empty(4, 32);
        b.try_insert(Block::new(11, 3, vec![0xCD; 32]));
        s.write_bucket(5, &b, 1).unwrap();
        assert_eq!(s.read_bucket(5, 1).unwrap(), b);
    }

    #[test]
    fn ssd_path_roundtrip_batched() {
        let mut s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        let leaf = 5;
        s.write_path(leaf, &empty_path(), &[0; 4]).unwrap();
        s.reset_device_stats();
        let mut path = s.read_path(leaf, &[0; 4]).unwrap();
        assert_eq!(path.len(), 4);
        path[2].try_insert(Block::new(9, leaf, vec![1u8; 32]));
        s.write_path(leaf, &path, &[1; 4]).unwrap();
        let again = s.read_path(leaf, &[1; 4]).unwrap();
        assert_eq!(again[2].occupancy(), 1);
        // Stats: two path reads + one path write of 4 pages each.
        let stats = s.device_stats();
        assert_eq!(stats.pages_read, 8);
        assert_eq!(stats.pages_written, 4);
    }

    #[test]
    fn ssd_init_excluded_from_stats() {
        let s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        assert_eq!(s.device_stats().pages_written, 0);
    }

    #[test]
    fn dram_bucket_roundtrip() {
        let mut s = DramBucketStore::with_default_dram(geo(), key());
        let mut b = Bucket::empty(4, 32);
        b.try_insert(Block::new(2, 1, vec![0xEE; 32]));
        s.write_bucket(3, &b, 1).unwrap();
        assert_eq!(s.read_bucket(3, 1).unwrap(), b);
    }

    #[test]
    fn dram_default_path_ops() {
        let mut s = DramBucketStore::with_default_dram(geo(), key());
        s.write_path(2, &empty_path(), &[0; 4]).unwrap();
        let path = s.read_path(2, &[0; 4]).unwrap();
        assert_eq!(path.len(), 4);
        s.write_path(2, &path, &[1; 4]).unwrap();
        assert!(s.device_stats().bytes_written > 0);
    }

    #[test]
    fn buckets_bound_to_position() {
        // Ciphertext written at node 1 cannot be replayed at node 2 even at
        // the same counter value: decryption must fail.
        let mut s = DramBucketStore::with_default_dram(geo(), key());
        let mut b = Bucket::empty(4, 32);
        b.try_insert(Block::new(1, 1, vec![1u8; 32]));
        s.write_bucket(1, &b, 1).unwrap();
        // Forge: copy node 1's ciphertext into node 2's slot (bypassing API).
        let stride = s.geometry().bucket_stored_bytes() as u64;
        let mut raw = vec![0u8; stride as usize];
        s.dram.read(stride, &mut raw).unwrap();
        s.dram.write(2 * stride, &raw).unwrap();
        // …even read at the matching counter.
        assert_eq!(
            s.read_bucket(2, 1),
            Err(OramError::Integrity {
                kind: IntegrityError::Corruption,
                node: 2
            })
        );
    }

    #[test]
    fn stale_bucket_rejected() {
        // Reading a bucket at an advanced counter (as after a lost write)
        // fails authentication — freshness. The old ciphertext
        // authenticates at its true (older) counter, so the classifier
        // reports a rollback, not corruption.
        let mut s = DramBucketStore::with_default_dram(geo(), key());
        s.write_bucket(4, &Bucket::empty(4, 32), 1).unwrap();
        assert_eq!(
            s.read_bucket(4, 5),
            Err(OramError::Integrity {
                kind: IntegrityError::Rollback,
                node: 4
            })
        );
    }

    #[test]
    fn ssd_inflight_bitflip_detected_and_recovered() {
        let mut s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        let mut b = Bucket::empty(4, 32);
        b.try_insert(Block::new(1, 1, vec![0x5A; 32]));
        s.write_bucket(3, &b, 1).unwrap();
        s.arm_faults(FaultConfig {
            bitflip_per_read: 1.0,
            ..FaultConfig::default()
        });
        // Every read attempt is corrupted in flight, so with retries the
        // read keeps detecting violations; with the injector disarmed the
        // device bytes are intact and the read succeeds.
        let before = s.integrity_stats();
        let err = s.read_bucket(3, 1).unwrap_err();
        assert!(matches!(
            err,
            OramError::Integrity {
                kind: IntegrityError::Corruption,
                node: 3
            }
        ));
        let detected = s.integrity_stats().since(&before);
        assert_eq!(
            detected.detected_corruption,
            u64::from(DEFAULT_RETRY_LIMIT) + 1
        );
        assert_eq!(s.quarantined_nodes(), vec![3]);
        s.disarm_faults();
        assert_eq!(s.read_bucket(3, 1).unwrap(), b);
        s.clear_quarantine(3);
        assert!(s.quarantined_nodes().is_empty());
    }

    #[test]
    fn ssd_transient_read_retried_transparently() {
        let mut s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        let mut b = Bucket::empty(4, 32);
        b.try_insert(Block::new(7, 2, vec![0x11; 32]));
        s.write_bucket(6, &b, 1).unwrap();
        s.arm_faults(FaultConfig {
            transient_per_read: 1.0,
            ..FaultConfig::default()
        });
        // The injector's one-shot cooldown means the in-loop retry
        // succeeds: the caller never sees the fault.
        assert_eq!(s.read_bucket(6, 1).unwrap(), b);
        let stats = s.integrity_stats();
        assert_eq!(stats.transient_retries, 1);
        assert_eq!(stats.recovered, 1);
        assert!(s.quarantined_nodes().is_empty());
    }

    #[test]
    fn ssd_persistent_rollback_classified() {
        let mut s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        let b = Bucket::empty(4, 32);
        // Write twice so a pre-image at counter 1 exists, then replay it.
        s.write_bucket(2, &b, 1).unwrap();
        let stale = s.ssd.snapshot_page(s.page_base(2)).unwrap();
        s.write_bucket(2, &b, 2).unwrap();
        s.ssd.inject_rollback(s.page_base(2), &stale).unwrap();
        let err = s.read_bucket(2, 2).unwrap_err();
        assert!(matches!(
            err,
            OramError::Integrity {
                kind: IntegrityError::Rollback,
                node: 2
            }
        ));
        assert!(s.integrity_stats().detected_rollback > 0);
        assert_eq!(s.quarantined_nodes(), vec![2]);
    }

    #[test]
    fn telemetry_mirrors_integrity_events() {
        let registry = Registry::new();
        let mut s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        s.set_telemetry(&registry);
        let mut b = Bucket::empty(4, 32);
        b.try_insert(Block::new(7, 2, vec![0x11; 32]));
        s.write_bucket(6, &b, 1).unwrap();
        s.arm_faults(FaultConfig {
            transient_per_read: 1.0,
            ..FaultConfig::default()
        });
        assert_eq!(s.read_bucket(6, 1).unwrap(), b);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("integrity.retries"), Some(1));
        assert_eq!(snap.counter("integrity.recovered"), Some(1));
        assert_eq!(snap.counter("integrity.quarantined"), Some(0));
        // Device traffic mirrored under the `storage` prefix, AEAD counted.
        assert!(snap.counter("storage.pages_read").unwrap_or(0) > 0);
        assert!(snap.counter("crypto.aead.decrypt_ops").unwrap_or(0) > 0);
    }

    #[test]
    fn telemetry_journals_quarantine() {
        let registry = Registry::new();
        let mut s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        s.set_telemetry(&registry);
        s.set_retry_limit(1);
        s.write_bucket(5, &Bucket::empty(4, 32), 0).unwrap();
        s.ssd.inject_bitflip(s.page_base(5), 3).unwrap();
        assert!(s.read_bucket(5, 0).is_err());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("integrity.quarantined"), Some(1));
        assert!(snap.counter("integrity.retries").unwrap_or(0) >= 1);
        let quarantine = snap
            .events
            .iter()
            .find(|e| e.name == "integrity.quarantine")
            .expect("quarantine journaled");
        assert_eq!(
            quarantine.field("node"),
            Some(&fedora_telemetry::Value::U64(5))
        );
    }

    #[test]
    fn persistent_bitflip_after_clean_read_fails_next_path_read() {
        let mut s = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        s.set_retry_limit(1);
        s.write_path(5, &empty_path(), &[0; 4]).unwrap();
        // A clean batched read of leaf 5's path (including the root)…
        s.read_path(5, &[0; 4]).unwrap();
        // …then corrupt the root bucket's device bytes. Every path read
        // authenticates device bytes, so the next one must fail.
        s.ssd_mut().inject_bitflip(0, 3).unwrap();
        assert!(matches!(
            s.read_path(5, &[0; 4]),
            Err(OramError::Integrity {
                kind: IntegrityError::Corruption,
                node: 0
            })
        ));
    }

    #[test]
    fn scrub_reports_persistent_corruption() {
        use crate::raw::{RawOram, RawOramConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Scrub and repair need each bucket's counter, so they run through
        // the controller that owns the tree.
        let mut store = SsdBucketStore::new(geo(), key(), SsdProfile::default());
        store.set_retry_limit(1);
        let mut rng = StdRng::seed_from_u64(1);
        let config = RawOramConfig::default();
        let mut o = RawOram::new(store, 8, config, |_| vec![0u8; 32], &mut rng);
        // Flip a stored bit of bucket 5 on the device itself (persistent).
        let page = o.store().page_base(5);
        o.store_mut().ssd_mut().inject_bitflip(page, 3).unwrap();
        let report = o.scrub();
        assert_eq!(report.checked, geo().num_nodes());
        assert_eq!(report.healthy, report.checked - 1);
        assert_eq!(report.failed, vec![(5, IntegrityError::Corruption)]);
        assert!(!report.is_clean());
        // Repair re-seals an empty bucket: the tree scrubs clean again.
        o.repair_bucket(5).unwrap();
        assert!(o.scrub().is_clean());
        assert_eq!(o.read_bucket(5).unwrap().occupancy(), 0);
    }
}
