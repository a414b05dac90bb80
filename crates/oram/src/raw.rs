//! RAW ORAM (Fletcher et al., FCCM'15) with FEDORA's FL-friendly split.
//!
//! RAW ORAM separates **access-only (AO)** operations — read the whole path,
//! pull out the requested block, touch nothing else — from **eviction-only
//! (EO)** operations — read a path chosen in a predetermined
//! reverse-lexicographic order, merge it with the stash, and write it back.
//! One EO runs after every `A` AO accesses (`A` is the *eviction period*).
//!
//! FEDORA's optimizations on top (paper §4.4):
//!
//! * **Opt. 1 (FL-friendly phases):** during the round's *read phase*
//!   ([`RawOram::fetch`]) every fetched block immediately leaves for the
//!   buffer ORAM, so the stash stays empty and **no EO accesses are needed
//!   at all**; during the *write phase* ([`RawOram::insert`]) blocks arrive
//!   from the buffer ORAM directly into the stash, so **no AO accesses are
//!   needed**, only an EO after every `A` insertions.
//! * **Opt. 2 (VTree):** AO accesses must invalidate the fetched block's
//!   slot; the valid flags live in the DRAM [`VTree`], so AO accesses issue
//!   **zero SSD writes**.
//! * **Opt. 3 (large `A`):** the stash and path buffer live in DRAM, so `A`
//!   (and the bucket size) can be much larger than in on-chip designs,
//!   slashing EO frequency.
//!
//! Buckets are written only in EO accesses, in the schedule's fixed order,
//! so the EO count alone determines every bucket's encryption counter
//! (paper §5.2): the controller derives each counter when it touches a
//! bucket and stores none, apart from the few buckets it has repaired.

use std::collections::BTreeMap;

use fedora_crypto::counter::{EvictionSchedule, RootCounter};
use fedora_crypto::IntegrityError;
use fedora_storage::{ByteReader, ByteWriter, CodecError};
use fedora_telemetry::{Counter, Gauge, Histogram, Registry};
use rand::Rng;

use crate::block::Block;
use crate::bucket::Bucket;
use crate::position::PositionMap;
use crate::stash::Stash;
use crate::store::{BucketStore, ScrubReport};
use crate::vtree::VTree;
use crate::OramError;

/// Configuration of a RAW ORAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawOramConfig {
    /// The eviction period `A`: one EO access per `A` insertions (FEDORA
    /// write phase).
    pub eviction_period: u32,
}

impl RawOramConfig {
    /// FEDORA's tuned period for 4-KiB buckets (`A` up to 92; §4.4).
    pub fn fedora_tuned() -> Self {
        RawOramConfig {
            eviction_period: 92,
        }
    }
}

impl Default for RawOramConfig {
    fn default() -> Self {
        Self::fedora_tuned()
    }
}

/// Telemetry handles for the RAW ORAM's own operations. Latencies are host
/// wall-clock nanoseconds of the whole operation (the simulated device time
/// stays in `DeviceStats`); the clock is never read when detached.
#[derive(Debug, Default)]
struct OramTelemetry {
    access_latency: Histogram,
    eviction_latency: Histogram,
    ao_accesses: Counter,
    dummy_accesses: Counter,
    eo_accesses: Counter,
    insertions: Counter,
    stash_len: Gauge,
    stash_high_water: Gauge,
    /// Eviction-tuning report: suggested eviction period `A` derived from
    /// the stash high-water mark and the access/eviction latency histograms.
    suggested_a: Gauge,
    /// Back-reference for causal trace spans (disabled handle when
    /// detached, so spans stay free).
    registry: Registry,
}

impl OramTelemetry {
    fn attach(registry: &Registry) -> Self {
        OramTelemetry {
            access_latency: registry.histogram("oram.access.latency"),
            eviction_latency: registry.histogram("oram.eviction.latency"),
            ao_accesses: registry.counter("oram.access.ao"),
            dummy_accesses: registry.counter("oram.access.dummy"),
            eo_accesses: registry.counter("oram.eviction.count"),
            insertions: registry.counter("oram.insertions"),
            stash_len: registry.gauge("oram.stash.len"),
            stash_high_water: registry.gauge("oram.stash.high_water"),
            suggested_a: registry.gauge("oram.eviction.suggested_a"),
            registry: registry.clone(),
        }
    }
}

/// A RAW ORAM over any [`BucketStore`], with VTree-backed valid flags.
#[derive(Debug)]
pub struct RawOram<S: BucketStore> {
    store: S,
    position: PositionMap,
    stash: Stash,
    vtree: VTree,
    schedule: EvictionSchedule,
    eo_counter: RootCounter,
    inserts_since_eo: u32,
    config: RawOramConfig,
    num_blocks: u64,
    /// Repairs per node: each re-seals the bucket one counter past its
    /// derived value, so a node's counter is the derived count plus this.
    repaired: BTreeMap<u64, u64>,
    telemetry: OramTelemetry,
    /// Reused eviction output-path buffer (cleared, not reallocated).
    scratch_path: Vec<Bucket>,
    /// Reused valid-bit buffer for VTree bucket updates.
    scratch_bits: Vec<bool>,
    /// Reused per-path counter buffer (root first).
    scratch_counts: Vec<u64>,
}

impl<S: BucketStore> RawOram<S> {
    /// Creates a RAW ORAM holding `num_blocks` blocks, bulk-loading the
    /// initial payloads produced by `init` (e.g. fresh embedding rows).
    /// Every bucket is sealed once, at counter 0; that traffic is excluded
    /// from device statistics.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` exceeds the leaf count (provisioning bound)
    /// or if `eviction_period` is zero.
    pub fn new<R: Rng, F: FnMut(u64) -> Vec<u8>>(
        mut store: S,
        num_blocks: u64,
        config: RawOramConfig,
        mut init: F,
        rng: &mut R,
    ) -> Self {
        assert!(
            config.eviction_period > 0,
            "eviction period must be positive"
        );
        let geo = store.geometry();
        assert!(
            2 * num_blocks <= geo.capacity_blocks(),
            "{num_blocks} blocks over capacity {} breaks the ≤50% provisioning bound",
            geo.capacity_blocks()
        );
        let position = PositionMap::random(num_blocks, geo.num_leaves(), rng);
        let mut vtree = VTree::with_default_dram(geo);

        // Bulk-load: place each block as deep as possible on its path.
        let mut buckets: Vec<Bucket> = (0..geo.num_nodes())
            .map(|_| Bucket::empty(geo.z(), geo.block_bytes()))
            .collect();
        let mut stash = Stash::new();
        for id in 0..num_blocks {
            let leaf = position.get(id);
            let payload = init(id);
            assert_eq!(payload.len(), geo.block_bytes(), "init payload size");
            let block = Block::new(id, leaf, payload);
            let mut placed = false;
            for &node in geo.path_nodes(leaf).iter().rev() {
                if buckets[node as usize].try_insert(block.clone()) {
                    placed = true;
                    break;
                }
            }
            if !placed {
                stash.push(block);
            }
        }
        for (node, bucket) in buckets.iter().enumerate() {
            #[allow(clippy::expect_used)] // pre-injector, tree sized exactly
            store
                .write_bucket(node as u64, bucket, 0)
                .expect("bulk load within provisioned tree");
            let bits: Vec<bool> = bucket.slots().iter().map(|s| s.valid).collect();
            vtree.set_bucket(node as u64, &bits);
        }
        store.reset_device_stats();

        RawOram {
            store,
            position,
            stash,
            vtree,
            schedule: EvictionSchedule::new(geo.depth()),
            eo_counter: RootCounter::new(),
            inserts_since_eo: 0,
            config,
            num_blocks,
            repaired: BTreeMap::new(),
            telemetry: OramTelemetry::default(),
            scratch_path: Vec::new(),
            scratch_bits: Vec::new(),
            scratch_counts: Vec::new(),
        }
    }

    /// Attaches telemetry: ORAM access/eviction latency histograms and
    /// operation counters, stash occupancy gauges, VTree traversal
    /// counters, and the backing store's device/integrity/AEAD
    /// instrumentation all feed `registry`.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = OramTelemetry::attach(registry);
        self.store.set_telemetry(registry);
        self.vtree.set_telemetry(registry);
        // Until evictions produce data, the configured period is the best
        // suggestion — registering it eagerly keeps the gauge in every
        // snapshot (ROADMAP: eviction-tuning report).
        self.telemetry
            .suggested_a
            .set_u64(u64::from(self.config.eviction_period));
    }

    /// Recomputes `oram.eviction.suggested_a` from the stash high-water mark
    /// and the observed access/eviction latencies. Two pressures:
    ///
    /// * **Backlog**: a stash high-water mark running past `2A` says paths
    ///   fill faster than evictions drain them — shrink the period; a mark
    ///   well under `A` says evictions are wastefully frequent — stretch it
    ///   (bounded to 0.5–2× per report so the suggestion moves smoothly).
    /// * **Latency floor**: below `mean(eviction) / mean(access)` the
    ///   amortized per-insertion eviction cost would exceed one access, so
    ///   suggestions never drop under that ratio.
    fn update_suggested_a(&self) {
        if !self.telemetry.registry.is_enabled() {
            return;
        }
        let a = f64::from(self.config.eviction_period);
        let high_water = self.stash.high_water() as f64;
        let backlog = (2.0 * a / high_water.max(1.0)).clamp(0.5, 2.0);
        let mut suggested = (a * backlog).max(1.0);
        let access = self.telemetry.access_latency.summary();
        let eviction = self.telemetry.eviction_latency.summary();
        if access.count > 0 && eviction.count > 0 && access.mean() > 0.0 {
            suggested = suggested.max((eviction.mean() / access.mean()).max(1.0));
        }
        self.telemetry.suggested_a.set(suggested.round());
    }

    fn note_stash(&mut self) {
        self.telemetry.stash_len.set_u64(self.stash.len() as u64);
        self.telemetry
            .stash_high_water
            .set_u64(self.stash.high_water() as u64);
    }

    /// Number of logical blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the backing store (stats resets).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// The VTree (for size/traffic queries).
    pub fn vtree(&self) -> &VTree {
        &self.vtree
    }

    /// Total EO accesses so far (the root counter).
    pub fn eo_count(&self) -> u64 {
        self.eo_counter.get()
    }

    /// `node`'s encryption counter after `eo_count` evictions: the times
    /// the schedule has written it, plus its repairs.
    fn counter(&self, node: u64, eo_count: u64) -> u64 {
        let (level, index) = self.store.geometry().coords_of(node);
        self.schedule.writes_to_bucket(level, index, eo_count)
            + self.repaired.get(&node).copied().unwrap_or(0)
    }

    /// Fills `scratch_counts` with the counters of the path to `leaf`
    /// (root first) after `eo_count` evictions.
    fn path_counts(&mut self, leaf: u64, eo_count: u64) {
        let geo = self.store.geometry();
        self.scratch_counts.clear();
        for level in 0..=geo.depth() {
            let count = self.counter(geo.node_at(level, leaf >> (geo.depth() - level)), eo_count);
            self.scratch_counts.push(count);
        }
    }

    /// Reads and decrypts one bucket at its current counter (scrubbing).
    ///
    /// # Errors
    ///
    /// [`OramError::Integrity`] when the bucket does not authenticate.
    pub fn read_bucket(&mut self, node: u64) -> Result<Bucket, OramError> {
        let count = self.counter(node, self.eo_counter.get());
        self.store.read_bucket(node, count)
    }

    /// Repairs an unrecoverable bucket: re-seals it *empty* one counter
    /// past its current one, clears its quarantine flag and the VTree's
    /// valid bits for it, so the tree decrypts cleanly again and a replay
    /// of the damaged bucket's old page reads as a rollback. Blocks that
    /// resided in the bucket are lost — later fetches of those ids report
    /// [`OramError::MissingBlock`], which callers use to quarantine the
    /// affected entries (degraded mode) rather than abort.
    ///
    /// # Errors
    ///
    /// Store errors propagate.
    pub fn repair_bucket(&mut self, node: u64) -> Result<(), OramError> {
        let geo = self.store.geometry();
        let count = self.counter(node, self.eo_counter.get()) + 1;
        self.store
            .write_bucket(node, &Bucket::empty(geo.z(), geo.block_bytes()), count)?;
        *self.repaired.entry(node).or_insert(0) += 1;
        self.store.clear_quarantine(node);
        self.vtree.set_bucket(node, &vec![false; geo.z()]);
        Ok(())
    }

    /// Verifies every bucket's MAC at its derived counter (retrying
    /// recoverable faults) and reports unrecoverable buckets.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for node in 0..self.store.geometry().num_nodes() {
            report.checked += 1;
            match self.read_bucket(node) {
                Ok(_) => report.healthy += 1,
                Err(OramError::Integrity { kind, node: bad }) => report.failed.push((bad, kind)),
                Err(_) => report.failed.push((node, IntegrityError::Corruption)),
            }
        }
        report
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Highest stash occupancy observed.
    pub fn stash_high_water(&self) -> usize {
        self.stash.high_water()
    }

    fn check_id(&self, id: u64) -> Result<(), OramError> {
        if id >= self.num_blocks {
            return Err(OramError::BlockOutOfRange {
                id,
                capacity: self.num_blocks,
            });
        }
        Ok(())
    }

    /// FEDORA read-phase fetch (step ③): an AO access that removes the
    /// block from the main ORAM entirely (it moves to the buffer ORAM).
    /// Issues **no SSD writes** — slot invalidation goes to the VTree.
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] for bad ids; [`OramError::
    /// MissingBlock`] if the invariant is broken (corruption).
    pub fn fetch<R: Rng>(&mut self, id: u64, _rng: &mut R) -> Result<Block, OramError> {
        self.check_id(id)?;
        let _trace = self
            .telemetry
            .registry
            .trace_span_with("oram.access", &[("kind", "ao".into())]);
        let _timer = self.telemetry.access_latency.start_timer();
        self.telemetry.ao_accesses.incr();
        let leaf = self.position.get(id);

        // The path is always read, even when the block turns out to be in
        // the stash — the access pattern must not depend on that.
        let geo = self.store.geometry();
        let nodes = geo.path_nodes(leaf);
        self.path_counts(leaf, self.eo_counter.get());
        let path = self.store.read_path(leaf, &self.scratch_counts)?;

        if let Some(block) = self.stash.take(id) {
            self.note_stash();
            return Ok(block);
        }
        for (bucket, &node) in path.iter().zip(&nodes) {
            for (slot_idx, slot) in bucket.slots().iter().enumerate() {
                if slot.valid && self.vtree.get(node, slot_idx) && slot.block.id == id {
                    self.vtree.set(node, slot_idx, false);
                    return Ok(slot.block.clone());
                }
            }
        }
        Err(OramError::MissingBlock { id })
    }

    /// A dummy AO access: reads a uniformly random path and discards it.
    /// Used for the FDP mechanism's padding accesses (`k > k_union`).
    pub fn dummy_fetch<R: Rng>(&mut self, rng: &mut R) -> Result<(), OramError> {
        let _trace = self
            .telemetry
            .registry
            .trace_span_with("oram.access", &[("kind", "dummy".into())]);
        let _timer = self.telemetry.access_latency.start_timer();
        self.telemetry.dummy_accesses.incr();
        let geo = self.store.geometry();
        let leaf = rng.gen_range(0..geo.num_leaves());
        self.path_counts(leaf, self.eo_counter.get());
        let _ = self.store.read_path(leaf, &self.scratch_counts)?;
        Ok(())
    }

    /// FEDORA write-phase insert (step ⑦): the block returns from the
    /// buffer ORAM with fresh randomness; after every `A` insertions one EO
    /// access writes the stash back into the tree. No AO accesses occur.
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] / [`OramError::BadPayloadLength`] on
    /// malformed input; store errors propagate from the EO.
    pub fn insert<R: Rng>(
        &mut self,
        id: u64,
        payload: Vec<u8>,
        rng: &mut R,
    ) -> Result<(), OramError> {
        self.check_id(id)?;
        let geo = self.store.geometry();
        if payload.len() != geo.block_bytes() {
            return Err(OramError::BadPayloadLength {
                got: payload.len(),
                want: geo.block_bytes(),
            });
        }
        let new_leaf = rng.gen_range(0..geo.num_leaves());
        self.position.set(id, new_leaf);
        self.stash.push(Block::new(id, new_leaf, payload));
        self.telemetry.insertions.incr();
        self.note_stash();
        self.inserts_since_eo += 1;
        if self.inserts_since_eo >= self.config.eviction_period {
            self.inserts_since_eo = 0;
            self.eo_access()?;
        }
        Ok(())
    }

    /// A dummy insertion for the write phase's FDP padding: advances the
    /// EO cadence exactly like a real insertion (the adversary cannot
    /// distinguish them — both are stash pushes with no immediate memory
    /// access) without adding a block.
    ///
    /// # Errors
    ///
    /// Store errors propagate from a triggered EO.
    pub fn insert_dummy(&mut self) -> Result<(), OramError> {
        self.telemetry.insertions.incr();
        self.inserts_since_eo += 1;
        if self.inserts_since_eo >= self.config.eviction_period {
            self.inserts_since_eo = 0;
            self.eo_access()?;
        }
        Ok(())
    }

    /// One EO access: read the next path in reverse-lexicographic order,
    /// merge its (VTree-valid) blocks with the stash, greedily refill the
    /// path, and write it back. This is the **only** operation that writes
    /// to the backing store: eviction `e` reads its path at the counters
    /// for `e` evictions and writes it at those for `e + 1`.
    ///
    /// # Errors
    ///
    /// Store errors propagate. A failed path read leaves the EO count
    /// unchanged, so the tree's counters still match its pages.
    pub fn eo_access(&mut self) -> Result<(), OramError> {
        let _trace = self.telemetry.registry.trace_span("oram.eviction");
        let timer = self.telemetry.eviction_latency.start_timer();
        self.telemetry.eo_accesses.incr();
        let geo = self.store.geometry();
        let e = self.eo_counter.get();
        let leaf = self.schedule.leaf_for(e);

        let nodes = geo.path_nodes(leaf);
        self.path_counts(leaf, e);
        let path = self.store.read_path(leaf, &self.scratch_counts)?;
        self.eo_counter.advance();
        for (bucket, &node) in path.iter().zip(&nodes) {
            for (slot_idx, slot) in bucket.slots().iter().enumerate() {
                if slot.valid && self.vtree.get(node, slot_idx) {
                    self.stash.push(slot.block.clone());
                }
                // The slot is being rebuilt either way.
                self.vtree.set(node, slot_idx, false);
            }
        }

        // Rebuild the output path in the reused scratch buffer: clearing
        // zeroes the slots in place, so the written bytes are identical to
        // freshly allocated empty buckets without the per-eviction
        // allocation of `levels · z` blocks.
        if self.scratch_path.len() != nodes.len() {
            self.scratch_path = vec![Bucket::empty(geo.z(), geo.block_bytes()); nodes.len()];
        } else {
            for bucket in &mut self.scratch_path {
                bucket.clear();
            }
        }
        for level in (0..=geo.depth()).rev() {
            for block in self
                .stash
                .drain_for_bucket(leaf, level, geo.depth(), geo.z())
            {
                let inserted = self.scratch_path[level as usize].try_insert(block);
                debug_assert!(inserted, "drain_for_bucket respects capacity");
            }
        }
        for (bucket, &node) in self.scratch_path.iter().zip(&nodes) {
            self.scratch_bits.clear();
            self.scratch_bits
                .extend(bucket.slots().iter().map(|s| s.valid));
            self.vtree.set_bucket(node, &self.scratch_bits);
        }
        self.note_stash();
        self.path_counts(leaf, e + 1);
        let result = self
            .store
            .write_path(leaf, &self.scratch_path, &self.scratch_counts);
        timer.stop(); // record this eviction before deriving the suggestion
        self.update_suggested_a();
        result
    }

    /// Serializes the controller state — position map, stash, VTree image,
    /// root EO counter, eviction cadence, and repaired buckets — into `w`.
    /// The backing store is encoded separately by the caller (it owns the
    /// device image).
    pub fn encode_controller_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.num_blocks);
        self.position.encode_state(w);
        self.stash.encode_state(w);
        self.vtree.encode_state(w);
        w.put_u64(self.eo_counter.get());
        w.put_u32(self.inserts_since_eo);
        let repaired: Vec<u64> = self.repaired.iter().flat_map(|(&n, &c)| [n, c]).collect();
        w.put_u64s(&repaired);
    }

    /// Restores controller state captured by
    /// [`encode_controller_state`](Self::encode_controller_state) onto an
    /// ORAM of the same shape. The root EO counter is restored verbatim,
    /// since it fixes every bucket's counter: reads at a stale count fail
    /// authentication, and writes at one would reuse nonces.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a shape mismatch.
    pub fn decode_controller_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        if r.get_u64()? != self.num_blocks {
            return Err(CodecError::Invalid("raw-oram block-count mismatch"));
        }
        self.position.decode_state(r)?;
        self.stash.decode_state(r)?;
        self.vtree.decode_state(r)?;
        self.eo_counter = RootCounter::from_count(r.get_u64()?);
        self.inserts_since_eo = r.get_u32()?;
        let repaired = r.get_u64s()?;
        let num_nodes = self.store.geometry().num_nodes();
        if repaired.len() % 2 != 0 || repaired.chunks(2).any(|p| p[0] >= num_nodes) {
            return Err(CodecError::Invalid("repaired bucket out of range"));
        }
        self.repaired = repaired.chunks(2).map(|p| (p[0], p[1])).collect();
        Ok(())
    }

    /// Drains the stash by running EO accesses until it is empty or
    /// `max_eos` have run. Returns the number of EOs performed.
    ///
    /// # Errors
    ///
    /// Store errors propagate.
    pub fn flush(&mut self, max_eos: u64) -> Result<u64, OramError> {
        let mut n = 0;
        while !self.stash.is_empty() && n < max_eos {
            self.eo_access()?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::TreeGeometry;
    use crate::store::{DramBucketStore, SsdBucketStore};
    use fedora_crypto::aead::Key;
    use fedora_storage::profile::SsdProfile;
    use fedora_storage::AccessTraceRecorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn oram(blocks: u64, a: u32, seed: u64) -> (RawOram<DramBucketStore>, StdRng) {
        let geo = TreeGeometry::for_blocks(blocks, 16, 8);
        let store = DramBucketStore::with_default_dram(geo, Key::from_bytes([2; 32]));
        let mut rng = StdRng::seed_from_u64(seed);
        let o = RawOram::new(
            store,
            blocks,
            RawOramConfig { eviction_period: a },
            |id| vec![id as u8; 16],
            &mut rng,
        );
        (o, rng)
    }

    fn ssd_oram(blocks: u64, a: u32, seed: u64) -> (RawOram<SsdBucketStore>, StdRng) {
        let geo = TreeGeometry::for_blocks(blocks, 16, 8);
        let store = SsdBucketStore::new(geo, Key::from_bytes([2; 32]), SsdProfile::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let o = RawOram::new(
            store,
            blocks,
            RawOramConfig { eviction_period: a },
            |id| vec![id as u8; 16],
            &mut rng,
        );
        (o, rng)
    }

    /// `before ⊕ after ⊕ empty`: the plaintext of `after`'s bucket when
    /// both pages were sealed at one nonce and `before` held the empty
    /// bucket.
    fn xor_with_empty(before: &[u8], after: &[u8], geo: TreeGeometry) -> Vec<u8> {
        let empty = Bucket::empty(geo.z(), geo.block_bytes()).to_bytes();
        empty
            .iter()
            .zip(before.iter().zip(after))
            .map(|(e, (b, a))| e ^ b ^ a)
            .collect()
    }

    #[test]
    fn bulk_load_seals_each_bucket_once() {
        let geo = TreeGeometry::for_blocks(64, 16, 8);
        let store = SsdBucketStore::new(geo, Key::from_bytes([2; 32]), SsdProfile::default());
        let pages = |s: &SsdBucketStore| -> Vec<Vec<u8>> {
            (0..geo.num_nodes())
                .map(|n| s.ssd().snapshot_page(n * s.pages_per_bucket()).unwrap())
                .collect()
        };
        let before = pages(&store);
        let mut rng = StdRng::seed_from_u64(14);
        let config = RawOramConfig { eviction_period: 4 };
        let mut o = RawOram::new(store, 64, config, |id| vec![id as u8; 16], &mut rng);
        let after = pages(o.store());
        let mut occupied = 0;
        for node in 0..geo.num_nodes() {
            let bucket = o.read_bucket(node).unwrap();
            if bucket.occupancy() > 0 {
                occupied += 1;
                let n = node as usize;
                assert_ne!(
                    xor_with_empty(&before[n], &after[n], geo),
                    bucket.to_bytes(),
                    "bucket {node} was sealed twice under one nonce"
                );
            }
        }
        assert!(occupied > 0);
    }

    #[test]
    fn repair_seals_at_a_fresh_counter() {
        let (mut o, mut rng) = ssd_oram(64, 4, 15);
        for round in 0..20u64 {
            let blocks: Vec<Block> = (0..8)
                .map(|i| o.fetch((i * 7 + round) % 64, &mut rng).unwrap())
                .collect();
            for b in blocks {
                o.insert(b.id, b.payload, &mut rng).unwrap();
            }
        }
        let geo = o.store().geometry();
        let node = (geo.num_nodes() - geo.num_leaves()..geo.num_nodes())
            .find(|&n| o.read_bucket(n).unwrap().occupancy() > 0)
            .expect("an occupied leaf bucket");
        let old = o.read_bucket(node).unwrap().to_bytes();
        let page = node * o.store().pages_per_bucket();
        let pre_damage = o.store().ssd().snapshot_page(page).unwrap();
        o.store_mut().ssd_mut().inject_bitflip(page, 3).unwrap();
        assert!(o.read_bucket(node).is_err());
        o.repair_bucket(node).unwrap();
        assert!(o.store().quarantined_nodes().is_empty());
        let repaired = o.store().ssd().snapshot_page(page).unwrap();
        assert_ne!(xor_with_empty(&pre_damage, &repaired, geo), old);
        // The pre-damage page is now one counter stale: a replay of it is
        // a rollback, not a fresh bucket.
        o.store_mut()
            .ssd_mut()
            .inject_rollback(page, &pre_damage)
            .unwrap();
        assert_eq!(
            o.read_bucket(node),
            Err(OramError::Integrity {
                kind: IntegrityError::Rollback,
                node
            })
        );
    }

    #[test]
    fn bulk_load_then_fetch_every_block() {
        let (mut o, mut rng) = oram(32, 4, 1);
        for id in 0..32u64 {
            let b = o.fetch(id, &mut rng).unwrap();
            assert_eq!(b.payload, vec![id as u8; 16], "block {id}");
            // Put it back so later fetches still find their blocks.
            o.insert(id, b.payload, &mut rng).unwrap();
        }
    }

    #[test]
    fn fetch_removes_block() {
        let (mut o, mut rng) = oram(16, 4, 2);
        let b = o.fetch(3, &mut rng).unwrap();
        assert_eq!(b.id, 3);
        // A second fetch of the same id must fail: the block left the ORAM.
        assert_eq!(o.fetch(3, &mut rng), Err(OramError::MissingBlock { id: 3 }));
    }

    #[test]
    fn read_phase_issues_no_writes() {
        let (mut o, mut rng) = oram(32, 4, 3);
        o.store_mut().reset_device_stats();
        for id in 0..16u64 {
            o.fetch(id, &mut rng).unwrap();
        }
        for _ in 0..8 {
            o.dummy_fetch(&mut rng).unwrap();
        }
        let stats = o.store().device_stats();
        assert_eq!(stats.bytes_written, 0, "AO accesses must be write-free");
        assert!(stats.bytes_read > 0);
    }

    #[test]
    fn write_phase_eo_every_a_inserts() {
        let (mut o, mut rng) = oram(32, 4, 4);
        // Fetch 12 blocks out, then insert them back.
        let blocks: Vec<Block> = (0..12).map(|id| o.fetch(id, &mut rng).unwrap()).collect();
        let eo_before = o.eo_count();
        for b in blocks {
            o.insert(b.id, b.payload, &mut rng).unwrap();
        }
        assert_eq!(o.eo_count() - eo_before, 3, "12 inserts / A=4 = 3 EOs");
    }

    #[test]
    fn roundtrip_through_phases_preserves_data() {
        let (mut o, mut rng) = oram(64, 8, 5);
        // Simulate 5 FEDORA rounds over random working sets.
        for round in 0..5 {
            let ids: Vec<u64> = (0..20).map(|i| (i * 3 + round) % 64).collect();
            let mut unique = ids.clone();
            unique.sort_unstable();
            unique.dedup();
            let fetched: Vec<Block> = unique
                .iter()
                .map(|&id| o.fetch(id, &mut rng).unwrap())
                .collect();
            for mut b in fetched {
                b.payload[0] = b.payload[0].wrapping_add(1);
                o.insert(b.id, b.payload, &mut rng).unwrap();
            }
        }
        // All blocks still present with coherent data.
        for id in 0..64u64 {
            let b = o.fetch(id, &mut rng).unwrap();
            assert_eq!(b.id, id);
            o.insert(id, b.payload, &mut rng).unwrap();
        }
    }

    #[test]
    fn tree_scrubs_clean_always() {
        let (mut o, mut rng) = oram(64, 4, 6);
        assert!(o.scrub().is_clean(), "after init");
        for id in 0..32u64 {
            let b = o.fetch(id, &mut rng).unwrap();
            o.insert(id, b.payload, &mut rng).unwrap();
        }
        assert!(o.scrub().is_clean(), "after a round");
        o.flush(1000).unwrap();
        assert!(o.scrub().is_clean(), "after flush");
    }

    #[test]
    fn stash_drains_via_flush() {
        let (mut o, mut rng) = oram(32, 1000, 8); // huge A: no automatic EO
        let blocks: Vec<Block> = (0..16).map(|id| o.fetch(id, &mut rng).unwrap()).collect();
        for b in blocks {
            o.insert(b.id, b.payload, &mut rng).unwrap();
        }
        assert_eq!(o.stash_len(), 16);
        let eos = o.flush(1000).unwrap();
        assert!(eos > 0);
        assert_eq!(o.stash_len(), 0);
    }

    #[test]
    fn eo_trace_is_deterministic_schedule() {
        let (mut o, mut rng) = ssd_oram(32, 1, 9);
        let recorder = AccessTraceRecorder::new();
        o.store_mut().set_access_recorder(recorder.clone());
        let blocks: Vec<Block> = (0..8).map(|id| o.fetch(id, &mut rng).unwrap()).collect();
        for b in blocks {
            o.insert(b.id, b.payload, &mut rng).unwrap();
        }
        // EO accesses are the path reads the device sees written back.
        let trace: Vec<u64> = o
            .store()
            .observed_paths(&recorder.take())
            .into_iter()
            .filter_map(|(leaf, written)| written.then_some(leaf))
            .collect();
        assert_eq!(trace.len(), 8);
        let sched = EvictionSchedule::new(o.store().geometry().depth());
        let expected: Vec<u64> = (0..trace.len() as u64).map(|e| sched.leaf_for(e)).collect();
        assert_eq!(trace, expected, "EO leaves follow the public schedule");
    }

    #[test]
    fn telemetry_mirrors_operation_counts() {
        let registry = Registry::new();
        let (mut o, mut rng) = oram(32, 4, 12);
        o.set_telemetry(&registry);
        let blocks: Vec<Block> = (0..8).map(|id| o.fetch(id, &mut rng).unwrap()).collect();
        o.dummy_fetch(&mut rng).unwrap();
        for b in blocks {
            o.insert(b.id, b.payload, &mut rng).unwrap();
        }
        let snap = registry.snapshot();
        // 8 fetches, 1 dummy, 8 insertions at A = 4: two evictions.
        assert_eq!(o.eo_count(), 2);
        assert_eq!(snap.counter("oram.access.ao"), Some(8));
        assert_eq!(snap.counter("oram.access.dummy"), Some(1));
        assert_eq!(snap.counter("oram.eviction.count"), Some(o.eo_count()));
        assert_eq!(snap.counter("oram.insertions"), Some(8));
        // One latency sample per AO/dummy access, one per EO.
        let access = snap.histogram("oram.access.latency").expect("histogram");
        assert_eq!(access.count, 9);
        assert!(access.min <= access.p50 && access.p50 <= access.max);
        let evict = snap.histogram("oram.eviction.latency").expect("histogram");
        assert_eq!(evict.count, o.eo_count());
        // Stash gauges track occupancy; VTree and device traffic mirrored.
        assert_eq!(
            snap.gauge("oram.stash.high_water"),
            Some(o.stash_high_water() as f64)
        );
        assert!(snap.counter("oram.vtree.lookups").unwrap_or(0) > 0);
        assert!(snap.counter("dram.store.pages_read").unwrap_or(0) > 0);
    }

    #[test]
    fn suggested_eviction_period_reported_in_every_snapshot() {
        let registry = Registry::new();
        let (mut o, mut rng) = oram(32, 4, 12);
        o.set_telemetry(&registry);
        // Present (at the configured A) before any eviction has run.
        assert_eq!(
            registry.snapshot().gauge("oram.eviction.suggested_a"),
            Some(4.0)
        );
        for id in 0..16u64 {
            let b = o.fetch(id, &mut rng).unwrap();
            o.insert(b.id, b.payload, &mut rng).unwrap();
        }
        let suggested = registry
            .snapshot()
            .gauge("oram.eviction.suggested_a")
            .expect("gauge present after evictions");
        // The heuristic is bounded: 0.5–2x the configured period, or the
        // eviction/access latency ratio floor — never zero or negative.
        assert!(suggested >= 1.0, "suggested A {suggested} below 1");
    }

    #[test]
    fn traced_round_emits_oram_spans() {
        let registry = Registry::new();
        registry.set_tracing(true);
        let (mut o, mut rng) = oram(32, 4, 12);
        o.set_telemetry(&registry);
        let b = o.fetch(3, &mut rng).unwrap();
        for _ in 0..4 {
            o.dummy_fetch(&mut rng).unwrap();
        }
        o.insert(b.id, b.payload, &mut rng).unwrap();
        o.flush(8).unwrap();
        let events = registry.snapshot().events;
        let begins: Vec<String> = events
            .iter()
            .filter(|e| e.name == "trace.begin")
            .filter_map(|e| match e.field("name") {
                Some(fedora_telemetry::Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(begins.iter().any(|n| n == "oram.access"));
        assert!(begins.iter().any(|n| n == "oram.eviction"));
        // Device I/O records attribute under the spans.
        assert!(events.iter().any(|e| e.name == "trace.io"));
    }

    #[test]
    fn detached_telemetry_changes_nothing() {
        let (mut o, mut rng) = oram(32, 4, 13);
        let (mut o2, mut rng2) = oram(32, 4, 13);
        o2.set_telemetry(&Registry::disabled());
        for id in 0..8u64 {
            let a = o.fetch(id, &mut rng).unwrap();
            let b = o2.fetch(id, &mut rng2).unwrap();
            assert_eq!(a, b);
            o.insert(id, a.payload.clone(), &mut rng).unwrap();
            o2.insert(id, b.payload, &mut rng2).unwrap();
        }
        assert_eq!(o.eo_count(), o2.eo_count());
        assert_eq!(o.stash_len(), o2.stash_len());
        assert_eq!(o.stash_high_water(), o2.stash_high_water());
        assert_eq!(o.store().device_stats(), o2.store().device_stats());
    }

    #[test]
    fn bad_inputs_rejected() {
        let (mut o, mut rng) = oram(8, 4, 10);
        assert_eq!(
            o.fetch(8, &mut rng),
            Err(OramError::BlockOutOfRange { id: 8, capacity: 8 })
        );
        assert_eq!(
            o.insert(0, vec![0u8; 3], &mut rng),
            Err(OramError::BadPayloadLength { got: 3, want: 16 })
        );
    }

    #[test]
    fn dummy_fetch_indistinguishable_in_counts() {
        let (mut o, mut rng) = oram(32, 4, 11);
        o.store_mut().reset_device_stats();
        o.fetch(0, &mut rng).unwrap();
        let real = o.store().device_stats();
        o.store_mut().reset_device_stats();
        o.dummy_fetch(&mut rng).unwrap();
        let dummy = o.store().device_stats();
        assert_eq!(real.pages_read, dummy.pages_read);
        assert_eq!(real.bytes_written, dummy.bytes_written);
    }
}
