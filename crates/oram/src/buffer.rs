//! The buffer ORAM (paper §4.3, Figure 5).
//!
//! Each round, the `k` entries read from the main ORAM move into this
//! smaller DRAM-resident ORAM. Its blocks are **twice** the main-ORAM block
//! size: the first half holds the entry value served to users, the second
//! half accumulates the (pre-processed) gradients, and an extra slot
//! accumulates the FedAvg sample count `n_t = Σ n_t^c`. At round end the
//! accumulated state streams back out for the post-aggregation function and
//! the main-ORAM update.
//!
//! The buffer ORAM is sized for the worst-case working set (max clients per
//! round × max features per client — both public protocol parameters), so
//! it can never overflow.

use fedora_crypto::aead::Key;
use fedora_storage::profile::DramProfile;
use fedora_storage::stats::DeviceStats;
use fedora_storage::{ByteReader, ByteWriter, CodecError};
use fedora_telemetry::{Counter, Registry};
use rand::Rng;

use crate::geometry::TreeGeometry;
use crate::path_oram::PathOram;
use crate::store::{BucketStore, DramBucketStore};
use crate::OramError;

/// Bytes of aggregation metadata per buffer block (the `n` accumulator).
pub const AGG_META_BYTES: usize = 8;

/// Errors specific to buffer ORAM round management.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferError {
    /// More entries were loaded than the configured capacity.
    CapacityExceeded {
        /// Configured capacity.
        capacity: usize,
    },
    /// An entry id not loaded this round was requested.
    NotLoaded {
        /// The offending entry id.
        id: u64,
    },
    /// Underlying ORAM failure.
    Oram(OramError),
}

impl From<OramError> for BufferError {
    fn from(e: OramError) -> Self {
        BufferError::Oram(e)
    }
}

impl core::fmt::Display for BufferError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BufferError::CapacityExceeded { capacity } => {
                write!(f, "buffer ORAM capacity {capacity} exceeded")
            }
            BufferError::NotLoaded { id } => write!(f, "entry {id} not loaded this round"),
            BufferError::Oram(e) => write!(f, "buffer ORAM backend: {e}"),
        }
    }
}

impl std::error::Error for BufferError {}

/// An entry drained from the buffer ORAM at round end.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregatedEntry {
    /// The embedding row id.
    pub id: u64,
    /// The entry value as served to users (f32 vector bytes).
    pub entry: Vec<u8>,
    /// The accumulated gradient Σ Pre(Δθᶜ), as f32s.
    pub gradient: Vec<f32>,
    /// The accumulated weight `n_t` (e.g. Σ sample counts).
    pub weight: f64,
}

/// Telemetry handles for the buffer ORAM's per-round protocol steps.
#[derive(Clone, Debug, Default)]
struct BufferTelemetry {
    registry: Registry,
    loads: Counter,
    serves: Counter,
    aggregates: Counter,
}

impl BufferTelemetry {
    fn attach(registry: &Registry) -> Self {
        BufferTelemetry {
            registry: registry.clone(),
            loads: registry.counter("oram.buffer.loads"),
            serves: registry.counter("oram.buffer.serves"),
            aggregates: registry.counter("oram.buffer.aggregates"),
        }
    }
}

/// The buffer ORAM.
#[derive(Clone)]
pub struct BufferOram {
    oram: PathOram<DramBucketStore>,
    entry_bytes: usize,
    capacity: usize,
    /// id → slot mapping for the current round (`None` marks a dummy
    /// entry from an FDP padding access). Lives inside the secure
    /// controller (its DRAM footprint is the position map the latency model
    /// charges for).
    loaded: Vec<(Option<u64>, u64)>,
    telemetry: BufferTelemetry,
}

/// Everything drained from the buffer ORAM at round end.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DrainedRound {
    /// The real entries with their accumulated gradients.
    pub entries: Vec<AggregatedEntry>,
    /// How many dummy entries were drained (they flow back to the main
    /// ORAM as dummy insertions, step ⑦).
    pub dummy_count: usize,
}

impl BufferOram {
    /// Creates a buffer ORAM able to hold `capacity` entries of
    /// `entry_bytes` each per round.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `entry_bytes` is not a multiple of 4
    /// (entries are f32 vectors).
    pub fn new<R: Rng>(capacity: usize, entry_bytes: usize, key: Key, rng: &mut R) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert_eq!(entry_bytes % 4, 0, "entries are f32 vectors");
        // Buffer blocks are 2× entry size + aggregation metadata (§4.3).
        let block_bytes = 2 * entry_bytes + AGG_META_BYTES;
        let geo = TreeGeometry::for_blocks(capacity as u64, block_bytes, 4);
        let store = DramBucketStore::new(geo, key, DramProfile::default());
        BufferOram {
            oram: PathOram::new(store, capacity as u64, rng),
            entry_bytes,
            capacity,
            loaded: Vec::new(),
            telemetry: BufferTelemetry::default(),
        }
    }

    /// Attaches telemetry: load/serve/aggregate counters under the
    /// `oram.buffer` prefix plus the backing DRAM store's traffic.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = BufferTelemetry::attach(registry);
        self.oram.store_mut().set_telemetry(registry);
    }

    /// The per-round capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entry payload size in bytes.
    pub fn entry_bytes(&self) -> usize {
        self.entry_bytes
    }

    /// DRAM statistics of the backing store.
    pub fn device_stats(&self) -> DeviceStats {
        self.oram.store().device_stats()
    }

    /// Number of entries loaded this round.
    pub fn loaded_len(&self) -> usize {
        self.loaded.len()
    }

    /// Whether `id` is loaded this round.
    pub fn is_loaded(&self, id: u64) -> bool {
        self.loaded.iter().any(|(eid, _)| *eid == Some(id))
    }

    fn slot_of(&self, id: u64) -> Result<u64, BufferError> {
        self.loaded
            .iter()
            .find(|(eid, _)| *eid == Some(id))
            .map(|(_, slot)| *slot)
            .ok_or(BufferError::NotLoaded { id })
    }

    fn encode(entry: &[u8], gradient: &[f32], weight: f64) -> Vec<u8> {
        let mut block = Vec::with_capacity(entry.len() * 2 + AGG_META_BYTES);
        block.extend_from_slice(entry);
        for g in gradient {
            block.extend_from_slice(&g.to_le_bytes());
        }
        block.extend_from_slice(&(weight as f32).to_le_bytes());
        block.extend_from_slice(&[0u8; 4]);
        block
    }

    fn decode(&self, id: u64, block: &[u8]) -> AggregatedEntry {
        let entry = block[..self.entry_bytes].to_vec();
        let gradient: Vec<f32> = block[self.entry_bytes..2 * self.entry_bytes]
            .chunks_exact(4)
            .map(crate::convert::le_f32)
            .collect();
        let weight =
            crate::convert::le_f32(&block[2 * self.entry_bytes..2 * self.entry_bytes + 4]) as f64;
        AggregatedEntry {
            id,
            entry,
            gradient,
            weight,
        }
    }

    /// Loads one entry fetched from the main ORAM (step ③): places it in
    /// the first free buffer slot with a zeroed aggregation half.
    ///
    /// # Errors
    ///
    /// [`BufferError::CapacityExceeded`] when the round's working set is
    /// larger than the provisioned capacity.
    ///
    /// # Panics
    ///
    /// Panics if `entry.len()` disagrees with the configured entry size.
    pub fn load_entry<R: Rng>(
        &mut self,
        id: u64,
        entry: &[u8],
        rng: &mut R,
    ) -> Result<(), BufferError> {
        assert_eq!(entry.len(), self.entry_bytes, "entry size mismatch");
        if self.loaded.len() >= self.capacity {
            return Err(BufferError::CapacityExceeded {
                capacity: self.capacity,
            });
        }
        let _trace = self
            .telemetry
            .registry
            .trace_span_with("buffer.load", &[("kind", "entry".into())]);
        let slot = self.loaded.len() as u64;
        let zeros = vec![0f32; self.entry_bytes / 4];
        let block = Self::encode(entry, &zeros, 0.0);
        self.oram.write(slot, block, rng)?;
        self.loaded.push((Some(id), slot));
        self.telemetry.loads.incr();
        Ok(())
    }

    /// Loads a dummy entry — the `X` of Figure 4, produced when the FDP
    /// mechanism padded the round (`k > k_union`). The buffer ORAM access
    /// is real (same observable cost as a genuine entry); the slot is
    /// drained back to the main ORAM as a dummy insertion at round end.
    ///
    /// # Errors
    ///
    /// [`BufferError::CapacityExceeded`] when the round overflows.
    pub fn load_dummy<R: Rng>(&mut self, rng: &mut R) -> Result<(), BufferError> {
        if self.loaded.len() >= self.capacity {
            return Err(BufferError::CapacityExceeded {
                capacity: self.capacity,
            });
        }
        let _trace = self
            .telemetry
            .registry
            .trace_span_with("buffer.load", &[("kind", "dummy".into())]);
        let slot = self.loaded.len() as u64;
        let zeros = vec![0f32; self.entry_bytes / 4];
        let entry = vec![0u8; self.entry_bytes];
        let block = Self::encode(&entry, &zeros, 0.0);
        self.oram.write(slot, block, rng)?;
        self.loaded.push((None, slot));
        self.telemetry.loads.incr();
        Ok(())
    }

    /// Serves one user download request (step ④): an ORAM read returning
    /// the entry value. One access per *request* (K per round), so serving
    /// leaks nothing about duplicate structure.
    ///
    /// # Errors
    ///
    /// [`BufferError::NotLoaded`] if the entry was dropped by the FDP
    /// mechanism this round (callers then apply their lost-entry strategy).
    pub fn serve<R: Rng>(&mut self, id: u64, rng: &mut R) -> Result<Vec<u8>, BufferError> {
        let slot = self.slot_of(id)?;
        let _trace = self.telemetry.registry.trace_span("buffer.serve");
        let block = self.oram.read(slot, rng)?;
        self.telemetry.serves.incr();
        Ok(block[..self.entry_bytes].to_vec())
    }

    /// Accumulates one user's (already pre-processed) gradient into the
    /// entry's aggregation half and adds `weight` to its `n` accumulator
    /// (step ⑥). One ORAM access per uploaded gradient.
    ///
    /// # Errors
    ///
    /// [`BufferError::NotLoaded`] for entries not in this round's set.
    ///
    /// # Panics
    ///
    /// Panics if the gradient length disagrees with the entry size.
    pub fn aggregate<R: Rng>(
        &mut self,
        id: u64,
        gradient: &[f32],
        weight: f64,
        rng: &mut R,
    ) -> Result<(), BufferError> {
        assert_eq!(
            gradient.len() * 4,
            self.entry_bytes,
            "gradient size mismatch"
        );
        let slot = self.slot_of(id)?;
        let _trace = self.telemetry.registry.trace_span("buffer.aggregate");
        let block = self.oram.read(slot, rng)?;
        let mut agg = self.decode(id, &block);
        for (a, g) in agg.gradient.iter_mut().zip(gradient) {
            *a += *g;
        }
        agg.weight += weight;
        let new_block = Self::encode(&agg.entry, &agg.gradient, agg.weight);
        self.oram.write(slot, new_block, rng)?;
        self.telemetry.aggregates.incr();
        Ok(())
    }

    /// Serializes the buffer ORAM's full state — round working set,
    /// controller (with its bucket counters), and encrypted DRAM store
    /// image — into `w` for checkpointing. The AEAD key is *not*
    /// serialized (it is config-derived; checkpoints must not leak key
    /// material).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.capacity as u64);
        w.put_u64(self.entry_bytes as u64);
        w.put_u64(self.loaded.len() as u64);
        for (id, slot) in &self.loaded {
            match id {
                Some(v) => {
                    w.put_bool(true);
                    w.put_u64(*v);
                }
                None => {
                    w.put_bool(false);
                    w.put_u64(0);
                }
            }
            w.put_u64(*slot);
        }
        self.oram.encode_controller_state(w);
        self.oram.store().encode_state(w);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a buffer ORAM constructed with the same capacity, entry size, and
    /// key.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a shape mismatch.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        if r.get_u64()? != self.capacity as u64 {
            return Err(CodecError::Invalid("buffer-oram capacity mismatch"));
        }
        if r.get_u64()? != self.entry_bytes as u64 {
            return Err(CodecError::Invalid("buffer-oram entry size mismatch"));
        }
        let count = r.get_u64()? as usize;
        if count > self.capacity {
            return Err(CodecError::Invalid("buffer-oram working set over capacity"));
        }
        let mut loaded = Vec::with_capacity(count);
        for _ in 0..count {
            let is_real = r.get_bool()?;
            let id = r.get_u64()?;
            let slot = r.get_u64()?;
            loaded.push((is_real.then_some(id), slot));
        }
        self.loaded = loaded;
        self.oram.decode_controller_state(r)?;
        self.oram.store_mut().decode_state(r)?;
        Ok(())
    }

    /// Drains every loaded entry with its accumulated gradient (step ⑦
    /// input), clearing the round's working set. Dummy slots are read too
    /// (same observable cost) and reported as a count.
    ///
    /// # Errors
    ///
    /// Backend ORAM errors propagate.
    pub fn drain_round<R: Rng>(&mut self, rng: &mut R) -> Result<DrainedRound, BufferError> {
        let _trace = self
            .telemetry
            .registry
            .trace_span_with("buffer.drain", &[("slots", self.loaded.len().into())]);
        let loaded = std::mem::take(&mut self.loaded);
        let mut out = DrainedRound::default();
        for (id, slot) in loaded {
            let block = self.oram.read(slot, rng)?;
            match id {
                Some(id) => out.entries.push(self.decode(id, &block)),
                None => out.dummy_count += 1,
            }
        }
        Ok(out)
    }
}

impl core::fmt::Debug for BufferOram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BufferOram")
            .field("capacity", &self.capacity)
            .field("entry_bytes", &self.entry_bytes)
            .field("loaded", &self.loaded.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn buffer(capacity: usize) -> (BufferOram, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let b = BufferOram::new(capacity, 16, Key::from_bytes([4; 32]), &mut rng);
        (b, rng)
    }

    fn f32s(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn entry(vals: [f32; 4]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn load_and_serve() {
        let (mut b, mut rng) = buffer(8);
        b.load_entry(42, &entry([1.0, 2.0, 3.0, 4.0]), &mut rng)
            .unwrap();
        let got = b.serve(42, &mut rng).unwrap();
        assert_eq!(f32s(&got), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn serve_unloaded_fails() {
        let (mut b, mut rng) = buffer(8);
        assert_eq!(b.serve(9, &mut rng), Err(BufferError::NotLoaded { id: 9 }));
    }

    #[test]
    fn capacity_enforced() {
        let (mut b, mut rng) = buffer(2);
        b.load_entry(0, &entry([0.0; 4]), &mut rng).unwrap();
        b.load_entry(1, &entry([0.0; 4]), &mut rng).unwrap();
        assert_eq!(
            b.load_entry(2, &entry([0.0; 4]), &mut rng),
            Err(BufferError::CapacityExceeded { capacity: 2 })
        );
    }

    #[test]
    fn aggregation_accumulates() {
        let (mut b, mut rng) = buffer(4);
        b.load_entry(7, &entry([1.0, 1.0, 1.0, 1.0]), &mut rng)
            .unwrap();
        b.aggregate(7, &[0.5, 0.0, -0.5, 1.0], 2.0, &mut rng)
            .unwrap();
        b.aggregate(7, &[0.5, 1.0, 0.5, -1.0], 3.0, &mut rng)
            .unwrap();
        let drained = b.drain_round(&mut rng).unwrap();
        assert_eq!(drained.entries.len(), 1);
        assert_eq!(drained.dummy_count, 0);
        let e = &drained.entries[0];
        assert_eq!(e.id, 7);
        assert_eq!(f32s(&e.entry), vec![1.0; 4]);
        assert_eq!(e.gradient, vec![1.0, 1.0, 0.0, 0.0]);
        assert!((e.weight - 5.0).abs() < 1e-6);
    }

    #[test]
    fn drain_clears_round() {
        let (mut b, mut rng) = buffer(4);
        b.load_entry(1, &entry([0.0; 4]), &mut rng).unwrap();
        let first = b.drain_round(&mut rng).unwrap();
        assert_eq!(first.entries.len(), 1);
        assert_eq!(b.loaded_len(), 0);
        assert!(b.drain_round(&mut rng).unwrap().entries.is_empty());
        // Slots are reusable next round.
        b.load_entry(2, &entry([9.0, 0.0, 0.0, 0.0]), &mut rng)
            .unwrap();
        assert_eq!(f32s(&b.serve(2, &mut rng).unwrap())[0], 9.0);
    }

    #[test]
    fn duplicate_serves_allowed() {
        // K requests > k_union entries: duplicates hit the same slot.
        let (mut b, mut rng) = buffer(4);
        b.load_entry(5, &entry([2.0, 0.0, 0.0, 0.0]), &mut rng)
            .unwrap();
        for _ in 0..10 {
            assert_eq!(f32s(&b.serve(5, &mut rng).unwrap())[0], 2.0);
        }
    }

    #[test]
    fn dummies_tracked_and_drained() {
        let (mut b, mut rng) = buffer(4);
        b.load_entry(1, &entry([1.0, 0.0, 0.0, 0.0]), &mut rng)
            .unwrap();
        b.load_dummy(&mut rng).unwrap();
        b.load_dummy(&mut rng).unwrap();
        assert_eq!(b.loaded_len(), 3);
        assert!(b.is_loaded(1));
        let d = b.drain_round(&mut rng).unwrap();
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.dummy_count, 2);
    }

    #[test]
    fn dummies_count_against_capacity() {
        let (mut b, mut rng) = buffer(2);
        b.load_dummy(&mut rng).unwrap();
        b.load_dummy(&mut rng).unwrap();
        assert_eq!(
            b.load_dummy(&mut rng),
            Err(BufferError::CapacityExceeded { capacity: 2 })
        );
    }

    #[test]
    fn blocks_are_double_size_plus_meta() {
        let (b, _) = buffer(4);
        let geo = b.oram.store().geometry();
        assert_eq!(geo.block_bytes(), 2 * 16 + AGG_META_BYTES);
    }

    #[test]
    fn telemetry_counts_round_steps() {
        let registry = Registry::new();
        let (mut b, mut rng) = buffer(4);
        b.set_telemetry(&registry);
        b.load_entry(1, &entry([1.0, 0.0, 0.0, 0.0]), &mut rng)
            .unwrap();
        b.load_dummy(&mut rng).unwrap();
        b.serve(1, &mut rng).unwrap();
        b.aggregate(1, &[1.0, 0.0, 0.0, 0.0], 1.0, &mut rng)
            .unwrap();
        b.drain_round(&mut rng).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("oram.buffer.loads"), Some(2));
        assert_eq!(snap.counter("oram.buffer.serves"), Some(1));
        assert_eq!(snap.counter("oram.buffer.aggregates"), Some(1));
        assert!(snap.counter("dram.store.bytes_written").unwrap_or(0) > 0);
    }

    #[test]
    fn weight_supports_dropout_semantics() {
        // A user "drops out": their gradient is simply never aggregated;
        // n_t reflects only survivors (dynamic adjustment of Eq. 1).
        let (mut b, mut rng) = buffer(4);
        b.load_entry(3, &entry([0.0; 4]), &mut rng).unwrap();
        b.aggregate(3, &[1.0, 0.0, 0.0, 0.0], 1.0, &mut rng)
            .unwrap();
        // Second user drops out: no call.
        let e = &b.drain_round(&mut rng).unwrap().entries[0];
        assert!((e.weight - 1.0).abs() < 1e-6);
    }
}
