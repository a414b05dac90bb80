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
//! A round touches the tree in three steps:
//!
//! 1. **Build.** [`BufferOram::load_round`] takes the whole working set
//!    at once and [`PathOram::build`] seals every bucket once, in node
//!    order. The blocks' leaves are fresh uniform draws and their contents
//!    are sealed, so the store sees the same `num_nodes` bucket writes
//!    whatever `k`, the ids or the values are.
//! 2. **Paths.** Every serve and every aggregate is one Path ORAM access
//!    (aggregation reads, adds and writes back in the same access), and a
//!    request for an entry the FDP mechanism dropped still costs one dummy
//!    access. The round thus makes one path access per request and one
//!    per uploaded gradient, however the requests repeat.
//! 3. **Sweep.** [`BufferOram::drain_round`] opens every bucket once, in
//!    node order, and hands the entries back in load order.
//!
//! The buffer ORAM is sized for the worst-case working set (max clients per
//! round × max features per client — both public protocol parameters), so
//! it can never overflow.

use fedora_crypto::aead::Key;
use fedora_storage::profile::DramProfile;
use fedora_storage::stats::DeviceStats;
use fedora_storage::{ByteReader, ByteWriter, CodecError};
use fedora_telemetry::{Counter, Gauge, Registry};
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
#[derive(Debug, Default)]
struct BufferTelemetry {
    registry: Registry,
    loads: Counter,
    serves: Counter,
    aggregates: Counter,
    stash_high_water: Gauge,
}

impl BufferTelemetry {
    fn attach(registry: &Registry) -> Self {
        BufferTelemetry {
            registry: registry.clone(),
            loads: registry.counter("oram.buffer.loads"),
            serves: registry.counter("oram.buffer.serves"),
            aggregates: registry.counter("oram.buffer.aggregates"),
            stash_high_water: registry.gauge("oram.buffer.stash.high_water"),
        }
    }
}

/// The buffer ORAM.
pub struct BufferOram {
    oram: PathOram<DramBucketStore>,
    entry_bytes: usize,
    capacity: usize,
    /// The entry id of each slot of the current round, in load order
    /// (`None` marks a dummy slot from an FDP padding access). Lives inside
    /// the secure controller (its DRAM footprint is the position map the
    /// latency model charges for).
    loaded: Vec<Option<u64>>,
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

    /// Attaches telemetry: load/serve/aggregate counters and the stash
    /// high-water gauge under the `oram.buffer` prefix, plus the backing
    /// DRAM store's traffic.
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

    /// The backing tree's shape.
    pub fn geometry(&self) -> TreeGeometry {
        self.oram.store().geometry()
    }

    /// DRAM statistics of the backing store.
    pub fn device_stats(&self) -> DeviceStats {
        self.oram.store().device_stats()
    }

    /// Highest stash occupancy observed.
    pub fn stash_high_water(&self) -> usize {
        self.oram.stash_high_water()
    }

    /// Number of entries loaded this round.
    pub fn loaded_len(&self) -> usize {
        self.loaded.len()
    }

    fn slot_of(&self, id: u64) -> Result<u64, BufferError> {
        self.loaded
            .iter()
            .position(|&eid| eid == Some(id))
            .map(|slot| slot as u64)
            .ok_or(BufferError::NotLoaded { id })
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

    /// Loads the round's working set (step ③) with one whole-tree build.
    /// `slots` lists the round's slots in order: `Some((id, entry))` for
    /// an entry fetched from the main ORAM, `None` for a dummy — the `X`
    /// of Figure 4, produced when the FDP mechanism padded the round or a
    /// fetch returned nothing new. Every slot starts with a zeroed
    /// aggregation half; dummy slots drain back to the main ORAM as dummy
    /// insertions at round end.
    ///
    /// # Errors
    ///
    /// [`BufferError::CapacityExceeded`] when the working set is larger
    /// than the provisioned capacity; [`OramError::BuildWhileLive`] when
    /// the previous round was not drained.
    ///
    /// # Panics
    ///
    /// Panics if an entry's length disagrees with the configured entry
    /// size.
    pub fn load_round<R: Rng>(
        &mut self,
        slots: Vec<Option<(u64, Vec<u8>)>>,
        rng: &mut R,
    ) -> Result<(), BufferError> {
        if slots.len() > self.capacity {
            return Err(BufferError::CapacityExceeded {
                capacity: self.capacity,
            });
        }
        let _trace = self
            .telemetry
            .registry
            .trace_span_with("buffer.build", &[("slots", slots.len().into())]);
        let block_bytes = 2 * self.entry_bytes + AGG_META_BYTES;
        let mut loaded = Vec::with_capacity(slots.len());
        let mut blocks = Vec::with_capacity(slots.len());
        for (slot, content) in slots.into_iter().enumerate() {
            let mut block = match content {
                Some((id, entry)) => {
                    assert_eq!(entry.len(), self.entry_bytes, "entry size mismatch");
                    loaded.push(Some(id));
                    entry
                }
                None => {
                    loaded.push(None);
                    vec![0u8; self.entry_bytes]
                }
            };
            block.resize(block_bytes, 0);
            blocks.push((slot as u64, block));
        }
        let n = blocks.len() as u64;
        self.oram.build(blocks, rng)?;
        self.loaded = loaded;
        self.telemetry.loads.add(n);
        Ok(())
    }

    /// Serves one user download request (step ④): an ORAM read returning
    /// the entry value. One access per *request* (K per round), so serving
    /// leaks nothing about duplicate structure; a request for a dropped
    /// entry pays the same access through
    /// [`dummy_access`](Self::dummy_access).
    ///
    /// # Errors
    ///
    /// [`BufferError::NotLoaded`] if the entry was dropped by the FDP
    /// mechanism this round (callers then apply their lost-entry strategy).
    pub fn serve<R: Rng>(&mut self, id: u64, rng: &mut R) -> Result<Vec<u8>, BufferError> {
        let slot = self.slot_of(id)?;
        let _trace = self.telemetry.registry.trace_span("buffer.serve");
        let mut block = self.oram.read(slot, rng)?;
        block.truncate(self.entry_bytes);
        self.telemetry.serves.incr();
        Ok(block)
    }

    /// Accumulates one user's (already pre-processed) gradient into the
    /// entry's aggregation half and adds `weight` to its `n` accumulator
    /// (step ⑥): one read-modify-write ORAM access per uploaded gradient.
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
        let entry_bytes = self.entry_bytes;
        self.oram.update(
            slot,
            |block| {
                let (sums, meta) = block[entry_bytes..].split_at_mut(entry_bytes);
                for (sum, g) in sums.chunks_exact_mut(4).zip(gradient) {
                    let total = crate::convert::le_f32(sum) + *g;
                    sum.copy_from_slice(&total.to_le_bytes());
                }
                let n = crate::convert::le_f32(&meta[..4]) as f64 + weight;
                meta[..4].copy_from_slice(&(n as f32).to_le_bytes());
            },
            rng,
        )?;
        self.telemetry.aggregates.incr();
        Ok(())
    }

    /// One access to a uniformly random path that touches no entry: what
    /// a serve or an aggregate for an entry the FDP mechanism dropped
    /// costs, so the round's path count does not depend on which entries
    /// were lost.
    ///
    /// # Errors
    ///
    /// Backend ORAM errors propagate.
    pub fn dummy_access<R: Rng>(&mut self, rng: &mut R) -> Result<(), BufferError> {
        let _trace = self.telemetry.registry.trace_span("buffer.dummy");
        self.oram.dummy_access(rng)?;
        Ok(())
    }

    /// Serializes what the buffer ORAM keeps across a restart: its shape
    /// and the per-bucket counters. Checkpoints are taken between rounds,
    /// when the buffer holds no entry, so neither the DRAM image nor the
    /// stash or working set is needed; the counters keep every seal after
    /// recovery at a fresh `(node, count)`. The AEAD key is *not*
    /// serialized (it is config-derived; checkpoints must not leak key
    /// material).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        debug_assert!(
            self.loaded.is_empty(),
            "checkpoints are taken between rounds"
        );
        w.put_u64(self.capacity as u64);
        w.put_u64(self.entry_bytes as u64);
        self.oram.encode_counters(w);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a buffer ORAM constructed with the same capacity, entry size, and
    /// key. The next round's build re-seals every bucket.
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
        self.oram.decode_counters(r)?;
        self.loaded.clear();
        Ok(())
    }

    /// Drains every loaded entry with its accumulated gradient (step ⑦
    /// input) with one sweep over the tree, clearing the round's working
    /// set. Entries come back in load order; dummy slots are reported as
    /// a count.
    ///
    /// # Errors
    ///
    /// [`OramError::Drained`] when no round was loaded since the last
    /// drain; backend ORAM errors propagate.
    pub fn drain_round(&mut self) -> Result<DrainedRound, BufferError> {
        let _trace = self
            .telemetry
            .registry
            .trace_span_with("buffer.drain", &[("slots", self.loaded.len().into())]);
        let mut blocks = self.oram.drain()?;
        // Published once per round; the mark covers the whole round.
        self.telemetry
            .stash_high_water
            .set_u64(self.oram.stash_high_water() as u64);
        blocks.sort_unstable_by_key(|b| b.id);
        let mut blocks = blocks.into_iter();
        let mut out = DrainedRound::default();
        for (slot, id) in std::mem::take(&mut self.loaded).into_iter().enumerate() {
            let slot = slot as u64;
            let block = blocks
                .next()
                .filter(|b| b.id == slot)
                .ok_or(OramError::MissingBlock { id: slot })?;
            match id {
                Some(id) => out.entries.push(self.decode(id, &block.payload)),
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

    /// A working set of real entries only.
    fn entries(list: &[(u64, [f32; 4])]) -> Vec<Option<(u64, Vec<u8>)>> {
        list.iter().map(|&(id, v)| Some((id, entry(v)))).collect()
    }

    #[test]
    fn load_and_serve() {
        let (mut b, mut rng) = buffer(8);
        b.load_round(entries(&[(42, [1.0, 2.0, 3.0, 4.0])]), &mut rng)
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
        let three = entries(&[(0, [0.0; 4]), (1, [0.0; 4]), (2, [0.0; 4])]);
        assert_eq!(
            b.load_round(three, &mut rng),
            Err(BufferError::CapacityExceeded { capacity: 2 })
        );
        b.load_round(entries(&[(0, [0.0; 4]), (1, [0.0; 4])]), &mut rng)
            .unwrap();
    }

    #[test]
    fn aggregation_accumulates() {
        let (mut b, mut rng) = buffer(4);
        b.load_round(entries(&[(7, [1.0, 1.0, 1.0, 1.0])]), &mut rng)
            .unwrap();
        b.aggregate(7, &[0.5, 0.0, -0.5, 1.0], 2.0, &mut rng)
            .unwrap();
        b.aggregate(7, &[0.5, 1.0, 0.5, -1.0], 3.0, &mut rng)
            .unwrap();
        let drained = b.drain_round().unwrap();
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
        b.load_round(entries(&[(1, [0.0; 4])]), &mut rng).unwrap();
        let first = b.drain_round().unwrap();
        assert_eq!(first.entries.len(), 1);
        assert_eq!(b.loaded_len(), 0);
        // A drained tree holds stale buckets until the next build.
        assert_eq!(b.drain_round(), Err(BufferError::Oram(OramError::Drained)));
        // Slots are reusable next round.
        b.load_round(entries(&[(2, [9.0, 0.0, 0.0, 0.0])]), &mut rng)
            .unwrap();
        assert_eq!(f32s(&b.serve(2, &mut rng).unwrap())[0], 9.0);
    }

    #[test]
    fn duplicate_serves_allowed() {
        // K requests > k_union entries: duplicates hit the same slot.
        let (mut b, mut rng) = buffer(4);
        b.load_round(entries(&[(5, [2.0, 0.0, 0.0, 0.0])]), &mut rng)
            .unwrap();
        for _ in 0..10 {
            assert_eq!(f32s(&b.serve(5, &mut rng).unwrap())[0], 2.0);
        }
    }

    #[test]
    fn dummies_tracked_and_drained() {
        let (mut b, mut rng) = buffer(4);
        let mut slots = entries(&[(1, [1.0, 0.0, 0.0, 0.0])]);
        slots.extend([None, None]);
        b.load_round(slots, &mut rng).unwrap();
        assert_eq!(b.loaded_len(), 3);
        let d = b.drain_round().unwrap();
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.dummy_count, 2);
    }

    #[test]
    fn dummies_count_against_capacity() {
        let (mut b, mut rng) = buffer(2);
        assert_eq!(
            b.load_round(vec![None; 3], &mut rng),
            Err(BufferError::CapacityExceeded { capacity: 2 })
        );
        b.load_round(vec![None; 2], &mut rng).unwrap();
    }

    #[test]
    fn blocks_are_double_size_plus_meta() {
        let (b, _) = buffer(4);
        assert_eq!(b.geometry().block_bytes(), 2 * 16 + AGG_META_BYTES);
    }

    #[test]
    fn telemetry_counts_round_steps() {
        let registry = Registry::new();
        let (mut b, mut rng) = buffer(4);
        b.set_telemetry(&registry);
        let mut slots = entries(&[(1, [1.0, 0.0, 0.0, 0.0])]);
        slots.push(None);
        b.load_round(slots, &mut rng).unwrap();
        b.serve(1, &mut rng).unwrap();
        b.aggregate(1, &[1.0, 0.0, 0.0, 0.0], 1.0, &mut rng)
            .unwrap();
        b.dummy_access(&mut rng).unwrap();
        b.drain_round().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("oram.buffer.loads"), Some(2));
        assert_eq!(snap.counter("oram.buffer.serves"), Some(1));
        assert_eq!(snap.counter("oram.buffer.aggregates"), Some(1));
        assert_eq!(
            snap.gauge("oram.buffer.stash.high_water"),
            Some(b.stash_high_water() as f64)
        );
        assert!(snap.counter("dram.store.bytes_written").unwrap_or(0) > 0);
    }

    #[test]
    fn weight_supports_dropout_semantics() {
        // A user "drops out": their gradient is simply never aggregated;
        // n_t reflects only survivors (dynamic adjustment of Eq. 1).
        let (mut b, mut rng) = buffer(4);
        b.load_round(entries(&[(3, [0.0; 4])]), &mut rng).unwrap();
        b.aggregate(3, &[1.0, 0.0, 0.0, 0.0], 1.0, &mut rng)
            .unwrap();
        // Second user drops out: no call.
        let e = &b.drain_round().unwrap().entries[0];
        assert!((e.weight - 1.0).abs() < 1e-6);
    }

    /// Every slot loaded in a round drains back byte-identical and in
    /// load order, round after round, whatever was served in between.
    #[test]
    fn every_slot_drains_back_byte_identical_over_many_rounds() {
        let (mut b, mut rng) = buffer(32);
        for round in 0..60u64 {
            let k = rng.gen_range(0..=32usize);
            let slots: Vec<Option<(u64, Vec<u8>)>> = (0..k as u64)
                .map(|slot| {
                    rng.gen_bool(0.8).then(|| {
                        let id = round * 100 + slot;
                        (id, (0..16).map(|_| rng.gen()).collect())
                    })
                })
                .collect();
            b.load_round(slots.clone(), &mut rng).unwrap();
            let real: Vec<(u64, Vec<u8>)> = slots.iter().flatten().cloned().collect();
            for _ in 0..rng.gen_range(0..64) {
                match real.get(rng.gen_range(0..real.len().max(1))) {
                    Some((id, bytes)) => assert_eq!(&b.serve(*id, &mut rng).unwrap(), bytes),
                    None => b.dummy_access(&mut rng).unwrap(),
                }
            }
            let drained = b.drain_round().unwrap();
            assert_eq!(drained.dummy_count, k - real.len(), "round {round}");
            let got: Vec<(u64, Vec<u8>)> = drained
                .entries
                .into_iter()
                .map(|e| {
                    assert_eq!(e.gradient, vec![0.0; 4]);
                    assert_eq!(e.weight, 0.0);
                    (e.id, e.entry)
                })
                .collect();
            assert_eq!(got, real, "round {round}");
        }
    }

    /// The buffer's stash stays small over many full rounds at the
    /// benchmark's capacity: a build, one path per request and per
    /// gradient, then a sweep.
    #[test]
    fn stash_high_water_stays_bounded_over_400_rounds() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut b = BufferOram::new(256, 4, Key::from_bytes([4; 32]), &mut rng);
        for round in 0..400u64 {
            let k = [166u64, 256, 18][round as usize % 3];
            b.load_round((0..k).map(|id| Some((id, vec![0; 4]))).collect(), &mut rng)
                .unwrap();
            for _ in 0..256 {
                let id = rng.gen_range(0..k);
                b.serve(id, &mut rng).unwrap();
                b.aggregate(id, &[1.0], 1.0, &mut rng).unwrap();
            }
            b.drain_round().unwrap();
        }
        assert!(
            b.stash_high_water() <= 32,
            "stash high water {}",
            b.stash_high_water()
        );
    }
}
