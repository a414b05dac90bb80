//! Classic Path ORAM (Stefanov et al., CCS'13).
//!
//! Every access reads one whole path into the stash, serves the block,
//! remaps it to a fresh random leaf, and greedily writes the path back.
//! This is the engine inside the paper's `Path ORAM+` baseline and the
//! buffer ORAM; FEDORA's main ORAM uses the RAW variant in [`crate::raw`]
//! instead. Any access may write any path, so the controller keeps one
//! encryption counter per bucket.

use fedora_storage::{ByteReader, ByteWriter, CodecError};
use rand::Rng;

use crate::block::Block;
use crate::bucket::Bucket;
use crate::position::PositionMap;
use crate::stash::Stash;
use crate::store::BucketStore;
use crate::OramError;

/// A Path ORAM over any [`BucketStore`].
#[derive(Debug)]
pub struct PathOram<S: BucketStore> {
    store: S,
    position: PositionMap,
    stash: Stash,
    num_blocks: u64,
    /// Each bucket's encryption counter: how often its node was written.
    counts: Vec<u64>,
}

impl<S: BucketStore> PathOram<S> {
    /// Creates a Path ORAM holding `num_blocks` logical blocks, all
    /// initially zero-filled (blocks materialize in the tree as they are
    /// first evicted). Seals the empty tree at counter 0; that traffic is
    /// excluded from device statistics.
    ///
    /// # Panics
    ///
    /// Panics if the tree would be over half full — the provisioning
    /// bound that keeps stash occupancy small.
    pub fn new<R: Rng>(mut store: S, num_blocks: u64, rng: &mut R) -> Self {
        let geo = store.geometry();
        assert!(
            2 * num_blocks <= geo.capacity_blocks(),
            "{num_blocks} blocks over capacity {} breaks the ≤50% provisioning bound",
            geo.capacity_blocks()
        );
        let position = PositionMap::random(num_blocks, geo.num_leaves(), rng);
        let empty = Bucket::empty(geo.z(), geo.block_bytes());
        for node in 0..geo.num_nodes() {
            #[allow(clippy::expect_used)] // pre-injector, store sized for the tree
            store
                .write_bucket(node, &empty, 0)
                .expect("store sized for the tree");
        }
        store.reset_device_stats();
        PathOram {
            store,
            position,
            stash: Stash::new(),
            num_blocks,
            counts: vec![0; geo.num_nodes() as usize],
        }
    }

    /// Number of logical blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the backing store (for stats resets).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Highest stash occupancy observed.
    pub fn stash_high_water(&self) -> usize {
        self.stash.high_water()
    }

    /// The current leaf assignment of `id`. Crate-internal: the recursive
    /// position-map construction records where its level blocks landed.
    pub(crate) fn position_of(&mut self, id: u64) -> u64 {
        self.position.get(id)
    }

    /// Serializes the controller state — position map, stash, and bucket
    /// counters — into `w`. The backing store is encoded separately by
    /// the caller (it owns the device image).
    pub fn encode_controller_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.num_blocks);
        self.position.encode_state(w);
        self.stash.encode_state(w);
        w.put_u64s(&self.counts);
    }

    /// Restores controller state captured by
    /// [`encode_controller_state`](Self::encode_controller_state) onto an
    /// ORAM of the same shape.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a shape mismatch.
    pub fn decode_controller_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        if r.get_u64()? != self.num_blocks {
            return Err(CodecError::Invalid("path-oram block-count mismatch"));
        }
        self.position.decode_state(r)?;
        self.stash.decode_state(r)?;
        let counts = r.get_u64s()?;
        if counts.len() != self.counts.len() {
            return Err(CodecError::Invalid("path-oram node-count mismatch"));
        }
        self.counts = counts;
        Ok(())
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

    /// One physical access: reads the path to `leaf` into the stash, lets
    /// `serve` act on the stash, then greedily writes the path back
    /// (deepest level first), each bucket at its next counter.
    fn access_path<T>(
        &mut self,
        leaf: u64,
        serve: impl FnOnce(&mut Stash) -> T,
    ) -> Result<T, OramError> {
        let geo = self.store.geometry();
        let nodes = geo.path_nodes(leaf);
        let mut counts: Vec<u64> = nodes.iter().map(|&n| self.counts[n as usize]).collect();
        let mut path = self.store.read_path(leaf, &counts)?;
        for bucket in &mut path {
            for block in bucket.drain_valid() {
                self.stash.push(block);
            }
        }
        let served = serve(&mut self.stash);
        let mut out_path = vec![Bucket::empty(geo.z(), geo.block_bytes()); path.len()];
        for level in (0..=geo.depth()).rev() {
            for block in self
                .stash
                .drain_for_bucket(leaf, level, geo.depth(), geo.z())
            {
                let inserted = out_path[level as usize].try_insert(block);
                debug_assert!(inserted, "drain_for_bucket respects capacity");
            }
        }
        for (count, &node) in counts.iter_mut().zip(&nodes) {
            self.counts[node as usize] += 1;
            *count = self.counts[node as usize];
        }
        self.store.write_path(leaf, &out_path, &counts)?;
        Ok(served)
    }

    /// The core access: reads the block's path, optionally overwrites the
    /// payload, remaps the block, and evicts the path back.
    fn access<R: Rng>(
        &mut self,
        id: u64,
        new_payload: Option<Vec<u8>>,
        rng: &mut R,
    ) -> Result<Vec<u8>, OramError> {
        self.check_id(id)?;
        let geo = self.store.geometry();
        if let Some(p) = &new_payload {
            if p.len() != geo.block_bytes() {
                return Err(OramError::BadPayloadLength {
                    got: p.len(),
                    want: geo.block_bytes(),
                });
            }
        }
        let new_leaf = rng.gen_range(0..geo.num_leaves());
        let leaf = self.position.get_and_remap(id, new_leaf);
        // Serve the block, materializing it on first touch.
        self.access_path(leaf, |stash| {
            if let Some(block) = stash.get_mut(id) {
                let old_payload = block.payload.clone();
                block.leaf = new_leaf;
                if let Some(p) = new_payload {
                    block.payload = p;
                }
                old_payload
            } else {
                let old_payload = vec![0u8; geo.block_bytes()];
                let payload = new_payload.unwrap_or_else(|| old_payload.clone());
                stash.push(Block::new(id, new_leaf, payload));
                old_payload
            }
        })
    }

    /// Reads block `id`.
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] for bad ids; store errors propagate.
    pub fn read<R: Rng>(&mut self, id: u64, rng: &mut R) -> Result<Vec<u8>, OramError> {
        self.access(id, None, rng)
    }

    /// Writes block `id`, returning the previous payload.
    ///
    /// # Errors
    ///
    /// [`OramError::BadPayloadLength`] when `payload` is the wrong size;
    /// [`OramError::BlockOutOfRange`] for bad ids.
    pub fn write<R: Rng>(
        &mut self,
        id: u64,
        payload: Vec<u8>,
        rng: &mut R,
    ) -> Result<Vec<u8>, OramError> {
        self.access(id, Some(payload), rng)
    }

    /// Performs a dummy access: reads and rewrites a uniformly random path
    /// without touching any block — indistinguishable from a real access.
    pub fn dummy_access<R: Rng>(&mut self, rng: &mut R) -> Result<(), OramError> {
        let leaf = rng.gen_range(0..self.store.geometry().num_leaves());
        self.access_path(leaf, |_| ())
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

    fn oram(blocks: u64, seed: u64) -> (PathOram<DramBucketStore>, StdRng) {
        let geo = TreeGeometry::for_blocks(blocks, 16, 4);
        let store = DramBucketStore::with_default_dram(geo, Key::from_bytes([1; 32]));
        let mut rng = StdRng::seed_from_u64(seed);
        let o = PathOram::new(store, blocks, &mut rng);
        (o, rng)
    }

    /// A Path ORAM on the simulated SSD whose page trace — what an
    /// adversary watching the device sees — goes to the returned recorder.
    fn recorded_oram(
        blocks: u64,
        seed: u64,
    ) -> (PathOram<SsdBucketStore>, AccessTraceRecorder, StdRng) {
        let geo = TreeGeometry::for_blocks(blocks, 16, 4);
        let store = SsdBucketStore::new(geo, Key::from_bytes([1; 32]), SsdProfile::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut o = PathOram::new(store, blocks, &mut rng);
        let recorder = AccessTraceRecorder::new();
        o.store_mut().set_access_recorder(recorder.clone());
        (o, recorder, rng)
    }

    /// The leaf of every path access in `recorder`'s trace.
    fn observed_leaves(o: &PathOram<SsdBucketStore>, recorder: &AccessTraceRecorder) -> Vec<u64> {
        let paths = o.store().observed_paths(&recorder.take());
        assert!(
            paths.iter().all(|&(_, written)| written),
            "every access writes back"
        );
        paths.into_iter().map(|(leaf, _)| leaf).collect()
    }

    #[test]
    fn fresh_blocks_read_zero() {
        let (mut o, mut rng) = oram(16, 1);
        for id in 0..16 {
            assert_eq!(o.read(id, &mut rng).unwrap(), vec![0u8; 16]);
        }
    }

    #[test]
    fn write_then_read() {
        let (mut o, mut rng) = oram(32, 2);
        for id in 0..32u64 {
            o.write(id, vec![id as u8; 16], &mut rng).unwrap();
        }
        for id in 0..32u64 {
            assert_eq!(o.read(id, &mut rng).unwrap(), vec![id as u8; 16]);
        }
    }

    #[test]
    fn write_returns_old_value() {
        let (mut o, mut rng) = oram(8, 3);
        o.write(3, vec![1u8; 16], &mut rng).unwrap();
        let old = o.write(3, vec![2u8; 16], &mut rng).unwrap();
        assert_eq!(old, vec![1u8; 16]);
        assert_eq!(o.read(3, &mut rng).unwrap(), vec![2u8; 16]);
    }

    #[test]
    fn interleaved_workload_consistent() {
        let (mut o, mut rng) = oram(64, 4);
        let mut model = vec![vec![0u8; 16]; 64];
        for step in 0..500u64 {
            let id = rng.gen_range(0..64u64);
            if step % 3 == 0 {
                let val = vec![(step % 251) as u8; 16];
                o.write(id, val.clone(), &mut rng).unwrap();
                model[id as usize] = val;
            } else {
                assert_eq!(
                    o.read(id, &mut rng).unwrap(),
                    model[id as usize],
                    "step {step}"
                );
            }
        }
    }

    #[test]
    fn stash_stays_bounded() {
        let (mut o, mut rng) = oram(64, 5);
        for _ in 0..1000 {
            let id = rng.gen_range(0..64u64);
            o.read(id, &mut rng).unwrap();
        }
        // The classic bound: stash stays small (well under N).
        assert!(
            o.stash_high_water() < 30,
            "stash high water {} too large",
            o.stash_high_water()
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut o, mut rng) = oram(8, 6);
        assert_eq!(
            o.read(8, &mut rng),
            Err(OramError::BlockOutOfRange { id: 8, capacity: 8 })
        );
    }

    #[test]
    fn wrong_payload_len_rejected() {
        let (mut o, mut rng) = oram(8, 7);
        assert_eq!(
            o.write(0, vec![0u8; 5], &mut rng),
            Err(OramError::BadPayloadLength { got: 5, want: 16 })
        );
    }

    #[test]
    fn trace_records_one_leaf_per_access() {
        let (mut o, recorder, mut rng) = recorded_oram(16, 8);
        for id in 0..10 {
            o.read(id, &mut rng).unwrap();
        }
        o.dummy_access(&mut rng).unwrap();
        assert_eq!(observed_leaves(&o, &recorder).len(), 11);
        assert!(recorder.is_empty());
    }

    #[test]
    fn dummy_access_preserves_data() {
        let (mut o, mut rng) = oram(16, 9);
        o.write(5, vec![9u8; 16], &mut rng).unwrap();
        for _ in 0..50 {
            o.dummy_access(&mut rng).unwrap();
        }
        assert_eq!(o.read(5, &mut rng).unwrap(), vec![9u8; 16]);
    }

    /// The headline obliviousness property: the physical trace is uniform
    /// random leaves regardless of which blocks are accessed. We check that
    /// two very different logical workloads produce traces whose leaf
    /// histograms are statistically indistinguishable from uniform.
    #[test]
    fn trace_is_uniform_over_leaves() {
        let n_accesses = 4000usize;
        // Workload A: hammer one block. Workload B: scan all blocks.
        let (mut oa, rec_a, mut rng_a) = recorded_oram(64, 10);
        for _ in 0..n_accesses {
            oa.read(7, &mut rng_a).unwrap();
        }
        let (mut ob, rec_b, mut rng_b) = recorded_oram(64, 11);
        for i in 0..n_accesses {
            ob.read((i % 64) as u64, &mut rng_b).unwrap();
        }
        let leaves = oa.store().geometry().num_leaves() as usize;
        let histo = |trace: &[u64]| {
            let mut h = vec![0f64; leaves];
            for &l in trace {
                h[l as usize] += 1.0;
            }
            h
        };
        let ha = histo(&observed_leaves(&oa, &rec_a));
        let hb = histo(&observed_leaves(&ob, &rec_b));
        let expected = n_accesses as f64 / leaves as f64;
        // Chi-square-ish sanity: every leaf within 5 sigma of uniform.
        let sigma = expected.sqrt();
        for l in 0..leaves {
            assert!(
                (ha[l] - expected).abs() < 5.0 * sigma,
                "A leaf {l}: {}",
                ha[l]
            );
            assert!(
                (hb[l] - expected).abs() < 5.0 * sigma,
                "B leaf {l}: {}",
                hb[l]
            );
        }
    }
}
