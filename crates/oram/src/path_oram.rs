//! Classic Path ORAM (Stefanov et al., CCS'13).
//!
//! Every access reads one whole path into the stash, serves the block,
//! remaps it to a fresh random leaf, and greedily writes the path back.
//! This is the engine inside the paper's `Path ORAM+` baseline and the
//! buffer ORAM; FEDORA's main ORAM uses the RAW variant in [`crate::raw`]
//! instead. Any access may write any path, so the controller keeps one
//! encryption counter per bucket.
//!
//! A tree whose whole contents are known up front and discarded at once
//! (the buffer ORAM's per-round working set) skips the per-block paths:
//! [`PathOram::build`] places every block at a fresh random leaf and seals
//! each bucket once, and [`PathOram::drain`] opens each bucket once and
//! returns every live block. Between a drain and the next build the tree
//! holds stale buckets, so every access is refused until it is rebuilt.

use fedora_storage::{ByteReader, ByteWriter, CodecError};
use rand::Rng;

use crate::block::Block;
use crate::bucket::Bucket;
use crate::position::PositionMap;
use crate::stash::Stash;
use crate::store::BucketStore;
use crate::OramError;

/// Where a tree stands between whole-tree builds and drains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Sealed empty by [`PathOram::new`]; no block has been touched.
    Fresh,
    /// Blocks may be live in the tree or the stash.
    Live,
    /// Swept by [`PathOram::drain`]: the buckets still hold the blocks
    /// just returned, so only a [`PathOram::build`] may follow.
    Drained,
}

/// A Path ORAM over any [`BucketStore`].
#[derive(Debug)]
pub struct PathOram<S: BucketStore> {
    store: S,
    position: PositionMap,
    stash: Stash,
    num_blocks: u64,
    /// Each bucket's encryption counter: how often its node was written.
    counts: Vec<u64>,
    phase: Phase,
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
            phase: Phase::Fresh,
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

    /// Serializes the bucket counters into `w`. Only the counters outlive
    /// a restart: a tree checkpointed between a drain and the next build
    /// holds no live block, and the counters keep every later seal at a
    /// fresh `(node, count)`.
    pub fn encode_counters(&self, w: &mut ByteWriter) {
        w.put_u64s(&self.counts);
    }

    /// Restores counters captured by
    /// [`encode_counters`](Self::encode_counters) onto an ORAM of the same
    /// shape and leaves it drained: its buckets do not hold what the
    /// counters name, so the next operation must be a
    /// [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a node-count mismatch.
    pub fn decode_counters(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let counts = r.get_u64s()?;
        if counts.len() != self.counts.len() {
            return Err(CodecError::Invalid("path-oram node-count mismatch"));
        }
        self.counts = counts;
        self.stash = Stash::new();
        self.phase = Phase::Drained;
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

    /// The core access: reads the block's path, lets `f` act on the
    /// payload (a block never touched reads as zeros), remaps the block,
    /// and evicts the path back.
    fn access<T, R: Rng>(
        &mut self,
        id: u64,
        f: impl FnOnce(&mut Vec<u8>) -> T,
        rng: &mut R,
    ) -> Result<T, OramError> {
        self.check_id(id)?;
        self.check_not_drained()?;
        self.phase = Phase::Live;
        let geo = self.store.geometry();
        let new_leaf = rng.gen_range(0..geo.num_leaves());
        let leaf = self.position.get_and_remap(id, new_leaf);
        self.access_path(leaf, |stash| {
            if let Some(block) = stash.get_mut(id) {
                block.leaf = new_leaf;
                f(&mut block.payload)
            } else {
                // Materialize the block on first touch.
                let mut payload = vec![0u8; geo.block_bytes()];
                let out = f(&mut payload);
                stash.push(Block::new(id, new_leaf, payload));
                out
            }
        })
    }

    fn check_not_drained(&self) -> Result<(), OramError> {
        if self.phase == Phase::Drained {
            return Err(OramError::Drained);
        }
        Ok(())
    }

    /// Reads block `id`.
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] for bad ids; [`OramError::Drained`]
    /// between a [`drain`](Self::drain) and the next build; store errors
    /// propagate.
    pub fn read<R: Rng>(&mut self, id: u64, rng: &mut R) -> Result<Vec<u8>, OramError> {
        self.access(id, |payload| payload.clone(), rng)
    }

    /// Writes block `id`, returning the previous payload.
    ///
    /// # Errors
    ///
    /// [`OramError::BadPayloadLength`] when `payload` is the wrong size;
    /// otherwise as for [`read`](Self::read).
    pub fn write<R: Rng>(
        &mut self,
        id: u64,
        payload: Vec<u8>,
        rng: &mut R,
    ) -> Result<Vec<u8>, OramError> {
        self.check_payload(&payload)?;
        self.access(id, |old| std::mem::replace(old, payload), rng)
    }

    /// Read-modify-write of block `id` in one access: `f` edits the
    /// payload in place and its result is returned.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read).
    pub fn update<T, R: Rng>(
        &mut self,
        id: u64,
        f: impl FnOnce(&mut [u8]) -> T,
        rng: &mut R,
    ) -> Result<T, OramError> {
        self.access(id, |payload| f(payload), rng)
    }

    /// Performs a dummy access: reads and rewrites a uniformly random path
    /// without touching any block — indistinguishable from a real access.
    ///
    /// # Errors
    ///
    /// [`OramError::Drained`] between a drain and the next build; store
    /// errors propagate.
    pub fn dummy_access<R: Rng>(&mut self, rng: &mut R) -> Result<(), OramError> {
        self.check_not_drained()?;
        let leaf = rng.gen_range(0..self.store.geometry().num_leaves());
        self.access_path(leaf, |_| ())
    }

    fn check_payload(&self, payload: &[u8]) -> Result<(), OramError> {
        let want = self.store.geometry().block_bytes();
        if payload.len() != want {
            return Err(OramError::BadPayloadLength {
                got: payload.len(),
                want,
            });
        }
        Ok(())
    }

    /// Replaces the whole tree with `blocks` (distinct ids, each with its
    /// payload) in one pass: each block gets a fresh uniform leaf and
    /// lands in the deepest bucket on its path with a free slot, or in the
    /// stash when the path is full; then every bucket is sealed once, in
    /// node order, at its next counter. The store sees the same `num_nodes`
    /// bucket writes whatever the blocks are.
    ///
    /// # Errors
    ///
    /// [`OramError::BuildWhileLive`] unless the tree is fresh or drained
    /// (a build would drop the live blocks); [`OramError::BlockOutOfRange`]
    /// or [`OramError::BadPayloadLength`] for a bad block; store errors
    /// propagate.
    ///
    /// # Panics
    ///
    /// Panics if an id appears twice.
    pub fn build<R: Rng>(
        &mut self,
        blocks: Vec<(u64, Vec<u8>)>,
        rng: &mut R,
    ) -> Result<(), OramError> {
        if self.phase == Phase::Live {
            return Err(OramError::BuildWhileLive);
        }
        let mut seen = vec![false; self.num_blocks as usize];
        for (id, payload) in &blocks {
            self.check_id(*id)?;
            self.check_payload(payload)?;
            assert!(!seen[*id as usize], "block {id} built twice");
            seen[*id as usize] = true;
        }
        let geo = self.store.geometry();
        let depth = geo.depth();
        let mut tree = vec![Bucket::empty(geo.z(), geo.block_bytes()); geo.num_nodes() as usize];
        for (id, payload) in blocks {
            let leaf = rng.gen_range(0..geo.num_leaves());
            self.position.set(id, leaf);
            let block = Block::new(id, leaf, payload);
            let free = (0..=depth)
                .rev()
                .map(|level| geo.node_at(level, leaf >> (depth - level)) as usize)
                .find(|&node| tree[node].occupancy() < geo.z());
            match free {
                Some(node) => {
                    let inserted = tree[node].try_insert(block);
                    debug_assert!(inserted, "the bucket had a free slot");
                }
                None => self.stash.push(block),
            }
        }
        self.phase = Phase::Live;
        for (node, bucket) in tree.iter().enumerate() {
            self.counts[node] += 1;
            self.store
                .write_bucket(node as u64, bucket, self.counts[node])?;
        }
        Ok(())
    }

    /// Opens every bucket once, in node order, without writing any back,
    /// and returns every live block (tree and stash) in no set order. The
    /// tree is then drained until the next [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// [`OramError::Drained`] when already drained; store errors
    /// propagate, leaving the tree as it was.
    pub fn drain(&mut self) -> Result<Vec<Block>, OramError> {
        self.check_not_drained()?;
        let mut blocks = Vec::new();
        for (node, &count) in self.counts.iter().enumerate() {
            blocks.extend(self.store.read_bucket(node as u64, count)?.drain_valid());
        }
        blocks.extend(self.stash.take_all());
        self.phase = Phase::Drained;
        Ok(blocks)
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

    #[test]
    fn update_is_one_access_that_edits_in_place() {
        let (mut o, mut rng) = oram(32, 12);
        o.write(3, vec![5u8; 16], &mut rng).unwrap();
        let levels = u64::from(o.store().geometry().num_levels());
        let before = o.store().device_stats();
        let old = o
            .update(3, |payload| std::mem::replace(&mut payload[0], 9), &mut rng)
            .unwrap();
        let after = o.store().device_stats();
        assert_eq!(old, 5);
        assert_eq!(
            after.pages_read - before.pages_read,
            levels,
            "one path read"
        );
        assert_eq!(
            after.pages_written - before.pages_written,
            levels,
            "one path write"
        );
        let mut want = vec![5u8; 16];
        want[0] = 9;
        assert_eq!(o.read(3, &mut rng).unwrap(), want);
    }

    /// `blocks` ids `0..n` with random payloads.
    fn random_blocks(n: u64, rng: &mut StdRng) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|id| (id, (0..16).map(|_| rng.gen()).collect()))
            .collect()
    }

    #[test]
    fn build_seals_each_bucket_once_and_drain_opens_each_once() {
        let (mut o, mut rng) = oram(64, 13);
        let nodes = o.store().geometry().num_nodes();
        for round in 1..=3u64 {
            let blocks = random_blocks(40, &mut rng);
            let before = o.store().device_stats();
            o.build(blocks.clone(), &mut rng).unwrap();
            let built = o.store().device_stats();
            assert_eq!(built.pages_written - before.pages_written, nodes);
            assert_eq!(built.pages_read, before.pages_read, "a build reads nothing");
            // Every bucket moved to its next counter exactly once, so no
            // (node, count) is sealed twice.
            assert!(o.counts.iter().all(|&c| c == round), "round {round}");
            let mut drained = o.drain().unwrap();
            let swept = o.store().device_stats();
            assert_eq!(swept.pages_read - built.pages_read, nodes);
            assert_eq!(
                swept.pages_written, built.pages_written,
                "a drain writes nothing"
            );
            drained.sort_unstable_by_key(|b| b.id);
            let got: Vec<(u64, Vec<u8>)> = drained.into_iter().map(|b| (b.id, b.payload)).collect();
            assert_eq!(got, blocks, "round {round}");
        }
    }

    /// Built blocks drain back byte-identical after any mix of reads,
    /// writes, read-modify-writes and dummy accesses, round after round.
    #[test]
    fn built_blocks_drain_back_byte_identical_over_many_rounds() {
        let (mut o, mut rng) = oram(64, 14);
        for round in 0..40 {
            let n = rng.gen_range(0..=64u64);
            let mut model = random_blocks(n, &mut rng);
            o.build(model.clone(), &mut rng).unwrap();
            for _ in 0..rng.gen_range(0..100) {
                if n == 0 {
                    o.dummy_access(&mut rng).unwrap();
                    continue;
                }
                let id = rng.gen_range(0..n);
                match rng.gen_range(0..4) {
                    0 => assert_eq!(o.read(id, &mut rng).unwrap(), model[id as usize].1),
                    1 => {
                        let v: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
                        o.write(id, v.clone(), &mut rng).unwrap();
                        model[id as usize].1 = v;
                    }
                    2 => {
                        let byte = rng.gen_range(0..16usize);
                        o.update(id, |p| p[byte] ^= 0xA5, &mut rng).unwrap();
                        model[id as usize].1[byte] ^= 0xA5;
                    }
                    _ => o.dummy_access(&mut rng).unwrap(),
                }
            }
            let mut drained = o.drain().unwrap();
            drained.sort_unstable_by_key(|b| b.id);
            let got: Vec<(u64, Vec<u8>)> = drained.into_iter().map(|b| (b.id, b.payload)).collect();
            assert_eq!(got, model, "round {round}");
            assert_eq!(o.stash_len(), 0);
        }
    }

    #[test]
    fn build_is_refused_while_blocks_are_live() {
        let (mut o, mut rng) = oram(16, 15);
        // A fresh tree builds; so does a drained one.
        o.build(vec![(1, vec![1u8; 16])], &mut rng).unwrap();
        let before = o.store().device_stats();
        assert_eq!(
            o.build(vec![(2, vec![2u8; 16])], &mut rng),
            Err(OramError::BuildWhileLive)
        );
        assert_eq!(
            o.store().device_stats(),
            before,
            "the refusal touched nothing"
        );
        assert_eq!(o.read(1, &mut rng).unwrap(), vec![1u8; 16], "block 1 kept");
        // Plain accesses on a fresh tree make blocks live too.
        let (mut fresh, mut rng) = oram(16, 16);
        fresh.write(4, vec![4u8; 16], &mut rng).unwrap();
        assert_eq!(
            fresh.build(Vec::new(), &mut rng),
            Err(OramError::BuildWhileLive)
        );
        assert_eq!(fresh.read(4, &mut rng).unwrap(), vec![4u8; 16]);
    }

    #[test]
    fn access_is_refused_between_drain_and_build() {
        let (mut o, mut rng) = oram(16, 17);
        o.build(vec![(3, vec![3u8; 16])], &mut rng).unwrap();
        assert_eq!(o.drain().unwrap().len(), 1);
        let before = o.store().device_stats();
        assert_eq!(o.read(3, &mut rng), Err(OramError::Drained));
        assert_eq!(o.write(3, vec![0u8; 16], &mut rng), Err(OramError::Drained));
        assert_eq!(o.update(3, |p| p[0] = 1, &mut rng), Err(OramError::Drained));
        assert_eq!(o.dummy_access(&mut rng), Err(OramError::Drained));
        assert_eq!(
            o.drain(),
            Err(OramError::Drained),
            "no block comes back twice"
        );
        assert_eq!(
            o.store().device_stats(),
            before,
            "the refusals touched nothing"
        );
        o.build(vec![(3, vec![7u8; 16])], &mut rng).unwrap();
        assert_eq!(o.read(3, &mut rng).unwrap(), vec![7u8; 16]);
    }

    /// What the device sees of a build and a sweep is every bucket in
    /// node order, whatever the blocks are.
    #[test]
    fn build_and_drain_traces_do_not_depend_on_the_blocks() {
        let trace = |n: u64, seed: u64| {
            let (mut o, recorder, mut rng) = recorded_oram(32, seed);
            o.build(random_blocks(n, &mut rng), &mut rng).unwrap();
            o.drain().unwrap();
            recorder.take()
        };
        let few = trace(1, 18);
        assert_eq!(few, trace(32, 19));
        let nodes = TreeGeometry::for_blocks(32, 16, 4).num_nodes() as usize;
        assert_eq!(few.len(), 2 * nodes, "one page per bucket each way");
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
