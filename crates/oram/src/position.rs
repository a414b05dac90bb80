//! The position map: block id → assigned leaf.
//!
//! FEDORA keeps the position map in (encrypted, untrusted) DRAM. The map's
//! *content* is secret. [`PositionMap`] is the controller's dense plaintext
//! array, one leaf per block; [`EncryptedPositionMap`] is the §5.2
//! group-encrypted form of the same map.

use fedora_storage::{ByteReader, ByteWriter, CodecError};
use rand::Rng;

/// Dense position map for `n` blocks.
#[derive(Debug)]
pub struct PositionMap {
    leaves: Vec<u64>,
}

impl PositionMap {
    /// Creates a map of `num_blocks` entries with uniformly random leaves
    /// in `[0, num_leaves)`.
    pub fn random<R: Rng>(num_blocks: u64, num_leaves: u64, rng: &mut R) -> Self {
        PositionMap {
            leaves: (0..num_blocks)
                .map(|_| rng.gen_range(0..num_leaves))
                .collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.leaves.len() as u64
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Looks up the leaf of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (callers validate ids at the API
    /// boundary; an out-of-range id here is a bug).
    pub fn get(&self, id: u64) -> u64 {
        self.leaves[id as usize]
    }

    /// Updates the leaf of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&mut self, id: u64, leaf: u64) {
        self.leaves[id as usize] = leaf;
    }

    /// Looks up and atomically remaps `id` to `new_leaf`, returning the old
    /// leaf — the canonical ORAM access-start operation.
    pub fn get_and_remap(&mut self, id: u64, new_leaf: u64) -> u64 {
        let old = self.get(id);
        self.set(id, new_leaf);
        old
    }

    /// Serializes the leaf assignments into `w` for checkpointing.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64s(&self.leaves);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a map of the same size.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or an entry-count mismatch.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let leaves = r.get_u64s()?;
        if leaves.len() != self.leaves.len() {
            return Err(CodecError::Invalid("position-map size mismatch"));
        }
        self.leaves = leaves;
        Ok(())
    }
}

/// A position map held **encrypted** in DRAM using the paper's §5.2
/// group-based scheme ([`fedora_crypto::flat::FlatGroupStore`]): 64
/// positions per 512-byte group, counters chained up to one on-chip root
/// counter. Every access decrypts/verifies the group's counter chain and
/// (on `set`) re-encrypts it — the faithful (and slower) alternative to
/// the plaintext-mirror [`PositionMap`], used where the DRAM itself is
/// untrusted.
pub struct EncryptedPositionMap {
    store: fedora_crypto::flat::FlatGroupStore,
    dram: fedora_storage::SimDram,
    num_positions: u64,
    accesses: u64,
}

impl EncryptedPositionMap {
    /// Positions per encryption group.
    pub const PER_GROUP: u64 = (fedora_crypto::flat::GROUP_BYTES / 8) as u64;

    /// Creates a map of `num_positions` entries with uniformly random
    /// leaves in `[0, num_leaves)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_positions == 0`.
    #[allow(clippy::expect_used)] // store sized for `groups` two lines up
    pub fn random<R: Rng>(
        num_positions: u64,
        num_leaves: u64,
        key: fedora_crypto::aead::Key,
        rng: &mut R,
    ) -> Self {
        assert!(num_positions > 0, "need at least one position");
        let groups = num_positions.div_ceil(Self::PER_GROUP) as usize;
        let mut store = fedora_crypto::flat::FlatGroupStore::new(key, groups);
        for g in 0..groups {
            let mut plain = vec![0u8; fedora_crypto::flat::GROUP_BYTES];
            for slot in 0..Self::PER_GROUP {
                let idx = g as u64 * Self::PER_GROUP + slot;
                if idx >= num_positions {
                    break;
                }
                let leaf = rng.gen_range(0..num_leaves);
                let at = (slot * 8) as usize;
                plain[at..at + 8].copy_from_slice(&leaf.to_le_bytes());
            }
            store.write_group(g, &plain).expect("provisioned");
        }
        let dram = fedora_storage::SimDram::new(
            fedora_storage::DramProfile::default(),
            store.total_bytes() as u64,
        );
        EncryptedPositionMap {
            store,
            dram,
            num_positions,
            accesses: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.num_positions
    }

    /// Whether the map is empty (never true; see `random`).
    pub fn is_empty(&self) -> bool {
        self.num_positions == 0
    }

    /// Accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Off-chip bytes the encrypted map occupies (ciphertext + counter
    /// groups + tags).
    pub fn stored_bytes(&self) -> u64 {
        self.store.total_bytes() as u64
    }

    /// DRAM traffic statistics.
    pub fn device_stats(&self) -> fedora_storage::DeviceStats {
        *self.dram.stats()
    }

    fn charge(&mut self, write: bool) {
        // One group transits the bus per operation.
        let bytes = fedora_crypto::flat::GROUP_BYTES as u64 + 16;
        let mut buf = vec![0u8; bytes as usize];
        let _ = self.dram.read(0, &mut buf);
        if write {
            let _ = self.dram.write(0, &buf);
        }
    }

    /// Looks up the leaf of `id`, verifying the group's counter chain.
    ///
    /// # Errors
    ///
    /// [`fedora_crypto::flat::FlatStoreError`] on tamper/replay.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&mut self, id: u64) -> Result<u64, fedora_crypto::flat::FlatStoreError> {
        assert!(id < self.num_positions, "id {id} out of range");
        self.accesses += 1;
        self.charge(false);
        let group = (id / Self::PER_GROUP) as usize;
        let plain = self.store.read_group(group)?;
        let at = ((id % Self::PER_GROUP) * 8) as usize;
        Ok(crate::convert::le_u64(&plain[at..at + 8]))
    }

    /// Updates the leaf of `id` (read-modify-write of its group).
    ///
    /// # Errors
    ///
    /// [`fedora_crypto::flat::FlatStoreError`] on tamper/replay.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&mut self, id: u64, leaf: u64) -> Result<(), fedora_crypto::flat::FlatStoreError> {
        assert!(id < self.num_positions, "id {id} out of range");
        self.accesses += 1;
        self.charge(true);
        let group = (id / Self::PER_GROUP) as usize;
        let mut plain = self.store.read_group(group)?;
        let at = ((id % Self::PER_GROUP) * 8) as usize;
        plain[at..at + 8].copy_from_slice(&leaf.to_le_bytes());
        self.store.write_group(group, &plain)
    }

    /// Test/attack hook into the underlying store.
    pub fn store_mut(&mut self) -> &mut fedora_crypto::flat::FlatGroupStore {
        &mut self.store
    }
}

impl core::fmt::Debug for EncryptedPositionMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EncryptedPositionMap")
            .field("positions", &self.num_positions)
            .field("stored_bytes", &self.stored_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn random_init_in_range() {
        let mut r = rng();
        let pm = PositionMap::random(100, 16, &mut r);
        for id in 0..100 {
            assert!(pm.get(id) < 16);
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut r = rng();
        let mut pm = PositionMap::random(10, 8, &mut r);
        pm.set(3, 7);
        assert_eq!(pm.get(3), 7);
    }

    #[test]
    fn get_and_remap_returns_old() {
        let mut r = rng();
        let mut pm = PositionMap::random(10, 8, &mut r);
        pm.set(0, 2);
        assert_eq!(pm.get_and_remap(0, 5), 2);
        assert_eq!(pm.get(0), 5);
    }

    #[test]
    fn encrypted_map_roundtrip() {
        let mut r = rng();
        let key = fedora_crypto::aead::Key::from_bytes([0x21; 32]);
        let mut pm = EncryptedPositionMap::random(300, 64, key, &mut r);
        for id in 0..300 {
            assert!(pm.get(id).unwrap() < 64);
        }
        pm.set(5, 63).unwrap();
        pm.set(299, 1).unwrap();
        assert_eq!(pm.get(5).unwrap(), 63);
        assert_eq!(pm.get(299).unwrap(), 1);
        assert_eq!(pm.accesses(), 300 + 4);
        assert!(pm.device_stats().bytes_read > 0);
    }

    #[test]
    fn encrypted_map_detects_replay() {
        let mut r = rng();
        let key = fedora_crypto::aead::Key::from_bytes([0x22; 32]);
        let mut pm = EncryptedPositionMap::random(128, 16, key, &mut r);
        pm.set(0, 7).unwrap();
        let old = pm.store_mut().snapshot(0, 0);
        pm.set(0, 9).unwrap();
        pm.store_mut().tamper(0, 0, old);
        assert!(pm.get(0).is_err(), "rolled-back group must fail");
    }

    #[test]
    fn encrypted_map_overhead_small() {
        let mut r = rng();
        let key = fedora_crypto::aead::Key::from_bytes([0x23; 32]);
        let pm = EncryptedPositionMap::random(64 * 64, 16, key, &mut r);
        let raw = 64 * 64 * 8;
        let overhead = pm.stored_bytes() as f64 / raw as f64 - 1.0;
        assert!(overhead < 0.1, "overhead {overhead:.3}");
    }
}
