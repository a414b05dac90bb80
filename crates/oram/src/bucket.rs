//! Buckets: fixed-arity containers of block slots with (de)serialization.
//!
//! Each slot carries metadata — a valid flag, the block id, and the block's
//! assigned leaf — followed by the payload. The whole bucket serializes to a
//! fixed-size byte array that is encrypted as one unit and mapped onto whole
//! SSD pages.

use crate::block::Block;

/// Serialized bytes of one slot's metadata: id (8) + leaf (8) + valid (1) +
/// padding (7) = 24.
pub const SLOT_META_BYTES: usize = 24;

/// One slot of a bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Whether this slot currently holds a live block.
    pub valid: bool,
    /// The block occupying the slot (contents are garbage when `!valid`,
    /// mirroring the real layout where invalid slots hold stale bytes).
    pub block: Block,
}

impl Slot {
    /// An invalid (empty) slot of the right payload size.
    pub fn empty(block_bytes: usize) -> Self {
        Slot {
            valid: false,
            block: Block::zeroed(0, 0, block_bytes),
        }
    }
}

/// A bucket: exactly `Z` slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bucket {
    slots: Vec<Slot>,
    block_bytes: usize,
}

impl Bucket {
    /// Creates an empty bucket with `z` slots of `block_bytes` payloads.
    pub fn empty(z: usize, block_bytes: usize) -> Self {
        Bucket {
            slots: vec![Slot::empty(block_bytes); z],
            block_bytes,
        }
    }

    /// Number of slots.
    pub fn z(&self) -> usize {
        self.slots.len()
    }

    /// Immutable slot access.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Number of valid blocks.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }

    /// Inserts `block` into the first free slot. Returns `false` (leaving
    /// the bucket unchanged) when full.
    ///
    /// # Panics
    ///
    /// Panics if the payload size disagrees with the bucket's block size.
    pub fn try_insert(&mut self, block: Block) -> bool {
        assert_eq!(
            block.payload.len(),
            self.block_bytes,
            "payload size mismatch"
        );
        for slot in &mut self.slots {
            if !slot.valid {
                *slot = Slot { valid: true, block };
                return true;
            }
        }
        false
    }

    /// Resets every slot to the empty state (`valid = false`, zeroed id,
    /// leaf, and payload) without reallocating — byte-identical to a fresh
    /// [`Bucket::empty`] of the same shape, so scratch buckets can be
    /// reused across evictions.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.valid = false;
            slot.block.id = 0;
            slot.block.leaf = 0;
            slot.block.payload.fill(0);
        }
    }

    /// Removes and returns the block with `id`, if present.
    pub fn take(&mut self, id: u64) -> Option<Block> {
        for slot in &mut self.slots {
            if slot.valid && slot.block.id == id {
                slot.valid = false;
                return Some(slot.block.clone());
            }
        }
        None
    }

    /// Drains every valid block, leaving the bucket empty.
    pub fn drain_valid(&mut self) -> Vec<Block> {
        let mut out = Vec::new();
        for slot in &mut self.slots {
            if slot.valid {
                out.push(slot.block.clone());
                slot.valid = false;
            }
        }
        out
    }

    /// Serializes to the fixed `z · (SLOT_META_BYTES + block_bytes)` layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.z() * (SLOT_META_BYTES + self.block_bytes));
        for slot in &self.slots {
            out.extend_from_slice(&slot.block.id.to_le_bytes());
            out.extend_from_slice(&slot.block.leaf.to_le_bytes());
            out.push(slot.valid as u8);
            out.extend_from_slice(&[0u8; 7]);
            out.extend_from_slice(&slot.block.payload);
        }
        out
    }

    /// Deserializes from the layout written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` disagrees with `z`/`block_bytes` — the store
    /// guarantees shape, so a mismatch is a bug, not input error.
    pub fn from_bytes(bytes: &[u8], z: usize, block_bytes: usize) -> Self {
        let slot_len = SLOT_META_BYTES + block_bytes;
        assert_eq!(bytes.len(), z * slot_len, "bucket byte size mismatch");
        let mut slots = Vec::with_capacity(z);
        for chunk in bytes.chunks_exact(slot_len) {
            let id = crate::convert::le_u64(&chunk[0..8]);
            let leaf = crate::convert::le_u64(&chunk[8..16]);
            let valid = chunk[16] != 0;
            let payload = chunk[SLOT_META_BYTES..].to_vec();
            slots.push(Slot {
                valid,
                block: Block { id, leaf, payload },
            });
        }
        Bucket { slots, block_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut b = Bucket::empty(4, 8);
        assert!(b.try_insert(Block::new(1, 0, vec![1u8; 8])));
        assert!(b.try_insert(Block::new(2, 1, vec![2u8; 8])));
        assert_eq!(b.occupancy(), 2);
        let got = b.take(1).unwrap();
        assert_eq!(got.payload, vec![1u8; 8]);
        assert_eq!(b.occupancy(), 1);
        assert!(b.take(1).is_none());
    }

    #[test]
    fn insert_full_bucket_fails() {
        let mut b = Bucket::empty(2, 4);
        assert!(b.try_insert(Block::new(1, 0, vec![0u8; 4])));
        assert!(b.try_insert(Block::new(2, 0, vec![0u8; 4])));
        assert!(!b.try_insert(Block::new(3, 0, vec![0u8; 4])));
        assert_eq!(b.occupancy(), 2);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut b = Bucket::empty(3, 16);
        b.try_insert(Block::new(42, 5, vec![0xAA; 16]));
        b.try_insert(Block::new(7, 2, vec![0xBB; 16]));
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), 3 * (SLOT_META_BYTES + 16));
        let back = Bucket::from_bytes(&bytes, 3, 16);
        assert_eq!(back, b);
    }

    #[test]
    fn drain_valid_empties() {
        let mut b = Bucket::empty(4, 4);
        b.try_insert(Block::new(1, 0, vec![0u8; 4]));
        b.try_insert(Block::new(2, 0, vec![0u8; 4]));
        let drained = b.drain_valid();
        assert_eq!(drained.len(), 2);
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn empty_bucket_serializes_deterministically() {
        let a = Bucket::empty(2, 8).to_bytes();
        let b = Bucket::empty(2, 8).to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn wrong_payload_size_panics() {
        Bucket::empty(2, 8).try_insert(Block::new(1, 0, vec![0u8; 4]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn serialization_roundtrips() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut b = Bucket::empty(4, 8);
            for _ in 0..rng.gen_range(0..4) {
                let mut payload = vec![0u8; 8];
                rng.fill(&mut payload);
                b.try_insert(Block::new(rng.gen(), rng.gen(), payload));
            }
            let bytes = b.to_bytes();
            assert_eq!(Bucket::from_bytes(&bytes, 4, 8), b, "case {case}");
        }
    }

    #[test]
    fn occupancy_tracks_inserts() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(0usize..6);
            let mut b = Bucket::empty(4, 4);
            let mut expected = 0;
            for i in 0..n {
                if b.try_insert(Block::new(i as u64, 0, vec![0u8; 4])) {
                    expected += 1;
                }
            }
            assert_eq!(b.occupancy(), expected.min(4), "case {case}: {n} inserts");
        }
    }
}
