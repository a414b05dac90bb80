//! The stash: the overflow buffer blocks live in while off the tree.
//!
//! Path ORAM's invariant is that every block is either on its assigned path
//! or in the stash. FEDORA places the stash in off-chip DRAM (§4.4 Opt. 3),
//! allowing it to be much larger than an on-chip design; we still track the
//! high-water mark because stash occupancy is the quantity the ORAM
//! security proofs bound.

use crate::block::Block;
use fedora_storage::{ByteReader, ByteWriter, CodecError};

/// A stash with occupancy tracking.
#[derive(Debug, Default)]
pub struct Stash {
    blocks: Vec<Block>,
    high_water: usize,
}

impl Stash {
    /// Creates an empty stash.
    pub fn new() -> Self {
        Stash::default()
    }

    /// Current number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stash is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Largest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Adds a block.
    pub fn push(&mut self, block: Block) {
        self.blocks.push(block);
        self.high_water = self.high_water.max(self.blocks.len());
    }

    /// Removes and returns the block with `id`, if present.
    pub fn take(&mut self, id: u64) -> Option<Block> {
        let idx = self.blocks.iter().position(|b| b.id == id)?;
        Some(self.blocks.swap_remove(idx))
    }

    /// Returns a mutable reference to the block with `id`, if present.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Block> {
        self.blocks.iter_mut().find(|b| b.id == id)
    }

    /// Whether a block with `id` is present.
    pub fn contains(&self, id: u64) -> bool {
        self.blocks.iter().any(|b| b.id == id)
    }

    /// Drains every block whose assigned leaf shares at least `level`
    /// levels with `leaf` — the candidates for eviction into the bucket at
    /// that level — up to `max` of them (bucket capacity).
    pub fn drain_for_bucket(
        &mut self,
        leaf: u64,
        level: u32,
        depth: u32,
        max: usize,
    ) -> Vec<Block> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.blocks.len() && out.len() < max {
            let b_leaf = self.blocks[i].leaf;
            if (b_leaf >> (depth - level)) == (leaf >> (depth - level)) {
                out.push(self.blocks.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Removes and returns every block, leaving the stash empty (the
    /// high-water mark stays).
    pub fn take_all(&mut self) -> Vec<Block> {
        std::mem::take(&mut self.blocks)
    }

    /// Iterates over the stashed blocks.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Serializes the stash (blocks in their current order, plus the
    /// high-water mark) into `w` for checkpointing. Order is preserved so a
    /// restored stash drains identically to the original.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.blocks.len() as u64);
        for b in &self.blocks {
            w.put_u64(b.id);
            w.put_u64(b.leaf);
            w.put_bytes(&b.payload);
        }
        w.put_u64(self.high_water as u64);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state),
    /// replacing this stash's contents.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let count = r.get_u64()? as usize;
        if count > r.remaining() {
            return Err(CodecError::Invalid("stash block count implausible"));
        }
        let mut blocks = Vec::with_capacity(count);
        for _ in 0..count {
            let id = r.get_u64()?;
            let leaf = r.get_u64()?;
            let payload = r.get_bytes()?;
            blocks.push(Block::new(id, leaf, payload));
        }
        self.blocks = blocks;
        self.high_water = r.get_u64()? as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(id: u64, leaf: u64) -> Block {
        Block::new(id, leaf, vec![0u8; 4])
    }

    #[test]
    fn push_take() {
        let mut s = Stash::new();
        s.push(blk(1, 0));
        s.push(blk(2, 1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(1));
        let b = s.take(1).unwrap();
        assert_eq!(b.id, 1);
        assert!(!s.contains(1));
        assert!(s.take(1).is_none());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut s = Stash::new();
        for i in 0..5 {
            s.push(blk(i, 0));
        }
        for i in 0..5 {
            s.take(i);
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.high_water(), 5);
    }

    #[test]
    fn drain_for_bucket_filters_by_prefix() {
        let mut s = Stash::new();
        // depth 3, leaf target 0b101
        s.push(blk(1, 0b101)); // shares all 3 levels
        s.push(blk(2, 0b100)); // shares 2 levels
        s.push(blk(3, 0b001)); // shares 0 levels
        let full_match = s.drain_for_bucket(0b101, 3, 3, 4);
        assert_eq!(full_match.len(), 1);
        assert_eq!(full_match[0].id, 1);
        // Now level 2: block 2 (prefix 10) qualifies.
        let lvl2 = s.drain_for_bucket(0b101, 2, 3, 4);
        assert_eq!(lvl2.len(), 1);
        assert_eq!(lvl2[0].id, 2);
        // Level 0: everything qualifies.
        let lvl0 = s.drain_for_bucket(0b101, 0, 3, 4);
        assert_eq!(lvl0.len(), 1);
        assert_eq!(lvl0[0].id, 3);
        assert!(s.is_empty());
    }

    #[test]
    fn drain_respects_max() {
        let mut s = Stash::new();
        for i in 0..10 {
            s.push(blk(i, 0));
        }
        let got = s.drain_for_bucket(0, 0, 3, 4);
        assert_eq!(got.len(), 4);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn get_mut_modifies_in_place() {
        let mut s = Stash::new();
        s.push(blk(7, 1));
        s.get_mut(7).unwrap().payload[0] = 0xFF;
        assert_eq!(s.take(7).unwrap().payload[0], 0xFF);
    }
}
