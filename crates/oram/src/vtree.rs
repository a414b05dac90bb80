//! VTree: the DRAM-resident mirror of the main ORAM's valid flags
//! (paper §4.4, Optimization 2).
//!
//! An AO access in RAW ORAM must mark the fetched block's slot invalid, but
//! flipping the flag inside the SSD bucket would make AO accesses write to
//! the SSD. FEDORA extracts all valid flags into a small DRAM structure —
//! the VTree — whose entries mirror the main ORAM's (bucket, slot) grid.
//! VTree accesses always follow the main ORAM's own path accesses
//! one-for-one, so the VTree reveals nothing beyond what the main ORAM's
//! (already oblivious) trace reveals; its contents are encrypted in DRAM
//! like every other off-chip structure (modeled here by byte-level DRAM
//! traffic plus the size accounting of §4.4: one bit per data block plus
//! group-encryption metadata).

use fedora_storage::profile::DramProfile;
use fedora_storage::stats::DeviceStats;
use fedora_storage::{ByteReader, ByteWriter, CodecError, DeviceTelemetry, SimDram};
use fedora_telemetry::{Counter, Registry};

use crate::geometry::TreeGeometry;

/// Per-slot valid bits for an ORAM tree, stored in simulated DRAM.
#[derive(Debug)]
pub struct VTree {
    geometry: TreeGeometry,
    dram: SimDram,
    lookups: Counter,
    updates: Counter,
    registry: Registry,
}

impl VTree {
    /// Overhead factor for group-encryption metadata (counter + tag per
    /// 512-byte group ≈ 32/512), matching the paper's "2–112 MB" sizing.
    pub const ENCRYPTION_OVERHEAD: f64 = 32.0 / 512.0;

    /// Creates an all-invalid VTree for `geometry`, in DRAM.
    pub fn new(geometry: TreeGeometry, profile: DramProfile) -> Self {
        let bits = geometry.num_nodes() * geometry.z() as u64;
        let bytes = bits.div_ceil(8);
        VTree {
            geometry,
            dram: SimDram::new(profile, bytes),
            lookups: Counter::noop(),
            updates: Counter::noop(),
            registry: Registry::disabled(),
        }
    }

    /// Attaches telemetry: per-slot traversal counters
    /// (`oram.vtree.lookups` / `oram.vtree.updates`) plus the backing
    /// DRAM's traffic under the `dram.vtree` prefix.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.lookups = registry.counter("oram.vtree.lookups");
        self.updates = registry.counter("oram.vtree.updates");
        self.registry = registry.clone();
        self.dram
            .set_telemetry(DeviceTelemetry::attach(registry, "dram.vtree"));
    }

    /// Creates a VTree with the default DRAM profile.
    pub fn with_default_dram(geometry: TreeGeometry) -> Self {
        Self::new(geometry, DramProfile::default())
    }

    /// Raw bitmap size in bytes (1 bit per slot).
    pub fn bitmap_bytes(&self) -> u64 {
        self.dram.capacity_bytes()
    }

    /// Modeled total size including encryption metadata — the number the
    /// paper quotes as "around 2–112 MB".
    pub fn modeled_bytes(&self) -> u64 {
        (self.bitmap_bytes() as f64 * (1.0 + Self::ENCRYPTION_OVERHEAD)).ceil() as u64
    }

    /// DRAM traffic statistics.
    pub fn device_stats(&self) -> DeviceStats {
        *self.dram.stats()
    }

    fn bit_index(&self, node: u64, slot: usize) -> u64 {
        debug_assert!(node < self.geometry.num_nodes());
        debug_assert!(slot < self.geometry.z());
        node * self.geometry.z() as u64 + slot as u64
    }

    /// Reads the valid bit of `(node, slot)`.
    #[allow(clippy::expect_used)] // DRAM sized for every bit at construction
    pub fn get(&mut self, node: u64, slot: usize) -> bool {
        self.lookups.incr();
        let bit = self.bit_index(node, slot);
        let mut byte = [0u8; 1];
        self.dram
            .read(bit / 8, &mut byte)
            .expect("vtree sized for tree");
        (byte[0] >> (bit % 8)) & 1 == 1
    }

    /// Writes the valid bit of `(node, slot)`.
    #[allow(clippy::expect_used)] // DRAM sized for every bit at construction
    pub fn set(&mut self, node: u64, slot: usize, valid: bool) {
        self.updates.incr();
        let bit = self.bit_index(node, slot);
        let mut byte = [0u8; 1];
        self.dram
            .read(bit / 8, &mut byte)
            .expect("vtree sized for tree");
        if valid {
            byte[0] |= 1 << (bit % 8);
        } else {
            byte[0] &= !(1 << (bit % 8));
        }
        self.dram
            .write(bit / 8, &byte)
            .expect("vtree sized for tree");
    }

    /// Reads the whole bucket's valid bits at once (mirrors a path access).
    pub fn get_bucket(&mut self, node: u64) -> Vec<bool> {
        let _trace = self
            .registry
            .trace_span_with("oram.vtree.bucket", &[("op", "get".into())]);
        (0..self.geometry.z()).map(|s| self.get(node, s)).collect()
    }

    /// Writes the whole bucket's valid bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != Z`.
    pub fn set_bucket(&mut self, node: u64, bits: &[bool]) {
        assert_eq!(bits.len(), self.geometry.z(), "one bit per slot");
        let _trace = self
            .registry
            .trace_span_with("oram.vtree.bucket", &[("op", "set".into())]);
        for (s, &b) in bits.iter().enumerate() {
            self.set(node, s, b);
        }
    }

    /// Serializes the valid-bit image and its DRAM statistics into `w` for
    /// checkpointing (the raw bitmap, captured out-of-band so the snapshot
    /// itself generates no modeled DRAM traffic).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        let (bytes, stats) = self.dram.snapshot_state();
        w.put_bytes(&bytes);
        for v in [
            stats.pages_read,
            stats.pages_written,
            stats.bytes_read,
            stats.bytes_written,
            stats.busy_ns,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a VTree of the same geometry.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a bitmap-size mismatch.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let bytes = r.get_bytes()?;
        if bytes.len() as u64 != self.dram.capacity_bytes() {
            return Err(CodecError::Invalid("vtree bitmap size mismatch"));
        }
        let stats = DeviceStats {
            pages_read: r.get_u64()?,
            pages_written: r.get_u64()?,
            bytes_read: r.get_u64()?,
            bytes_written: r.get_u64()?,
            busy_ns: r.get_u64()?,
            ..DeviceStats::default()
        };
        self.dram.restore_state(bytes, stats);
        Ok(())
    }

    /// Number of valid slots in the whole tree (test/debug helper).
    pub fn count_valid(&mut self) -> u64 {
        let mut n = 0;
        for node in 0..self.geometry.num_nodes() {
            for slot in 0..self.geometry.z() {
                n += self.get(node, slot) as u64;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vtree() -> VTree {
        VTree::with_default_dram(TreeGeometry::new(3, 4, 64))
    }

    #[test]
    fn starts_all_invalid() {
        let mut v = vtree();
        assert_eq!(v.count_valid(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = vtree();
        v.set(5, 2, true);
        assert!(v.get(5, 2));
        assert!(!v.get(5, 1));
        assert!(!v.get(6, 2));
        v.set(5, 2, false);
        assert!(!v.get(5, 2));
    }

    #[test]
    fn bucket_ops() {
        let mut v = vtree();
        v.set_bucket(3, &[true, false, true, false]);
        assert_eq!(v.get_bucket(3), vec![true, false, true, false]);
        assert_eq!(v.count_valid(), 2);
    }

    #[test]
    fn sizing_one_bit_per_slot() {
        let v = vtree();
        // 15 nodes * 4 slots = 60 bits -> 8 bytes.
        assert_eq!(v.bitmap_bytes(), 8);
        assert!(v.modeled_bytes() >= v.bitmap_bytes());
    }

    #[test]
    fn large_table_sizing_matches_paper_range() {
        // Small table: 10M entries, 64B blocks, Z=4 → ~2^22 leaves.
        let geo = TreeGeometry::for_blocks(10_000_000, 64, 4);
        let bits = geo.num_nodes() * geo.z() as u64;
        let mb = (bits as f64 / 8.0) * (1.0 + VTree::ENCRYPTION_OVERHEAD) / 1e6;
        // Paper says "totaling around 2–112 MB" across its configs.
        assert!(mb > 1.0 && mb < 150.0, "VTree modeled at {mb} MB");
    }

    #[test]
    fn telemetry_counts_traversals() {
        let registry = Registry::new();
        let mut v = vtree();
        v.set_telemetry(&registry);
        v.set(0, 0, true);
        v.set(1, 2, true);
        assert!(v.get(0, 0));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("oram.vtree.lookups"), Some(1));
        assert_eq!(snap.counter("oram.vtree.updates"), Some(2));
        assert!(snap.counter("dram.vtree.bytes_read").unwrap_or(0) > 0);
    }

    #[test]
    fn dram_traffic_counted() {
        let mut v = vtree();
        v.set(0, 0, true);
        v.get(0, 0);
        let s = v.device_stats();
        assert!(s.bytes_read >= 2); // read-modify-write + read
        assert!(s.bytes_written >= 1);
    }
}
