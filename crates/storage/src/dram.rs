//! The simulated DRAM: a byte-addressable store with latency accounting.
//!
//! The buffer ORAM, position map, VTree, stash, and path buffer all live in
//! (untrusted, encrypted) DRAM. DRAM accesses are far cheaper than SSD page
//! operations but are still counted — the Fig. 9 energy model charges DRAM
//! by capacity (static power), and the Fig. 10 ablation charges extra DRAM
//! scans when no scratchpad is available.

use crate::profile::DramProfile;
use crate::stats::DeviceStats;
use crate::telemetry::DeviceTelemetry;

/// Error from DRAM operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramOutOfRange {
    /// First byte of the offending access.
    pub offset: u64,
    /// Length of the offending access.
    pub len: usize,
    /// Device capacity in bytes.
    pub capacity: u64,
}

impl core::fmt::Display for DramOutOfRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "access [{}, {}) out of range (capacity {})",
            self.offset,
            self.offset + self.len as u64,
            self.capacity
        )
    }
}

impl std::error::Error for DramOutOfRange {}

/// A simulated DRAM module.
///
/// # Example
///
/// ```
/// use fedora_storage::{SimDram, DramProfile};
/// # fn main() -> Result<(), fedora_storage::dram::DramOutOfRange> {
/// let mut dram = SimDram::new(DramProfile::ddr5_like(), 1 << 16);
/// dram.write(128, b"position map shard")?;
/// let mut buf = [0u8; 18];
/// dram.read(128, &mut buf)?;
/// assert_eq!(&buf, b"position map shard");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimDram {
    profile: DramProfile,
    bytes: Vec<u8>,
    stats: DeviceStats,
    telemetry: DeviceTelemetry,
}

impl SimDram {
    /// Creates a zero-filled DRAM of `capacity` bytes.
    pub fn new(profile: DramProfile, capacity: u64) -> Self {
        SimDram {
            bytes: vec![0u8; capacity as usize],
            profile,
            stats: DeviceStats::new(),
            telemetry: DeviceTelemetry::noop(),
        }
    }

    /// Attaches telemetry handles mirroring this module's traffic into a
    /// registry; for DRAM, `pages` counts accesses (transactions).
    pub fn set_telemetry(&mut self, telemetry: DeviceTelemetry) {
        self.telemetry = telemetry;
    }

    /// The device profile.
    pub fn profile(&self) -> &DramProfile {
        &self.profile
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Resets the statistics (not the data).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn check(&self, offset: u64, len: usize) -> Result<(), DramOutOfRange> {
        if offset + len as u64 > self.bytes.len() as u64 {
            return Err(DramOutOfRange {
                offset,
                len,
                capacity: self.bytes.len() as u64,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`DramOutOfRange`] when the range exceeds capacity.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), DramOutOfRange> {
        self.check(offset, buf.len())?;
        buf.copy_from_slice(&self.bytes[offset as usize..offset as usize + buf.len()]);
        let ns = self.profile.access_ns(buf.len() as u64);
        self.stats.record_read(1, buf.len() as u64, ns);
        self.telemetry.record_read(1, buf.len() as u64, ns);
        Ok(())
    }

    /// Writes `data` at `offset`.
    ///
    /// # Errors
    ///
    /// [`DramOutOfRange`] when the range exceeds capacity.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), DramOutOfRange> {
        self.check(offset, data.len())?;
        self.bytes[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        let ns = self.profile.access_ns(data.len() as u64);
        self.stats.record_write(1, data.len() as u64, ns);
        self.telemetry.record_write(1, data.len() as u64, ns);
        Ok(())
    }

    /// Captures the raw byte image without touching statistics — the
    /// checkpoint path's out-of-band snapshot (restore with
    /// [`restore_state`](Self::restore_state)).
    pub fn snapshot_state(&self) -> (Vec<u8>, DeviceStats) {
        (self.bytes.clone(), self.stats)
    }

    /// Restores a byte image and statistics captured by
    /// [`snapshot_state`](Self::snapshot_state), bypassing the access
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not match this module's capacity.
    pub fn restore_state(&mut self, bytes: Vec<u8>, stats: DeviceStats) {
        assert_eq!(
            bytes.len(),
            self.bytes.len(),
            "dram image length must match capacity"
        );
        self.bytes = bytes;
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut d = SimDram::new(DramProfile::default(), 1024);
        d.write(100, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        d.read(100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn out_of_range() {
        let mut d = SimDram::new(DramProfile::default(), 16);
        assert!(d.write(10, &[0u8; 8]).is_err());
        let mut buf = [0u8; 8];
        assert!(d.read(12, &mut buf).is_err());
        // Exactly at the boundary is fine.
        assert!(d.write(8, &[0u8; 8]).is_ok());
    }

    #[test]
    fn stats_count_bytes() {
        let mut d = SimDram::new(DramProfile::default(), 1024);
        d.write(0, &[0u8; 64]).unwrap();
        let mut buf = [0u8; 128];
        d.read(0, &mut buf).unwrap();
        assert_eq!(d.stats().bytes_written, 64);
        assert_eq!(d.stats().bytes_read, 128);
        assert!(d.stats().busy_ns > 0);
    }
}
