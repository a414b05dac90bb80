//! Device access statistics.
//!
//! Every simulated device maintains a [`DeviceStats`]; the lifetime, latency,
//! power, and cost figures are all computed from these counters.

/// Access counters for one device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of page (or transaction) reads.
    pub pages_read: u64,
    /// Number of page (or transaction) writes.
    pub pages_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written — the quantity that wears an SSD out.
    pub bytes_written: u64,
    /// Simulated time the device spent busy, in nanoseconds.
    pub busy_ns: u64,
    /// Bit-flip faults injected into this device's read traffic.
    pub faults_bitflip: u64,
    /// Rollback-replay faults injected into this device's read traffic.
    pub faults_rollback: u64,
    /// Transient operation failures injected on this device.
    pub faults_transient: u64,
}

impl DeviceStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroes every counter in place (what `SimSsd::reset_stats` and
    /// `SimDram::reset_stats` run).
    pub fn reset(&mut self) {
        *self = DeviceStats::default();
    }

    /// Records `pages` page reads (transactions, for DRAM) of `bytes` in
    /// total, taking `ns` nanoseconds.
    pub fn record_read(&mut self, pages: u64, bytes: u64, ns: u64) {
        self.pages_read += pages;
        self.bytes_read += bytes;
        self.busy_ns += ns;
    }

    /// Records `pages` page writes, as for [`record_read`](Self::record_read).
    pub fn record_write(&mut self, pages: u64, bytes: u64, ns: u64) {
        self.pages_written += pages;
        self.bytes_written += bytes;
        self.busy_ns += ns;
    }

    /// Element-wise difference (`self - earlier`), for measuring one phase.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn since(&self, earlier: &DeviceStats) -> DeviceStats {
        debug_assert!(self.pages_read >= earlier.pages_read);
        DeviceStats {
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            busy_ns: self.busy_ns - earlier.busy_ns,
            faults_bitflip: self.faults_bitflip - earlier.faults_bitflip,
            faults_rollback: self.faults_rollback - earlier.faults_rollback,
            faults_transient: self.faults_transient - earlier.faults_transient,
        }
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &DeviceStats) -> DeviceStats {
        DeviceStats {
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            busy_ns: self.busy_ns + other.busy_ns,
            faults_bitflip: self.faults_bitflip + other.faults_bitflip,
            faults_rollback: self.faults_rollback + other.faults_rollback,
            faults_transient: self.faults_transient + other.faults_transient,
        }
    }
}

impl core::fmt::Display for DeviceStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "reads={} writes={} bytes_read={} bytes_written={} busy={:.3}ms",
            self.pages_read,
            self.pages_written,
            self.bytes_read,
            self.bytes_written,
            self.busy_ns as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = DeviceStats::new();
        s.record_read(1, 4096, 1000);
        s.record_read(1, 4096, 1000);
        s.record_write(1, 4096, 2000);
        assert_eq!(s.pages_read, 2);
        assert_eq!(s.pages_written, 1);
        assert_eq!(s.bytes_read, 8192);
        assert_eq!(s.bytes_written, 4096);
        assert_eq!(s.busy_ns, 4000);
    }

    #[test]
    fn since_diffs() {
        let mut s = DeviceStats::new();
        s.record_write(1, 100, 10);
        let snapshot = s;
        s.record_write(1, 200, 20);
        let d = s.since(&snapshot);
        assert_eq!(d.pages_written, 1);
        assert_eq!(d.bytes_written, 200);
        assert_eq!(d.busy_ns, 20);
    }

    #[test]
    fn merged_sums() {
        let mut a = DeviceStats::new();
        a.record_read(1, 1, 1);
        let mut b = DeviceStats::new();
        b.record_write(1, 2, 2);
        let m = a.merged(&b);
        assert_eq!(m.pages_read, 1);
        assert_eq!(m.pages_written, 1);
        assert_eq!(m.bytes_read, 1);
        assert_eq!(m.bytes_written, 2);
    }

    #[test]
    fn reset_zeroes_in_place() {
        let mut s = DeviceStats::new();
        s.record_read(1, 4096, 1000);
        s.faults_bitflip = 2;
        s.reset();
        assert_eq!(s, DeviceStats::default());
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", DeviceStats::new()).is_empty());
    }
}
