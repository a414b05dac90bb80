//! The simulated SSD: a page-granular block device with wear accounting.
//!
//! `SimSsd` stores real bytes (the ORAM tree actually lives here during
//! experiments) and enforces the block-device contract the paper's
//! optimizations are designed around: all transfers are whole 4-KiB pages,
//! writes are what wear the device out, and reads/writes have asymmetric
//! latency.

use crate::durable::{ByteReader, ByteWriter, CodecError};
use crate::fault::{FaultConfig, FaultInjector, FaultStats, InjectedFault};
use crate::profile::SsdProfile;
use crate::stats::DeviceStats;
use crate::telemetry::DeviceTelemetry;
use crate::trace_recorder::AccessTraceRecorder;

/// Error from SSD operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsdError {
    /// Page index beyond the device capacity.
    OutOfRange {
        /// The offending page index.
        page: u64,
        /// Device capacity in pages.
        capacity: u64,
    },
    /// Buffer length does not equal the page size.
    BadLength {
        /// The buffer length supplied.
        got: usize,
        /// The required page size.
        want: usize,
    },
    /// A transient device failure — the operation did not happen, but an
    /// immediate retry may succeed. Only produced when a
    /// [`FaultInjector`] is armed.
    Transient {
        /// The first page the failed operation addressed.
        page: u64,
    },
}

impl core::fmt::Display for SsdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SsdError::OutOfRange { page, capacity } => {
                write!(f, "page {page} out of range (capacity {capacity} pages)")
            }
            SsdError::BadLength { got, want } => {
                write!(f, "buffer length {got} does not match page size {want}")
            }
            SsdError::Transient { page } => {
                write!(f, "transient device failure at page {page} (retryable)")
            }
        }
    }
}

impl std::error::Error for SsdError {}

/// A simulated NVMe SSD.
///
/// # Example
///
/// ```
/// use fedora_storage::{SimSsd, SsdProfile};
/// # fn main() -> Result<(), fedora_storage::ssd::SsdError> {
/// let mut ssd = SimSsd::new(SsdProfile::pm9a1_like(), 8);
/// ssd.write_pages(&[(0, vec![7u8; 4096])])?;
/// assert_eq!(ssd.read_pages(&[0])?[0][0], 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimSsd {
    profile: SsdProfile,
    pages: Vec<u8>,
    num_pages: u64,
    stats: DeviceStats,
    telemetry: DeviceTelemetry,
    recorder: AccessTraceRecorder,
    injector: Option<Box<FaultInjector>>,
    /// Pages that have been written at least once (the injector needs to
    /// know whether a pre-write image is a real previous version).
    written_once: Vec<bool>,
    /// One bit per page changed since the last [`clear_dirty`](Self::clear_dirty):
    /// what a durable checkpoint must capture to bring its copy of the
    /// device up to date.
    dirty: Vec<u64>,
}

impl SimSsd {
    /// Creates a zero-filled SSD with `num_pages` pages.
    pub fn new(profile: SsdProfile, num_pages: u64) -> Self {
        SimSsd {
            pages: vec![0u8; num_pages as usize * profile.page_bytes],
            num_pages,
            profile,
            stats: DeviceStats::new(),
            telemetry: DeviceTelemetry::noop(),
            recorder: AccessTraceRecorder::disabled(),
            injector: None,
            written_once: vec![false; num_pages as usize],
            dirty: vec![0; (num_pages as usize).div_ceil(64)],
        }
    }

    /// Attaches telemetry handles mirroring this device's traffic into a
    /// registry (see [`DeviceTelemetry::attach`]). Replaces any previous
    /// handle set; pass [`DeviceTelemetry::noop`] to detach.
    pub fn set_telemetry(&mut self, telemetry: DeviceTelemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches a shadow-mode access trace recorder capturing this device's
    /// physical page-access sequence (see [`AccessTraceRecorder`]).
    /// Replaces any previous recorder; pass
    /// [`AccessTraceRecorder::disabled`] to detach.
    pub fn set_access_recorder(&mut self, recorder: AccessTraceRecorder) {
        self.recorder = recorder;
    }

    /// Arms a fault injector: subsequent operations are perturbed per
    /// `config`. Replaces any previously armed injector.
    pub fn arm_faults(&mut self, config: FaultConfig) {
        self.injector = Some(Box::new(FaultInjector::new(config)));
    }

    /// Disarms fault injection. The injection counters accumulated in
    /// [`stats`](Self::stats) are preserved.
    pub fn disarm_faults(&mut self) {
        self.injector = None;
    }

    /// Injection counters of the armed injector (zeroes when disarmed).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector
            .as_ref()
            .map(|i| i.stats())
            .unwrap_or_default()
    }

    /// The device profile.
    pub fn profile(&self) -> &SsdProfile {
        &self.profile
    }

    /// Device capacity in pages.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_pages * self.profile.page_bytes as u64
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Resets the statistics (not the data).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn check(&self, page: u64, len: Option<usize>) -> Result<(), SsdError> {
        if page >= self.num_pages {
            return Err(SsdError::OutOfRange {
                page,
                capacity: self.num_pages,
            });
        }
        if let Some(got) = len {
            if got != self.profile.page_bytes {
                return Err(SsdError::BadLength {
                    got,
                    want: self.profile.page_bytes,
                });
            }
        }
        Ok(())
    }

    /// Reads a batch of pages, modeling the device's internal parallelism:
    /// the recorded busy time for the batch is `batch_read_ns(n)` rather
    /// than `n × read_latency_ns`. A one-page batch costs
    /// `read_latency_ns`.
    ///
    /// # Errors
    ///
    /// [`SsdError::OutOfRange`] if any page exceeds capacity, checked
    /// before anything happens: a failed batch reads nothing, counts
    /// nothing and draws no fault. [`SsdError::Transient`] when the armed
    /// injector fails the batch.
    pub fn read_pages(&mut self, pages: &[u64]) -> Result<Vec<Vec<u8>>, SsdError> {
        for &page in pages {
            self.check(page, None)?;
        }
        if let Some(inj) = self.injector.as_mut() {
            if !pages.is_empty() && inj.should_fail_read() {
                self.stats.faults_transient += 1;
                self.telemetry.fault_transient();
                return Err(SsdError::Transient { page: pages[0] });
            }
        }
        let mut out = Vec::with_capacity(pages.len());
        let pb = self.profile.page_bytes;
        for &page in pages {
            let start = page as usize * pb;
            out.push(self.pages[start..start + pb].to_vec());
            self.recorder.record_read(page);
        }
        let (n, bytes) = (pages.len() as u64, (pages.len() * pb) as u64);
        let batch_ns = self.profile.batch_read_ns(n);
        self.stats.record_read(n, bytes, batch_ns);
        self.telemetry.record_read(n, bytes, batch_ns);
        if let Some(inj) = self.injector.as_mut() {
            match inj.corrupt_read(pages, &mut out) {
                Some(InjectedFault::BitFlip { .. }) => {
                    self.stats.faults_bitflip += 1;
                    self.telemetry.fault_bitflip();
                }
                Some(InjectedFault::Rollback { .. }) => {
                    self.stats.faults_rollback += 1;
                    self.telemetry.fault_rollback();
                }
                None => {}
            }
        }
        Ok(out)
    }

    /// Writes a batch of pages with batched latency accounting (a
    /// one-page batch costs `write_latency_ns`).
    ///
    /// # Errors
    ///
    /// [`SsdError::OutOfRange`] or [`SsdError::BadLength`] for any write,
    /// checked before anything happens: a failed batch writes nothing,
    /// counts nothing and draws no fault. [`SsdError::Transient`] when the
    /// armed injector fails the batch.
    pub fn write_pages(&mut self, writes: &[(u64, Vec<u8>)]) -> Result<(), SsdError> {
        for (page, data) in writes {
            self.check(*page, Some(data.len()))?;
        }
        if let Some(inj) = self.injector.as_mut() {
            if !writes.is_empty() && inj.should_fail_write() {
                self.stats.faults_transient += 1;
                self.telemetry.fault_transient();
                return Err(SsdError::Transient { page: writes[0].0 });
            }
        }
        let pb = self.profile.page_bytes;
        for (page, data) in writes {
            let start = *page as usize * pb;
            if let Some(inj) = self.injector.as_mut() {
                let first = !self.written_once[*page as usize];
                inj.record_pre_write(*page, &self.pages[start..start + pb], first);
            }
            self.written_once[*page as usize] = true;
            self.pages[start..start + pb].copy_from_slice(data);
            self.mark_dirty(*page);
            self.recorder.record_write(*page);
        }
        let (n, bytes) = (writes.len() as u64, (writes.len() * pb) as u64);
        let batch_ns = self.profile.batch_write_ns(n);
        self.stats.record_write(n, bytes, batch_ns);
        self.telemetry.record_write(n, bytes, batch_ns);
        Ok(())
    }

    /// Fraction of the device's write endurance consumed so far, in
    /// [0, ∞) — values above 1.0 mean the device has worn out.
    pub fn wear_fraction(&self) -> f64 {
        self.stats.bytes_written as f64 / self.profile.endurance_bytes(self.capacity_bytes())
    }

    /// Injects a fault: flips `bit` of the given page in place, as a NAND
    /// bit error or a malicious device would. The next read of the page
    /// returns the corrupted bytes — upper layers must catch it via their
    /// authentication tags.
    ///
    /// # Errors
    ///
    /// [`SsdError::OutOfRange`] for bad pages.
    pub fn inject_bitflip(&mut self, page: u64, bit: u32) -> Result<(), SsdError> {
        self.check(page, None)?;
        let pb = self.profile.page_bytes;
        let idx = page as usize * pb + (bit as usize / 8) % pb;
        self.pages[idx] ^= 1 << (bit % 8);
        self.mark_dirty(page);
        Ok(())
    }

    /// Injects a rollback fault: overwrites `page` with `snapshot` (a
    /// previously captured page image), modeling a replay attack by a
    /// malicious device.
    ///
    /// # Errors
    ///
    /// [`SsdError::OutOfRange`] / [`SsdError::BadLength`].
    pub fn inject_rollback(&mut self, page: u64, snapshot: &[u8]) -> Result<(), SsdError> {
        self.check(page, Some(snapshot.len()))?;
        let pb = self.profile.page_bytes;
        let start = page as usize * pb;
        self.pages[start..start + pb].copy_from_slice(snapshot);
        self.mark_dirty(page);
        Ok(())
    }

    /// Reads a page without touching statistics, the access recorder or
    /// telemetry (the adversary's own snapshot for a later
    /// [`inject_rollback`](Self::inject_rollback), and the durable
    /// writer's copy of a changed page).
    ///
    /// # Errors
    ///
    /// [`SsdError::OutOfRange`] for bad pages.
    pub fn snapshot_page(&self, page: u64) -> Result<Vec<u8>, SsdError> {
        self.check(page, None)?;
        let pb = self.profile.page_bytes;
        let start = page as usize * pb;
        Ok(self.pages[start..start + pb].to_vec())
    }

    /// Overwrites a page as crash recovery restores it: no statistics,
    /// access record, telemetry, written-page mark or dirty bit, because
    /// the device is only being put back to a state it already had.
    ///
    /// # Errors
    ///
    /// [`SsdError::OutOfRange`] / [`SsdError::BadLength`].
    pub fn restore_page(&mut self, page: u64, data: &[u8]) -> Result<(), SsdError> {
        self.check(page, Some(data.len()))?;
        let pb = self.profile.page_bytes;
        let start = page as usize * pb;
        self.pages[start..start + pb].copy_from_slice(data);
        Ok(())
    }

    fn mark_dirty(&mut self, page: u64) {
        self.dirty[page as usize / 64] |= 1 << (page % 64);
    }

    /// Pages changed since the last [`clear_dirty`](Self::clear_dirty), in
    /// ascending order. Every page mutation — [`write_pages`](Self::write_pages)
    /// and both fault injections — sets its page's bit;
    /// [`restore_page`](Self::restore_page) does not.
    pub fn dirty_pages(&self) -> Vec<u64> {
        let mut pages = Vec::new();
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                pages.push(w as u64 * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        pages
    }

    /// Forgets every dirty bit (the durable writer has captured them).
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Serializes the device's metadata — geometry, written-page map and
    /// cumulative statistics — into `w`. The pages themselves travel
    /// separately, through [`snapshot_page`](Self::snapshot_page) and
    /// [`restore_page`](Self::restore_page), so a checkpoint can carry only
    /// the pages that changed. The armed fault injector and telemetry
    /// attachments are deliberately *not* persisted: recovery re-arms the
    /// injector from the journaled seed and re-attaches telemetry to the
    /// live registry.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.num_pages);
        w.put_u64(self.profile.page_bytes as u64);
        let mut map = vec![0u8; (self.num_pages as usize).div_ceil(8)];
        for (i, &written) in self.written_once.iter().enumerate() {
            if written {
                map[i / 8] |= 1 << (i % 8);
            }
        }
        w.put_bytes(&map);
        let s = &self.stats;
        for v in [
            s.pages_read,
            s.pages_written,
            s.bytes_read,
            s.bytes_written,
            s.busy_ns,
            s.faults_bitflip,
            s.faults_rollback,
            s.faults_transient,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores metadata previously captured by
    /// [`encode_state`](Self::encode_state) onto a freshly constructed
    /// device of the same geometry, leaving the pages as they are.
    /// Restoration bypasses the statistics paths (no reads/writes are
    /// counted) and verifies the captured geometry against this device's.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or geometry mismatch.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let num_pages = r.get_u64()?;
        if num_pages != self.num_pages {
            return Err(CodecError::Invalid("ssd page-count mismatch"));
        }
        let page_bytes = r.get_u64()?;
        if page_bytes != self.profile.page_bytes as u64 {
            return Err(CodecError::Invalid("ssd page-size mismatch"));
        }
        let map = r.get_bytes()?;
        if map.len() != (self.num_pages as usize).div_ceil(8) {
            return Err(CodecError::Invalid("ssd written-page map length mismatch"));
        }
        for i in 0..self.num_pages as usize {
            self.written_once[i] = map[i / 8] & (1 << (i % 8)) != 0;
        }
        self.stats = DeviceStats {
            pages_read: r.get_u64()?,
            pages_written: r.get_u64()?,
            bytes_read: r.get_u64()?,
            bytes_written: r.get_u64()?,
            busy_ns: r.get_u64()?,
            faults_bitflip: r.get_u64()?,
            faults_rollback: r.get_u64()?,
            faults_transient: r.get_u64()?,
        };
        Ok(())
    }

    /// Expected device lifetime in months, extrapolating the observed write
    /// rate over `elapsed_seconds` of (simulated) wall-clock time.
    ///
    /// Returns `f64::INFINITY` when nothing has been written.
    pub fn projected_lifetime_months(&self, elapsed_seconds: f64) -> f64 {
        if self.stats.bytes_written == 0 {
            return f64::INFINITY;
        }
        let write_rate = self.stats.bytes_written as f64 / elapsed_seconds; // bytes/s
        let seconds = self.profile.endurance_bytes(self.capacity_bytes()) / write_rate;
        seconds / (30.44 * 24.0 * 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd(pages: u64) -> SimSsd {
        SimSsd::new(SsdProfile::pm9a1_like(), pages)
    }

    #[test]
    fn roundtrip_page() {
        let mut s = ssd(4);
        let data = vec![0x5A; 4096];
        s.write_pages(&[(2, data.clone())]).unwrap();
        assert_eq!(s.read_pages(&[2]).unwrap()[0], data);
        assert_eq!(s.read_pages(&[0]).unwrap()[0], vec![0u8; 4096]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = ssd(4);
        assert!(matches!(
            s.read_pages(&[4]),
            Err(SsdError::OutOfRange { .. })
        ));
        assert!(matches!(
            s.write_pages(&[(9, vec![0; 4096])]),
            Err(SsdError::OutOfRange { .. })
        ));
    }

    #[test]
    fn bad_length_rejected() {
        let mut s = ssd(4);
        assert!(matches!(
            s.write_pages(&[(0, vec![0u8; 100])]),
            Err(SsdError::BadLength {
                got: 100,
                want: 4096
            })
        ));
    }

    #[test]
    fn stats_track_wear() {
        let mut s = ssd(4);
        for _ in 0..10 {
            s.write_pages(&[(0, vec![1; 4096])]).unwrap();
        }
        assert_eq!(s.stats().pages_written, 10);
        assert_eq!(s.stats().bytes_written, 40960);
        assert!(s.wear_fraction() > 0.0);
    }

    #[test]
    fn batch_reads_faster_than_serial() {
        let mut a = ssd(16);
        let mut b = ssd(16);
        let pages: Vec<u64> = (0..16).collect();
        a.read_pages(&pages).unwrap();
        for p in &pages {
            b.read_pages(&[*p]).unwrap();
        }
        assert_eq!(a.stats().pages_read, b.stats().pages_read);
        assert!(a.stats().busy_ns < b.stats().busy_ns);
    }

    #[test]
    fn batch_write_counts_pages() {
        let mut s = ssd(8);
        let writes: Vec<(u64, Vec<u8>)> = (0..4).map(|p| (p, vec![p as u8; 4096])).collect();
        s.write_pages(&writes).unwrap();
        assert_eq!(s.stats().pages_written, 4);
        for p in 0..4u64 {
            assert_eq!(s.read_pages(&[p]).unwrap()[0][0], p as u8);
        }
    }

    #[test]
    fn lifetime_projection() {
        let mut s = ssd(256); // 1 MiB device
                              // Write 100 pages over 10 simulated seconds.
        for i in 0..100u64 {
            s.write_pages(&[(i % 256, vec![0; 4096])]).unwrap();
        }
        let months = s.projected_lifetime_months(10.0);
        // endurance = 1MiB*5400 ≈ 5.66e9 bytes; rate = 40960 B/s
        // lifetime ≈ 1.38e5 s ≈ 0.05 months
        assert!(months > 0.01 && months < 1.0, "got {months}");
        let fresh = ssd(4);
        assert!(fresh.projected_lifetime_months(10.0).is_infinite());
    }

    #[test]
    fn bitflip_corrupts_page() {
        let mut s = ssd(2);
        s.write_pages(&[(0, vec![0xAA; 4096])]).unwrap();
        s.inject_bitflip(0, 3).unwrap();
        let page = s.read_pages(&[0]).unwrap().remove(0);
        assert_eq!(page[0], 0xAA ^ 0b1000);
        assert!(s.inject_bitflip(9, 0).is_err());
    }

    #[test]
    fn rollback_restores_old_image() {
        let mut s = ssd(2);
        s.write_pages(&[(1, vec![1; 4096])]).unwrap();
        let old = s.snapshot_page(1).unwrap();
        s.write_pages(&[(1, vec![2; 4096])]).unwrap();
        s.inject_rollback(1, &old).unwrap();
        assert_eq!(s.read_pages(&[1]).unwrap()[0][0], 1);
    }

    #[test]
    fn snapshot_does_not_count_stats() {
        let mut s = ssd(2);
        s.write_pages(&[(0, vec![5; 4096])]).unwrap();
        let reads_before = s.stats().pages_read;
        let _ = s.snapshot_page(0).unwrap();
        assert_eq!(s.stats().pages_read, reads_before);
    }

    #[test]
    fn telemetry_mirrors_stats() {
        use fedora_telemetry::Registry;
        let r = Registry::new();
        let mut s = ssd(8);
        s.set_telemetry(crate::telemetry::DeviceTelemetry::attach(&r, "storage"));
        s.write_pages(&[(0, vec![1; 4096])]).unwrap();
        s.read_pages(&[0, 0]).unwrap();
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("storage.pages_written"),
            Some(s.stats().pages_written)
        );
        assert_eq!(
            snap.counter("storage.pages_read"),
            Some(s.stats().pages_read)
        );
        assert_eq!(
            snap.counter("storage.bytes_read"),
            Some(s.stats().bytes_read)
        );
        // One histogram sample per operation or batch: 1 write, 1 read batch.
        assert_eq!(
            snap.histogram("storage.write.latency").map(|h| h.count),
            Some(1)
        );
        assert_eq!(
            snap.histogram("storage.read.latency").map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn access_recorder_sees_bus_order() {
        use crate::trace_recorder::{AccessOp, AccessTraceRecorder};
        let mut s = ssd(8);
        let rec = AccessTraceRecorder::new();
        s.set_access_recorder(rec.clone());
        s.write_pages(&[(3, vec![1; 4096])]).unwrap();
        s.read_pages(&[3, 5]).unwrap();
        let trace = rec.snapshot();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].op, AccessOp::Write);
        assert_eq!(trace[0].page, 3);
        assert_eq!(trace[1].op, AccessOp::Read);
        assert_eq!(trace[1].page, 3);
        assert_eq!(trace[2].page, 5);
        // snapshot_page is the adversary's out-of-band peek, not bus traffic.
        let _ = s.snapshot_page(3).unwrap();
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn state_codec_roundtrips_pages_stats_and_written_map() {
        let mut s = ssd(4);
        s.write_pages(&[(1, vec![0xC4; 4096])]).unwrap();
        s.read_pages(&[1]).unwrap();
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        // The codec carries the metadata; pages travel one by one.
        assert!(
            bytes.len() < 4096,
            "{} B: pages leaked into the codec",
            bytes.len()
        );

        let mut restored = ssd(4);
        let mut r = ByteReader::new(&bytes);
        restored.decode_state(&mut r).unwrap();
        r.expect_end().unwrap();
        restored
            .restore_page(1, &s.snapshot_page(1).unwrap())
            .unwrap();
        assert_eq!(restored.read_pages(&[1]).unwrap()[0][0], 0xC4);
        // Stats resumed, then incremented by the read above.
        assert_eq!(restored.stats().pages_written, 1);
        assert_eq!(restored.stats().pages_read, 2);

        // The written-once map survived: arm a rollback injector and prove
        // page 1 is treated as previously written (pre-image tracked).
        restored.arm_faults(FaultConfig {
            rollback_per_read: 1.0,
            ..FaultConfig::default()
        });
        restored.write_pages(&[(1, vec![0xC5; 4096])]).unwrap();
        assert_eq!(restored.read_pages(&[1]).unwrap()[0][0], 0xC4);
    }

    #[test]
    fn state_codec_rejects_geometry_mismatch() {
        let s = ssd(4);
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut wrong = ssd(8);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            wrong.decode_state(&mut r),
            Err(CodecError::Invalid("ssd page-count mismatch"))
        );
    }

    #[test]
    fn every_page_mutation_sets_its_dirty_bit() {
        let mut s = ssd(130);
        assert!(s.dirty_pages().is_empty());
        s.write_pages(&[(3, vec![1; 4096])]).unwrap();
        s.write_pages(&[(64, vec![2; 4096]), (129, vec![3; 4096])])
            .unwrap();
        s.inject_bitflip(70, 5).unwrap();
        s.inject_rollback(0, &vec![9; 4096]).unwrap();
        // Reads, snapshots and restores change nothing the writer must copy.
        s.read_pages(&[3]).unwrap();
        s.read_pages(&[64, 65]).unwrap();
        let _ = s.snapshot_page(1).unwrap();
        s.restore_page(2, &vec![4; 4096]).unwrap();
        assert_eq!(s.dirty_pages(), vec![0, 3, 64, 70, 129]);
        s.clear_dirty();
        assert!(s.dirty_pages().is_empty());
        assert_eq!(s.read_pages(&[2]).unwrap()[0][0], 4);
    }

    #[test]
    fn restore_page_leaves_no_trace() {
        use crate::trace_recorder::AccessTraceRecorder;
        use fedora_telemetry::Registry;
        let r = Registry::new();
        let mut s = ssd(4);
        s.set_telemetry(crate::telemetry::DeviceTelemetry::attach(&r, "storage"));
        let rec = AccessTraceRecorder::new();
        s.set_access_recorder(rec.clone());
        s.restore_page(1, &vec![7; 4096]).unwrap();
        assert_eq!(*s.stats(), DeviceStats::new());
        assert!(rec.is_empty());
        let snap = r.snapshot();
        assert_eq!(snap.counter("storage.pages_written"), Some(0));
        assert_eq!(
            snap.histogram("storage.write.latency").map(|h| h.count),
            Some(0)
        );
        assert!(s.restore_page(4, &vec![0; 4096]).is_err());
        assert!(s.restore_page(0, &[0; 16]).is_err());
        assert_eq!(s.snapshot_page(1).unwrap(), vec![7; 4096]);
        assert!(s.dirty_pages().is_empty());
    }

    #[test]
    fn armed_device_counts_transients() {
        let mut s = ssd(8);
        s.arm_faults(FaultConfig {
            transient_per_read: 1.0,
            ..FaultConfig::default()
        });
        s.write_pages(&[(0, vec![1; 4096])]).unwrap();
        assert!(matches!(
            s.read_pages(&[0]),
            Err(SsdError::Transient { page: 0 })
        ));
        // One-shot cooldown: the retry must succeed.
        assert_eq!(s.read_pages(&[0]).unwrap()[0][0], 1);
        assert_eq!(s.fault_stats().transients, 1);
        assert_eq!(s.stats().faults_transient, 1);
        s.disarm_faults();
        assert_eq!(s.fault_stats().total(), 0);
    }

    #[test]
    fn failed_batch_changes_nothing() {
        use crate::trace_recorder::AccessTraceRecorder;
        use fedora_telemetry::Registry;
        let r = Registry::new();
        let mut s = ssd(4);
        s.set_telemetry(crate::telemetry::DeviceTelemetry::attach(&r, "storage"));
        let rec = AccessTraceRecorder::new();
        s.set_access_recorder(rec.clone());
        s.write_pages(&[(1, vec![1; 4096])]).unwrap();
        s.read_pages(&[1]).unwrap();
        // Page bytes (hashed), dirty set, recorder trace, stats and the
        // registry's `storage.*` counters.
        let state = |s: &SimSsd| {
            let pages: Vec<u64> = (0..4)
                .map(|p| crate::durable::fnv1a64(&s.snapshot_page(p).unwrap()))
                .collect();
            let counters = r.snapshot().counters;
            (pages, s.dirty_pages(), rec.snapshot(), *s.stats(), counters)
        };
        let before = state(&s);
        let failing = |s: &mut SimSsd| {
            let short = s.write_pages(&[(0, vec![2; 4096]), (1, vec![2; 100])]);
            assert!(matches!(short, Err(SsdError::BadLength { got: 100, .. })));
            let past_end = s.write_pages(&[(0, vec![2; 4096]), (9, vec![2; 4096])]);
            assert!(matches!(
                past_end,
                Err(SsdError::OutOfRange { page: 9, .. })
            ));
            let past_end = s.read_pages(&[0, 9]);
            assert!(matches!(
                past_end,
                Err(SsdError::OutOfRange { page: 9, .. })
            ));
        };
        failing(&mut s);
        assert_eq!(state(&s), before);
        // Nor does a failed batch draw from an armed injector, which would
        // otherwise fail each of these batches transiently.
        s.arm_faults(FaultConfig {
            transient_per_read: 1.0,
            transient_per_write: 1.0,
            ..FaultConfig::default()
        });
        failing(&mut s);
        assert_eq!(state(&s), before);
        assert_eq!(s.fault_stats().total(), 0);
    }

    #[test]
    fn reset_stats_keeps_data() {
        let mut s = ssd(2);
        s.write_pages(&[(1, vec![3; 4096])]).unwrap();
        s.reset_stats();
        assert_eq!(s.stats().pages_written, 0);
        assert_eq!(s.read_pages(&[1]).unwrap()[0][0], 3);
    }
}
