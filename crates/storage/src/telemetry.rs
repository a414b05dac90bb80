//! Device-side telemetry: mirrors every device's traffic into a shared
//! [`Registry`].
//!
//! Each device keeps its bespoke [`DeviceStats`](crate::stats::DeviceStats)
//! struct as a thin synchronous view (the analytic figures are computed from
//! it), while a [`DeviceTelemetry`] handle set mirrors the same record sites
//! into registry counters and latency histograms under a per-device prefix
//! (`storage` for the main SSD, `dram.buffer` / `dram.vtree` for DRAM
//! modules). A default-constructed handle set is a no-op sink, so devices
//! built without an attached registry pay nothing.

use fedora_telemetry::{Counter, Histogram, Registry};

/// Registry handles mirroring one device's read/write/fault traffic.
///
/// Cloning shares the underlying instruments (a cloned device keeps feeding
/// the same counters).
#[derive(Clone, Debug, Default)]
pub struct DeviceTelemetry {
    pages_read: Counter,
    pages_written: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    read_latency: Histogram,
    write_latency: Histogram,
    faults_bitflip: Counter,
    faults_rollback: Counter,
    faults_transient: Counter,
    /// Back-reference for causal tracing: when tracing is enabled on the
    /// registry, every record becomes a `trace.io` event attributing the
    /// *simulated* device latency to the span that caused the I/O.
    registry: Registry,
    trace_read: String,
    trace_write: String,
}

impl DeviceTelemetry {
    /// Registers this device's instruments under `prefix` (eagerly, so the
    /// metric keys exist in snapshots even before any traffic):
    /// `{prefix}.pages_read`, `{prefix}.pages_written`,
    /// `{prefix}.bytes_read`, `{prefix}.bytes_written`,
    /// `{prefix}.read.latency`, `{prefix}.write.latency`, and
    /// `{prefix}.faults.{bitflip,rollback,transient}`.
    pub fn attach(registry: &Registry, prefix: &str) -> Self {
        DeviceTelemetry {
            pages_read: registry.counter(&format!("{prefix}.pages_read")),
            pages_written: registry.counter(&format!("{prefix}.pages_written")),
            bytes_read: registry.counter(&format!("{prefix}.bytes_read")),
            bytes_written: registry.counter(&format!("{prefix}.bytes_written")),
            read_latency: registry.histogram(&format!("{prefix}.read.latency")),
            write_latency: registry.histogram(&format!("{prefix}.write.latency")),
            faults_bitflip: registry.counter(&format!("{prefix}.faults.bitflip")),
            faults_rollback: registry.counter(&format!("{prefix}.faults.rollback")),
            faults_transient: registry.counter(&format!("{prefix}.faults.transient")),
            registry: registry.clone(),
            trace_read: format!("{prefix}.read"),
            trace_write: format!("{prefix}.write"),
        }
    }

    /// A detached handle set that drops everything (same as `default()`).
    pub fn noop() -> Self {
        Self::default()
    }

    /// Mirrors a read of `pages` pages / `bytes` bytes taking `ns`
    /// (modeled) nanoseconds. Batched reads record one histogram sample for
    /// the whole batch, matching the device's batched latency accounting.
    pub fn record_read(&self, pages: u64, bytes: u64, ns: u64) {
        self.pages_read.add(pages);
        self.bytes_read.add(bytes);
        self.read_latency.record(ns);
        self.registry.trace_io(&self.trace_read, ns, pages, bytes);
    }

    /// Mirrors a write, as for [`record_read`](Self::record_read).
    pub fn record_write(&self, pages: u64, bytes: u64, ns: u64) {
        self.pages_written.add(pages);
        self.bytes_written.add(bytes);
        self.write_latency.record(ns);
        self.registry.trace_io(&self.trace_write, ns, pages, bytes);
    }

    /// Mirrors an injected bit-flip fault surfacing in read traffic.
    pub fn fault_bitflip(&self) {
        self.faults_bitflip.incr();
    }

    /// Mirrors an injected rollback-replay fault surfacing in read traffic.
    pub fn fault_rollback(&self) {
        self.faults_rollback.incr();
    }

    /// Mirrors a transient operation failure.
    pub fn fault_transient(&self) {
        self.faults_transient.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_registers_keys_eagerly() {
        let r = Registry::new();
        let _t = DeviceTelemetry::attach(&r, "storage");
        let snap = r.snapshot();
        assert_eq!(snap.counter("storage.pages_read"), Some(0));
        assert_eq!(snap.counter("storage.pages_written"), Some(0));
        assert_eq!(snap.counter("storage.faults.bitflip"), Some(0));
        assert!(snap.histogram("storage.read.latency").is_some());
    }

    #[test]
    fn records_flow_to_registry() {
        let r = Registry::new();
        let t = DeviceTelemetry::attach(&r, "storage");
        t.record_read(3, 3 * 4096, 25_000);
        t.record_write(1, 4096, 40_000);
        t.fault_transient();
        let snap = r.snapshot();
        assert_eq!(snap.counter("storage.pages_read"), Some(3));
        assert_eq!(snap.counter("storage.bytes_read"), Some(3 * 4096));
        assert_eq!(snap.counter("storage.pages_written"), Some(1));
        assert_eq!(snap.counter("storage.faults.transient"), Some(1));
        assert_eq!(
            snap.histogram("storage.read.latency").map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn noop_is_free_and_silent() {
        let t = DeviceTelemetry::noop();
        t.record_read(1, 4096, 1);
        t.fault_bitflip();
        // Nothing to observe — this must simply not panic or allocate.
    }

    #[test]
    fn tracing_attributes_simulated_latency_per_stream() {
        let r = Registry::new();
        r.set_tracing(true);
        let t = DeviceTelemetry::attach(&r, "storage");
        {
            let _span = r.trace_span("oram.eviction");
            t.record_write(2, 2 * 4096, 50_000);
        }
        t.record_read(1, 4096, 25_000); // outside any span → parent 0
        let events = r.snapshot().events;
        let ios: Vec<_> = events.iter().filter(|e| e.name == "trace.io").collect();
        assert_eq!(ios.len(), 2);
        assert_eq!(
            ios[0].field("name"),
            Some(&fedora_telemetry::Value::Str("storage.write".into()))
        );
        assert_eq!(
            ios[0].field("dur"),
            Some(&fedora_telemetry::Value::U64(50_000))
        );
        assert_eq!(
            ios[1].field("parent"),
            Some(&fedora_telemetry::Value::U64(0))
        );
    }

    #[test]
    fn two_devices_can_share_a_prefix() {
        let r = Registry::new();
        let a = DeviceTelemetry::attach(&r, "storage");
        let b = DeviceTelemetry::attach(&r, "storage");
        a.record_read(1, 10, 5);
        b.record_read(1, 10, 5);
        assert_eq!(r.snapshot().counter("storage.pages_read"), Some(2));
    }
}
