//! Shadow-mode physical access trace capture for obliviousness auditing.
//!
//! An [`AccessTraceRecorder`] is a cheap cloneable handle (like
//! [`DeviceTelemetry`](crate::telemetry::DeviceTelemetry) and the registry
//! it mirrors into) that a device feeds the ordered sequence of page
//! indices it touches. The recorder captures exactly what a bus-snooping
//! adversary sees — *which* physical page moved in *which* direction, in
//! *what order* — so a twin-run harness can check that the sequence is
//! independent of the private inputs (PAPER §2: the ORAM obliviousness
//! invariant; §3: the ε-FDP bound on what the access *count* may leak).
//!
//! Design constraints:
//!
//! - **Shadow mode**: a default-constructed handle is detached and records
//!   nothing, so production devices pay one `Option` check per page.
//! - **Bounded**: capture stops (and a drop counter runs) once
//!   [`MAX_RECORDS`] entries are held, so a runaway workload cannot OOM the
//!   auditor.
//! - **Clone-shared**: cloning shares the underlying buffer, so a cloned
//!   device keeps appending to the same trace. An aborted round's accesses
//!   stay in it — they happened on the bus, and the adversary saw them.

use std::sync::{Arc, Mutex, MutexGuard};

/// Transfer direction of a recorded page access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessOp {
    /// Page travelled device → host.
    Read,
    /// Page travelled host → device.
    Write,
}

/// One physical page access as seen on the device bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// Transfer direction.
    pub op: AccessOp,
    /// Physical page index on the device.
    pub page: u64,
}

/// Hard cap on retained records (≈ 16 MiB of trace at 16 bytes/record).
pub const MAX_RECORDS: usize = 1 << 20;

#[derive(Debug, Default)]
struct RecorderInner {
    records: Vec<AccessRecord>,
    dropped: u64,
}

/// Shadow-mode recorder handle for a device's physical page-access
/// sequence. See the [module docs](self) for the capture model.
#[derive(Clone, Debug, Default)]
pub struct AccessTraceRecorder {
    inner: Option<Arc<Mutex<RecorderInner>>>,
}

/// Locks without propagating poisoning — the recorder must never take the
/// device down.
fn lock(m: &Mutex<RecorderInner>) -> MutexGuard<'_, RecorderInner> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl AccessTraceRecorder {
    /// Creates an armed recorder with an empty trace.
    pub fn new() -> Self {
        AccessTraceRecorder {
            inner: Some(Arc::new(Mutex::new(RecorderInner::default()))),
        }
    }

    /// A detached handle that records nothing (same as `default()`).
    pub fn disabled() -> Self {
        AccessTraceRecorder { inner: None }
    }

    /// Whether this handle captures accesses.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one page access. Devices call this once per page, in bus
    /// order (a batched transfer records each page in batch order).
    pub fn record(&self, op: AccessOp, page: u64) {
        if let Some(inner) = &self.inner {
            let mut g = lock(inner);
            if g.records.len() < MAX_RECORDS {
                g.records.push(AccessRecord { op, page });
            } else {
                g.dropped += 1;
            }
        }
    }

    /// Records a device → host transfer of `page`.
    pub fn record_read(&self, page: u64) {
        self.record(AccessOp::Read, page);
    }

    /// Records a host → device transfer of `page`.
    pub fn record_write(&self, page: u64) {
        self.record(AccessOp::Write, page);
    }

    /// Copies the captured trace (in capture order).
    pub fn snapshot(&self) -> Vec<AccessRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| lock(inner).records.clone())
    }

    /// Takes the captured trace, leaving the recorder empty (the drop
    /// counter is preserved).
    pub fn take(&self) -> Vec<AccessRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| std::mem::take(&mut lock(inner).records))
    }

    /// Discards the captured trace and resets the drop counter.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut g = lock(inner);
            g.records.clear();
            g.dropped = 0;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| lock(inner).records.len())
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accesses discarded after the [`MAX_RECORDS`] bound was hit. A
    /// non-zero value means the trace is a prefix, and trace-equality
    /// verdicts over it are not sound.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| lock(inner).dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let r = AccessTraceRecorder::new();
        r.record_read(7);
        r.record_write(3);
        r.record_read(7);
        assert_eq!(
            r.snapshot(),
            vec![
                AccessRecord {
                    op: AccessOp::Read,
                    page: 7
                },
                AccessRecord {
                    op: AccessOp::Write,
                    page: 3
                },
                AccessRecord {
                    op: AccessOp::Read,
                    page: 7
                },
            ]
        );
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn disabled_is_silent() {
        let r = AccessTraceRecorder::disabled();
        assert!(!r.is_enabled());
        r.record_read(1);
        assert!(r.is_empty());
        assert!(r.snapshot().is_empty());
        assert!(AccessTraceRecorder::default().snapshot().is_empty());
    }

    #[test]
    fn clones_share_the_trace() {
        let a = AccessTraceRecorder::new();
        let b = a.clone();
        a.record_read(1);
        b.record_write(2);
        assert_eq!(a.len(), 2);
        let taken = b.take();
        assert_eq!(taken.len(), 2);
        assert!(a.is_empty());
    }

    #[test]
    fn clear_resets() {
        let r = AccessTraceRecorder::new();
        r.record_read(0);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }
}
