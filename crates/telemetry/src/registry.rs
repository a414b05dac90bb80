//! The handle-based metrics registry.
//!
//! A [`Registry`] is a cheap cloneable handle to shared state (or to
//! nothing, for the disabled no-op sink). Instruments are looked up by
//! dot-separated name; asking twice for the same name returns handles to the
//! same underlying cell, so independent layers can contribute to one metric
//! (e.g. every device mirrors into `storage.pages_read`). Registration is
//! eager: a counter exists (at zero) in snapshots from the moment any layer
//! asks for it, which keeps exported key sets stable across runs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::export::Snapshot;
use crate::histogram::{Histogram, HistogramCore, HistogramSummary};
use crate::journal::{Journal, Value};
use crate::trace::{self, TraceSpan, TracerCore};

/// Locks a mutex, recovering the data from a poisoned lock instead of
/// panicking (telemetry must never take the host down).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64::to_bits`, giving lock-free last-writer-wins floats.
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    journal: Mutex<Journal>,
    tracer: TracerCore,
    /// Series names whose values derive from round secrets (anything
    /// computed from `k_union`). Snapshots carry this set so default
    /// exporters can redact them; see [`Snapshot::audit_view`].
    audit_only: Mutex<BTreeSet<String>>,
}

/// A handle to a metrics registry, or a no-op sink.
///
/// Cloning shares the underlying state. The [`Default`] registry is
/// *disabled* so that plumbing telemetry through a struct never forces a
/// live registry on callers that don't want one.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Registry {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// Creates a disabled registry: every handle it hands out is a no-op and
    /// snapshots are empty. This is the bounded-overhead sink for perf runs.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this handle points at live storage.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns (registering if needed) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    lock(&inner.counters)
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )
            }),
        }
    }

    /// Returns (registering if needed) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    lock(&inner.gauges)
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
                )
            }),
        }
    }

    /// Returns (registering if needed) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.inner.as_ref() {
            None => Histogram::noop(),
            Some(inner) => Histogram::from_core(Arc::clone(
                lock(&inner.histograms)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::new())),
            )),
        }
    }

    /// Current value of the counter `name`, read without registering it
    /// (`None` when no layer has asked for it, or the registry is
    /// disabled). Pollers use this so that watching a series never adds
    /// it to exports.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        lock(&inner.counters)
            .get(name)
            .map(|cell| cell.load(Ordering::Relaxed))
    }

    /// Current summary of the histogram `name`, read without registering
    /// it; see [`Registry::counter_value`].
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        let inner = self.inner.as_ref()?;
        lock(&inner.histograms).get(name).map(|core| core.summary())
    }

    /// Marks the series `name` as **audit-only**: its value derives from a
    /// round secret (in FEDORA, anything computed from `k_union`), so the
    /// default JSON/Prometheus exports redact it lest the telemetry
    /// channel itself become a side channel. Lookups on snapshots still see
    /// the series; only the exporters filter. No-op on a disabled registry.
    pub fn mark_audit_only(&self, name: &str) {
        if let Some(inner) = &self.inner {
            lock(&inner.audit_only).insert(name.to_string());
        }
    }

    /// Returns (registering if needed) the counter `name`, marked
    /// audit-only. See [`Registry::mark_audit_only`].
    pub fn counter_audit(&self, name: &str) -> Counter {
        self.mark_audit_only(name);
        self.counter(name)
    }

    /// Returns (registering if needed) the gauge `name`, marked audit-only.
    pub fn gauge_audit(&self, name: &str) -> Gauge {
        self.mark_audit_only(name);
        self.gauge(name)
    }

    /// Returns (registering if needed) the histogram `name`, marked
    /// audit-only.
    pub fn histogram_audit(&self, name: &str) -> Histogram {
        self.mark_audit_only(name);
        self.histogram(name)
    }

    /// Turns causal span tracing on or off (off by default; a no-op on a
    /// disabled registry). While on, [`Registry::trace_span`] emits
    /// `trace.begin`/`trace.end` journal records and instrumented devices
    /// emit `trace.io` records.
    pub fn set_tracing(&self, on: bool) {
        if let Some(core) = self.tracer_core() {
            core.set_enabled(on);
        }
    }

    /// Whether causal span tracing is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer_core().is_some_and(TracerCore::is_enabled)
    }

    /// Opens a causal trace span. Returns an inert guard when tracing is
    /// off, at the cost of one relaxed atomic load.
    pub fn trace_span(&self, name: &str) -> TraceSpan {
        TraceSpan::begin(self, name, &[])
    }

    /// Like [`Registry::trace_span`] but with key=value attributes on the
    /// `trace.begin` record.
    pub fn trace_span_with(&self, name: &str, attrs: &[(&str, Value)]) -> TraceSpan {
        TraceSpan::begin(self, name, attrs)
    }

    /// Opens a causal trace span under an **explicit** parent span id
    /// instead of the caller thread's innermost open span. Worker threads
    /// use this to keep the causal tree connected across a fan-out: the
    /// dispatching thread captures its span's id ([`TraceSpan::id`])
    /// before spawning and each worker roots its spans
    /// under it, so Perfetto still renders one tree. `parent = 0` opens a
    /// root span.
    pub fn trace_span_under(&self, parent: u64, name: &str) -> TraceSpan {
        TraceSpan::begin_under(self, parent, name, &[])
    }

    /// Like [`Registry::trace_span_under`] but with key=value attributes on
    /// the `trace.begin` record.
    pub fn trace_span_under_with(
        &self,
        parent: u64,
        name: &str,
        attrs: &[(&str, Value)],
    ) -> TraceSpan {
        TraceSpan::begin_under(self, parent, name, attrs)
    }

    /// Records a `trace.io` point event attributing `sim_ns` of *simulated*
    /// device latency (plus page/byte counts) to the innermost span open on
    /// this thread. No-op when tracing is off.
    pub fn trace_io(&self, stream: &str, sim_ns: u64, pages: u64, bytes: u64) {
        trace::io_event(self, stream, sim_ns, pages, bytes);
    }

    pub(crate) fn tracer_core(&self) -> Option<&TracerCore> {
        self.inner.as_deref().map(|inner| &inner.tracer)
    }

    /// Appends a structured event to the journal.
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        if let Some(inner) = &self.inner {
            lock(&inner.journal).push(name, fields);
        }
    }

    /// Changes the journal's retention bound (default
    /// [`crate::MAX_JOURNAL_EVENTS`]). Already-buffered events are kept even
    /// if they exceed a smaller bound; only future pushes are affected.
    /// No-op on a disabled registry.
    pub fn set_journal_capacity(&self, capacity: usize) {
        if let Some(inner) = &self.inner {
            lock(&inner.journal).set_capacity(capacity);
        }
    }

    /// Current journal retention bound (0 when disabled).
    pub fn journal_capacity(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| lock(&inner.journal).capacity())
    }

    /// Events evicted from the bounded journal since startup (the live
    /// value behind the `telemetry.journal.dropped` snapshot counter),
    /// readable without building a snapshot. The `tail` verb reports this
    /// so pollers can tell a quiet window from a lost one.
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| lock(&inner.journal).dropped())
    }

    /// Copies journal events with `seq >= cursor`, at most `max` of them,
    /// without snapshotting instruments. Returns the events plus the cursor
    /// to resume from (one past the last returned seq; equal to `cursor`
    /// when nothing new exists). This is the polling primitive behind the
    /// network `tail` verb: the client holds the cursor, the server keeps
    /// no per-client state. Sequence numbers are dense, so a gap between
    /// the requested cursor and the first returned seq can only mean the
    /// journal hit its retention bound in between.
    pub fn events_since(&self, cursor: u64, max: usize) -> (Vec<crate::Event>, u64) {
        let Some(inner) = &self.inner else {
            return (Vec::new(), cursor);
        };
        let journal = lock(&inner.journal);
        let events = journal.events();
        // seq is dense from 0 over retained events: index by position.
        let start = events.partition_point(|e| e.seq < cursor);
        let out: Vec<crate::Event> = events[start..].iter().take(max).cloned().collect();
        let next = out.last().map_or(cursor, |e| e.seq + 1);
        (out, next)
    }

    /// Full point-in-time snapshot, including the event journal.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_impl(true)
    }

    /// Snapshot without the event journal — cheap enough to attach to every
    /// `RoundReport` without cloning thousands of events each round.
    pub fn snapshot_lite(&self) -> Snapshot {
        self.snapshot_impl(false)
    }

    fn snapshot_impl(&self, with_events: bool) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let mut counters: Vec<(String, u64)> = lock(&inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = lock(&inner.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect();
        let journal = lock(&inner.journal);
        // Overflow accounting is a first-class counter so trace-based
        // analyses can tell a complete journal from a truncated one.
        let dropped_key = "telemetry.journal.dropped";
        let pos = counters.partition_point(|(k, _)| k.as_str() < dropped_key);
        if counters.get(pos).is_some_and(|(k, _)| k == dropped_key) {
            counters[pos].1 = journal.dropped();
        } else {
            counters.insert(pos, (dropped_key.to_string(), journal.dropped()));
        }
        Snapshot {
            counters,
            gauges,
            histograms,
            events: if with_events {
                journal.events().to_vec()
            } else {
                Vec::new()
            },
            events_dropped: journal.dropped(),
            audit_only: lock(&inner.audit_only).iter().cloned().collect(),
        }
    }
}

/// Monotonic `u64` counter handle (no-op when detached).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A counter that discards increments.
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Last-writer-wins `f64` gauge handle (no-op when detached).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A gauge that discards writes.
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Sets from an integer (stored as `f64`).
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    pub fn set_max(&self, v: f64) {
        if let Some(cell) = &self.cell {
            // Relaxed CAS loop; contention on gauges is negligible.
            let mut cur = cell.load(Ordering::Relaxed);
            while v > f64::from_bits(cur) {
                match cell.compare_exchange_weak(
                    cur,
                    v.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_lookups_do_not_register() {
        let r = Registry::new();
        assert_eq!(r.counter_value("c"), None);
        assert_eq!(r.histogram_summary("h"), None);
        let snap = r.snapshot_lite();
        assert_eq!((snap.counter("c"), snap.histogram("h")), (None, None));
        r.counter("c").add(3);
        r.histogram("h").record(7);
        assert_eq!(r.counter_value("c"), Some(3));
        assert_eq!(r.histogram_summary("h").map(|h| h.count), Some(1));
        assert_eq!(Registry::disabled().counter_value("c"), None);
    }

    #[test]
    fn same_name_same_cell() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("x"), Some(3));
    }

    #[test]
    fn disabled_registry_is_noop() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.add(10);
        assert_eq!(c.get(), 0);
        r.gauge("g").set(1.5);
        r.histogram("h").record(7);
        r.event("e", &[]);
        let snap = r.snapshot();
        assert_eq!(snap, Snapshot::default());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Registry::default().is_enabled());
        let c = Counter::default();
        c.incr();
        assert_eq!(c.get(), 0);
        Gauge::default().set(1.0);
    }

    #[test]
    fn gauge_roundtrip_and_max() {
        let r = Registry::new();
        let g = r.gauge("occupancy");
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        g.set_max(0.1);
        assert_eq!(g.get(), 0.25);
        g.set_max(0.9);
        assert_eq!(g.get(), 0.9);
        g.set_u64(7);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn eager_registration_appears_in_snapshot() {
        let r = Registry::new();
        let _ = r.counter("never.touched");
        let _ = r.histogram("empty.hist");
        let snap = r.snapshot();
        assert_eq!(snap.counter("never.touched"), Some(0));
        assert_eq!(snap.histogram("empty.hist").map(|h| h.count), Some(0));
    }

    #[test]
    fn events_flow_to_snapshot() {
        let r = Registry::new();
        r.event("fault.detected", &[("node", 4u64.into())]);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, "fault.detected");
        // Lite snapshots skip events but keep instruments.
        assert!(r.snapshot_lite().events.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let r = Registry::new();
        let r2 = r.clone();
        r2.counter("shared").incr();
        assert_eq!(r.snapshot().counter("shared"), Some(1));
    }

    #[test]
    fn concurrent_writers_lose_no_journal_records() {
        use crate::journal::MAX_JOURNAL_EVENTS;
        // Worker pools share one Registry handle across threads; the
        // journal must neither lose nor double-count records under
        // contention, and the overflow tail must land in `dropped` (and
        // thus `telemetry.journal.dropped`) exactly.
        const WRITERS: usize = 8;
        const PER_WRITER: usize = MAX_JOURNAL_EVENTS / WRITERS + 1_000;
        let r = Registry::new();
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        r.event("par.tick", &[("w", w.into()), ("i", i.into())]);
                        r.counter("par.ticks").incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        let total = (WRITERS * PER_WRITER) as u64;
        assert_eq!(snap.counter("par.ticks"), Some(total));
        assert_eq!(snap.events.len(), MAX_JOURNAL_EVENTS);
        assert_eq!(snap.events_dropped, total - MAX_JOURNAL_EVENTS as u64);
        assert_eq!(
            snap.counter("telemetry.journal.dropped"),
            Some(total - MAX_JOURNAL_EVENTS as u64)
        );
        // Sequence numbers stay dense and ordered: concurrent pushes
        // serialize under the journal lock.
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }
}
