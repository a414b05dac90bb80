//! Hierarchical causal span tracing.
//!
//! Tracing rides on the same [`Registry`](crate::Registry) as the metrics:
//! when enabled ([`Registry::set_tracing`](crate::Registry::set_tracing)),
//! every [`TraceSpan`] emits a `trace.begin` event on open and a `trace.end`
//! event on drop into the bounded journal, carrying a registry-unique span
//! id, the id of the innermost span still open *on the same thread*
//! (`parent`, 0 for roots), a synthetic thread id, and a nanosecond
//! timestamp relative to the registry's epoch. Instrumented device models
//! additionally emit `trace.io` point records that attribute *simulated*
//! latency (the modeled device time, not host wall time) to the span that
//! caused the I/O.
//!
//! Parent attribution uses a thread-local span stack, so spans nest
//! correctly per thread without any coordination; concurrent threads over
//! one registry interleave in the journal but never corrupt each other's
//! ancestry. A span should be dropped on the thread that opened it — a
//! cross-thread drop still emits a well-formed `trace.end` but leaves the
//! origin thread's stack entry to be cleaned up lazily.
//!
//! When tracing is disabled (the default) opening a span is one relaxed
//! atomic load returning an inert guard, preserving the bounded-overhead
//! contract of the disabled registry.
//!
//! The journal snapshot exports to Chrome trace-event JSON via
//! [`Snapshot::to_chrome_trace`](crate::Snapshot::to_chrome_trace), loadable
//! in Perfetto or `chrome://tracing`.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::journal::Value;
use crate::registry::Registry;

/// Process-wide source of unique tracer identities, so thread-local stacks
/// can tell spans of independent registries apart.
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide source of synthetic thread ids (std's `ThreadId` exposes no
/// stable integer). Ids are dense from 1 in first-use order per process.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of `(tracer id, span id)` for open spans on this thread.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Lazily assigned synthetic id for this thread (0 = unassigned).
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// Synthetic id of the calling thread, assigning one on first use.
pub(crate) fn current_thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let mut id = cell.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
        }
        id
    })
}

/// Innermost open span of `tracer` on this thread (0 when none).
fn current_parent(tracer: u64) -> u64 {
    SPAN_STACK.with(|stack| {
        stack
            .borrow()
            .iter()
            .rev()
            .find(|&&(t, _)| t == tracer)
            .map_or(0, |&(_, id)| id)
    })
}

fn push_span(tracer: u64, span: u64) {
    SPAN_STACK.with(|stack| stack.borrow_mut().push((tracer, span)));
}

/// Removes the innermost matching entry; tolerates out-of-order or
/// cross-thread drops (the entry is simply absent then).
fn pop_span(tracer: u64, span: u64) {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&(t, s)| t == tracer && s == span) {
            stack.remove(pos);
        }
    });
}

/// Per-registry tracing state (lives inside the registry's shared inner).
#[derive(Debug)]
pub(crate) struct TracerCore {
    /// Identity distinguishing this registry's spans on thread-local stacks.
    id: u64,
    /// Whether spans currently record (off by default).
    enabled: AtomicBool,
    /// Timestamp origin for all `t` fields of this registry.
    epoch: Instant,
    /// Next span id (dense from 1; 0 means "no parent").
    next_span: AtomicU64,
}

impl Default for TracerCore {
    fn default() -> Self {
        TracerCore {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
        }
    }
}

impl TracerCore {
    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }
}

/// Drop guard for one traced scope.
///
/// Obtained from [`Registry::trace_span`](crate::Registry::trace_span).
/// Emits `trace.end` on drop; attributes added with [`TraceSpan::attr`]
/// ride on the end record, which is how abort paths mark unwound spans
/// (`aborted=1`).
#[derive(Debug, Default)]
pub struct TraceSpan {
    /// `None` for inert guards (tracing off / disabled registry).
    registry: Option<Registry>,
    tracer: u64,
    id: u64,
    name: String,
    end_fields: Vec<(String, Value)>,
}

impl TraceSpan {
    /// An inert guard that records nothing.
    pub(crate) fn inert() -> Self {
        TraceSpan::default()
    }

    /// Opens a span, emitting `trace.begin` and pushing the thread-local
    /// stack. Returns an inert guard when tracing is off.
    pub(crate) fn begin(registry: &Registry, name: &str, attrs: &[(&str, Value)]) -> Self {
        TraceSpan::begin_impl(registry, None, name, attrs)
    }

    /// Opens a span under an **explicit** parent span id instead of the
    /// innermost span on this thread. This is how worker threads keep the
    /// causal tree connected: the dispatching thread captures its open
    /// span's [`TraceSpan::id`] before fan-out and each worker roots its
    /// spans under it, so Perfetto still shows one tree. The new span is
    /// pushed on the *worker's* stack, so spans nested inside it parent
    /// normally.
    pub(crate) fn begin_under(
        registry: &Registry,
        parent: u64,
        name: &str,
        attrs: &[(&str, Value)],
    ) -> Self {
        TraceSpan::begin_impl(registry, Some(parent), name, attrs)
    }

    fn begin_impl(
        registry: &Registry,
        parent: Option<u64>,
        name: &str,
        attrs: &[(&str, Value)],
    ) -> Self {
        let Some(core) = registry.tracer_core() else {
            return TraceSpan::inert();
        };
        if !core.is_enabled() {
            return TraceSpan::inert();
        }
        let tracer = core.id;
        let id = core.next_span_id();
        let mut fields: Vec<(&str, Value)> = Vec::with_capacity(5 + attrs.len());
        fields.push(("span", id.into()));
        fields.push((
            "parent",
            parent.unwrap_or_else(|| current_parent(tracer)).into(),
        ));
        fields.push(("name", name.into()));
        fields.push(("tid", current_thread_id().into()));
        fields.push(("t", core.now_ns().into()));
        fields.extend(attrs.iter().map(|(k, v)| (*k, v.clone())));
        registry.event("trace.begin", &fields);
        push_span(tracer, id);
        TraceSpan {
            registry: Some(registry.clone()),
            tracer,
            id,
            name: name.to_string(),
            end_fields: Vec::new(),
        }
    }

    /// Whether this guard will emit a `trace.end` record.
    pub fn is_recording(&self) -> bool {
        self.registry.is_some()
    }

    /// This span's id (0 for inert guards).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a key=value attribute to the eventual `trace.end` record.
    pub fn attr(&mut self, key: &str, value: impl Into<Value>) {
        if self.registry.is_some() {
            self.end_fields.push((key.to_string(), value.into()));
        }
    }

    /// Ends the span now (same as dropping it).
    pub fn end(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(registry) = self.registry.take() else {
            return;
        };
        pop_span(self.tracer, self.id);
        let Some(core) = registry.tracer_core() else {
            return;
        };
        let mut fields: Vec<(&str, Value)> = Vec::with_capacity(4 + self.end_fields.len());
        fields.push(("span", self.id.into()));
        fields.push(("name", self.name.as_str().into()));
        fields.push(("tid", current_thread_id().into()));
        fields.push(("t", core.now_ns().into()));
        fields.extend(self.end_fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
        registry.event("trace.end", &fields);
    }
}

/// Emits a `trace.io` point record attributing `sim_ns` of *simulated*
/// device latency to the innermost open span on this thread.
pub(crate) fn io_event(registry: &Registry, stream: &str, sim_ns: u64, pages: u64, bytes: u64) {
    let Some(core) = registry.tracer_core() else {
        return;
    };
    if !core.is_enabled() {
        return;
    }
    registry.event(
        "trace.io",
        &[
            ("span", core.next_span_id().into()),
            ("parent", current_parent(core.id).into()),
            ("name", stream.into()),
            ("tid", current_thread_id().into()),
            ("t", core.now_ns().into()),
            ("dur", sim_ns.into()),
            ("pages", pages.into()),
            ("bytes", bytes.into()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Event;

    fn traced_registry() -> Registry {
        let r = Registry::new();
        r.set_tracing(true);
        r
    }

    fn field_u64(e: &Event, name: &str) -> u64 {
        match e.field(name) {
            Some(Value::U64(v)) => *v,
            other => panic!("field {name} not a u64: {other:?}"),
        }
    }

    #[test]
    fn spans_emit_begin_end_with_parentage() {
        let r = traced_registry();
        {
            let _outer = r.trace_span("round");
            let _inner = r.trace_span_with("oram.access", &[("kind", "ao".into())]);
        }
        let events = r.snapshot().events;
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["trace.begin", "trace.begin", "trace.end", "trace.end"]
        );
        let outer_id = field_u64(&events[0], "span");
        assert_eq!(field_u64(&events[0], "parent"), 0);
        assert_eq!(field_u64(&events[1], "parent"), outer_id);
        assert_eq!(events[1].field("kind"), Some(&Value::Str("ao".into())));
        // LIFO close order: inner ends first.
        assert_eq!(field_u64(&events[2], "span"), field_u64(&events[1], "span"));
        assert_eq!(field_u64(&events[3], "span"), outer_id);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let r = Registry::new();
        assert!(!r.tracing_enabled());
        let span = r.trace_span("quiet");
        assert!(!span.is_recording());
        drop(span);
        r.trace_io("storage.read", 100, 1, 4096);
        assert!(r.snapshot().events.is_empty());

        let off = Registry::disabled();
        off.set_tracing(true);
        assert!(!off.tracing_enabled());
        assert!(!off.trace_span("quiet").is_recording());
    }

    #[test]
    fn end_attributes_ride_on_trace_end() {
        let r = traced_registry();
        let mut span = r.trace_span("round");
        span.attr("aborted", true);
        span.end();
        let events = r.snapshot().events;
        let end = events.iter().find(|e| e.name == "trace.end").unwrap();
        assert_eq!(end.field("aborted"), Some(&Value::U64(1)));
    }

    #[test]
    fn io_events_attribute_to_innermost_span() {
        let r = traced_registry();
        let span = r.trace_span("oram.eviction");
        r.trace_io("storage.write", 25_000, 2, 8192);
        drop(span);
        let events = r.snapshot().events;
        let io = events.iter().find(|e| e.name == "trace.io").unwrap();
        assert_eq!(field_u64(io, "parent"), 1);
        assert_eq!(field_u64(io, "dur"), 25_000);
        assert_eq!(field_u64(io, "pages"), 2);
        assert_eq!(field_u64(io, "bytes"), 8192);
    }

    #[test]
    fn spans_nest_independently_across_threads() {
        let r = traced_registry();
        let spawn = |seed: u64| {
            let r = r.clone();
            std::thread::spawn(move || {
                for _ in 0..8 {
                    let outer = r.trace_span("outer");
                    let inner = r.trace_span("inner");
                    let _ = seed;
                    drop(inner);
                    drop(outer);
                }
            })
        };
        let handles = [spawn(1), spawn(2)];
        for h in handles {
            h.join().unwrap();
        }
        let events = r.snapshot().events;
        // Per-thread: every "inner" begin's parent is an "outer" span opened
        // on the *same* thread, and every "outer" is a root.
        let mut outer_spans: std::collections::HashMap<u64, u64> = Default::default();
        for e in events.iter().filter(|e| e.name == "trace.begin") {
            let tid = field_u64(e, "tid");
            let span = field_u64(e, "span");
            let parent = field_u64(e, "parent");
            match e.field("name") {
                Some(Value::Str(n)) if n == "outer" => {
                    assert_eq!(parent, 0, "outer span must be a root");
                    outer_spans.insert(span, tid);
                }
                Some(Value::Str(n)) if n == "inner" => {
                    assert_eq!(
                        outer_spans.get(&parent),
                        Some(&tid),
                        "inner's parent must be an outer from the same thread"
                    );
                }
                other => panic!("unexpected span name {other:?}"),
            }
        }
        // Both threads contributed under distinct tids.
        let tids: std::collections::HashSet<u64> = events
            .iter()
            .filter(|e| e.name == "trace.begin")
            .map(|e| field_u64(e, "tid"))
            .collect();
        assert_eq!(tids.len(), 2);
        // Every span closed: 32 begins, 32 ends.
        assert_eq!(events.iter().filter(|e| e.name == "trace.end").count(), 32);
    }

    #[test]
    fn explicit_parent_connects_worker_spans_across_threads() {
        let r = traced_registry();
        let round = r.trace_span("round");
        let parent = round.id();
        let handles: Vec<_> = (0..3)
            .map(|w| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let worker = r.trace_span_under(parent, "worker");
                    // Children opened inside the worker nest under it via
                    // the worker thread's own stack.
                    let _inner = r.trace_span("inner");
                    let _ = (w, worker);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(round);
        let events = r.snapshot().events;
        let begins: Vec<_> = events.iter().filter(|e| e.name == "trace.begin").collect();
        let mut worker_ids = std::collections::HashSet::new();
        for e in &begins {
            match e.field("name") {
                Some(Value::Str(n)) if n == "worker" => {
                    assert_eq!(field_u64(e, "parent"), parent, "worker roots under round");
                    worker_ids.insert(field_u64(e, "span"));
                }
                _ => {}
            }
        }
        assert_eq!(worker_ids.len(), 3);
        for e in &begins {
            if let Some(Value::Str(n)) = e.field("name") {
                if n == "inner" {
                    assert!(
                        worker_ids.contains(&field_u64(e, "parent")),
                        "inner spans nest under their worker span"
                    );
                }
            }
        }
    }

    #[test]
    fn independent_registries_do_not_share_ancestry() {
        let a = traced_registry();
        let b = traced_registry();
        let _span_a = a.trace_span("a.root");
        let span_b = b.trace_span("b.root");
        drop(span_b);
        let events = b.snapshot().events;
        assert_eq!(
            field_u64(&events[0], "parent"),
            0,
            "b must not parent under a"
        );
    }
}
