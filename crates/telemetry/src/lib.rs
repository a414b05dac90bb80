//! `fedora-telemetry`: a zero-dependency tracing + metrics subsystem.
//!
//! Every layer of the FEDORA stack — storage devices, the ORAM core, the
//! crypto envelope, the FL round loop — reports into one handle-based
//! [`Registry`]. There are no globals: whoever owns the registry (normally
//! `FedoraServer`) hands out cheap cloneable handles, and a *disabled*
//! registry ([`Registry::disabled`]) turns every handle into a no-op sink so
//! instrumented hot paths cost nothing when observability is off.
//!
//! The building blocks:
//!
//! * [`Counter`] — monotonically increasing `u64` (atomic, lock-free).
//! * [`Gauge`] — last-writer-wins `f64`, for analytic results and occupancy.
//! * [`Histogram`] — 64 logarithmic (power-of-two) buckets with count / sum /
//!   min / max and p50/p95/p99 summaries; fed directly via
//!   [`Histogram::record`] or by drop-guard [`Timer`]s using a monotonic
//!   clock.
//! * [`Event`] journal — a bounded, ordered log of structured per-round
//!   events (faults, quarantines, SecAgg dropouts, round boundaries).
//! * [`TraceSpan`] causal tracing — when enabled via
//!   [`Registry::set_tracing`], spans emit `trace.begin`/`trace.end` journal
//!   records with span/parent ids and attributes, forming a per-round causal
//!   tree exportable as Chrome trace-event JSON
//!   ([`Snapshot::to_chrome_trace`]) for Perfetto / `chrome://tracing`.
//! * [`Snapshot`] — a point-in-time copy of everything, exportable as
//!   JSON or Prometheus text.
//! * [`json`] — a minimal zero-dependency JSON parser for reading the
//!   exports back (round-trip checks) and for the wire protocol.
//!
//! # Example
//!
//! ```
//! use fedora_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let reads = registry.counter("storage.pages_read");
//! reads.add(3);
//! let lat = registry.histogram("oram.access.latency");
//! for ns in [120_u64, 480, 950] {
//!     lat.record(ns);
//! }
//! {
//!     let _timer = registry.histogram("oram.eviction.latency").start_timer();
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("storage.pages_read"), Some(3));
//! assert!(snap.to_json().contains("\"oram.access.latency\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod export;
mod histogram;
mod journal;
pub mod json;
mod registry;
mod trace;

pub use export::Snapshot;
pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSummary, Timer, NUM_BUCKETS};
pub use journal::{Event, Value, MAX_JOURNAL_EVENTS};
pub use registry::{Counter, Gauge, Registry};
pub use trace::TraceSpan;
