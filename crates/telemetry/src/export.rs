//! Snapshot type and hand-rolled JSON / CSV exporters (zero dependencies).
//!
//! The JSON layout is the contract consumed by CI and the bench drivers:
//!
//! ```json
//! {
//!   "schema": "fedora-telemetry/v1",
//!   "counters": {"storage.pages_read": 123},
//!   "gauges": {"oram.stash.len": 4.0},
//!   "histograms": {"oram.access.latency": {"count": 9, "sum": 1, "min": 1,
//!                   "max": 2, "mean": 1.0, "p50": 1, "p95": 2, "p99": 2}},
//!   "events": [{"seq": 0, "name": "round.end", "fields": {"round": 1}}],
//!   "events_dropped": 0
//! }
//! ```

use std::io::Write as _;
use std::path::Path;

use crate::histogram::HistogramSummary;
use crate::journal::{Event, Value};

/// A point-in-time copy of a registry's instruments and journal.
///
/// Entries are sorted by name (the registry stores them in ordered maps), so
/// exports are deterministic and diffable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Journal events (empty for lite snapshots).
    pub events: Vec<Event>,
    /// Events discarded after the journal hit its bound.
    pub events_dropped: u64,
    /// Sorted names of audit-only series (values derived from round
    /// secrets). Lookups still resolve them, but the default exporters
    /// ([`to_json`](Self::to_json), [`to_csv`](Self::to_csv),
    /// [`to_prometheus_text`](Self::to_prometheus_text)) redact them; use
    /// [`audit_view`](Self::audit_view) to export everything.
    pub audit_only: Vec<String>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Whether `name` is tagged audit-only (redacted from default exports).
    pub fn is_audit_only(&self, name: &str) -> bool {
        self.audit_only
            .binary_search_by(|k| k.as_str().cmp(name))
            .is_ok()
    }

    /// An un-redacted copy for explicitly-requested audit exports: the
    /// audit-only tag set is cleared, so every series appears in JSON / CSV /
    /// Prometheus output. Only hand the result to channels cleared to see
    /// secret-derived series.
    pub fn audit_view(&self) -> Snapshot {
        let mut full = self.clone();
        full.audit_only.clear();
        full
    }

    /// Interval view: what happened *after* `earlier` was taken, assuming
    /// `earlier` is an older snapshot of the same registry.
    ///
    /// Counters subtract with saturation (a restarted registry reports the
    /// post-restart value rather than wrapping); histograms subtract
    /// per-bucket and recompute interval percentiles
    /// ([`HistogramSummary::delta`]); gauges are point-in-time, so the
    /// latest value stands. Events keep only records sequenced after the
    /// last event `earlier` carried (all of them when `earlier` has no
    /// events, e.g. a lite snapshot). Audit-only tags are preserved, so
    /// interval views redact exactly like the snapshots they came from.
    ///
    /// This is the watch plane's windowing primitive: SLO rules evaluate
    /// over `current.delta(&previous_sample)` so a latency spike shows up
    /// in the interval p99 instead of being averaged away by hours of
    /// lifetime history.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k).unwrap_or(0))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let prior = earlier.histogram(k).copied().unwrap_or_default();
                (k.clone(), h.delta(&prior))
            })
            .collect();
        let next_seq = earlier.events.last().map_or(0, |e| e.seq + 1);
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            events: self
                .events
                .iter()
                .filter(|e| e.seq >= next_seq)
                .cloned()
                .collect(),
            events_dropped: self.events_dropped.saturating_sub(earlier.events_dropped),
            audit_only: self.audit_only.clone(),
        }
    }

    /// Serializes to a single-line JSON object. Audit-only series are
    /// redacted; see [`Snapshot::audit_view`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":\"fedora-telemetry/v1\",\"counters\":{");
        push_entries(self, &mut out, &self.counters, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"gauges\":{");
        push_entries(self, &mut out, &self.gauges, |out, v| {
            out.push_str(&json_f64(*v))
        });
        out.push_str("},\"histograms\":{");
        push_entries(self, &mut out, &self.histograms, |out, h| {
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}",
                h.count,
                h.sum,
                h.min,
                h.max,
                json_f64(h.mean()),
                h.p50,
                h.p95,
                h.p99
            ));
            // Exemplar ids ride as hex strings (u64 trace ids overflow the
            // 2^53 JSON-number precision guarantee), keyed by bucket index
            // and only when present so the schema stays unchanged for
            // exemplar-free histograms.
            if h.exemplars.iter().any(|&x| x != 0) {
                out.push_str(",\"exemplars\":{");
                let mut first = true;
                for (i, &x) in h.exemplars.iter().enumerate() {
                    if x != 0 {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!("\"{i}\":\"{x:#x}\""));
                    }
                }
                out.push('}');
                let tail = h.p99_exemplar();
                if tail != 0 {
                    out.push_str(&format!(",\"p99_exemplar\":\"{tail:#x}\""));
                }
            }
            out.push('}');
        });
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"name\":\"{}\",\"fields\":{{",
                e.seq,
                escape_json(&e.name)
            ));
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape_json(k));
                out.push_str("\":");
                out.push_str(&json_value(v));
            }
            out.push_str("}}");
        }
        out.push_str(&format!("],\"events_dropped\":{}}}", self.events_dropped));
        out
    }

    /// Serializes instruments (not events) to CSV with header
    /// `kind,name,field,value`. Audit-only series are redacted; see
    /// [`Snapshot::audit_view`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in self.counters.iter().filter(|(k, _)| !self.is_audit_only(k)) {
            out.push_str(&format!("counter,{},value,{v}\n", csv_field(name)));
        }
        for (name, v) in self.gauges.iter().filter(|(k, _)| !self.is_audit_only(k)) {
            out.push_str(&format!("gauge,{},value,{v}\n", csv_field(name)));
        }
        for (name, h) in self
            .histograms
            .iter()
            .filter(|(k, _)| !self.is_audit_only(k))
        {
            let name = csv_field(name);
            for (field, v) in [
                ("count", h.count),
                ("sum", h.sum),
                ("min", h.min),
                ("max", h.max),
                ("p50", h.p50),
                ("p95", h.p95),
                ("p99", h.p99),
            ] {
                out.push_str(&format!("histogram,{name},{field},{v}\n"));
            }
        }
        out
    }

    /// Exports the journal's `trace.*` records as Chrome trace-event JSON,
    /// loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    ///
    /// `trace.begin`/`trace.end` records become `B`/`E` duration events on
    /// their originating thread's track; `trace.io` records become `X`
    /// complete events on one synthetic track per I/O stream, whose duration
    /// is the *simulated* device latency placed at the host timestamp that
    /// caused it (so modeled I/O time can overhang the causing host-time
    /// span). Span/parent ids and attributes ride in `args`, preserving the
    /// causal tree even for viewers that only show flat slices. Timestamps
    /// are microseconds relative to the registry's epoch.
    pub fn to_chrome_trace(&self) -> String {
        // Stable synthetic tracks: spans keep their thread's tid; each I/O
        // stream gets its own lane well above any real tid.
        let mut span_tids: Vec<u64> = Vec::new();
        let mut io_streams: Vec<String> = Vec::new();
        for e in &self.events {
            match e.name.as_str() {
                "trace.begin" | "trace.end" => {
                    let tid = field_u64(e, "tid");
                    if !span_tids.contains(&tid) {
                        span_tids.push(tid);
                    }
                }
                "trace.io" => {
                    let stream = field_str(e, "name").to_string();
                    if !io_streams.contains(&stream) {
                        io_streams.push(stream);
                    }
                }
                _ => {}
            }
        }
        let io_tid = |stream: &str| -> u64 {
            const IO_TRACK_BASE: u64 = 1_000_000;
            IO_TRACK_BASE + io_streams.iter().position(|s| s == stream).unwrap_or(0) as u64
        };

        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"fedora\"}}",
        );
        for tid in &span_tids {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"thread-{tid}\"}}}}"
            ));
        }
        for stream in &io_streams {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"io: {}\"}}}}",
                io_tid(stream),
                escape_json(stream)
            ));
        }
        for e in &self.events {
            let known: &[&str] = match e.name.as_str() {
                "trace.begin" => &["span", "parent", "name", "tid", "t"],
                "trace.end" => &["span", "name", "tid", "t"],
                "trace.io" => &["name", "tid", "t", "dur"],
                _ => continue,
            };
            let name = field_str(e, "name");
            let ts_us = field_u64(e, "t") as f64 / 1000.0;
            out.push_str(",{\"name\":\"");
            out.push_str(&escape_json(name));
            out.push_str("\",\"cat\":\"fedora\",\"ph\":\"");
            match e.name.as_str() {
                "trace.begin" => out.push('B'),
                "trace.end" => out.push('E'),
                _ => out.push('X'),
            }
            out.push_str(&format!("\",\"pid\":1,\"ts\":{ts_us:.3}"));
            if e.name == "trace.io" {
                out.push_str(&format!(
                    ",\"dur\":{:.3},\"tid\":{}",
                    field_u64(e, "dur") as f64 / 1000.0,
                    io_tid(name)
                ));
            } else {
                out.push_str(&format!(",\"tid\":{}", field_u64(e, "tid")));
            }
            out.push_str(",\"args\":{");
            let mut first = true;
            for (k, v) in &e.fields {
                if known.contains(&k.as_str()) && !matches!(k.as_str(), "span" | "parent") {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(&escape_json(k));
                out.push_str("\":");
                out.push_str(&json_value(v));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Writes the Chrome trace-event export (plus trailing newline) to
    /// `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_chrome_trace().as_bytes())?;
        f.write_all(b"\n")
    }

    /// Writes the JSON export (plus trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")
    }

    /// Writes the CSV export to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Serializes instruments to the Prometheus text exposition format
    /// (version 0.0.4), scrape-ready for a push-gateway or file-based
    /// collector. Audit-only series are redacted; see
    /// [`Snapshot::audit_view`].
    ///
    /// Dotted names are sanitized to `fedora_<name_with_underscores>`.
    /// Counters and gauges export directly; each histogram expands to
    /// `_count` / `_sum` counters plus `_p50` / `_p95` / `_p99` quantile
    /// gauges (the log-bucket histograms keep summaries, not raw buckets,
    /// so quantiles rather than `le`-bucket series are the honest export).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        for (name, v) in self.counters.iter().filter(|(k, _)| !self.is_audit_only(k)) {
            let p = prom_name(name);
            out.push_str(&format!(
                "# HELP {p} FEDORA counter {name}\n# TYPE {p} counter\n{p} {v}\n"
            ));
        }
        for (name, v) in self.gauges.iter().filter(|(k, _)| !self.is_audit_only(k)) {
            let p = prom_name(name);
            out.push_str(&format!(
                "# HELP {p} FEDORA gauge {name}\n# TYPE {p} gauge\n{p} {}\n",
                prom_f64(*v)
            ));
        }
        for (name, h) in self
            .histograms
            .iter()
            .filter(|(k, _)| !self.is_audit_only(k))
        {
            let p = prom_name(name);
            out.push_str(&format!(
                "# HELP {p}_count FEDORA histogram {name} sample count\n\
                 # TYPE {p}_count counter\n{p}_count {}\n",
                h.count
            ));
            out.push_str(&format!(
                "# HELP {p}_sum FEDORA histogram {name} sample sum\n\
                 # TYPE {p}_sum counter\n{p}_sum {}\n",
                h.sum
            ));
            for (q, v) in [("p50", h.p50), ("p95", h.p95), ("p99", h.p99)] {
                out.push_str(&format!(
                    "# HELP {p}_{q} FEDORA histogram {name} {q} quantile\n\
                     # TYPE {p}_{q} gauge\n{p}_{q} {v}\n"
                ));
            }
            // Tail exemplar as a comment line: plain-text parsers skip `#`
            // lines that are not HELP/TYPE, so this is wire-compatible with
            // exposition format 0.0.4 while still machine-greppable.
            let tail = h.p99_exemplar();
            if tail != 0 {
                out.push_str(&format!("# EXEMPLAR {p}_p99 trace_id=\"{tail:#x}\"\n"));
            }
        }
        out
    }

    /// Writes the Prometheus text exposition to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_prometheus(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_prometheus_text())
    }
}

fn push_entries<T>(
    snap: &Snapshot,
    out: &mut String,
    entries: &[(String, T)],
    mut emit: impl FnMut(&mut String, &T),
) {
    let mut first = true;
    for (k, v) in entries.iter().filter(|(k, _)| !snap.is_audit_only(k)) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&escape_json(k));
        out.push_str("\":");
        emit(out, v);
    }
}

/// JSON-legal float formatting: non-finite values become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; that is still a valid
        // JSON number, so leave it as-is.
        s
    } else {
        "null".to_string()
    }
}

fn json_value(v: &Value) -> String {
    match v {
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(f) => json_f64(*f),
        Value::Str(s) => format!("\"{}\"", escape_json(s)),
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Numeric field lookup for trace records (0 when absent/mistyped — the
/// exporter must never panic on a malformed journal).
fn field_u64(e: &Event, name: &str) -> u64 {
    match e.field(name) {
        Some(Value::U64(v)) => *v,
        Some(Value::I64(v)) => u64::try_from(*v).unwrap_or(0),
        Some(Value::F64(v)) if *v >= 0.0 => *v as u64,
        _ => 0,
    }
}

/// String field lookup for trace records (empty when absent/mistyped).
fn field_str<'e>(e: &'e Event, name: &str) -> &'e str {
    match e.field(name) {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

/// Sanitizes a dotted series name into a Prometheus metric name:
/// `storage.pages_read` → `fedora_storage_pages_read`. Any character
/// outside `[a-zA-Z0-9_:]` becomes `_`; the `fedora_` prefix guarantees a
/// legal leading character.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("fedora_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus float formatting: the exposition format spells non-finite
/// values `+Inf` / `-Inf` / `NaN`.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Metric names are dot/underscore identifiers, but guard against commas and
/// quotes anyway so the CSV never breaks.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("storage.pages_read").add(5);
        r.gauge("oram.stash.len").set(3.0);
        let h = r.histogram("oram.access.latency");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        r.event(
            "round.end",
            &[("round", 1u64.into()), ("mode", "raw".into())],
        );
        r.snapshot()
    }

    #[test]
    fn json_contains_all_sections() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"schema\":\"fedora-telemetry/v1\""));
        assert!(j.contains("\"storage.pages_read\":5"));
        assert!(j.contains("\"oram.stash.len\":3"));
        assert!(j.contains("\"oram.access.latency\":{\"count\":3"));
        assert!(j.contains("\"p50\":"));
        assert!(j.contains("\"name\":\"round.end\""));
        assert!(j.contains("\"events_dropped\":0"));
    }

    #[test]
    fn json_escapes_strings() {
        let r = Registry::new();
        r.event("weird", &[("msg", "a\"b\\c\nd".into())]);
        let j = r.snapshot().to_json();
        assert!(j.contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    fn json_nonfinite_gauge_is_null() {
        let r = Registry::new();
        r.gauge("bad").set(f64::NAN);
        assert!(r.snapshot().to_json().contains("\"bad\":null"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("kind,name,field,value"));
        assert!(csv.contains("counter,storage.pages_read,value,5\n"));
        assert!(csv.contains("histogram,oram.access.latency,count,3\n"));
        assert!(csv.contains("histogram,oram.access.latency,p99,"));
    }

    #[test]
    fn lookups() {
        let s = sample();
        assert_eq!(s.counter("storage.pages_read"), Some(5));
        assert_eq!(s.gauge("oram.stash.len"), Some(3.0));
        assert_eq!(s.histogram("oram.access.latency").map(|h| h.count), Some(3));
        assert_eq!(s.counter("nope"), None);
    }

    #[test]
    fn files_roundtrip() {
        let dir = std::env::temp_dir();
        let jp = dir.join("fedora_telemetry_test.json");
        let cp = dir.join("fedora_telemetry_test.csv");
        let s = sample();
        s.write_json(&jp).unwrap();
        s.write_csv(&cp).unwrap();
        let j = std::fs::read_to_string(&jp).unwrap();
        assert!(j.ends_with("}\n"));
        assert!(std::fs::read_to_string(&cp)
            .unwrap()
            .starts_with("kind,name,field,value"));
        let _ = std::fs::remove_file(jp);
        let _ = std::fs::remove_file(cp);
    }

    #[test]
    fn prometheus_text_has_type_help_and_quantiles() {
        let text = sample().to_prometheus_text();
        assert!(text.contains("# TYPE fedora_storage_pages_read counter\n"));
        assert!(
            text.contains("# HELP fedora_storage_pages_read FEDORA counter storage.pages_read\n")
        );
        assert!(text.contains("fedora_storage_pages_read 5\n"));
        assert!(text.contains("# TYPE fedora_oram_stash_len gauge\n"));
        assert!(text.contains("fedora_oram_stash_len 3\n"));
        assert!(text.contains("fedora_oram_access_latency_count 3\n"));
        assert!(text.contains("# TYPE fedora_oram_access_latency_p95 gauge\n"));
        assert!(text.contains("fedora_oram_access_latency_p50 "));
        assert!(text.contains("fedora_oram_access_latency_p99 "));
    }

    #[test]
    fn prometheus_nonfinite_gauges_spelled_out() {
        let r = Registry::new();
        r.gauge("inf").set(f64::INFINITY);
        r.gauge("nan").set(f64::NAN);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("fedora_inf +Inf\n"));
        assert!(text.contains("fedora_nan NaN\n"));
    }

    #[test]
    fn audit_only_series_redacted_from_default_exports() {
        let r = Registry::new();
        r.counter("public.count").add(1);
        r.gauge_audit("fdp.round.k_union").set(17.0);
        r.counter_audit("fdp.dummies.total").add(3);
        r.histogram_audit("fdp.k.overhead").record(4);
        let s = r.snapshot();
        // Lookups still resolve the secret-derived series.
        assert_eq!(s.gauge("fdp.round.k_union"), Some(17.0));
        assert!(s.is_audit_only("fdp.round.k_union"));
        assert!(!s.is_audit_only("public.count"));
        for text in [s.to_json(), s.to_csv(), s.to_prometheus_text()] {
            assert!(!text.contains("k_union"), "redacted from: {text}");
            assert!(!text.contains("fdp.dummies"), "redacted from: {text}");
            assert!(!text.contains("fdp_dummies"), "redacted from: {text}");
            assert!(!text.contains("overhead"), "redacted from: {text}");
            assert!(text.contains("public"), "public series kept: {text}");
        }
        // The explicit audit view exports everything.
        let full = s.audit_view();
        assert!(full.to_json().contains("\"fdp.round.k_union\":17"));
        assert!(full
            .to_csv()
            .contains("counter,fdp.dummies.total,value,3\n"));
        assert!(full
            .to_prometheus_text()
            .contains("fedora_fdp_k_overhead_count 1\n"));
    }

    #[test]
    fn delta_windows_counters_histograms_and_events() {
        use crate::histogram::bucket_index;
        let r = Registry::new();
        r.counter("net.requests").add(10);
        r.histogram("round.latency").record(100);
        r.event("warmup.tick", &[]);
        let early = r.snapshot();
        r.counter("net.requests").add(5);
        r.counter("net.shed").add(3);
        r.gauge("fdp.total.epsilon").set(2.5);
        r.histogram("round.latency").record(1_000_000);
        r.event("steady.tick", &[]);
        let d = r.snapshot().delta(&early);
        assert_eq!(d.counter("net.requests"), Some(5));
        assert_eq!(d.counter("net.shed"), Some(3));
        // Gauges are point-in-time: the latest value stands.
        assert_eq!(d.gauge("fdp.total.epsilon"), Some(2.5));
        let h = d.histogram("round.latency").expect("windowed histogram");
        assert_eq!(h.count, 1);
        assert_eq!(bucket_index(h.p99), bucket_index(1_000_000));
        // Only events after the earlier snapshot's tail survive.
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].name, "steady.tick");
    }

    #[test]
    fn delta_saturates_on_counter_reset() {
        let old = Registry::new();
        old.counter("net.requests").add(100);
        let fresh = Registry::new();
        fresh.counter("net.requests").add(7);
        // A restarted process reports post-restart counts, not a wrap.
        let d = fresh.snapshot().delta(&old.snapshot());
        assert_eq!(d.counter("net.requests"), Some(0));
    }

    #[test]
    fn delta_empty_window_histograms_are_zero() {
        // A window in which nothing was recorded must read as an empty
        // histogram — zero count, zero percentiles — not as stale lifetime
        // values, and must not panic on the all-zero bucket walk.
        let r = Registry::new();
        r.histogram("round.latency").record(500);
        let early = r.snapshot();
        let d = r.snapshot().delta(&early);
        let h = d.histogram("round.latency").expect("series still present");
        assert_eq!(h.count, 0);
        assert_eq!(
            (h.sum, h.min, h.max, h.p50, h.p95, h.p99),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(h.p99_exemplar(), 0);
    }

    #[test]
    fn delta_new_metric_mid_window_counts_from_zero() {
        // A series that first appears after the earlier snapshot was taken
        // must report its full value in the window (baseline zero), with no
        // underflow or panic for counters, gauges, or histograms.
        let r = Registry::new();
        r.counter("old.counter").add(2);
        let early = r.snapshot();
        r.counter("new.counter").add(7);
        r.gauge("new.gauge").set(1.5);
        r.histogram("new.latency").record(100);
        r.histogram("new.latency").record(300);
        let d = r.snapshot().delta(&early);
        assert_eq!(d.counter("new.counter"), Some(7));
        assert_eq!(d.gauge("new.gauge"), Some(1.5));
        let h = d.histogram("new.latency").expect("new histogram windowed");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400);
        assert_eq!(d.counter("old.counter"), Some(0));
    }

    #[test]
    fn delta_histogram_reset_saturates_like_counters() {
        // Histogram "went backwards" (process restart): the window view
        // degrades to empty instead of wrapping — mirror of the counter
        // saturation rule, pinned here against the real registry path.
        let old = Registry::new();
        for _ in 0..10 {
            old.histogram("round.latency").record(1000);
        }
        let fresh = Registry::new();
        fresh.histogram("round.latency").record(1000);
        let d = fresh.snapshot().delta(&old.snapshot());
        assert_eq!(
            d.histogram("round.latency").map(|h| h.count),
            Some(0),
            "fewer lifetime samples than the baseline must clamp to empty"
        );
    }

    #[test]
    fn exemplars_export_in_json_and_prometheus() {
        use crate::histogram::bucket_index;
        let r = Registry::new();
        let h = r.histogram("net.request.phase.serve_ns");
        for _ in 0..200 {
            h.record(1_000);
        }
        h.record_with_exemplar(9_000_000, 0xABCD);
        let s = r.snapshot();
        let summary = s.histogram("net.request.phase.serve_ns").unwrap();
        assert_eq!(summary.exemplars[bucket_index(9_000_000)], 0xABCD);
        assert_eq!(summary.p99_exemplar(), 0xABCD);
        let j = s.to_json();
        assert!(j.contains("\"p99_exemplar\":\"0xabcd\""), "json: {j}");
        let text = s.to_prometheus_text();
        assert!(
            text.contains("# EXEMPLAR fedora_net_request_phase_serve_ns_p99 trace_id=\"0xabcd\"\n"),
            "prom: {text}"
        );
        // Exemplar-free histograms keep the original schema exactly.
        let r2 = Registry::new();
        r2.histogram("plain").record(5);
        assert!(!r2.snapshot().to_json().contains("exemplar"));
        assert!(!r2.snapshot().to_prometheus_text().contains("EXEMPLAR"));
    }

    #[test]
    fn delta_preserves_audit_redaction() {
        let r = Registry::new();
        r.gauge_audit("fdp.empirical.eps_hat").set(0.5);
        r.counter("public.count").add(1);
        let early = r.snapshot();
        r.gauge("fdp.empirical.eps_hat").set(0.9);
        r.counter("public.count").add(2);
        let d = r.snapshot().delta(&early);
        assert!(d.is_audit_only("fdp.empirical.eps_hat"));
        assert!(!d.to_json().contains("eps_hat"));
        assert!(d
            .audit_view()
            .to_json()
            .contains("\"fdp.empirical.eps_hat\":0.9"));
    }

    #[test]
    fn prometheus_export_parses_back() {
        use std::collections::{BTreeMap, BTreeSet};
        let r = Registry::new();
        r.counter("storage.pages_read").add(5);
        r.gauge("oram.shard<3>.fdp.total.epsilon").set(1.25);
        r.gauge("weird-name.with spaces").set(f64::INFINITY);
        r.histogram("net.round.latency").record(1000);
        let text = r.snapshot().to_prometheus_text();
        let mut typed: BTreeMap<String, String> = BTreeMap::new();
        let mut helped: BTreeSet<String> = BTreeSet::new();
        let mut samples = 0usize;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().expect("HELP name");
                assert!(helped.insert(name.to_string()), "duplicate HELP {name}");
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().expect("TYPE name");
                let kind = it.next().expect("TYPE kind");
                assert!(matches!(kind, "counter" | "gauge"), "kind {kind}");
                assert!(
                    typed.insert(name.to_string(), kind.to_string()).is_none(),
                    "duplicate TYPE {name}"
                );
            } else {
                let (name, value) = line.split_once(' ').expect("sample line");
                assert!(typed.contains_key(name), "sample {name} missing TYPE");
                assert!(helped.contains(name), "sample {name} missing HELP");
                // Exposition-format metric name grammar.
                assert!(name
                    .chars()
                    .enumerate()
                    .all(|(i, c)| c.is_ascii_alphabetic()
                        || c == '_'
                        || c == ':'
                        || (i > 0 && c.is_ascii_digit())));
                assert!(value.parse::<f64>().is_ok(), "unparsable value {value}");
                samples += 1;
            }
        }
        // 2 counters (pages_read + the implicit journal-dropped counter)
        // + 2 gauges + histogram (count/sum/p50/p95/p99).
        assert_eq!(samples, 9);
        // Name-illegal characters (< > - space .) all sanitize to '_'.
        assert!(text.contains("fedora_oram_shard_3__fdp_total_epsilon 1.25\n"));
        assert!(text.contains("fedora_weird_name_with_spaces +Inf\n"));
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let j = Snapshot::default().to_json();
        assert!(j.contains("\"counters\":{}"));
        assert!(j.contains("\"events\":[]"));
    }

    /// Builds a snapshot with a small traced scope plus one io record.
    fn traced_sample() -> Snapshot {
        let r = Registry::new();
        r.set_tracing(true);
        {
            let mut outer = r.trace_span_with("round", &[("round", 0u64.into())]);
            {
                let _inner = r.trace_span("oram.eviction");
                r.trace_io("storage.write", 25_000, 2, 8192);
            }
            outer.attr("aborted", false);
        }
        r.snapshot()
    }

    #[test]
    fn chrome_trace_roundtrips_through_parser() {
        use crate::json::{self, Json};
        let doc = json::parse(&traced_sample().to_chrome_trace()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        let phase = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
        let begins = events.iter().filter(|e| phase(e) == "B").count();
        let ends = events.iter().filter(|e| phase(e) == "E").count();
        let completes: Vec<&Json> = events.iter().filter(|e| phase(e) == "X").collect();
        assert_eq!(begins, 2, "two trace.begin records");
        assert_eq!(begins, ends, "balanced B/E events");
        assert_eq!(completes.len(), 1, "one trace.io record");
        // Simulated latency carried as microsecond duration.
        assert_eq!(completes[0].get("dur").and_then(Json::as_f64), Some(25.0));
        assert_eq!(
            completes[0]
                .get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(Json::as_u64),
            Some(8192)
        );
        // Causal ids survive in args: the io's parent is the eviction span.
        let eviction_span = events
            .iter()
            .find(|e| {
                phase(e) == "B" && e.get("name").and_then(Json::as_str) == Some("oram.eviction")
            })
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("span"))
            .and_then(Json::as_u64)
            .expect("eviction begin span id");
        assert_eq!(
            completes[0]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(eviction_span)
        );
        // Metadata names the io lane after its stream.
        assert!(events.iter().any(|e| {
            phase(e) == "M"
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("io: storage.write")
        }));
    }

    #[test]
    fn chrome_trace_of_traceless_snapshot_is_minimal() {
        use crate::json::{self, Json};
        // A snapshot with non-trace events exports metadata only.
        let doc = json::parse(&sample().to_chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
    }

    #[test]
    fn chrome_trace_file_roundtrip() {
        let path = std::env::temp_dir().join("fedora_telemetry_test.trace.json");
        traced_sample().write_chrome_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("}\n"));
        assert!(crate::json::parse(text.trim_end()).is_ok());
        let _ = std::fs::remove_file(path);
    }
}
