//! End-to-end checks of causal span tracing through the live pipeline.
//!
//! Covers the acceptance contract of the tracing PR:
//!
//! 1. One traced federated round yields a complete causal tree — round →
//!    union / ORAM access / buffer load → eviction → simulated device I/O
//!    — connected purely by span/parent ids in the journal.
//! 2. The per-round [`PhaseBreakdown`] partitions the measured round
//!    wall-time exactly (`sum_ns() == round_ns`).
//! 3. An aborted round closes its `round` span with an `aborted`
//!    attribute instead of leaking it.
//! 4. The Chrome trace-event export round-trips through the bundled JSON
//!    parser with balanced begin/end pairs.
//! 5. With tracing off (the default), the journal carries no `trace.*`
//!    records at all — the PR 2 overhead bound stays intact.

use std::collections::HashMap;

use fedora::config::{FedoraConfig, PrivacyConfig, TableSpec};
use fedora::server::{FedoraError, FedoraServer, RoundReport};
use fedora_crypto::IntegrityError;
use fedora_fl::modes::FedAvg;
use fedora_storage::FaultConfig;
use fedora_telemetry::json::{self, Json};
use fedora_telemetry::{Event, Registry, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 8;
const NUM_ENTRIES: u64 = 128;

fn init_entry(id: u64) -> Vec<u8> {
    (0..DIM).flat_map(|_| (id as f32).to_le_bytes()).collect()
}

fn test_config() -> FedoraConfig {
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(NUM_ENTRIES), 64);
    config.privacy = PrivacyConfig::none();
    config
}

fn traced_server(rng: &mut StdRng) -> FedoraServer {
    let registry = Registry::new();
    registry.set_tracing(true);
    FedoraServer::with_telemetry(test_config(), init_entry, registry, rng)
}

/// One full round: begin, serve + aggregate every request, end.
fn run_round(
    server: &mut FedoraServer,
    rng: &mut StdRng,
    round: u64,
) -> Result<RoundReport, FedoraError> {
    let reqs: Vec<u64> = (0..48)
        .map(|i| (i * 7 + round * 13) % NUM_ENTRIES)
        .collect();
    server.begin_round(&reqs, rng)?;
    let mode = FedAvg;
    for &id in &reqs {
        let _ = server.serve(id, rng)?;
        let _ = server.aggregate(&mode, id, &[0.125; DIM], 1, rng)?;
    }
    let mut mode = FedAvg;
    server.end_round(&mut mode, 0.5, rng)
}

fn field_u64(event: &Event, name: &str) -> Option<u64> {
    match event.field(name) {
        Some(Value::U64(v)) => Some(*v),
        _ => None,
    }
}

fn field_str<'a>(event: &'a Event, name: &str) -> Option<&'a str> {
    match event.field(name) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Collects `span id → (name, parent id)` from `trace.begin` records.
fn span_index(events: &[Event]) -> HashMap<u64, (String, u64)> {
    events
        .iter()
        .filter(|e| e.name == "trace.begin")
        .map(|e| {
            (
                field_u64(e, "span").expect("begin has span id"),
                (
                    field_str(e, "name").expect("begin has name").to_owned(),
                    field_u64(e, "parent").expect("begin has parent"),
                ),
            )
        })
        .collect()
}

/// Walks parents from `span` to the root, returning the names passed.
fn ancestry(spans: &HashMap<u64, (String, u64)>, mut span: u64) -> Vec<String> {
    let mut names = Vec::new();
    while span != 0 {
        let (name, parent) = spans.get(&span).expect("parent span was begun");
        names.push(name.clone());
        span = *parent;
    }
    names
}

#[test]
fn traced_round_yields_complete_causal_tree() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut server = traced_server(&mut rng);
    run_round(&mut server, &mut rng, 0).expect("traced round");

    let events = server.registry().snapshot().events;
    let spans = span_index(&events);

    // Every level the acceptance criterion names, connected to the round
    // span purely through parent ids.
    let chain_to_round = |leaf_name: &str| {
        let (&id, _) = spans
            .iter()
            .find(|(_, (name, _))| name == leaf_name)
            .unwrap_or_else(|| panic!("no '{leaf_name}' span in trace"));
        let names = ancestry(&spans, id);
        assert_eq!(
            names.last().map(String::as_str),
            Some("round"),
            "'{leaf_name}' does not chain to the round span: {names:?}"
        );
        names
    };
    let union_chain = chain_to_round("round.union");
    assert!(
        union_chain.contains(&"round.read".to_owned()),
        "union happens inside the read phase: {union_chain:?}"
    );
    chain_to_round("oram.access");
    chain_to_round("buffer.build");
    chain_to_round("buffer.serve");
    chain_to_round("buffer.aggregate");
    chain_to_round("buffer.drain");
    let eviction_chain = chain_to_round("oram.eviction");
    assert!(
        eviction_chain.contains(&"round.write".to_owned()),
        "eviction is deferred to the write phase: {eviction_chain:?}"
    );
    chain_to_round("oram.vtree.bucket");

    // Device-I/O level: simulated SSD latency attributed to an ORAM span.
    let ssd_io = events
        .iter()
        .filter(|e| e.name == "trace.io")
        .find(|e| {
            field_str(e, "name").is_some_and(|n| n.starts_with("storage."))
                && field_u64(e, "parent").is_some_and(|p| p != 0)
        })
        .expect("no storage trace.io event with a parent span");
    let io_parents = ancestry(&spans, field_u64(ssd_io, "parent").expect("parent"));
    assert!(
        io_parents
            .iter()
            .any(|n| n.starts_with("oram.") || n == "round.read"),
        "SSD I/O not attributed to the ORAM: {io_parents:?}"
    );
    assert!(
        field_u64(ssd_io, "dur").expect("dur") > 0,
        "I/O events carry the simulated latency"
    );

    // Begin/end records balance (nothing leaked past end_round).
    let begins = events.iter().filter(|e| e.name == "trace.begin").count();
    let ends = events.iter().filter(|e| e.name == "trace.end").count();
    assert_eq!(begins, ends, "unbalanced span records");
}

#[test]
fn phase_breakdown_partitions_round_wall_time() {
    let mut rng = StdRng::seed_from_u64(22);
    let mut server = traced_server(&mut rng);
    let reports: Vec<RoundReport> = (0..3)
        .map(|round| run_round(&mut server, &mut rng, round).expect("round"))
        .collect();
    for report in &reports {
        let phases = report.phases;
        assert!(phases.round_ns > 0, "round wall-time measured");
        assert_eq!(
            phases.sum_ns(),
            phases.round_ns,
            "phases must partition the round exactly: {phases:?}"
        );
        // The phase gauges mirror the last round's breakdown.
    }
    let snap = server.registry().snapshot();
    let last = reports.last().expect("rounds ran");
    assert_eq!(
        snap.gauge("round.phase.round_ns"),
        Some(last.phases.round_ns as f64)
    );
    assert_eq!(
        snap.gauge("round.phase.union_ns"),
        Some(last.phases.union_ns as f64)
    );
}

#[test]
fn aborted_round_closes_span_with_aborted_attribute() {
    let mut rng = StdRng::seed_from_u64(23);
    let registry = Registry::new();
    registry.set_tracing(true);
    let mut config = test_config();
    config.fault_tolerance.max_read_retries = 0; // a single transient aborts
    let mut server = FedoraServer::with_telemetry(config, init_entry, registry, &mut rng);

    run_round(&mut server, &mut rng, 0).expect("clean round");
    server.arm_faults(FaultConfig::chaos(3, 0.0, 0.0, 1.0));
    let err = run_round(&mut server, &mut rng, 1).expect_err("chaos aborts");
    assert!(matches!(
        err,
        FedoraError::RoundAborted {
            kind: IntegrityError::Transient,
            ..
        }
    ));
    server.disarm_faults();

    let events = server.registry().snapshot().events;
    let spans = span_index(&events);
    let round_ends: Vec<&Event> = events
        .iter()
        .filter(|e| {
            e.name == "trace.end"
                && field_u64(e, "span")
                    .is_some_and(|id| spans.get(&id).is_some_and(|(n, _)| n == "round"))
        })
        .collect();
    assert_eq!(round_ends.len(), 2, "both round spans closed");
    assert_eq!(
        round_ends[0].field("aborted"),
        None,
        "clean round carries no abort marker"
    );
    assert_eq!(
        round_ends[1].field("aborted"),
        Some(&Value::U64(1)),
        "aborted round is marked"
    );
    let begins = events.iter().filter(|e| e.name == "trace.begin").count();
    let ends = events.iter().filter(|e| e.name == "trace.end").count();
    assert_eq!(begins, ends, "abort leaked open spans");
}

#[test]
fn chrome_trace_export_round_trips_and_balances() {
    let mut rng = StdRng::seed_from_u64(24);
    let mut server = traced_server(&mut rng);
    run_round(&mut server, &mut rng, 0).expect("round");

    let text = server.registry().snapshot().to_chrome_trace();
    let root = json::parse(&text).expect("chrome trace is valid JSON");
    let trace_events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!trace_events.is_empty());

    let mut depth_per_tid: HashMap<u64, i64> = HashMap::new();
    let mut saw_round = false;
    let mut saw_io = false;
    for event in trace_events {
        let phase = event.get("ph").and_then(Json::as_str).expect("ph");
        let tid = event.get("tid").and_then(Json::as_u64).expect("tid");
        match phase {
            "B" => {
                *depth_per_tid.entry(tid).or_insert(0) += 1;
                if event.get("name").and_then(Json::as_str) == Some("round") {
                    saw_round = true;
                }
            }
            "E" => {
                let depth = depth_per_tid.entry(tid).or_insert(0);
                *depth -= 1;
                assert!(*depth >= 0, "E before B on tid {tid}");
            }
            "X" => {
                saw_io = true;
                assert!(event.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
            }
            "M" => {}
            other => panic!("unexpected phase '{other}'"),
        }
    }
    assert!(saw_round, "round span exported");
    assert!(saw_io, "device I/O slices exported");
    assert!(
        depth_per_tid.values().all(|&d| d == 0),
        "unbalanced B/E in export: {depth_per_tid:?}"
    );
}

#[test]
fn tracing_disabled_emits_no_trace_records() {
    let mut rng = StdRng::seed_from_u64(25);
    // Default server: enabled metrics registry, tracing off.
    let mut server = FedoraServer::new(test_config(), init_entry, &mut rng);
    let report = run_round(&mut server, &mut rng, 0).expect("round");
    let events = server.registry().snapshot().events;
    assert!(
        events.iter().all(|e| !e.name.starts_with("trace.")),
        "trace records present with tracing disabled"
    );
    // Phase breakdown still measured (it rides on plain clocks, not spans).
    assert!(report.phases.round_ns > 0);
    assert_eq!(report.phases.sum_ns(), report.phases.round_ns);
}
