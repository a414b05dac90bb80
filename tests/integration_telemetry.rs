//! End-to-end checks of the `fedora-telemetry` subsystem as wired
//! through the live pipeline.
//!
//! Covers the acceptance contract of the observability PR:
//!
//! 1. A single federated round populates every headline series —
//!    `oram.access.latency` (with sane percentiles), `storage.pages_*`,
//!    `fl.round.upload_bytes`, `integrity.retries` — and the JSON
//!    export carries all of them.
//! 2. A server built with `Registry::disabled()` behaves identically
//!    to an instrumented one (same round outcome, empty snapshots).
//! 3. Fault injection is visible through the metrics alone:
//!    transient chaos drives `integrity.retries` above zero.
//! 4. Instrumentation overhead on the hot ORAM path stays small
//!    (lenient bound always on; the strict <5% bound is `#[ignore]`d
//!    for quiet machines — see EXPERIMENTS.md for measured numbers).

use std::time::Instant;

use fedora::config::{FedoraConfig, PrivacyConfig, TableSpec};
use fedora::server::{FedoraServer, RoundReport};
use fedora_fl::modes::FedAvg;
use fedora_storage::FaultConfig;
use fedora_telemetry::Registry;
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

/// One full round: begin, serve + aggregate every request, end. Returns
/// the round's report.
fn run_round(server: &mut FedoraServer, rng: &mut StdRng, round: u64) -> RoundReport {
    let reqs: Vec<u64> = (0..48)
        .map(|i| (i * 7 + round * 13) % NUM_ENTRIES)
        .collect();
    server.begin_round(&reqs, rng).expect("begin_round");
    let mode = FedAvg;
    for &id in &reqs {
        let _ = server.serve(id, rng).expect("serve");
        let _ = server
            .aggregate(&mode, id, &[0.125; DIM], 1, rng)
            .expect("aggregate");
    }
    let mut mode = FedAvg;
    server.end_round(&mut mode, 0.5, rng).expect("end_round")
}

#[test]
fn one_round_populates_every_headline_series() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut server = FedoraServer::new(test_config(), init_entry, &mut rng);
    run_round(&mut server, &mut rng, 0);

    let snap = server.registry().snapshot();

    // ORAM access latency: recorded, with ordered percentiles.
    let hist = snap
        .histogram("oram.access.latency")
        .expect("oram.access.latency histogram missing");
    assert!(hist.count > 0, "no ORAM accesses recorded");
    assert!(hist.min <= hist.p50, "min {} > p50 {}", hist.min, hist.p50);
    assert!(hist.p50 <= hist.p95, "p50 {} > p95 {}", hist.p50, hist.p95);
    assert!(hist.p95 <= hist.p99, "p95 {} > p99 {}", hist.p95, hist.p99);
    assert!(hist.p99 <= hist.max, "p99 {} > max {}", hist.p99, hist.max);

    // Storage + FL + integrity headline counters.
    let ssd = server.ssd_stats();
    assert_eq!(snap.counter("storage.pages_read"), Some(ssd.pages_read));
    assert_eq!(
        snap.counter("storage.pages_written"),
        Some(ssd.pages_written)
    );
    assert!(ssd.pages_read > 0 && ssd.pages_written > 0);
    assert!(snap.counter("fl.round.upload_bytes").unwrap() > 0);
    assert!(snap.counter("fl.round.download_bytes").unwrap() > 0);
    assert_eq!(snap.counter("integrity.retries"), Some(0));
    assert_eq!(snap.counter("fl.rounds.completed"), Some(1));

    // The JSON export carries every acceptance key.
    let json = snap.to_json();
    for key in [
        "oram.access.latency",
        "storage.pages_read",
        "storage.pages_written",
        "fl.round.upload_bytes",
        "integrity.retries",
        "\"p50\"",
        "\"p95\"",
        "\"p99\"",
    ] {
        assert!(json.contains(key), "JSON export missing {key}");
    }
}

#[test]
fn disabled_registry_is_a_faithful_noop() {
    let mut rng_on = StdRng::seed_from_u64(23);
    let mut rng_off = StdRng::seed_from_u64(23);
    let mut on = FedoraServer::new(test_config(), init_entry, &mut rng_on);
    let mut off = FedoraServer::with_telemetry(
        test_config(),
        init_entry,
        Registry::disabled(),
        &mut rng_off,
    );

    let a = run_round(&mut on, &mut rng_on, 0);
    let b = run_round(&mut off, &mut rng_off, 0);

    // Identical pipeline outcome either way.
    assert_eq!(a.k_accesses, b.k_accesses);
    assert_eq!(a.ssd, b.ssd);

    // The disabled side exported nothing.
    let snap = off.registry().snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.events.is_empty());
}

#[test]
fn transient_faults_surface_in_integrity_retries() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut config = test_config();
    config.fault_tolerance.max_read_retries = 16;
    let mut server = FedoraServer::new(config, init_entry, &mut rng);
    server.arm_faults(FaultConfig::chaos(0xFA117, 0.0, 0.0, 0.2));

    for round in 0..4 {
        run_round(&mut server, &mut rng, round);
    }

    let snap = server.registry().snapshot();
    let retries = snap.counter("integrity.retries").unwrap();
    assert!(retries > 0, "chaos campaign produced no retries");
    assert_eq!(
        snap.counter("integrity.recovered").unwrap(),
        server.integrity_stats().recovered
    );
}

/// Shared body for the overhead checks: time `rounds` full rounds on an
/// instrumented server vs a disabled-registry twin, returning the ratio.
fn overhead_ratio(rounds: u64) -> f64 {
    let time = |registry: Registry| {
        let mut rng = StdRng::seed_from_u64(47);
        let mut server =
            FedoraServer::with_telemetry(test_config(), init_entry, registry, &mut rng);
        // Warm-up round so allocator and cache effects don't dominate.
        run_round(&mut server, &mut rng, 0);
        let start = Instant::now();
        for round in 1..=rounds {
            run_round(&mut server, &mut rng, round);
        }
        start.elapsed().as_secs_f64()
    };
    time(Registry::new()) / time(Registry::disabled())
}

#[test]
fn instrumentation_overhead_is_bounded_lenient() {
    // Lenient bound that holds even on noisy shared CI machines; the
    // strict acceptance bound lives in the #[ignore]d test below.
    let ratio = overhead_ratio(8);
    assert!(
        ratio < 1.5,
        "instrumented rounds {ratio:.3}x slower than no-op sink"
    );
}

#[test]
#[ignore = "timing-sensitive: run on a quiet machine for the <5% acceptance bound"]
fn instrumentation_overhead_is_under_five_percent() {
    let ratio = overhead_ratio(40);
    assert!(
        ratio < 1.05,
        "instrumented rounds {ratio:.3}x slower than no-op sink (budget 1.05x)"
    );
}
