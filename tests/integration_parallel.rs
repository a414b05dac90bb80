//! Parallel-pipeline determinism suite: every observable of the round
//! pipeline must be identical at 1 and N worker threads.
//!
//! The worker pool (`fedora-par`) promises that thread count trades
//! wall-clock time only — gradients, round reports (modulo measured
//! latencies), the canonical device access trace, and the obliviousness
//! auditor's verdicts must all be bit-identical whether the pipeline runs
//! serially or fanned out. These tests pin that promise end to end.

use fedora::audit::{audit_twin_inputs, traced_run, twin_inputs};
use fedora::config::{FedoraConfig, ParallelismConfig, PrivacyConfig, TableSpec};
use fedora::server::{FedoraServer, RoundReport};
use fedora::training::{train_with_fedora, TrainingConfig};
use fedora_fl::client::LocalTrainer;
use fedora_fl::datasets::{Dataset, SyntheticConfig};
use fedora_fl::model::{DlrmConfig, DlrmModel, Pooling};
use fedora_fl::modes::{AggregationMode, FedAdam, FedAvg};
use fedora_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    let mut cfg = SyntheticConfig::movielens_like();
    cfg.num_users = 32;
    cfg.num_items = 64;
    cfg.samples_per_user = 6;
    cfg.test_samples = 200;
    Dataset::generate(cfg)
}

fn model(seed: u64) -> DlrmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    DlrmModel::new(
        DlrmConfig {
            num_items: 64,
            embedding_dim: 8,
            hidden_dim: 16,
            use_private_history: true,
            pooling: Pooling::Mean,
        },
        &mut rng,
    )
}

/// Client training fan-out: the merged gradients (and hence the final
/// model weights) are identical at every thread count.
#[test]
fn training_gradients_identical_across_thread_counts() {
    let data = dataset();
    let run = |threads: usize| {
        let mut m = model(31);
        let mut rng = StdRng::seed_from_u64(32);
        let cfg = TrainingConfig {
            users_per_round: 8,
            rounds: 4,
            server_lr: 2.0,
            trainer: LocalTrainer {
                lr: 0.2,
                epochs: 1,
                ..Default::default()
            },
            protection: None,
            threads,
        };
        let out = train_with_fedora(&mut m, &data, &cfg, &mut rng).expect("pipeline");
        let rows: Vec<Vec<f32>> = (0..8).map(|id| m.history_row(id).to_vec()).collect();
        (out, rows)
    };
    let serial = run(1);
    assert!(serial.0.total_accesses > 0);
    for threads in [2, 4] {
        assert_eq!(run(threads), serial, "threads={threads}");
    }
}

/// Per-round reports modulo latency, plus the cumulative non-latency
/// telemetry, of one server driven for three rounds under `mode`.
fn run_rounds<M: AggregationMode>(
    threads: usize,
    mut mode: M,
) -> (Vec<RoundReport>, Vec<Option<u64>>) {
    let mut rng = StdRng::seed_from_u64(17);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(256), 16);
    config.privacy = PrivacyConfig::with_epsilon(1.0);
    config.parallelism = ParallelismConfig::with_threads(threads);
    let mut server =
        FedoraServer::with_telemetry(config, |id| vec![id as u8; 32], Registry::new(), &mut rng);
    let mut reports = Vec::new();
    for round in 0..3u64 {
        let requests: Vec<u64> = (0..12).map(|i| (i * 7 + round) % 256).collect();
        server.begin_round(&requests, &mut rng).expect("begin");
        for &id in &requests {
            if server.serve(id, &mut rng).expect("serve").is_some() {
                server
                    .aggregate(&mode, id, &[0.5; 8], 1, &mut rng)
                    .expect("aggregate");
            }
        }
        let report = server.end_round(&mut mode, 1.0, &mut rng).expect("end");
        reports.push(report.scrubbed());
    }
    let snap = server.registry().snapshot();
    let counters: Vec<Option<u64>> = [
        "storage.pages_read",
        "storage.pages_written",
        "fl.rounds.completed",
        "oram.accesses",
    ]
    .iter()
    .map(|name| snap.counter(name))
    .collect();
    (reports, counters)
}

/// Full-round fan-out on one server, under FedAvg and under the stateful
/// FedAdam: per-round reports match modulo latency, and the cumulative
/// non-latency telemetry (device page counters included) matches exactly.
#[test]
fn round_reports_identical_modulo_latency() {
    type Run = fn(usize) -> (Vec<RoundReport>, Vec<Option<u64>>);
    let modes: [(&str, Run); 2] = [
        ("fedavg", |threads| run_rounds(threads, FedAvg)),
        ("fedadam", |threads| run_rounds(threads, FedAdam::new())),
    ];
    for (mode, run) in modes {
        let serial = run(1);
        assert_eq!(serial.0.len(), 3, "{mode}");
        assert!(serial.0[0].k_accesses > 0, "{mode}");
        for threads in [2, 4] {
            assert_eq!(run(threads), serial, "{mode} threads={threads}");
        }
    }
}

/// The device access sequence — the thing obliviousness is *about* — is
/// byte-identical at every thread count: parallel host-side crypto must
/// never reorder or resize device I/O.
#[test]
fn access_trace_byte_identical_across_thread_counts() {
    let requests: Vec<u64> = (0..8).collect();
    let trace_for = |threads: usize| {
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 16);
        config.privacy = PrivacyConfig::with_epsilon(1.0);
        config.parallelism = ParallelismConfig::with_threads(threads);
        traced_run(&config, 11, &requests, 2).expect("traced run")
    };
    let serial = trace_for(1);
    assert!(!serial.is_empty());
    for threads in [2, 4] {
        assert_eq!(trace_for(threads), serial, "threads={threads}");
    }
}

/// The twin-run obliviousness auditor reaches the same (passing) verdicts
/// on a pipeline running four worker threads.
#[test]
fn twin_run_auditor_passes_at_four_threads() {
    let (req_a, req_b) = twin_inputs(8);
    for (privacy, expect_exact) in [
        (PrivacyConfig::perfect(), true),
        (PrivacyConfig::with_epsilon(1.0), false),
    ] {
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 16);
        config.privacy = privacy;
        config.parallelism = ParallelismConfig::with_threads(4);
        let outcome = audit_twin_inputs(&config, 13, &req_a, &req_b, 2).expect("audit");
        assert!(
            outcome.verdict.is_pass(),
            "threads=4 must not break obliviousness: {:?}",
            outcome.verdict
        );
        if expect_exact {
            assert!(outcome.canonical_equal, "ε = 0 traces must match exactly");
        }
    }
}
