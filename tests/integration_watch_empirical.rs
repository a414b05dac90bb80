//! Empirical-ε estimator calibration and watch-plane integration tests:
//! the strawman canary must alarm (exactly once per crossing), the honest
//! ε-FDP mechanism must not, verdicts must not depend on the worker
//! thread count, the `fdp.empirical.*` gauges must stay redacted from
//! default exports, enforcement must refuse rounds after a confident
//! exceedance, and the watch sampler's own overhead must stay under 5% of
//! round wall-time.

use fedora::audit::empirical::{adjacent_inputs, estimate_twin_inputs, EpsilonEstimate};
use fedora::config::{
    FedoraConfig, ParallelismConfig, PrivacyBudgetConfig, PrivacyConfig, TableSpec, WatchConfig,
};
use fedora::server::{FedoraError, FedoraServer};
use fedora_fl::modes::FedAvg;
use fedora_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: usize = 8;
const SAMPLES: usize = 16;
const SEED: u64 = 61;

fn estimator_config(privacy: PrivacyConfig, threads: usize) -> FedoraConfig {
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 16);
    config.privacy = privacy;
    config.parallelism = ParallelismConfig::with_threads(threads);
    config
}

/// The honest ε-FDP mechanism measures well below its configured ε and
/// never alarms; the §3.2 naive-dedup strawman measures far above the
/// *claimed* ε with a confident interval. Both verdicts are identical at
/// 1 and 4 worker threads — the estimator inherits the pipeline's
/// determinism.
#[test]
fn calibration_verdicts_are_thread_count_invariant() {
    let (a, b) = adjacent_inputs(K);
    let claimed = 1.0;
    let mut honest_estimates = Vec::new();
    let mut strawman_estimates = Vec::new();
    for threads in [1usize, 4] {
        let honest = estimate_twin_inputs(
            &estimator_config(PrivacyConfig::with_epsilon(claimed), threads),
            SEED,
            &a,
            &b,
            SAMPLES,
        )
        .expect("honest estimation");
        assert!(
            !honest.alarm,
            "honest mechanism alarmed at {threads} threads: {:?}",
            honest.estimate
        );
        assert!(
            honest.estimate.eps_hat < claimed,
            "honest eps_hat {} should sit below claimed ε {claimed}",
            honest.estimate.eps_hat
        );
        honest_estimates.push(honest.estimate);

        let strawman = estimate_twin_inputs(
            &estimator_config(PrivacyConfig::none(), threads),
            SEED,
            &a,
            &b,
            SAMPLES,
        )
        .expect("strawman estimation");
        // The strawman claims ε = ∞ (nothing), so judge it against the
        // deployment's claimed ε — the scenario is an implementation
        // leaking more than its configuration admits.
        assert!(
            strawman.estimate.exceeds(claimed),
            "strawman must confidently exceed claimed ε at {threads} threads: {:?}",
            strawman.estimate
        );
        strawman_estimates.push(strawman.estimate);
    }
    assert_eq!(
        honest_estimates[0], honest_estimates[1],
        "honest estimate must not depend on thread count"
    );
    assert_eq!(
        strawman_estimates[0], strawman_estimates[1],
        "strawman estimate must not depend on thread count"
    );
}

/// Feeding a strawman estimate into a server claiming finite ε publishes
/// the `fdp.empirical.*` gauges and journals `watch.alarm.empirical_eps`
/// exactly once per crossing — recording the same exceedance twice does
/// not re-fire the alarm; dropping below the budget re-arms it.
#[test]
fn strawman_estimate_alarms_exactly_once_per_crossing() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);

    let (a, b) = adjacent_inputs(K);
    let strawman = estimate_twin_inputs(
        &estimator_config(PrivacyConfig::none(), 1),
        SEED,
        &a,
        &b,
        SAMPLES,
    )
    .expect("strawman estimation")
    .estimate;
    assert!(strawman.exceeds(1.0), "{strawman:?}");

    server.record_empirical_estimate(strawman);
    server.record_empirical_estimate(strawman);
    let events = server.registry().snapshot();
    assert_eq!(
        events
            .events
            .iter()
            .filter(|e| e.name == "watch.alarm.empirical_eps")
            .count(),
        1,
        "one crossing, one alarm event"
    );
    assert_eq!(server.empirical_estimate(), Some(&strawman));

    // The estimate lands on the audit-only ledger gauges.
    let audit = server.registry().snapshot().audit_view();
    assert_eq!(audit.gauge("fdp.empirical.eps_hat"), Some(strawman.eps_hat));
    assert_eq!(
        audit.gauge("fdp.empirical.samples"),
        Some(strawman.samples as f64)
    );

    // Recovering below budget re-arms the alarm; the next crossing fires
    // a second event.
    server.record_empirical_estimate(EpsilonEstimate::empty());
    server.record_empirical_estimate(strawman);
    assert_eq!(
        server
            .registry()
            .snapshot()
            .events
            .iter()
            .filter(|e| e.name == "watch.alarm.empirical_eps")
            .count(),
        2
    );
}

/// An honest estimate recorded on the server publishes gauges but never
/// journals an alarm.
#[test]
fn honest_estimate_never_alarms() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
    let mut server =
        FedoraServer::with_telemetry(config.clone(), |_| vec![0u8; 32], Registry::new(), &mut rng);
    let (a, b) = adjacent_inputs(K);
    let honest = estimate_twin_inputs(&config, SEED, &a, &b, SAMPLES)
        .expect("honest estimation")
        .estimate;
    server.record_empirical_estimate(honest);
    assert!(server
        .registry()
        .snapshot()
        .events
        .iter()
        .all(|e| e.name != "watch.alarm.empirical_eps"));
}

/// The `fdp.empirical.*` gauges are audit-only: absent from the default
/// JSON/Prometheus exports, present under `audit_view`.
#[test]
fn empirical_gauges_are_redacted_from_default_exports() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    server.record_empirical_estimate(EpsilonEstimate {
        eps_hat: 0.25,
        ci_lo: 0.1,
        ci_hi: 0.4,
        samples: 9,
    });
    let snap = server.registry().snapshot();
    for export in [snap.to_json(), snap.to_prometheus_text()] {
        assert!(
            !export.contains("fdp.empirical") && !export.contains("fdp_empirical"),
            "default export must redact empirical gauges: {export}"
        );
    }
    let audit = snap.audit_view();
    assert!(audit.to_json().contains("\"fdp.empirical.eps_hat\":0.25"));
    assert!(audit.to_json().contains("\"fdp.empirical.samples\":9"));
    assert!(audit
        .to_prometheus_text()
        .contains("fedora_fdp_empirical_eps_hat 0.25"));
}

/// With budget enforcement on, a confidently-exceeding empirical estimate
/// refuses every subsequent round: the implementation has been *measured*
/// leaking more than the accountant admits, so the accountant's own
/// ceiling is no longer trustworthy.
#[test]
fn enforcement_refuses_rounds_after_empirical_exceedance() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
    config.privacy_budget = PrivacyBudgetConfig {
        max_total_epsilon: None,
        enforce: true,
    };
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    let requests: Vec<u64> = (0..K as u64).collect();
    let mut mode = FedAvg;

    // Clean round first: enforcement without an exceedance changes nothing.
    server.begin_round(&requests, &mut rng).expect("round 1");
    server.end_round(&mut mode, 1.0, &mut rng).expect("end 1");

    // A confident exceedance (tight CI above the ε = 1 budget)…
    server.record_empirical_estimate(EpsilonEstimate {
        eps_hat: 3.0,
        ci_lo: 2.5,
        ci_hi: 3.5,
        samples: 24,
    });
    // …refuses the next round with the measured value as "spent".
    match server.begin_round(&requests, &mut rng) {
        Err(FedoraError::PrivacyBudgetExhausted { spent, budget }) => {
            assert_eq!(spent, 3.0);
            assert_eq!(budget, 1.0);
        }
        other => panic!("expected PrivacyBudgetExhausted, got {other:?}"),
    }
    let snap = server.registry().snapshot();
    assert!(snap
        .events
        .iter()
        .any(|e| e.name == "privacy.budget.refused"));

    // A retracted estimate (e.g. more samples widen the CI) lifts the
    // refusal: enforcement follows the *current* evidence.
    server.record_empirical_estimate(EpsilonEstimate::empty());
    server.begin_round(&requests, &mut rng).expect("round 2");
    server.end_round(&mut mode, 1.0, &mut rng).expect("end 2");
}

/// The watch plane samples every N committed rounds, windows metrics via
/// snapshot deltas, and journals one `watch.alarm.*` event per tripped
/// rule — and a clean run raises no alarms at all.
#[test]
fn watch_plane_samples_windows_and_alarms() {
    let run = |max_p99: Option<u64>| {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
        config.watch = WatchConfig {
            every_rounds: 2,
            max_round_p99_ns: max_p99,
            max_shed_ppm: Some(100_000),
            alarm_on_empirical: true,
            empirical_every_rounds: 0,
        };
        let mut server =
            FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
        let requests: Vec<u64> = (0..K as u64).collect();
        let mut mode = FedAvg;
        for _ in 0..4 {
            server.begin_round(&requests, &mut rng).expect("round");
            server.end_round(&mut mode, 1.0, &mut rng).expect("end");
        }
        let report = server.watch_report().expect("watch sampled").clone();
        let events = server.registry().snapshot().events;
        (report, events)
    };

    // Clean run: generous p99 bound, nothing trips.
    let (report, events) = run(Some(u64::MAX));
    assert_eq!(report.round, 4);
    assert_eq!(report.window_rounds, 2, "delta window covers two rounds");
    assert!(report.round_p99_ns > 0);
    assert!(report.alarms.is_empty(), "{:?}", report.alarms);
    assert!(report.total_epsilon > 0.0);
    assert!(events.iter().all(|e| !e.name.starts_with("watch.alarm.")));

    // Impossible p99 bound: every sample trips the latency rule.
    let (report, events) = run(Some(0));
    assert_eq!(report.alarms, vec!["round_p99".to_string()]);
    assert_eq!(
        events
            .iter()
            .filter(|e| e.name == "watch.alarm.round_p99")
            .count(),
        2,
        "one alarm per sample (rounds 2 and 4)"
    );
}

/// The continuous refresher feeds the estimator from live shadow traces:
/// `fdp.empirical.*` updates across ≥ 3 refresh windows of a live run,
/// with no on-demand twin replay anywhere, and the honest mechanism never
/// alarms.
#[test]
fn continuous_refresher_updates_estimate_across_live_windows() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
    config.watch = WatchConfig::every(2);
    config.watch.empirical_every_rounds = 1;
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    let requests: Vec<u64> = (0..K as u64).collect();
    let mut mode = FedAvg;
    let mut sample_counts = Vec::new();
    for _ in 0..8 {
        server.begin_round(&requests, &mut rng).expect("round");
        server.end_round(&mut mode, 1.0, &mut rng).expect("end");
        sample_counts.push(
            server
                .empirical_estimate()
                .map_or(0, |estimate| estimate.samples),
        );
    }
    // Capture every round, pair every two: estimates land at rounds
    // 2, 4, 6, 8 with growing sample counts — at least three distinct
    // refresh windows updated the estimate.
    assert_eq!(sample_counts, vec![0, 1, 1, 2, 2, 3, 3, 4]);
    let estimate = server.empirical_estimate().expect("live estimate");
    assert!(
        !estimate.exceeds(1.0),
        "honest mechanism must not alarm: {estimate:?}"
    );
    let snap = server.registry().snapshot();
    assert_eq!(
        snap.events
            .iter()
            .filter(|e| e.name == "watch.empirical.refresh")
            .count(),
        4,
        "one refresh event per completed pair"
    );
    assert!(
        snap.events
            .iter()
            .all(|e| e.name != "watch.alarm.empirical_eps"),
        "no alarm on an honest run"
    );
    // The gauges are live on the audit view, and the watch report taken
    // at the same commit already sees the refreshed estimate.
    let audit = server.registry().snapshot().audit_view();
    assert_eq!(audit.gauge("fdp.empirical.samples"), Some(4.0));
    assert_eq!(audit.gauge("fdp.empirical.eps_hat"), Some(estimate.eps_hat));
    let report = server.watch_report().expect("watch sampled");
    assert_eq!(report.eps_samples, 4);
}

/// Rounds between captures pay nothing: with a sparse refresh cadence the
/// recorder is detached for the off rounds, and estimates still arrive.
#[test]
fn sparse_refresher_cadence_still_pairs_captures() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
    config.watch.empirical_every_rounds = 3;
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    let requests: Vec<u64> = (0..K as u64).collect();
    let mut mode = FedAvg;
    for _ in 0..12 {
        server.begin_round(&requests, &mut rng).expect("round");
        server.end_round(&mut mode, 1.0, &mut rng).expect("end");
    }
    // Captures at rounds 3, 6, 9, 12 → pairs complete at 6 and 12.
    let estimate = server.empirical_estimate().expect("estimate");
    assert_eq!(estimate.samples, 2);
}

/// The watch sampler's own cost stays under 5% of round wall-time, with
/// the most aggressive cadence (every round). The bound is asserted in
/// release builds only — debug-build constant factors are not the claim.
#[test]
fn watch_overhead_stays_under_five_percent_of_round_time() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
    config.watch = WatchConfig::every(1);
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    let requests: Vec<u64> = (0..K as u64).collect();
    let mut mode = FedAvg;
    for _ in 0..20 {
        server.begin_round(&requests, &mut rng).expect("round");
        server.end_round(&mut mode, 1.0, &mut rng).expect("end");
    }
    let snap = server.registry().snapshot();
    let watch = snap.histogram("watch.sample.ns").expect("watch histogram");
    let rounds = snap.histogram("round.latency").expect("round histogram");
    assert_eq!(watch.count, 20, "sampled every round");
    assert_eq!(rounds.count, 20);
    let ratio = watch.sum as f64 / rounds.sum as f64;
    assert!(
        cfg!(debug_assertions) || ratio < 0.05,
        "watch overhead {:.2}% of round wall-time (watch {} ns vs rounds {} ns)",
        ratio * 100.0,
        watch.sum,
        rounds.sum
    );
}

/// The continuous refresher bills its own cost into `watch.sample.ns`,
/// and the combined watch + refresher overhead still clears the same <5%
/// budget at the most aggressive cadence (both every round). Asserted in
/// release builds only, like the base overhead test.
#[test]
fn watch_overhead_with_refresher_stays_under_five_percent() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut config = estimator_config(PrivacyConfig::with_epsilon(1.0), 1);
    config.watch = WatchConfig::every(1);
    config.watch.empirical_every_rounds = 1;
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    let requests: Vec<u64> = (0..K as u64).collect();
    let mut mode = FedAvg;
    for _ in 0..20 {
        server.begin_round(&requests, &mut rng).expect("round");
        server.end_round(&mut mode, 1.0, &mut rng).expect("end");
    }
    let snap = server.registry().snapshot();
    let watch = snap.histogram("watch.sample.ns").expect("watch histogram");
    let rounds = snap.histogram("round.latency").expect("round histogram");
    assert_eq!(
        watch.count, 40,
        "one watch sample plus one refresher sample per round"
    );
    assert!(
        server.empirical_estimate().is_some(),
        "refresher produced estimates during the run"
    );
    let ratio = watch.sum as f64 / rounds.sum as f64;
    assert!(
        cfg!(debug_assertions) || ratio < 0.05,
        "watch+refresher overhead {:.2}% of round wall-time ({} ns vs {} ns)",
        ratio * 100.0,
        watch.sum,
        rounds.sum
    );
}
