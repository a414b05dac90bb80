//! Privacy-observability integration tests: the twin-run obliviousness
//! auditor, the privacy ledger's exact accounting (including aborted
//! rounds), audit-only redaction across every export format and the budget
//! alarm — the whole stack at once.

use fedora::audit::{audit_determinism, audit_twin_inputs, twin_inputs, AuditVerdict};
use fedora::config::{FedoraConfig, PrivacyBudgetConfig, PrivacyConfig, TableSpec};
use fedora::server::{FedoraError, FedoraServer};
use fedora_fl::modes::FedAvg;
use fedora_storage::FaultConfig;
use fedora_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: usize = 8;
const ROUNDS: usize = 2;

fn audit_config(privacy: PrivacyConfig) -> FedoraConfig {
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 16);
    config.privacy = privacy;
    config
}

/// §3.2 strawman canary: naive dedup (ε = ∞) accesses exactly `k_union`
/// entries, so twin inputs with different union sizes produce divergent
/// traces — the auditor must flag it.
#[test]
fn naive_dedup_strawman_is_flagged_trace_divergent() {
    let (a, b) = twin_inputs(K);
    let outcome =
        audit_twin_inputs(&audit_config(PrivacyConfig::none()), 41, &a, &b, ROUNDS).expect("audit");
    assert!(!outcome.canonical_equal);
    assert_ne!(outcome.len_a, outcome.len_b, "trace length leaks k_union");
    assert!(
        matches!(outcome.verdict, AuditVerdict::Leaky { .. }),
        "{:?}",
        outcome.verdict
    );
}

/// Vanilla delta(K) (ε = 0) always touches exactly K entries: the twin
/// canonical traces must be *equal*, not merely indistinguishable.
#[test]
fn vanilla_delta_k_is_trace_equivalent() {
    let (a, b) = twin_inputs(K);
    let outcome = audit_twin_inputs(&audit_config(PrivacyConfig::perfect()), 43, &a, &b, ROUNDS)
        .expect("audit");
    assert!(outcome.canonical_equal);
    assert_eq!(outcome.verdict, AuditVerdict::Oblivious);
}

/// Finite ε: traces differ (k is sampled) but per-level access frequencies
/// must pass the chi-squared indistinguishability test.
#[test]
fn epsilon_fdp_is_statistically_indistinguishable() {
    let (a, b) = twin_inputs(K);
    let outcome = audit_twin_inputs(
        &audit_config(PrivacyConfig::with_epsilon(1.0)),
        47,
        &a,
        &b,
        ROUNDS,
    )
    .expect("audit");
    assert!(outcome.verdict.is_pass(), "{:?}", outcome.verdict);
    assert!(outcome.chi.pass, "chi {:?}", outcome.chi);
}

/// Identical private inputs and seed must replay to byte-identical raw
/// traces — the foundation the twin comparison rests on.
#[test]
fn identical_input_twin_runs_are_byte_identical() {
    let (a, _) = twin_inputs(K);
    for privacy in [
        PrivacyConfig::perfect(),
        PrivacyConfig::with_epsilon(1.0),
        PrivacyConfig::none(),
    ] {
        assert!(
            audit_determinism(&audit_config(privacy), 53, &a, ROUNDS).expect("determinism"),
            "replay diverged"
        );
    }
}

/// The acceptance invariant: `fdp.total.epsilon` on the final round report
/// equals `FdpAccountant::total_epsilon()` exactly, across a multi-round
/// run that includes an *aborted* round — the abort must not consume
/// budget (and certainly not twice).
#[test]
fn ledger_matches_accountant_across_aborted_round() {
    let mut rng = StdRng::seed_from_u64(61);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
    config.privacy = PrivacyConfig::with_epsilon(1.0);
    config.fault_tolerance = fedora::config::FaultToleranceConfig::transactional();
    let mut server =
        FedoraServer::with_telemetry(config, |id| vec![id as u8; 32], Registry::new(), &mut rng);
    let mut mode = FedAvg;
    let reqs = [1u64, 2, 3];

    // Two clean rounds.
    for _ in 0..2 {
        server.begin_round(&reqs, &mut rng).expect("begin");
        server.end_round(&mut mode, 1.0, &mut rng).expect("end");
    }
    assert_eq!(server.accountant().total_epsilon(), 2.0);

    // One aborted round: every read is corrupted, the retry budget
    // exhausts, and the transactional round rolls back.
    server.arm_faults(FaultConfig::chaos(11, 1.0, 0.0, 0.0));
    let err = server.begin_round(&reqs, &mut rng).unwrap_err();
    assert!(matches!(err, FedoraError::RoundAborted { .. }), "{err}");
    server.disarm_faults();
    assert_eq!(
        server.accountant().total_epsilon(),
        2.0,
        "aborted round must not consume privacy budget"
    );

    // One more clean round; the report gauge tracks the accountant.
    server.begin_round(&reqs, &mut rng).expect("begin");
    let report = server.end_round(&mut mode, 1.0, &mut rng).expect("end");
    assert_eq!(server.accountant().total_epsilon(), 3.0);
    assert_eq!(
        report.metrics.gauge("fdp.total.epsilon"),
        Some(server.accountant().total_epsilon()),
        "ledger gauge must equal the accountant exactly"
    );
    assert_eq!(report.metrics.gauge("fdp.rounds"), Some(3.0));
}

/// Secret-dependent series (anything derived from `k_union`) are tagged
/// audit-only and stripped from every default export format, while a
/// neutral series survives in all three.
#[test]
fn audit_only_series_stripped_from_all_default_exports() {
    let mut rng = StdRng::seed_from_u64(67);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 16);
    config.privacy = PrivacyConfig::with_epsilon(1.0);
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    let mut mode = FedAvg;
    server.begin_round(&[1, 2, 3], &mut rng).expect("begin");
    server.end_round(&mut mode, 1.0, &mut rng).expect("end");

    let snap = server.metrics_snapshot();
    assert!(snap.is_audit_only("fdp.round.k_union"));
    assert!(snap.gauge("fdp.round.k_union").is_some(), "lookups resolve");
    for (name, text) in [
        ("json", snap.to_json()),
        ("csv", snap.to_csv()),
        ("prom", snap.to_prometheus_text()),
    ] {
        assert!(!text.contains("k_union"), "{name} leaks k_union");
        assert!(!text.contains("fdp.dummies"), "{name} leaks dummies");
        assert!(
            !text.contains("fdp_dummies"),
            "{name} leaks dummies (prom-mangled)"
        );
        assert!(
            text.contains("rounds"),
            "{name} must keep non-secret series"
        );
    }
    // The audit view deliberately exports everything.
    assert!(snap.audit_view().to_json().contains("k_union"));
}

/// Enforcing budget: the refused round consumes nothing and leaves no
/// active round behind; alarm mode only journals.
#[test]
fn enforcing_budget_refuses_round() {
    let mut rng = StdRng::seed_from_u64(71);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 16);
    config.privacy = PrivacyConfig::with_epsilon(1.0);
    config.privacy_budget = PrivacyBudgetConfig::enforcing(1.5);
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    let mut mode = FedAvg;
    server.begin_round(&[1], &mut rng).expect("round 1");
    server.end_round(&mut mode, 1.0, &mut rng).expect("end 1");
    let err = server.begin_round(&[2], &mut rng).unwrap_err();
    match err {
        FedoraError::PrivacyBudgetExhausted { spent, budget } => {
            assert_eq!(spent, 1.0);
            assert_eq!(budget, 1.5);
        }
        other => panic!("expected budget exhaustion, got {other}"),
    }
    assert_eq!(server.accountant().total_epsilon(), 1.0, "refusal is free");
    assert!(matches!(
        server.end_round(&mut mode, 1.0, &mut rng).unwrap_err(),
        FedoraError::NoActiveRound
    ));
}
