//! `fedora_audit` — the obliviousness / privacy-ledger audit harness.
//!
//! Runs the twin-run obliviousness auditor ([`fedora::audit`]) against the
//! three mechanism presets and writes a schema-versioned audit report:
//!
//! * **vanilla delta(K)** (ε = 0): canonical traces must match exactly;
//! * **ε-FDP** (finite ε): traces differ, but per-level access
//!   frequencies must be statistically indistinguishable;
//! * **naive dedup** (ε = ∞, the §3.2 strawman): a deliberate canary —
//!   the auditor must *flag* it, proving the detector has teeth.
//!
//! A determinism check (identical inputs + seed ⇒ byte-identical raw
//! traces) guards the twin comparison itself, and a privacy-ledger check
//! verifies `fdp.total.epsilon` on the final round report equals the
//! accountant's total exactly.
//!
//! ```text
//! fedora_audit [--k N] [--rounds N] [--seed S] [--entries N]
//!              [--epsilon E] [--out PATH]
//!              [--metrics-out PATH] [--metrics-format json|prom]
//! ```
//!
//! Exits non-zero when any check fails (honest mechanism flagged, canary
//! missed, nondeterminism, or a ledger mismatch).

use std::path::PathBuf;

use fedora::audit::empirical::{adjacent_inputs, estimate_twin_inputs};
use fedora::audit::{
    audit_determinism, audit_twin_inputs, twin_inputs, AuditOutcome, AuditVerdict,
};
use fedora::config::{FedoraConfig, ParallelismConfig, PrivacyConfig, TableSpec};
use fedora::server::FedoraServer;
use fedora_bench::outopts::{take_flag, usage_exit, OutputOpts};
use fedora_fl::modes::FedAvg;
use fedora_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
fedora_audit — twin-run obliviousness auditor + privacy-ledger check

USAGE:
    fedora_audit [--k N] [--rounds N] [--seed S] [--entries N]
                 [--epsilon E] [--out PATH] [--threads N]
                 [--empirical] [--empirical-samples N]
                 [--metrics-out PATH] [--metrics-format json|prom]

--threads N runs every audited pipeline with N worker threads; the checks
must pass identically at any thread count (determinism is the point).

--empirical additionally runs the twin-run empirical-ε estimator
(fedora::audit::empirical) over N replayed adjacent twin pairs per check
(default 24, --empirical-samples): the honest mechanisms must NOT trip
the empirical alarm and the naive-dedup canary MUST. The canary's ε is
∞ (it claims nothing), so its estimate is judged against the *claimed*
deployment ε (--epsilon) — the strawman scenario is an implementation
leaking more than its configuration admits.

Writes an audit report (schema fedora-privacy-audit/v1) to --out (default
fedora_audit.json) and exits non-zero when any check fails: an honest
mechanism flagged leaky, the naive-dedup canary NOT flagged, a
nondeterministic replay, or a ledger/accountant mismatch.
";

/// One named auditor check with its expectation.
struct Check {
    name: &'static str,
    privacy: PrivacyConfig,
    /// Whether the auditor is *supposed* to flag this mechanism.
    expect_leak: bool,
}

fn verdict_str(v: &AuditVerdict) -> &'static str {
    match v {
        AuditVerdict::Oblivious => "oblivious",
        AuditVerdict::IndistinguishableWithinEpsilon => "indistinguishable_within_epsilon",
        AuditVerdict::Leaky { .. } => "leaky",
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "\"NaN\"".to_owned()
    } else if v > 0.0 {
        "\"inf\"".to_owned()
    } else {
        "\"-inf\"".to_owned()
    }
}

fn check_json(name: &str, expect_leak: bool, outcome: &AuditOutcome, pass: bool) -> String {
    format!(
        "{{\"name\":\"{name}\",\"epsilon\":{},\"len_a\":{},\"len_b\":{},\
         \"canonical_equal\":{},\"chi_statistic\":{},\"chi_critical\":{},\
         \"chi_df\":{},\"verdict\":\"{}\",\"expect_leak\":{expect_leak},\
         \"pass\":{pass}}}",
        json_f64(outcome.mechanism_epsilon),
        outcome.len_a,
        outcome.len_b,
        outcome.canonical_equal,
        json_f64(outcome.chi.statistic),
        json_f64(outcome.chi.critical),
        outcome.chi.df,
        verdict_str(&outcome.verdict),
    )
}

/// Ledger check: run a few live rounds and compare the registry's
/// `fdp.total.epsilon` after the final one against the accountant.
/// Returns (total, matches).
fn ledger_check(
    entries: u64,
    k: usize,
    rounds: usize,
    seed: u64,
    epsilon: f64,
    threads: usize,
) -> (f64, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(entries), k.max(16));
    config.privacy = PrivacyConfig::with_epsilon(epsilon);
    config.parallelism = ParallelismConfig::with_threads(threads);
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], Registry::new(), &mut rng);
    let mut mode = FedAvg;
    let requests: Vec<u64> = (0..k as u64).collect();
    let mut last_gauge = None;
    for _ in 0..rounds {
        if server.begin_round(&requests, &mut rng).is_err() {
            return (f64::NAN, false);
        }
        if server.end_round(&mut mode, 1.0, &mut rng).is_err() {
            return (f64::NAN, false);
        }
        last_gauge = server.registry().snapshot_lite().gauge("fdp.total.epsilon");
    }
    let total = server.accountant().total_epsilon();
    (total, last_gauge == Some(total))
}

/// The parsed value of flag `name`, or `None` when absent; a value that
/// does not parse exits with the usage text.
fn parsed<T: std::str::FromStr>(args: &mut Vec<String>, name: &str) -> Option<T> {
    take_flag(args, name).unwrap_or_else(|e| usage_exit(&e, USAGE))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let (opts, mut args) = OutputOpts::from_env();
    if args
        .iter()
        .any(|a| a == "help" || a == "--help" || a == "-h")
    {
        print!("{USAGE}");
        return;
    }
    let k: usize = parsed(&mut args, "--k").unwrap_or(8);
    let rounds: usize = parsed(&mut args, "--rounds").unwrap_or(2);
    let seed: u64 = parsed(&mut args, "--seed").unwrap_or(7);
    let entries: u64 = parsed(&mut args, "--entries").unwrap_or(128);
    let epsilon: f64 = parsed(&mut args, "--epsilon").unwrap_or(1.0);
    let empirical = args.iter().any(|a| a == "--empirical");
    args.retain(|a| a != "--empirical");
    let empirical_samples: usize = parsed(&mut args, "--empirical-samples").unwrap_or(24);
    let out: PathBuf =
        parsed(&mut args, "--out").unwrap_or_else(|| PathBuf::from("fedora_audit.json"));
    if !args.is_empty() {
        usage_exit(&format!("unexpected arguments {args:?}"), USAGE);
    }

    let checks = [
        Check {
            name: "vanilla_delta_k",
            privacy: PrivacyConfig::perfect(),
            expect_leak: false,
        },
        Check {
            name: "epsilon_fdp",
            privacy: PrivacyConfig::with_epsilon(epsilon),
            expect_leak: false,
        },
        Check {
            name: "naive_dedup_canary",
            privacy: PrivacyConfig::none(),
            expect_leak: true,
        },
    ];

    let registry = opts.registry();
    let threads = opts.threads_or_serial();
    let (req_a, req_b) = twin_inputs(k);
    let (adj_a, adj_b) = adjacent_inputs(k);
    let mut all_pass = true;
    let mut check_blobs = Vec::new();
    let mut emp_blobs = Vec::new();
    println!(
        "fedora_audit: K = {k}, {rounds} rounds, seed {seed}, {entries} entries, \
         {threads} thread(s)"
    );
    for check in &checks {
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(entries), k.max(16));
        config.privacy = check.privacy.clone();
        config.parallelism = ParallelismConfig::with_threads(threads);
        let outcome = match audit_twin_inputs(&config, seed, &req_a, &req_b, rounds) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: check {}: {e}", check.name);
                std::process::exit(1);
            }
        };
        let flagged = !outcome.verdict.is_pass();
        let pass = flagged == check.expect_leak;
        all_pass &= pass;
        println!(
            "  {:<20} ε = {:<8} verdict = {:<32} [{}]",
            check.name,
            json_f64(outcome.mechanism_epsilon).replace('"', ""),
            verdict_str(&outcome.verdict),
            if pass { "ok" } else { "FAIL" }
        );
        if let AuditVerdict::Leaky { reason } = &outcome.verdict {
            println!("      {reason}");
        }
        registry
            .gauge(&format!("audit.{}.pass", check.name))
            .set_u64(u64::from(pass));
        registry
            .gauge(&format!("audit.{}.chi_statistic", check.name))
            .set(outcome.chi.statistic);
        check_blobs.push(check_json(check.name, check.expect_leak, &outcome, pass));

        if empirical {
            let emp = match estimate_twin_inputs(&config, seed, &adj_a, &adj_b, empirical_samples) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: empirical {}: {e}", check.name);
                    std::process::exit(1);
                }
            };
            let est = emp.estimate;
            // The canary claims ε = ∞, which no estimate can exceed;
            // judge it against the *claimed* deployment ε instead.
            let budget = if emp.mechanism_epsilon.is_finite() {
                emp.mechanism_epsilon
            } else {
                epsilon
            };
            let alarm = est.exceeds(budget);
            let emp_pass = alarm == check.expect_leak;
            all_pass &= emp_pass;
            println!(
                "  {:<20} empirical eps_hat = {:.4} [{:.4}, {:.4}] over {} pairs \
                 (budget {}, alarm {}) [{}]",
                format!("{}:eps", check.name),
                est.eps_hat,
                est.ci_lo,
                est.ci_hi,
                est.samples,
                json_f64(budget).replace('"', ""),
                alarm,
                if emp_pass { "ok" } else { "FAIL" }
            );
            registry
                .gauge(&format!("audit.{}.empirical_eps_hat", check.name))
                .set(est.eps_hat);
            registry
                .gauge(&format!("audit.{}.empirical_alarm", check.name))
                .set_u64(u64::from(alarm));
            emp_blobs.push(format!(
                "{{\"name\":\"{}\",\"eps_hat\":{},\"ci_lo\":{},\"ci_hi\":{},\
                 \"samples\":{},\"distance\":{},\"mechanism_epsilon\":{},\
                 \"budget\":{},\"alarm\":{alarm},\"expect_alarm\":{},\
                 \"pass\":{emp_pass}}}",
                check.name,
                json_f64(est.eps_hat),
                json_f64(est.ci_lo),
                json_f64(est.ci_hi),
                est.samples,
                emp.distance,
                json_f64(emp.mechanism_epsilon),
                json_f64(budget),
                check.expect_leak,
            ));
        }
    }

    let mut det_config = FedoraConfig::for_testing(TableSpec::tiny(entries), k.max(16));
    det_config.privacy = PrivacyConfig::with_epsilon(epsilon);
    det_config.parallelism = ParallelismConfig::with_threads(threads);
    let deterministic = match audit_determinism(&det_config, seed, &req_a, rounds) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: determinism check: {e}");
            std::process::exit(1);
        }
    };
    all_pass &= deterministic;
    println!(
        "  {:<20} byte-identical replay {}",
        "determinism",
        if deterministic { "[ok]" } else { "[FAIL]" }
    );

    let (ledger_total, ledger_ok) = ledger_check(entries, k, rounds, seed, epsilon, threads);
    all_pass &= ledger_ok;
    println!(
        "  {:<20} fdp.total.epsilon == accountant ({}) {}",
        "privacy_ledger",
        json_f64(ledger_total).replace('"', ""),
        if ledger_ok { "[ok]" } else { "[FAIL]" }
    );
    registry
        .gauge("audit.determinism.pass")
        .set_u64(u64::from(deterministic));
    registry
        .gauge("audit.ledger.pass")
        .set_u64(u64::from(ledger_ok));

    let report = format!(
        "{{\"schema\":\"fedora-privacy-audit/v1\",\"seed\":{seed},\"k\":{k},\
         \"rounds\":{rounds},\"entries\":{entries},\"checks\":[{}],\
         \"empirical\":[{}],\
         \"determinism\":{{\"byte_identical\":{deterministic}}},\
         \"ledger\":{{\"total_epsilon\":{},\"matches_accountant\":{ledger_ok}}},\
         \"pass\":{all_pass}}}",
        check_blobs.join(","),
        emp_blobs.join(","),
        json_f64(ledger_total),
    );
    if let Err(e) = std::fs::write(&out, format!("{report}\n")) {
        eprintln!("error: writing {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("audit report written to {}", out.display());
    opts.write_or_die(&registry.snapshot());
    if !all_pass {
        eprintln!("error: audit FAILED (see report)");
        std::process::exit(1);
    }
    println!("audit PASSED");
}
