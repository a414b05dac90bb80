//! End-to-end fault-tolerance chaos campaigns.
//!
//! These tests drive the full FEDORA pipeline under seeded fault
//! injection and check the system's three fault-tolerance promises:
//!
//! 1. **100 % detection** — every injected bit flip, rollback replay,
//!    and transient maps 1:1 onto a detection counter; nothing slips
//!    through the AEAD + write-counter integrity layer.
//! 2. **Zero silent corruption** — after a multi-round chaos campaign
//!    the recovered table is bit-identical to a fault-free twin run fed
//!    the same requests and gradients (`PrivacyConfig::none()` and the
//!    server's first-k read make the twins deterministic).
//! 3. **Fail-stop, then recover** — an integrity failure that outlives
//!    the retries stops the server (its round's ε charged, every later
//!    round refused); a fresh server recovers the last commit from its
//!    state directory, charges the failed round once, and proceeds —
//!    never serving wrong bytes.

use std::path::PathBuf;

use fedora::config::{FedoraConfig, PrivacyConfig, TableSpec};
use fedora::server::{FedoraError, FedoraServer, RoundReport};
use fedora_crypto::IntegrityError;
use fedora_fl::modes::FedAvg;
use fedora_storage::FaultConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 8;
const NUM_ENTRIES: u64 = 128;
const REQS_PER_ROUND: u64 = 48;

fn init_entry(id: u64) -> Vec<u8> {
    (0..DIM).flat_map(|_| (id as f32).to_le_bytes()).collect()
}

fn test_config() -> FedoraConfig {
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(NUM_ENTRIES), 64);
    // k = k_union always: round outcomes depend only on the requests, so
    // a faulty run and a clean twin stay in lockstep.
    config.privacy = PrivacyConfig::none();
    config
}

fn requests(round: u64) -> Vec<u64> {
    (0..REQS_PER_ROUND)
        .map(|i| (i * 7 + round * 13) % NUM_ENTRIES)
        .collect()
}

/// One deterministic round: begin, serve every request, one FedAvg
/// gradient per request, end. Returns the committed round's report.
fn run_round(
    s: &mut FedoraServer,
    rng: &mut StdRng,
    round: u64,
) -> Result<RoundReport, FedoraError> {
    let reqs = requests(round);
    s.begin_round(&reqs, rng)?;
    let mode = FedAvg;
    for &id in &reqs {
        let _ = s.serve(id, rng)?;
        let _ = s.aggregate(&mode, id, &[0.125; DIM], 1, rng)?;
    }
    let mut mode = FedAvg;
    s.end_round(&mut mode, 0.5, rng)
}

#[test]
fn chaos_campaign_every_fault_detected_no_silent_corruption() {
    let mut rng_clean = StdRng::seed_from_u64(42);
    let mut rng_faulty = StdRng::seed_from_u64(42);
    let mut clean = FedoraServer::new(test_config(), init_entry, &mut rng_clean);
    let mut config = test_config();
    // A deep retry budget: the campaign asserts zero quarantines, so no
    // bucket may plausibly fail ~17 independent coin flips in a row.
    config.fault_tolerance.max_read_retries = 16;
    let mut faulty = FedoraServer::new(config, init_entry, &mut rng_faulty);

    faulty.arm_faults(FaultConfig::chaos(0xC4A05, 0.25, 0.10, 0.15));
    let mut round = 0u64;
    let (mut clean_reports, mut faulty_reports) = (Vec::new(), Vec::new());
    while round < 400 {
        clean_reports.push(run_round(&mut clean, &mut rng_clean, round).unwrap());
        faulty_reports.push(run_round(&mut faulty, &mut rng_faulty, round).unwrap());
        round += 1;
        let f = faulty.fault_stats();
        if f.bitflips >= 100 && f.rollbacks >= 10 && f.transients >= 20 {
            break;
        }
    }
    let injected = faulty.fault_stats();
    assert!(injected.bitflips >= 100, "campaign too short: {injected:?}");
    assert!(injected.rollbacks >= 10, "campaign too short: {injected:?}");
    assert!(
        injected.transients >= 20,
        "campaign too short: {injected:?}"
    );

    // 1) 100 % detection, 1:1 with injection, correctly classified.
    let integ = faulty.integrity_stats();
    assert_eq!(integ.detected_corruption, injected.bitflips);
    assert_eq!(integ.detected_rollback, injected.rollbacks);
    assert_eq!(integ.transient_retries, injected.transients);
    assert_eq!(integ.quarantined, 0, "retry budget should absorb the chaos");
    assert!(integ.recovered > 0);
    assert!(faulty.aborts().is_empty());
    // Per-round reports carry the counters and they sum to the totals.
    let per_round: u64 = faulty_reports
        .iter()
        .map(|r| r.integrity.detected_total())
        .sum();
    assert_eq!(per_round, integ.detected_total());

    // 3) Forward progress: every chaos round completed.
    assert_eq!(faulty.committed_rounds(), round);
    for (c, f) in clean_reports.iter().zip(&faulty_reports) {
        assert_eq!(c.k_requests, f.k_requests);
        assert_eq!(c.k_union, f.k_union);
        assert_eq!(c.k_accesses, f.k_accesses);
        assert_eq!(c.lost, f.lost);
    }

    // 2) Zero silent corruption: with injection off, a scrub is clean and
    // the table matches the fault-free twin bit-for-bit.
    faulty.disarm_faults();
    let scrub = faulty.scrub().unwrap();
    assert!(scrub.is_clean(), "{scrub:?}");
    let t_clean = clean.snapshot_table(&mut rng_clean).unwrap();
    let t_faulty = faulty.snapshot_table(&mut rng_faulty).unwrap();
    assert_eq!(
        t_clean, t_faulty,
        "recovered state must equal the fault-free run"
    );
}

/// A fresh (pre-wiped) per-test state directory.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedora-itest-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn aborted_round_stops_server_and_recovers_durably() {
    let dir = state_dir("abort");
    let mut config = test_config();
    config.privacy = PrivacyConfig::with_epsilon(1.0);
    config.fault_tolerance.max_read_retries = 0; // a single transient aborts
    let mut rng = StdRng::seed_from_u64(7);
    let mut s = FedoraServer::new(config.clone(), init_entry, &mut rng);
    s.enable_durability(&dir).unwrap();

    for round in 0..2 {
        run_round(&mut s, &mut rng, round).unwrap();
    }
    let before = s.snapshot_table(&mut rng).unwrap();
    assert_eq!(s.accountant().total_epsilon(), 2.0);

    s.arm_faults(FaultConfig::chaos(3, 0.0, 0.0, 1.0));
    let err = run_round(&mut s, &mut rng, 2).unwrap_err();
    assert!(
        matches!(
            err,
            FedoraError::RoundAborted {
                kind: IntegrityError::Transient,
                ..
            }
        ),
        "{err}"
    );
    s.disarm_faults();
    assert_eq!(s.aborts().len(), 1);
    assert!(s.aborts()[0].report.integrity.transient_retries >= 1);
    assert_eq!(s.accountant().total_epsilon(), 3.0, "the abort is charged");
    // Stopped: the round cannot be retried in this process.
    assert_eq!(run_round(&mut s, &mut rng, 2).unwrap_err(), err);
    assert_eq!(s.committed_rounds(), 2);
    drop(s);

    // The way back is crash recovery on a fresh server.
    let mut rng = StdRng::seed_from_u64(7);
    let mut t = FedoraServer::new(config, init_entry, &mut rng);
    assert_eq!(t.recover(&dir).unwrap(), 2);
    assert!(t.aborts().is_empty());
    assert_eq!(
        t.accountant().total_epsilon(),
        3.0,
        "the failed round is charged exactly once"
    );
    // Nothing of the aborted round stuck: the logical table is unchanged.
    assert_eq!(t.snapshot_table(&mut rng).unwrap(), before);
    assert!(t.quarantined_entries().is_empty());

    // The very round that aborted commits on the recovered server.
    run_round(&mut t, &mut rng, 2).unwrap();
    assert_eq!(t.committed_rounds(), 3);
    assert_eq!(t.accountant().total_epsilon(), 4.0);
    assert!(t.scrub().unwrap().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Unrecoverable damage degrades service to a stop, never to wrong bytes:
/// the stopped server serves nothing, and the recovered one serves the
/// committed values.
#[test]
fn unrecoverable_damage_degrades_but_never_serves_wrong_bytes() {
    let dir = state_dir("damage");
    let mut rng = StdRng::seed_from_u64(11);
    let mut s = FedoraServer::new(test_config(), init_entry, &mut rng);
    s.enable_durability(&dir).unwrap();
    run_round(&mut s, &mut rng, 0).unwrap();

    // Every read attempt is corrupted in flight: the retry budget cannot
    // save the round, so it aborts and the server stops.
    s.arm_faults(FaultConfig::chaos(5, 1.0, 0.0, 0.0));
    let err = run_round(&mut s, &mut rng, 1).unwrap_err();
    assert!(matches!(err, FedoraError::RoundAborted { .. }), "{err}");
    s.disarm_faults();
    assert_eq!(s.begin_round(&requests(1), &mut rng).unwrap_err(), err);
    assert!(matches!(
        s.serve(requests(1)[0], &mut rng),
        Err(FedoraError::NoActiveRound)
    ));
    drop(s);

    let mut rng = StdRng::seed_from_u64(11);
    let mut t = FedoraServer::new(test_config(), init_entry, &mut rng);
    assert_eq!(t.recover(&dir).unwrap(), 1);
    // Round 0 moved every entry it touched by the FedAvg mean gradient
    // 0.125 at lr 0.5: +0.0625, exactly. The rounds below serve only.
    let round0 = requests(0);
    for round in 1..4u64 {
        let reqs = requests(round);
        t.begin_round(&reqs, &mut rng).unwrap();
        for &id in &reqs {
            let bytes = t.serve(id, &mut rng).unwrap().expect("ε = ∞ loses nothing");
            let v = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let bump = if round0.contains(&id) { 0.0625 } else { 0.0 };
            assert_eq!(v, id as f32 + bump, "entry {id} in round {round}");
        }
        let mut mode = FedAvg;
        t.end_round(&mut mode, 0.5, &mut rng).unwrap();
    }
    assert_eq!(t.committed_rounds(), 4);
    // After the campaign the tree authenticates end to end again.
    let scrub = t.scrub().unwrap();
    assert!(scrub.is_clean(), "{scrub:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
