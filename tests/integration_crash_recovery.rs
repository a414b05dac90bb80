//! Durable crash-recovery integration tests: the crash-point × fault-mix
//! matrix (every named kill site recovers to the last committed round,
//! with the scrubbed round report byte-identical and ε never
//! under-reported), stale-checkpoint rollback detection, restart-stable
//! chaos seeds, and the twin-run obliviousness auditor running unchanged
//! on crash-recovered servers at 1 and 4 worker threads.

use std::path::{Path, PathBuf};

use fedora::audit::{audit_twin_inputs_with, twin_inputs, AuditVerdict};
use fedora::config::{FedoraConfig, ParallelismConfig, PrivacyConfig, TableSpec};
use fedora::durable::{
    list_checkpoints, load_checkpoint, read_records, CrashPoint, FaultPlan, JournalRecord,
};
use fedora::server::{FedoraError, FedoraServer, RoundReport};
use fedora_crypto::aead::Key;
use fedora_crypto::IntegrityError;
use fedora_fl::modes::FedAvg;
use fedora_oram::OramError;
use fedora_storage::ByteWriter;
use fedora_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ENTRIES: u64 = 128;
const WARMUP_ROUNDS: u64 = 2;

/// A fresh (pre-wiped) per-test state directory.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedora-itest-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn crash_config(privacy: PrivacyConfig, threads: usize) -> FedoraConfig {
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(ENTRIES), 32);
    config.privacy = privacy;
    config.parallelism = ParallelismConfig::with_threads(threads);
    config.fault_tolerance.max_read_retries = 16;
    config
}

fn build(config: &FedoraConfig, rng: &mut StdRng) -> FedoraServer {
    FedoraServer::with_telemetry(
        config.clone(),
        |id| vec![(id % 251) as u8; 32],
        Registry::new(),
        rng,
    )
}

fn run_round(server: &mut FedoraServer, round: u64, rng: &mut StdRng) -> Result<(), FedoraError> {
    let reqs: Vec<u64> = (0..8).map(|i| (i * 5 + round * 11) % ENTRIES).collect();
    server.begin_round(&reqs, rng)?;
    let mut mode = FedAvg;
    server.end_round(&mut mode, 1.0, rng)?;
    Ok(())
}

/// Warm-up to exactly `WARMUP_ROUNDS` committed rounds. The retry budget
/// absorbs every fault mix, and an abort would stop the server, so each
/// round must commit.
fn warm_up(server: &mut FedoraServer, rng: &mut StdRng) {
    for round in 1..=WARMUP_ROUNDS {
        run_round(server, round, rng).expect("warm-up round commits");
    }
}

/// The journal's AEAD key (the server's well-known test master key,
/// domain-separated for durability).
fn journal_key() -> Key {
    Key::from_bytes([0x5E; 32]).derive_subkey("durable")
}

/// The tentpole matrix: every crash point × fault mix is killed and
/// restored, and recovery must land exactly on the dying server's
/// committed round with a byte-identical scrubbed report and a
/// never-smaller ε total. Perfect privacy guarantees k = K ≥ 1, so the
/// mid-round crash points always fire.
#[test]
fn crash_point_fault_mix_matrix_recovers_to_last_commit() {
    let mixes: [(&str, f64, f64, f64); 3] = [
        ("clean", 0.0, 0.0, 0.0),
        ("transient", 0.0, 0.0, 0.10),
        ("bitflip+transient", 0.05, 0.0, 0.05),
    ];
    for point in CrashPoint::all() {
        for &(mix, bitflip, rollback, transient) in &mixes {
            let dir = state_dir(&format!("matrix-{point}-{mix}"));
            let config = crash_config(PrivacyConfig::perfect(), 1);
            let plan = FaultPlan {
                master_seed: 97,
                bitflip,
                rollback,
                transient,
            };
            let mut rng = StdRng::seed_from_u64(11);
            let mut server = build(&config, &mut rng);
            server.enable_durability(&dir).expect("enable durability");
            server.set_fault_plan(plan);
            warm_up(&mut server, &mut rng);

            server.arm_crash_point(point);
            let crash = run_round(&mut server, 100, &mut rng);
            assert!(
                matches!(crash, Err(FedoraError::CrashInjected { .. })),
                "{point}/{mix}: expected injected crash, got {crash:?}"
            );
            let want_rounds = server.committed_rounds();
            let want_digest = server.last_committed_report().map(RoundReport::digest);
            let want_report = server.last_committed_report().cloned();
            let dying_eps = server.accountant().total_epsilon();
            drop(server);

            let mut rng2 = StdRng::seed_from_u64(11);
            let mut recovered = build(&config, &mut rng2);
            let landed = recovered.recover(&dir).expect("recover");
            assert_eq!(landed, want_rounds, "{point}/{mix}");
            assert_eq!(
                recovered.last_committed_report().cloned(),
                want_report,
                "{point}/{mix}: scrubbed report must round-trip"
            );
            assert_eq!(
                recovered.last_committed_report().map(RoundReport::digest),
                want_digest,
                "{point}/{mix}: report digest must match"
            );
            assert!(
                recovered.accountant().total_epsilon() >= dying_eps - 1e-9,
                "{point}/{mix}: recovered ε under-reports"
            );

            // The recovered server keeps making committed progress.
            recovered.set_fault_plan(plan);
            run_round(&mut recovered, 201, &mut rng2)
                .unwrap_or_else(|e| panic!("{point}/{mix}: no post-recovery commit: {e}"));
            assert_eq!(recovered.committed_rounds(), landed + 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The headline invariant: ε is journaled at round-begin, so a round torn
/// at any point after the begin record is *charged* during recovery —
/// leakage is over-reported, never under-reported.
#[test]
fn torn_round_epsilon_is_charged_conservatively() {
    let dir = state_dir("torn-eps");
    let config = crash_config(PrivacyConfig::with_epsilon(0.7), 1);
    let mut rng = StdRng::seed_from_u64(23);
    let mut server = build(&config, &mut rng);
    server.enable_durability(&dir).expect("enable durability");
    warm_up(&mut server, &mut rng);
    let committed_eps = server.accountant().total_epsilon();

    server.arm_crash_point(CrashPoint::PostJournalBegin);
    let crash = run_round(&mut server, 100, &mut rng);
    assert!(matches!(crash, Err(FedoraError::CrashInjected { .. })));
    drop(server);

    let mut rng2 = StdRng::seed_from_u64(23);
    let mut recovered = build(&config, &mut rng2);
    let landed = recovered.recover(&dir).expect("recover");
    assert_eq!(landed, WARMUP_ROUNDS, "torn round must not commit");
    assert!(
        recovered.accountant().total_epsilon() >= committed_eps + 0.7 - 1e-9,
        "torn round's intended ε must be charged (got {}, committed {committed_eps})",
        recovered.accountant().total_epsilon()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deleting the newest checkpoint and restoring from the older generation
/// is a rollback: the journal's newest commit record postdates the
/// checkpoint, and recovery must refuse with `IntegrityError::Rollback`.
#[test]
fn stale_checkpoint_restore_is_detected_as_rollback() {
    let dir = state_dir("stale");
    let config = crash_config(PrivacyConfig::with_epsilon(0.5), 1);
    let mut rng = StdRng::seed_from_u64(31);
    let mut server = build(&config, &mut rng);
    server.enable_durability(&dir).expect("enable durability");
    for round in 0..3 {
        run_round(&mut server, round, &mut rng).expect("round");
    }
    drop(server);

    let generations = fedora::durable::list_checkpoints(&dir).expect("list");
    let newest = *generations.last().expect("checkpoints exist");
    std::fs::remove_file(dir.join(format!("ckpt-{newest:020}.bin"))).expect("delete newest");

    let mut rng2 = StdRng::seed_from_u64(31);
    let mut recovered = build(&config, &mut rng2);
    let err = recovered
        .recover(&dir)
        .expect_err("stale restore must fail");
    assert!(
        matches!(
            err,
            FedoraError::Oram(OramError::Integrity {
                kind: IntegrityError::Rollback,
                ..
            })
        ),
        "expected rollback detection, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos campaigns are reproducible across restarts: two independent runs
/// under the same [`FaultPlan`] journal identical per-round injector
/// seeds, all derived from the plan — including rounds run *after* a
/// crash/recovery on one side only.
#[test]
fn fault_plan_seeds_replay_identically_across_restart() {
    let plan = FaultPlan {
        master_seed: 0xFEED,
        bitflip: 0.0,
        rollback: 0.0,
        transient: 0.0,
    };
    let begins = |dir: &Path| -> Vec<(u64, Option<u64>)> {
        read_records(dir, &journal_key())
            .expect("read journal")
            .into_iter()
            .filter_map(|r| match r {
                JournalRecord::Begin(b) => Some((b.round, b.fault_seed)),
                JournalRecord::Commit(_) => None,
            })
            .collect()
    };

    // Campaign A: two rounds, crash, recover, one more round.
    let dir_a = state_dir("replay-a");
    let config = crash_config(PrivacyConfig::perfect(), 1);
    let mut rng = StdRng::seed_from_u64(41);
    let mut server = build(&config, &mut rng);
    server.enable_durability(&dir_a).expect("enable durability");
    server.set_fault_plan(plan);
    warm_up(&mut server, &mut rng);
    server.arm_crash_point(CrashPoint::PostJournalBegin);
    assert!(run_round(&mut server, 100, &mut rng).is_err());
    drop(server);
    let mut recovered = build(&config, &mut rng);
    recovered.recover(&dir_a).expect("recover");
    recovered.set_fault_plan(plan);
    run_round(&mut recovered, 100, &mut rng).expect("post-recovery round");
    drop(recovered);

    // Campaign B: three uninterrupted rounds under the same plan.
    let dir_b = state_dir("replay-b");
    let mut rng_b = StdRng::seed_from_u64(43);
    let mut server_b = build(&config, &mut rng_b);
    server_b
        .enable_durability(&dir_b)
        .expect("enable durability");
    server_b.set_fault_plan(plan);
    for round in 0..3 {
        run_round(&mut server_b, round, &mut rng_b).expect("round");
    }
    drop(server_b);

    let seeds_a = begins(&dir_a);
    let seeds_b = begins(&dir_b);
    for (round, seed) in seeds_a.iter().chain(seeds_b.iter()) {
        assert_eq!(
            *seed,
            Some(plan.round_seed(*round)),
            "round {round}: journaled seed must be plan-derived"
        );
    }
    // Same committed round number → same injector seed, on both sides of
    // the restart and across independent campaigns.
    let per_round = |seeds: &[(u64, Option<u64>)], round: u64| -> Vec<Option<u64>> {
        seeds
            .iter()
            .filter(|(r, _)| *r == round)
            .map(|(_, s)| *s)
            .collect()
    };
    for round in 0..3 {
        let a = per_round(&seeds_a, round);
        let b = per_round(&seeds_b, round);
        assert!(!a.is_empty() && !b.is_empty(), "round {round} missing");
        assert_eq!(a[0], b[0], "round {round}: campaigns diverged");
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Copies every regular file of a state dir (checkpoints + journal) into
/// a fresh directory — the twin-audit factory hands each traced run its
/// own private copy so both twins start from the identical recovered
/// state.
fn clone_state_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create clone dir");
    for entry in std::fs::read_dir(src).expect("read state dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy state file");
    }
}

/// The acceptance invariant: the twin-run obliviousness auditor passes
/// unchanged on *crash-recovered* servers, at 1 and 4 worker threads.
/// Both twins recover from copies of the same post-crash state dir, so
/// any recovery-induced trace divergence would be flagged.
#[test]
fn twin_audit_passes_on_recovered_servers_at_1_and_4_threads() {
    // Prepare one post-crash state dir: committed rounds, then a kill.
    let base = state_dir("audit-base");
    let prep_config = crash_config(PrivacyConfig::perfect(), 1);
    let mut rng = StdRng::seed_from_u64(53);
    let mut server = build(&prep_config, &mut rng);
    server.enable_durability(&base).expect("enable durability");
    warm_up(&mut server, &mut rng);
    server.arm_crash_point(CrashPoint::MidEvictionWrite);
    assert!(run_round(&mut server, 100, &mut rng).is_err());
    drop(server);

    let (reqs_a, reqs_b) = twin_inputs(8);
    for threads in [1usize, 4] {
        let config = crash_config(PrivacyConfig::perfect(), threads);
        let mut clones = 0u32;
        let base_ref = base.clone();
        let mut factory = |rng: &mut StdRng| -> Result<FedoraServer, FedoraError> {
            clones += 1;
            let dir = state_dir(&format!("audit-t{threads}-{clones}"));
            clone_state_dir(&base_ref, &dir);
            let mut server = build(&config, rng);
            server.recover(&dir)?;
            Ok(server)
        };
        let outcome = audit_twin_inputs_with(&config, &mut factory, 59, &reqs_a, &reqs_b, 2)
            .expect("audit on recovered servers");
        assert!(
            outcome.canonical_equal,
            "threads {threads}: recovered twins diverged"
        );
        assert_eq!(
            outcome.verdict,
            AuditVerdict::Oblivious,
            "threads {threads}: {:?}",
            outcome.verdict
        );
        for clone in 1..=clones {
            let _ = std::fs::remove_dir_all(state_dir(&format!("audit-t{threads}-{clone}")));
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Recovery is idempotent: two independent restores from the same state
/// dir land on the same round, report digest, and ε total.
#[test]
fn recovery_is_idempotent_across_independent_restores() {
    let dir = state_dir("idempotent");
    let config = crash_config(PrivacyConfig::with_epsilon(0.5), 1);
    let mut rng = StdRng::seed_from_u64(67);
    let mut server = build(&config, &mut rng);
    server.enable_durability(&dir).expect("enable durability");
    warm_up(&mut server, &mut rng);
    server.arm_crash_point(CrashPoint::PostJournalBegin);
    let _ = run_round(&mut server, 100, &mut rng);
    drop(server);

    let restore = || {
        let mut rng = StdRng::seed_from_u64(71);
        let mut recovered = build(&config, &mut rng);
        let landed = recovered.recover(&dir).expect("recover");
        (
            landed,
            recovered.last_committed_report().map(RoundReport::digest),
            recovered.accountant().total_epsilon(),
        )
    };
    assert_eq!(restore(), restore());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scrape-side consumer holding a pre-crash snapshot must survive the
/// restart: the recovered server's fresh registry restarts most counters
/// from zero, and `Snapshot::delta` across that reset saturates instead
/// of underflowing or panicking — the live-ops analogue of the
/// telemetry-level reset tests.
#[test]
fn snapshot_delta_across_recover_saturates_counter_resets() {
    let dir = state_dir("delta-reset");
    let config = crash_config(PrivacyConfig::with_epsilon(1.0), 1);
    let mut rng = StdRng::seed_from_u64(17);
    let mut server = build(&config, &mut rng);
    server.enable_durability(&dir).expect("enable durability");
    for round in 0..4 {
        run_round(&mut server, round, &mut rng).expect("round");
    }
    let pre = server.registry().snapshot();
    assert_eq!(
        pre.histogram("round.latency").map(|h| h.count),
        Some(4),
        "pre-crash server recorded four rounds"
    );
    drop(server);

    let mut rng2 = StdRng::seed_from_u64(17);
    let mut recovered = build(&config, &mut rng2);
    recovered.recover(&dir).expect("recover");
    run_round(&mut recovered, 99, &mut rng2).expect("post-recover round");
    let post = recovered.registry().snapshot();
    // The histogram restarted: one post-restart round versus four before
    // the crash — the raw difference would underflow.
    let post_lat = post.histogram("round.latency").expect("post histogram");
    assert_eq!(post_lat.count, 1, "fresh registry restarted the histogram");

    let window = post.delta(&pre);
    // rounds_completed is restored by recover() (it re-adds the committed
    // count), so its window is exactly the one real post-restart round.
    assert_eq!(window.counter("fl.rounds.completed"), Some(1));
    // Every windowed counter saturates — none exceeds its post-restart
    // total, and none underflowed into a huge wrapped value.
    for (name, value) in &window.counters {
        let total = post.counter(name).unwrap_or(0);
        assert!(
            *value <= total,
            "{name}: window {value} exceeds post-restart total {total}"
        );
    }
    // The histogram window saturates bucket-wise to an empty-ish window
    // rather than panicking.
    let win_lat = window.histogram("round.latency").expect("window histogram");
    assert!(win_lat.count <= post_lat.count);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The server's SSD as recovery must rebuild it: every page, plus the
/// metadata codec (written-page map and `DeviceStats`).
fn device_image(server: &FedoraServer) -> (Vec<Vec<u8>>, Vec<u8>) {
    let ssd = server.main_oram().store().ssd();
    let pages = (0..ssd.num_pages())
        .map(|p| ssd.snapshot_page(p).expect("page"))
        .collect();
    let mut meta = ByteWriter::new();
    ssd.encode_state(&mut meta);
    (pages, meta.into_bytes())
}

fn checkpoint_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation:020}.bin"))
}

/// At every crash point, and with no crash, the recovered device equals
/// the device at the last commit byte for byte, including pages that a
/// between-rounds bucket repair wrote and a manual checkpoint carried.
#[test]
fn recovered_device_equals_the_last_commit_byte_for_byte() {
    for point in [None].into_iter().chain(CrashPoint::all().map(Some)) {
        let tag = point.map_or("none", CrashPoint::name);
        let dir = state_dir(&format!("device-{tag}"));
        let config = crash_config(PrivacyConfig::perfect(), 1);
        let mut rng = StdRng::seed_from_u64(13);
        let mut server = build(&config, &mut rng);
        server.enable_durability(&dir).expect("enable durability");
        warm_up(&mut server, &mut rng);
        let leaf = server.main_oram().store().ssd().num_pages()
            / server.main_oram().store().pages_per_bucket()
            - 1;
        server.repair_bucket(leaf).expect("repair");
        let stats = server.checkpoint().expect("checkpoint");
        assert!(
            stats.redo_pages > 0,
            "{tag}: the repair's pages ride in the redo"
        );
        run_round(&mut server, 3, &mut rng).expect("round after the repair");
        let mut committed = device_image(&server);
        if let Some(point) = point {
            server.arm_crash_point(point);
            let crash = run_round(&mut server, 4, &mut rng);
            assert!(
                matches!(crash, Err(FedoraError::CrashInjected { .. })),
                "{tag}: {crash:?}"
            );
            if point == CrashPoint::PostDataSyncPreCommit {
                // The round's checkpoint is durable: recovery lands on it.
                committed = device_image(&server);
            }
        }
        drop(server);

        let mut recovered = build(&config, &mut StdRng::seed_from_u64(13));
        recovered.recover(&dir).expect("recover");
        assert!(
            device_image(&recovered) == committed,
            "{tag}: recovered device differs from the last commit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash while the image is being brought up to date tears the apply:
/// half of a generation's pages reach `device.img`, half do not. Recovery
/// must finish that apply before the next commit prunes the generation.
#[test]
fn torn_image_apply_is_finished_by_recovery() {
    let dir = state_dir("torn-apply");
    let config = crash_config(PrivacyConfig::perfect(), 1);
    let mut rng = StdRng::seed_from_u64(29);
    let mut server = build(&config, &mut rng);
    server.enable_durability(&dir).expect("enable durability");
    run_round(&mut server, 1, &mut rng).expect("round 1");
    // Generation g = 1 holds round 1; its pages reach the image when
    // generation g + 1 commits.
    let g = 1;
    let redo = load_checkpoint(&dir, &journal_key(), g)
        .expect("generation g")
        .redo;
    let before_apply = std::fs::read(dir.join("device.img")).expect("image");
    run_round(&mut server, 2, &mut rng).expect("round 2");
    let next = load_checkpoint(&dir, &journal_key(), g + 1)
        .expect("generation g + 1")
        .redo;
    let committed = device_image(&server);
    drop(server);

    // Undo half of generation g's pages, preferring those generation
    // g + 1 does not rewrite (replaying g + 1 would mask the others).
    let mut torn: Vec<u64> = redo
        .pages
        .iter()
        .copied()
        .filter(|p| !next.pages.contains(p))
        .collect();
    assert!(!torn.is_empty(), "generation g must own pages of its own");
    torn.truncate(redo.pages.len().div_ceil(2));
    let mut image = std::fs::read(dir.join("device.img")).expect("image");
    let pb = redo.page_bytes;
    for &p in &torn {
        let at = p as usize * pb;
        assert_ne!(
            image[at..at + pb],
            before_apply[at..at + pb],
            "page {p} was applied"
        );
        image[at..at + pb].copy_from_slice(&before_apply[at..at + pb]);
    }
    std::fs::write(dir.join("device.img"), &image).expect("tear the apply");

    let mut rng2 = StdRng::seed_from_u64(31);
    let mut recovered = build(&config, &mut rng2);
    assert_eq!(recovered.recover(&dir).expect("recover"), 2);
    assert!(
        device_image(&recovered) == committed,
        "device after the torn apply"
    );

    // One more round prunes generation g; the image must not need it.
    run_round(&mut recovered, 3, &mut rng2).expect("round 3");
    assert!(!list_checkpoints(&dir).expect("list").contains(&g));
    let committed = device_image(&recovered);
    drop(recovered);
    let mut again = build(&config, &mut StdRng::seed_from_u64(37));
    assert_eq!(again.recover(&dir).expect("recover again"), 3);
    assert!(device_image(&again) == committed, "device after the prune");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint damaged after its lost commit marker: recovery falls back
/// to the previous generation, and the image (one generation behind)
/// still rebuilds that generation's device exactly.
#[test]
fn damaged_newest_checkpoint_falls_back_with_its_device() {
    let dir = state_dir("fallback");
    let config = crash_config(PrivacyConfig::perfect(), 1);
    let mut rng = StdRng::seed_from_u64(43);
    let mut server = build(&config, &mut rng);
    server.enable_durability(&dir).expect("enable durability");
    warm_up(&mut server, &mut rng);
    let committed = device_image(&server);
    server.arm_crash_point(CrashPoint::PostDataSyncPreCommit);
    assert!(matches!(
        run_round(&mut server, 100, &mut rng),
        Err(FedoraError::CrashInjected { .. })
    ));
    drop(server);

    let newest = *list_checkpoints(&dir)
        .expect("list")
        .last()
        .expect("newest");
    let path = checkpoint_path(&dir, newest);
    let mut bytes = std::fs::read(&path).expect("newest checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("damage it");

    let mut rng2 = StdRng::seed_from_u64(47);
    let mut recovered = build(&config, &mut rng2);
    assert_eq!(recovered.recover(&dir).expect("recover"), WARMUP_ROUNDS);
    assert!(device_image(&recovered) == committed, "fallback device");

    // The next commit builds on the generation recovery landed on and
    // prunes the damaged one.
    run_round(&mut recovered, 101, &mut rng2).expect("post-recovery round");
    assert!(!list_checkpoints(&dir).expect("list").contains(&newest));
    let committed = device_image(&recovered);
    drop(recovered);
    let mut again = build(&config, &mut StdRng::seed_from_u64(53));
    assert_eq!(
        again.recover(&dir).expect("recover again"),
        WARMUP_ROUNDS + 1
    );
    assert!(
        device_image(&again) == committed,
        "device after the fallback"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
