//! Crash-point chaos campaign: kill/restore cycles over every named
//! crash point × fault mix, asserting the durability contract as it goes.
//!
//! Usage: `crash_campaign [cycles] [seed] [--metrics-out PATH]
//! [--trace-out PATH]` (defaults: 3 cycles, seed 7). Each cycle runs, for
//! every crash point × fault mix: a few committed warm-up rounds under a
//! journaled fault plan, then a round with the crash point armed — the
//! "kill" — then recovery on a fresh server, asserting:
//!
//! * recovery lands exactly on the committed round count the dying server
//!   had durably reached;
//! * the recovered last-committed round report is byte-identical to the
//!   dying server's;
//! * the recovered accountant's cumulative ε is never below the dying
//!   server's committed total (torn rounds are *over*-charged);
//! * the journaled per-round fault seeds match the plan's derivation, so
//!   the chaos stream is reproducible across the restart;
//! * the recovered server commits further rounds and a final scrub of its
//!   main ORAM comes back clean.

use fedora::config::{FedoraConfig, PrivacyConfig, TableSpec};
use fedora::durable::{read_records, CrashPoint, FaultPlan, JournalRecord};
use fedora::server::{FedoraError, FedoraServer};
use fedora_bench::outopts::{positional, usage_exit};
use fedora_fl::modes::FedAvg;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 8;
const NUM_ENTRIES: u64 = 256;
const REQS_PER_ROUND: u64 = 24;
const WARMUP_ROUNDS: u64 = 2;

const USAGE: &str = "usage: crash_campaign [cycles] [seed] [--metrics-out PATH] [--trace-out PATH]";

/// Positional argument `n` (`name` in errors), or `default` when absent;
/// a value that does not parse exits with the usage text.
fn arg<T: std::str::FromStr>(args: &[String], n: usize, name: &str, default: T) -> T {
    positional(args, n, name)
        .unwrap_or_else(|e| usage_exit(&e, USAGE))
        .unwrap_or(default)
}

fn build_server(rng: &mut StdRng) -> FedoraServer {
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(NUM_ENTRIES), 64);
    config.privacy = PrivacyConfig::with_epsilon(0.5);
    config.fault_tolerance.max_read_retries = 16;
    FedoraServer::new(
        config,
        |id| (0..DIM).flat_map(|_| (id as f32).to_le_bytes()).collect(),
        rng,
    )
}

fn run_round(server: &mut FedoraServer, round: u64, rng: &mut StdRng) -> Result<(), FedoraError> {
    let reqs: Vec<u64> = (0..REQS_PER_ROUND)
        .map(|i| (i * 7 + round * 13) % NUM_ENTRIES)
        .collect();
    server.begin_round(&reqs, rng)?;
    let mode = FedAvg;
    for &id in &reqs {
        // At finite ε not every request is fetched (k < k_union drops
        // some); only served entries take a gradient.
        if server.serve(id, rng)?.is_some() {
            server.aggregate(&mode, id, &[0.125; DIM], 1, rng)?;
        }
    }
    let mut mode = FedAvg;
    server.end_round(&mut mode, 0.5, rng)?;
    Ok(())
}

fn main() {
    let (opts, args) = fedora_bench::outopts::OutputOpts::from_env();
    let cycles: u64 = arg(&args, 0, "cycles", 3);
    let seed: u64 = arg(&args, 1, "seed", 7);

    // (label, bitflip, rollback, transient) per device operation. Bit
    // flips heal on re-read within the retry budget; transients retry.
    let fault_mixes: [(&str, f64, f64, f64); 3] = [
        ("clean", 0.0, 0.0, 0.0),
        ("transient", 0.0, 0.0, 0.15),
        ("bitflip+transient", 0.10, 0.0, 0.10),
    ];

    println!("Crash-recovery campaign: {cycles} cycles, seed {seed}");
    println!(
        "{:<28} {:<18} {:>9} {:>9} {:>12} {:>12}",
        "crash point", "fault mix", "committed", "recovered", "ε committed", "ε recovered"
    );

    let root = std::env::temp_dir().join(format!("fedora-crash-campaign-{}", std::process::id()));
    let mut kills = 0u64;
    let mut recoveries = 0u64;
    let mut torn_rounds = 0u64;

    for cycle in 0..cycles {
        for point in CrashPoint::all() {
            for &(mix, bitflip, rollback, transient) in &fault_mixes {
                let dir = root.join(format!("c{cycle}-{point}-{mix}"));
                let plan = FaultPlan {
                    master_seed: seed ^ cycle,
                    bitflip,
                    rollback,
                    transient,
                };
                let run_seed = seed + cycle * 1000;
                let mut rng = StdRng::seed_from_u64(run_seed);
                let mut server = build_server(&mut rng);
                server.enable_durability(&dir).expect("enable durability");
                server.set_fault_plan(plan);
                server.set_round_seed_hint(run_seed);
                // The retry budget absorbs every fault mix, and an abort
                // would stop the server: each warm-up round must commit.
                for round in 1..=WARMUP_ROUNDS {
                    run_round(&mut server, round, &mut rng)
                        .unwrap_or_else(|e| panic!("{point}/{mix}: warm-up round: {e}"));
                }
                let committed = server.committed_rounds();
                let committed_eps = server.accountant().total_epsilon();
                assert_eq!(committed, WARMUP_ROUNDS);

                // The kill: arm the crash point and run one more round.
                server.arm_crash_point(point);
                match run_round(&mut server, WARMUP_ROUNDS, &mut rng) {
                    Err(FedoraError::CrashInjected { .. }) => kills += 1,
                    // A fault abort (which stops the server) or a
                    // zero-ORAM-access round can beat a mid-round point to
                    // it; recovery must still hold.
                    Err(e) => println!("crash round abort under {mix}: {e}"),
                    Ok(()) => {}
                }
                let want_rounds = server.committed_rounds();
                let want_report = server.last_committed_report().cloned();
                let dying_eps = server.accountant().total_epsilon();
                drop(server); // process death

                // Recovery on a fresh same-config server.
                let mut rng2 = StdRng::seed_from_u64(run_seed);
                let mut recovered = build_server(&mut rng2);
                let landed = recovered.recover(&dir).expect("recover");
                assert_eq!(
                    landed, want_rounds,
                    "{point}/{mix}: recovery must land on the last committed round"
                );
                assert_eq!(
                    recovered.last_committed_report().cloned(),
                    want_report,
                    "{point}/{mix}: recovered report must be byte-identical"
                );
                let recovered_eps = recovered.accountant().total_epsilon();
                assert!(
                    recovered_eps >= dying_eps - 1e-9,
                    "{point}/{mix}: recovery under-reported ε ({recovered_eps} < {dying_eps})"
                );
                if landed == WARMUP_ROUNDS {
                    torn_rounds += 1;
                    assert!(
                        recovered_eps >= committed_eps + 0.5 - 1e-9,
                        "{point}/{mix}: torn round ε was not charged"
                    );
                }

                // Journaled fault seeds match the plan's derivation.
                let key = fedora_crypto::aead::Key::from_bytes([0x5E; 32]).derive_subkey("durable");
                for rec in read_records(&dir, &key).expect("read journal") {
                    if let JournalRecord::Begin(b) = rec {
                        assert_eq!(
                            b.fault_seed,
                            Some(plan.round_seed(b.round)),
                            "{point}/{mix}: journaled seed must be plan-derived"
                        );
                        assert_eq!(b.seed_hint, run_seed);
                    }
                }

                // The recovered server makes committed progress and its
                // tree is intact.
                recovered.set_fault_plan(plan);
                run_round(&mut recovered, landed, &mut rng2).expect("post-recovery round");
                assert_eq!(recovered.committed_rounds(), landed + 1);
                recovered.clear_fault_plan();
                let scrub = recovered.scrub().expect("scrub");
                assert!(scrub.is_clean(), "{point}/{mix}: {:?}", scrub.failed);
                recoveries += 1;

                println!(
                    "{:<28} {:<18} {:>9} {:>9} {:>12.2} {:>12.2}",
                    point.name(),
                    mix,
                    committed,
                    landed,
                    committed_eps,
                    recovered_eps
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);

    println!("\n=== campaign totals ===");
    println!(
        "kill/restore cycles: {recoveries}   crashes fired: {kills}   torn rounds: {torn_rounds}"
    );
    println!("OK: every crash point recovered to the last committed round");

    if opts.any() {
        let registry = fedora_telemetry::Registry::new();
        registry
            .gauge("campaign.crash.cycles")
            .set(recoveries as f64);
        registry.gauge("campaign.crash.kills").set(kills as f64);
        registry
            .gauge("campaign.crash.torn_rounds")
            .set(torn_rounds as f64);
        if let Err(msg) = opts.write(&registry.snapshot()) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
