//! Fault-tolerance campaign: drives the live FEDORA pipeline under
//! seeded chaos injection and reports detection/recovery accounting.
//!
//! Usage: `fault_campaign [rounds] [seed] [bitflip] [rollback] [transient]
//! [--metrics-out PATH] [--trace-out PATH]` (rates are per device
//! operation; defaults:
//! 40 rounds, seed 7, 0.25 / 0.10 / 0.15). With `--metrics-out` the
//! campaign totals are written as a telemetry JSON snapshot: the live
//! registry (oram/storage/crypto/integrity/fl series) plus
//! `campaign.*` gauges mirroring the printed summary.
//!
//! The run asserts the system's invariants as it goes: every injected
//! fault is detected exactly once, recovered reads outnumber quarantines,
//! and a final scrub of the tree comes back clean.

use fedora::config::{FedoraConfig, PrivacyConfig, TableSpec};
use fedora::server::FedoraServer;
use fedora_bench::outopts::{positional, usage_exit};
use fedora_fl::modes::FedAvg;
use fedora_storage::FaultConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 8;
const NUM_ENTRIES: u64 = 256;
const REQS_PER_ROUND: u64 = 48;

const USAGE: &str = "usage: fault_campaign [rounds] [seed] [bitflip] [rollback] [transient] \
                     [--metrics-out PATH] [--trace-out PATH]";

/// Positional argument `n` (`name` in errors), or `default` when absent;
/// a value that does not parse exits with the usage text.
fn arg<T: std::str::FromStr>(args: &[String], n: usize, name: &str, default: T) -> T {
    positional(args, n, name)
        .unwrap_or_else(|e| usage_exit(&e, USAGE))
        .unwrap_or(default)
}

fn main() {
    // Strip the output flag pairs before positional parsing.
    let (opts, args) = fedora_bench::outopts::OutputOpts::from_env();
    let rounds: u64 = arg(&args, 0, "rounds", 40);
    let seed: u64 = arg(&args, 1, "seed", 7);
    let bitflip: f64 = arg(&args, 2, "bitflip", 0.25);
    let rollback: f64 = arg(&args, 3, "rollback", 0.10);
    let transient: f64 = arg(&args, 4, "transient", 0.15);

    let mut config = FedoraConfig::for_testing(TableSpec::tiny(NUM_ENTRIES), 64);
    config.privacy = PrivacyConfig::none();
    config.fault_tolerance.max_read_retries = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut server = FedoraServer::with_telemetry(
        config,
        |id| (0..DIM).flat_map(|_| (id as f32).to_le_bytes()).collect(),
        opts.registry(),
        &mut rng,
    );

    println!("Fault-tolerance campaign: {rounds} rounds, seed {seed}");
    println!("rates/op: bitflip {bitflip}, rollback {rollback}, transient {transient}\n");
    server.arm_faults(FaultConfig::chaos(seed, bitflip, rollback, transient));

    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>10} {:>11} {:>11}",
        "round", "bitflips", "rollbacks", "transients", "recovered", "quarantined", "aborts"
    );
    for round in 0..rounds {
        let reqs: Vec<u64> = (0..REQS_PER_ROUND)
            .map(|i| (i * 7 + round * 13) % NUM_ENTRIES)
            .collect();
        let mode = FedAvg;
        match server.begin_round(&reqs, &mut rng) {
            Ok(_) => {}
            Err(e) => {
                println!("round {round}: aborted ({e})");
                break;
            }
        }
        for &id in &reqs {
            server.serve(id, &mut rng).expect("serve");
            server
                .aggregate(&mode, id, &[0.125; DIM], 1, &mut rng)
                .expect("aggregate");
        }
        let mut mode = FedAvg;
        if let Err(e) = server.end_round(&mut mode, 0.5, &mut rng) {
            println!("round {round}: write phase aborted ({e})");
            break;
        }
        let f = server.fault_stats();
        let i = server.integrity_stats();
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>10} {:>11} {:>11}",
            round,
            f.bitflips,
            f.rollbacks,
            f.transients,
            i.recovered,
            i.quarantined,
            server.aborts().len()
        );
    }

    let injected = server.fault_stats();
    let integ = server.integrity_stats();
    println!("\n=== campaign totals ===");
    println!("injected : {injected:?}");
    println!(
        "detected : corruption {}, rollback {}, transient {}",
        integ.detected_corruption, integ.detected_rollback, integ.transient_retries
    );
    println!(
        "recovered: {}   quarantined: {}   aborted rounds: {}",
        integ.recovered,
        integ.quarantined,
        server.aborts().len()
    );
    assert_eq!(
        integ.detected_corruption, injected.bitflips,
        "undetected bit flip!"
    );
    assert_eq!(
        integ.detected_rollback, injected.rollbacks,
        "undetected rollback!"
    );
    assert_eq!(
        integ.transient_retries, injected.transients,
        "unaccounted transient!"
    );

    server.disarm_faults();
    let scrub = server.scrub().expect("scrub between rounds");
    println!(
        "final scrub: {} buckets checked, {} failed",
        scrub.checked,
        scrub.failed.len()
    );
    assert!(
        scrub.is_clean(),
        "silent corruption survived the campaign: {:?}",
        scrub.failed
    );
    println!(
        "\nOK: 100% detection, zero silent corruption, {} rounds completed",
        server.committed_rounds()
    );

    if opts.any() {
        let registry = server.registry();
        registry
            .gauge("campaign.injected.bitflips")
            .set(injected.bitflips as f64);
        registry
            .gauge("campaign.injected.rollbacks")
            .set(injected.rollbacks as f64);
        registry
            .gauge("campaign.injected.transients")
            .set(injected.transients as f64);
        registry
            .gauge("campaign.recovered")
            .set(integ.recovered as f64);
        registry
            .gauge("campaign.quarantined")
            .set(integ.quarantined as f64);
        registry
            .gauge("campaign.aborted_rounds")
            .set(server.aborts().len() as f64);
        registry
            .gauge("campaign.completed_rounds")
            .set(server.committed_rounds() as f64);
        if let Err(msg) = opts.write(&server.registry().snapshot()) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
