//! Cross-crate integration: the full FEDORA pipeline vs the Path ORAM+
//! baseline on identical workloads, and the analytic model vs the
//! simulated devices.

use fedora::analytic::{fedora_round, path_oram_plus_round};
use fedora::baseline::PathOramPlus;
use fedora::config::{FedoraConfig, PrivacyConfig, TableSpec};
use fedora::server::FedoraServer;
use fedora_fl::modes::{AggregationMode, Eana, FedAdam, FedAvg, LazyDp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: u64 = 1024;
const MAX_REQ: usize = 128;

fn workload(rng: &mut StdRng, rounds: usize) -> Vec<Vec<u64>> {
    (0..rounds)
        .map(|_| {
            (0..64)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        rng.gen_range(0..16)
                    } else {
                        rng.gen_range(0..TABLE)
                    }
                })
                .collect()
        })
        .collect()
}

fn fedora_server(privacy: PrivacyConfig, seed: u64) -> (FedoraServer, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(TABLE), MAX_REQ);
    config.privacy = privacy;
    let server = FedoraServer::new(config, |id| vec![(id % 251) as u8; 32], &mut rng);
    (server, rng)
}

#[test]
fn fedora_and_baseline_serve_identical_data() {
    let (mut fed, mut rng_f) = fedora_server(PrivacyConfig::none(), 1);
    let mut rng_b = StdRng::seed_from_u64(2);
    let config = FedoraConfig::for_testing(TableSpec::tiny(TABLE), MAX_REQ);
    let mut base = PathOramPlus::new(config, |id| vec![(id % 251) as u8; 32], &mut rng_b);

    let mut wl_rng = StdRng::seed_from_u64(3);
    for reqs in workload(&mut wl_rng, 5) {
        fed.begin_round(&reqs, &mut rng_f).expect("fedora round");
        base.begin_round(&reqs, &mut rng_b).expect("baseline round");
        for &id in &reqs {
            let f = fed
                .serve(id, &mut rng_f)
                .expect("serve")
                .expect("eps=inf never loses");
            let b = base.serve(id, &mut rng_b).expect("serve");
            assert_eq!(f, b, "entry {id} diverged between systems");
        }
        let mut mode = FedAvg;
        fed.end_round(&mut mode, 1.0, &mut rng_f)
            .expect("fedora end");
        base.end_round(&mut mode, 1.0, &mut rng_b)
            .expect("baseline end");
    }
}

#[test]
fn fedora_writes_far_less_than_baseline() {
    let (mut fed, mut rng_f) = fedora_server(PrivacyConfig::with_epsilon(1.0), 4);
    let mut rng_b = StdRng::seed_from_u64(5);
    let config = FedoraConfig::for_testing(TableSpec::tiny(TABLE), MAX_REQ);
    let mut base = PathOramPlus::new(config, |_id| vec![0u8; 32], &mut rng_b);

    let mut wl_rng = StdRng::seed_from_u64(6);
    let mut mode = FedAvg;
    for reqs in workload(&mut wl_rng, 10) {
        fed.begin_round(&reqs, &mut rng_f).expect("round");
        fed.end_round(&mut mode, 1.0, &mut rng_f).expect("end");
        base.begin_round(&reqs, &mut rng_b).expect("round");
        base.end_round(&mut mode, 1.0, &mut rng_b).expect("end");
    }
    let fed_w = fed.ssd_stats().bytes_written;
    let base_w = base.ssd_stats().bytes_written;
    assert!(
        base_w > 8 * fed_w,
        "baseline wrote {base_w}, FEDORA {fed_w}: reduction too small"
    );
    // Reads are also lower (dedup), though less dramatically.
    assert!(base.ssd_stats().bytes_read > fed.ssd_stats().bytes_read);
}

#[test]
fn analytic_counts_match_simulated_pipeline_exactly() {
    let (mut fed, mut rng) = fedora_server(PrivacyConfig::none(), 7);
    let mut mode = FedAvg;
    let mut total_k = 0u64;
    let mut wl_rng = StdRng::seed_from_u64(8);
    for reqs in workload(&mut wl_rng, 8) {
        let rep = fed.begin_round(&reqs, &mut rng).expect("round");
        total_k += rep.k_accesses as u64;
        fed.end_round(&mut mode, 1.0, &mut rng).expect("end");
    }
    let geo = fed.config().geometry;
    let a = fed.config().raw.eviction_period;
    let predicted = fedora_round(&geo, total_k, a, 4096);
    let measured = fed.ssd_stats();
    // Reads: AO paths are exact; EO boundary effects allow ±A accesses of
    // rounding between rounds.
    let pp = geo.num_levels() as u64 * geo.pages_per_bucket(4096);
    assert!(
        (predicted.pages_read as i64 - measured.pages_read as i64).unsigned_abs() <= 2 * pp * 8,
        "pages_read predicted {} vs measured {}",
        predicted.pages_read,
        measured.pages_read
    );
    assert!(
        (predicted.pages_written as i64 - measured.pages_written as i64).unsigned_abs()
            <= 2 * pp * 8,
        "pages_written predicted {} vs measured {}",
        predicted.pages_written,
        measured.pages_written
    );
}

#[test]
fn analytic_baseline_counts_match_exactly() {
    let mut rng = StdRng::seed_from_u64(9);
    let config = FedoraConfig::for_testing(TableSpec::tiny(TABLE), MAX_REQ);
    let geo = config.geometry;
    let mut base = PathOramPlus::new(config, |_| vec![0u8; 32], &mut rng);
    let mut mode = FedAvg;
    let mut wl_rng = StdRng::seed_from_u64(10);
    let rounds = 6;
    for reqs in workload(&mut wl_rng, rounds) {
        base.begin_round(&reqs, &mut rng).expect("round");
        base.end_round(&mut mode, 1.0, &mut rng).expect("end");
    }
    let predicted = path_oram_plus_round(&geo, (rounds * 64) as u64, 4096);
    let measured = base.ssd_stats();
    assert_eq!(
        predicted.pages_read, measured.pages_read,
        "baseline reads are exact"
    );
    assert_eq!(
        predicted.pages_written, measured.pages_written,
        "baseline writes are exact"
    );
}

#[test]
fn all_aggregation_modes_run_through_pipeline() {
    fn drive<M: AggregationMode>(mut mode: M, seed: u64) -> Vec<f32> {
        let (mut fed, mut rng) = fedora_server(PrivacyConfig::none(), seed);
        for _ in 0..3 {
            fed.begin_round(&[5, 9, 5, 13], &mut rng).expect("round");
            for id in [5u64, 9, 13] {
                fed.aggregate(&mode, id, &[0.25f32; 8], 2, &mut rng)
                    .expect("aggregate");
            }
            fed.end_round(&mut mode, 1.0, &mut rng).expect("end");
        }
        // Read entry 5 back.
        fed.begin_round(&[5], &mut rng).expect("round");
        let bytes = fed.serve(5, &mut rng).expect("serve").expect("present");
        let mut m = FedAvg;
        fed.end_round(&mut m, 1.0, &mut rng).expect("end");
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }

    let fedavg = drive(FedAvg, 20);
    let fedadam = drive(FedAdam::new(), 21);
    let eana = drive(Eana::new(1.0, 0.05), 22);
    let lazydp = drive(LazyDp::new(1.0, 0.05), 23);
    for (name, vals) in [
        ("fedavg", &fedavg),
        ("fedadam", &fedadam),
        ("eana", &eana),
        ("lazydp", &lazydp),
    ] {
        assert!(
            vals.iter().all(|v| v.is_finite()),
            "{name} produced non-finite values"
        );
        assert!(vals.iter().any(|v| *v != 0.0), "{name} made no progress");
    }
    // Adam's normalized steps differ from FedAvg's raw means.
    assert_ne!(fedavg, fedadam);
}

#[test]
fn buffer_capacity_matches_protocol_maximum() {
    // The buffer ORAM is sized to never overflow at max clients × max
    // features (§4.3): a full-capacity round must succeed.
    let (mut fed, mut rng) = fedora_server(PrivacyConfig::perfect(), 24);
    let reqs: Vec<u64> = (0..MAX_REQ as u64).collect();
    let report = fed.begin_round(&reqs, &mut rng).expect("full round fits");
    assert_eq!(report.k_accesses, MAX_REQ, "perfect privacy reads K");
    let mut mode = FedAvg;
    fed.end_round(&mut mode, 1.0, &mut rng).expect("end");
}

#[test]
fn merkle_free_counters_hold_across_many_rounds() {
    let (mut fed, mut rng) = fedora_server(PrivacyConfig::with_epsilon(0.5), 25);
    let mut mode = FedAvg;
    let mut wl_rng = StdRng::seed_from_u64(26);
    for reqs in workload(&mut wl_rng, 12) {
        fed.begin_round(&reqs, &mut rng).expect("round");
        fed.end_round(&mut mode, 1.0, &mut rng).expect("end");
    }
    assert!(
        fed.scrub().expect("scrub").is_clean(),
        "every bucket must authenticate at the counter its EO count derives"
    );
}
