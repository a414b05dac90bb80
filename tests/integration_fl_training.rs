//! FL-training integration: the FEDORA pipeline vs the reference
//! (non-ORAM) FedAvg loop, and the ε-accuracy trend of Table 1.

use fedora::training::{train_with_fedora, TrainingConfig};
use fedora_fdp::ProtectionMode;
use fedora_fl::client::LocalTrainer;
use fedora_fl::datasets::{Dataset, SyntheticConfig};
use fedora_fl::model::{DlrmConfig, DlrmModel, Pooling};
use fedora_fl::sim::{evaluate_auc, run_reference_fl, FlSimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    let mut cfg = SyntheticConfig::movielens_like();
    cfg.num_users = 64;
    cfg.num_items = 128;
    cfg.samples_per_user = 10;
    cfg.test_samples = 800;
    Dataset::generate(cfg)
}

fn model(seed: u64) -> DlrmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    DlrmModel::new(
        DlrmConfig {
            num_items: 128,
            embedding_dim: 8,
            hidden_dim: 16,
            use_private_history: true,
            pooling: Pooling::Mean,
        },
        &mut rng,
    )
}

fn training_cfg(rounds: usize, protection: Option<(ProtectionMode, f64)>) -> TrainingConfig {
    TrainingConfig {
        users_per_round: 16,
        rounds,
        server_lr: 2.0,
        trainer: LocalTrainer {
            lr: 0.2,
            epochs: 1,
            ..Default::default()
        },
        protection,
        threads: 1,
    }
}

/// With ε = ∞, the pipeline is functionally plain FedAvg: same
/// aggregation semantics, no dummies, no losses. The trained model must
/// reach an AUC comparable to the reference loop's.
#[test]
fn pipeline_matches_reference_fl_at_epsilon_infinity() {
    let data = dataset();
    let rounds = 12;

    let mut ref_model = model(50);
    let mut rng = StdRng::seed_from_u64(51);
    let sim = FlSimConfig {
        users_per_round: 16,
        rounds,
        server_lr: 2.0,
        trainer: LocalTrainer {
            lr: 0.2,
            epochs: 1,
            ..Default::default()
        },
        threads: 1,
    };
    let ref_auc = *run_reference_fl(&mut ref_model, &data, &sim, &mut rng)
        .last()
        .expect("rounds > 0");

    let mut fed_model = model(50);
    let mut rng = StdRng::seed_from_u64(51);
    let out = train_with_fedora(&mut fed_model, &data, &training_cfg(rounds, None), &mut rng)
        .expect("pipeline");
    assert_eq!(out.dummy_rate, 0.0);
    assert_eq!(out.lost_rate, 0.0);
    assert!(
        (out.auc - ref_auc).abs() < 0.05,
        "pipeline AUC {:.4} vs reference {:.4} diverged",
        out.auc,
        ref_auc
    );
}

/// Training through the pipeline actually improves the model.
#[test]
fn pipeline_training_beats_untrained_model() {
    let data = dataset();
    let mut untrained = model(60);
    let base_auc = evaluate_auc(&untrained, &data);

    let mut rng = StdRng::seed_from_u64(61);
    let out = train_with_fedora(
        &mut untrained,
        &data,
        &training_cfg(15, Some((ProtectionMode::HideValue, 1.0))),
        &mut rng,
    )
    .expect("pipeline");
    assert!(
        out.auc > base_auc + 0.02,
        "training gained too little: {base_auc:.4} -> {:.4}",
        out.auc
    );
}

/// Stronger privacy costs (weakly) more noise: ε = 0.1 must produce at
/// least as many dummies+losses as ε = 1.0 relative to the optimum.
#[test]
fn smaller_epsilon_adds_more_noise() {
    let data = dataset();
    let mut rng = StdRng::seed_from_u64(70);
    let mut m1 = model(71);
    let out_1 = train_with_fedora(
        &mut m1,
        &data,
        &training_cfg(8, Some((ProtectionMode::HideValue, 1.0))),
        &mut rng,
    )
    .expect("pipeline");
    let mut rng = StdRng::seed_from_u64(70);
    let mut m01 = model(71);
    let out_01 = train_with_fedora(
        &mut m01,
        &data,
        &training_cfg(8, Some((ProtectionMode::HideValue, 0.1))),
        &mut rng,
    )
    .expect("pipeline");
    let noise_1 = out_1.dummy_rate + out_1.lost_rate;
    let noise_01 = out_01.dummy_rate + out_01.lost_rate;
    assert!(
        noise_01 > noise_1,
        "eps=0.1 noise {noise_01:.4} should exceed eps=1.0 noise {noise_1:.4}"
    );
    // Both still produce usable models.
    assert!(out_01.auc > 0.45 && out_1.auc > 0.45);
}

/// The hide-# mode pads every user to the same request count, so the
/// request stream no longer reveals how many features each user has.
#[test]
fn hide_count_mode_fixes_per_user_requests() {
    let data = dataset();
    let mut rng = StdRng::seed_from_u64(80);
    let mut m = model(81);
    let padded = 24u32;
    let out = train_with_fedora(
        &mut m,
        &data,
        &training_cfg(
            5,
            Some((
                ProtectionMode::HideValueCount {
                    padded_count: padded,
                },
                1.0,
            )),
        ),
        &mut rng,
    )
    .expect("pipeline");
    assert_eq!(
        out.total_requests,
        5 * 16 * padded as u64,
        "every user must contribute exactly {padded} requests"
    );
    // Group privacy pushed the mechanism epsilon down by the pad factor,
    // so the hide-# run should see noticeably more relative noise than
    // an equivalent hide-val run would.
    assert!(out.dummy_rate + out.lost_rate > 0.0);
}

/// The DIN-style attention model trains through the full FEDORA pipeline
/// unchanged — the server sees the same rows either way (pooling is
/// client-side). One seed's AUC gain is about the size of its noise, so
/// the claim is a positive mean gain over a fixed set of seeds.
#[test]
fn attention_model_trains_through_pipeline() {
    let data = dataset();
    let seeds: Vec<u64> = (90..102).collect();
    let gains: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = seeds
            .chunks(seeds.len() / 2)
            .map(|chunk| {
                let data = &data;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&seed| attention_gain(data, seed))
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("training thread"))
            .collect()
    });
    let mean = gains.iter().sum::<f64>() / gains.len() as f64;
    assert!(
        mean > 0.0,
        "attention training regressed on average: mean AUC gain {mean:+.4} over seeds {seeds:?} ({gains:.4?})"
    );
}

/// AUC gain of 12 pipeline rounds on the attention model initialized from
/// seed 91, with the training RNG seeded with `seed`.
fn attention_gain(data: &Dataset, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = {
        let mut mrng = StdRng::seed_from_u64(91);
        DlrmModel::new(
            DlrmConfig {
                num_items: 128,
                embedding_dim: 8,
                hidden_dim: 16,
                use_private_history: true,
                pooling: Pooling::Attention,
            },
            &mut mrng,
        )
    };
    let base_auc = evaluate_auc(&m, data);
    let out = train_with_fedora(
        &mut m,
        data,
        &training_cfg(12, Some((ProtectionMode::HideValue, 1.0))),
        &mut rng,
    )
    .expect("pipeline");
    assert!(out.total_accesses > 0);
    out.auc - base_auc
}
