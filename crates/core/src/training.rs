//! Full FL training through the FEDORA pipeline (Table 1).
//!
//! Each round: select users → build the request stream from their private
//! histories (optionally padded for the "hide #" mode) → run steps ①–④ on
//! the server → train clients on the served rows → aggregate through the
//! buffer ORAM → write phase. Tracks the Table 1 statistics: access
//! reduction vs. perfect privacy, dummy/lost percentages vs. the optimal
//! (ε = ∞) access count, and the final test AUC.

use std::collections::HashMap;

use fedora_fdp::ProtectionMode;
use fedora_fl::client::LocalTrainer;
use fedora_fl::datasets::Dataset;
use fedora_fl::model::DlrmModel;
use fedora_fl::modes::{AggregationMode, FedAvg};
use fedora_fl::sim::{evaluate_auc, PublicFedAvg};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::{FedoraConfig, PrivacyConfig, TableSpec};
use crate::server::{FedoraError, FedoraServer};

/// Configuration of a FEDORA training run.
#[derive(Clone, Debug)]
pub struct TrainingConfig {
    /// Users per round.
    pub users_per_round: usize,
    /// Training rounds.
    pub rounds: usize,
    /// Server learning rate η.
    pub server_lr: f32,
    /// Local trainer settings.
    pub trainer: LocalTrainer,
    /// What the run protects and at what budget. `None` means ε = ∞
    /// (Strawman 2 — the accuracy upper bound).
    pub protection: Option<(ProtectionMode, f64)>,
    /// Worker threads for the per-client local-training fan-out. Any
    /// value produces bit-identical results (static partitioning, merged
    /// in client-index order); 1 runs fully serial.
    pub threads: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            users_per_round: 32,
            rounds: 40,
            server_lr: 2.0,
            trainer: LocalTrainer {
                lr: 0.2,
                epochs: 2,
                ..Default::default()
            },
            protection: Some((ProtectionMode::HideValue, 1.0)),
            threads: 1,
        }
    }
}

/// The Table 1 row a training run produces.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrainingOutcome {
    /// Final test ROC-AUC.
    pub auc: f64,
    /// Fraction of main-ORAM accesses saved vs. perfect privacy (ε = 0,
    /// `k = K`): the paper's "Reduced Accesses" column.
    pub reduced_accesses: f64,
    /// Dummy accesses as a fraction of the optimal access count (ε = ∞).
    pub dummy_rate: f64,
    /// Lost accesses as a fraction of the optimal access count.
    pub lost_rate: f64,
    /// Total requests processed (Σ K).
    pub total_requests: u64,
    /// Total main-ORAM accesses (Σ k).
    pub total_accesses: u64,
    /// Total unique entries (Σ k_union — the ε = ∞ optimum).
    pub total_union: u64,
}

/// Builds the FEDORA config for a model/dataset pair.
pub fn config_for_model(
    model: &DlrmModel,
    protection: &Option<(ProtectionMode, f64)>,
    max_requests: usize,
) -> FedoraConfig {
    let dim = model.config().embedding_dim;
    let table = TableSpec {
        name: "FL",
        num_entries: model.config().num_items,
        entry_bytes: 4 * dim,
    };
    let mut cfg = FedoraConfig::for_testing(table, max_requests);
    cfg.privacy = match protection {
        None => PrivacyConfig::none(),
        Some((mode, eps)) => PrivacyConfig::with_epsilon(mode.mechanism_epsilon(*eps)),
    };
    cfg
}

/// Runs FL training through FEDORA with [`FedAvg`] aggregation for the
/// private table. See [`train_with_fedora_mode`] for other operation
/// modes (FedAdam, EANA, LazyDP).
///
/// # Errors
///
/// Pipeline errors propagate (they indicate configuration bugs).
pub fn train_with_fedora<R: Rng>(
    model: &mut DlrmModel,
    dataset: &Dataset,
    config: &TrainingConfig,
    rng: &mut R,
) -> Result<TrainingOutcome, FedoraError> {
    let mut mode = FedAvg;
    train_with_fedora_mode(model, dataset, config, &mut mode, rng)
}

/// Runs FL training through FEDORA with a caller-chosen aggregation mode
/// (§4.3's programmable `Pre`/`Post`) for the private history table. The
/// model's public parts (dense MLP, item table) train via conventional
/// FedAvg regardless, as in the paper's architecture.
///
/// # Errors
///
/// Pipeline errors propagate (they indicate configuration bugs).
pub fn train_with_fedora_mode<M: AggregationMode, R: Rng>(
    model: &mut DlrmModel,
    dataset: &Dataset,
    config: &TrainingConfig,
    mode: &mut M,
    rng: &mut R,
) -> Result<TrainingOutcome, FedoraError> {
    let padded = match config.protection {
        Some((ProtectionMode::HideValueCount { padded_count }, _)) => Some(padded_count as usize),
        _ => None,
    };
    let max_hist = dataset
        .users()
        .iter()
        .map(|u| u.history.len())
        .max()
        .unwrap_or(0)
        .max(padded.unwrap_or(0));
    let max_requests = (config.users_per_round * max_hist).max(16);
    let fed_config = config_for_model(model, &config.protection, max_requests);

    // The main ORAM takes over the history table.
    let init_model = model.clone();
    let mut server = FedoraServer::new(fed_config, |id| init_model.history_row_bytes(id), rng);
    let all_users: Vec<u32> = (0..dataset.users().len() as u32).collect();
    let mut outcome = TrainingOutcome::default();
    let (mut dummies, mut lost) = (0u64, 0u64);

    let registry = server.registry().clone();
    let pool = fedora_par::WorkerPool::new(config.threads);

    for _ in 0..config.rounds {
        // ① Client-side sampling: pick the cohort and build the request
        // stream (every user's possibly-padded history, concatenated).
        let sample_span = registry.trace_span("client.sample");
        let selected: Vec<u32> = all_users
            .choose_multiple(rng, config.users_per_round)
            .copied()
            .collect();

        let mut per_user_requests: Vec<(u32, Vec<u64>, usize)> = Vec::new();
        for &user in &selected {
            let (reqs, real) = match padded {
                Some(n) => dataset.padded_history(user, n, rng),
                None => {
                    let h = dataset.user(user).history.clone();
                    let len = h.len();
                    (h, len)
                }
            };
            per_user_requests.push((user, reqs, real));
        }
        let requests: Vec<u64> = per_user_requests
            .iter()
            .flat_map(|(_, reqs, _)| reqs.iter().copied())
            .collect();
        drop(sample_span);
        if requests.is_empty() {
            continue;
        }

        // ②–③ Read phase.
        server.begin_round(&requests, rng)?;

        // ④ Download: serve every request (including padding — the dummy
        // requests cost a buffer access each, like any other). The buffer
        // ORAM is stateful, so serving stays on the caller thread; mid-
        // round aggregates never change served bytes (they touch only the
        // gradient half of each buffer block), so serving everything up
        // front is value-identical to the old interleaved order.
        let mut client_rows: Vec<HashMap<u64, Option<Vec<f32>>>> =
            Vec::with_capacity(per_user_requests.len());
        for (user, reqs, real) in &per_user_requests {
            let download_span =
                registry.trace_span_with("client.download", &[("user", (*user).into())]);
            let mut rows: HashMap<u64, Option<Vec<f32>>> = HashMap::new();
            for (i, &id) in reqs.iter().enumerate() {
                let served = server.serve(id, rng)?;
                if i < *real {
                    rows.insert(id, served.map(|b| init_model.row_from_bytes(&b)));
                }
            }
            drop(download_span);
            client_rows.push(rows);
        }

        // ⑤ Local training: pure per-client compute fanned out over the
        // pool (static partitioning) and merged back in client-index
        // order, so any thread count yields bit-identical updates. Worker
        // spans root under the captured parent id to keep one causal tree.
        let train_span = registry.trace_span("clients.train");
        let train_parent = train_span.id();
        let global: &DlrmModel = model;
        let updates = pool.map(&per_user_requests, |i, (user, reqs, real)| {
            let _span = registry.trace_span_under_with(
                train_parent,
                "client.train",
                &[("user", (*user).into())],
            );
            let history = &reqs[..*real];
            config.trainer.train(
                global,
                &dataset.user(*user).train,
                history,
                Some(&client_rows[i]),
            )
        });
        drop(train_span);

        // ⑥ Upload/aggregate in client-index order. The public parts train
        // by conventional FedAvg outside the ORAM; the private rows flow
        // through the buffer ORAM.
        let mut public = PublicFedAvg::default();
        for ((user, _, _), trained) in per_user_requests.iter().zip(updates) {
            let Some(update) = trained else {
                continue;
            };
            let n = update.n_samples;
            let history_deltas = public.add(update);
            let upload_span =
                registry.trace_span_with("client.upload", &[("user", (*user).into())]);
            for (id, g) in &history_deltas {
                server.aggregate(mode, *id, g, n, rng)?;
            }
            drop(upload_span);
        }

        // ⑦ Write phase (history table) + public server update.
        let report = server.end_round(mode, config.server_lr, rng)?;
        outcome.total_requests += report.k_requests as u64;
        outcome.total_accesses += report.k_accesses as u64;
        outcome.total_union += report.k_union as u64;
        dummies += report.dummies as u64;
        lost += report.lost as u64;
        public.apply(model, config.server_lr, rng);
    }

    // Sync the trained history table back into the model for evaluation.
    let table = server.snapshot_table(rng)?;
    for (id, bytes) in table.iter().enumerate() {
        let row = init_model.row_from_bytes(bytes);
        model.set_history_row(id as u64, &row);
    }

    outcome.auc = evaluate_auc(model, dataset);
    if outcome.total_requests > 0 {
        outcome.reduced_accesses =
            1.0 - outcome.total_accesses as f64 / outcome.total_requests as f64;
    }
    if outcome.total_union > 0 {
        outcome.dummy_rate = dummies as f64 / outcome.total_union as f64;
        outcome.lost_rate = lost as f64 / outcome.total_union as f64;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedora_fl::datasets::SyntheticConfig;
    use fedora_fl::model::{DlrmConfig, Pooling};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dataset() -> Dataset {
        let mut cfg = SyntheticConfig::movielens_like();
        cfg.num_users = 48;
        cfg.num_items = 128;
        cfg.samples_per_user = 8;
        cfg.test_samples = 600;
        Dataset::generate(cfg)
    }

    fn tiny_model(seed: u64) -> DlrmModel {
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

    #[test]
    fn fedora_training_runs_and_counts() {
        let dataset = tiny_dataset();
        let mut model = tiny_model(41);
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = TrainingConfig {
            users_per_round: 12,
            rounds: 6,
            protection: Some((ProtectionMode::HideValue, 1.0)),
            ..Default::default()
        };
        let out = train_with_fedora(&mut model, &dataset, &cfg, &mut rng).unwrap();
        assert!(out.total_requests > 0);
        assert!(out.total_accesses > 0);
        assert!(out.reduced_accesses > 0.0, "duplicates must be saved");
        assert!(out.auc > 0.4 && out.auc < 1.0);
    }

    #[test]
    fn epsilon_infinity_has_no_dummies_or_losses() {
        let dataset = tiny_dataset();
        let mut model = tiny_model(43);
        let mut rng = StdRng::seed_from_u64(44);
        let cfg = TrainingConfig {
            users_per_round: 12,
            rounds: 4,
            protection: None,
            ..Default::default()
        };
        let out = train_with_fedora(&mut model, &dataset, &cfg, &mut rng).unwrap();
        assert_eq!(out.dummy_rate, 0.0);
        assert_eq!(out.lost_rate, 0.0);
        assert_eq!(out.total_accesses, out.total_union);
    }

    #[test]
    fn thread_count_does_not_change_outcome() {
        let dataset = tiny_dataset();
        let run = |threads: usize| {
            let mut model = tiny_model(47);
            let mut rng = StdRng::seed_from_u64(48);
            let cfg = TrainingConfig {
                users_per_round: 8,
                rounds: 3,
                threads,
                ..Default::default()
            };
            let out = train_with_fedora(&mut model, &dataset, &cfg, &mut rng).unwrap();
            (out, model.history_row(5).to_vec())
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn hide_count_mode_pads_requests() {
        let dataset = tiny_dataset();
        let mut model = tiny_model(45);
        let mut rng = StdRng::seed_from_u64(46);
        let cfg = TrainingConfig {
            users_per_round: 8,
            rounds: 3,
            protection: Some((ProtectionMode::HideValueCount { padded_count: 20 }, 1.0)),
            ..Default::default()
        };
        let out = train_with_fedora(&mut model, &dataset, &cfg, &mut rng).unwrap();
        // Every user contributes exactly 20 requests.
        assert_eq!(out.total_requests, 8 * 20 * 3);
    }
}
