//! The reference (non-ORAM) federated-learning loop.
//!
//! This is conventional FedAvg over the full model — what an FL system
//! would do if privacy of the embedding accesses were not a concern. It
//! serves as (a) the `pub` baseline of Table 1 (run with
//! `use_private_history = false`), and (b) the correctness reference the
//! FEDORA pipeline (in the `fedora` crate) is validated against: with
//! ε = ∞ the two must produce near-identical training trajectories.

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::client::{ClientUpdate, LocalTrainer};
use crate::datasets::Dataset;
use crate::linalg::Matrix;
use crate::metrics::roc_auc;
use crate::model::{DenseParams, DlrmModel};
use crate::modes::{AggregationMode, FedAvg};

/// Configuration of the reference FL loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlSimConfig {
    /// Users selected per round.
    pub users_per_round: usize,
    /// Total training rounds.
    pub rounds: usize,
    /// Server learning rate η applied to `Post(Σ Pre(Δθ))`.
    pub server_lr: f32,
    /// Local trainer settings.
    pub trainer: LocalTrainer,
    /// Worker threads for the per-client training fan-out. Results are
    /// merged in client-index order, so any value is bit-identical to the
    /// serial run; 1 (the default) spawns no threads.
    pub threads: usize,
}

impl Default for FlSimConfig {
    fn default() -> Self {
        FlSimConfig {
            users_per_round: 32,
            rounds: 40,
            server_lr: 2.0,
            trainer: LocalTrainer {
                lr: 0.2,
                epochs: 2,
                ..Default::default()
            },
            threads: 1,
        }
    }
}

/// Runs conventional FedAvg and returns the test AUC after each round.
pub fn run_reference_fl<R: Rng>(
    model: &mut DlrmModel,
    dataset: &Dataset,
    config: &FlSimConfig,
    rng: &mut R,
) -> Vec<f64> {
    let mut mode = FedAvg;
    let mut aucs = Vec::with_capacity(config.rounds);
    let all_users: Vec<u32> = (0..dataset.users().len() as u32).collect();
    let pool = fedora_par::WorkerPool::new(config.threads);

    for _ in 0..config.rounds {
        let selected: Vec<u32> = all_users
            .choose_multiple(rng, config.users_per_round)
            .copied()
            .collect();

        // Local training is pure per-client compute: fan it out over the
        // pool (static partitioning) and merge in client-index order, so
        // every thread count aggregates in exactly the serial order.
        let global: &DlrmModel = model;
        let updates = pool.map(&selected, |_, &user| {
            let ud = dataset.user(user);
            config.trainer.train(global, &ud.train, &ud.history, None)
        });

        let mut public = PublicFedAvg::default();
        // (id -> (sum, weight)) accumulator for the history table.
        let mut hist_acc: HashMap<u64, (Vec<f32>, f64)> = HashMap::new();
        for update in updates {
            let Some(update) = update else {
                continue;
            };
            let n = update.n_samples;
            for (id, g) in public.add(update) {
                accumulate(&mut hist_acc, id, g, n);
            }
        }

        // Server update.
        public.apply(model, config.server_lr, rng);
        for (id, (mut g, w)) in hist_acc {
            mode.post(id, &mut g, w, rng);
            model.update_history_row(id, config.server_lr, &g);
        }
        mode.on_round_end();

        aucs.push(evaluate_auc(model, dataset));
    }
    aucs
}

/// FedAvg over a model's public parameters: the dense MLP, the attention
/// projection and the item table, which train conventionally outside any
/// ORAM. [`add`](Self::add) scales each client's deltas by its sample
/// count and sums them; [`apply`](Self::apply) divides the sums by the
/// summed weight and applies them at the server learning rate.
#[derive(Debug, Default)]
pub struct PublicFedAvg {
    dense: Option<DenseParams>,
    attention: Option<Matrix>,
    weight: f64,
    items: HashMap<u64, (Vec<f32>, f64)>,
}

impl PublicFedAvg {
    /// Adds one client's public deltas and returns its private
    /// history-table deltas, which the caller aggregates its own way.
    pub fn add(&mut self, update: ClientUpdate) -> Vec<(u64, Vec<f32>)> {
        let n = update.n_samples;
        let scale = n as f32;
        let mut dd = update.dense_delta;
        dd.w1.data_mut().iter_mut().for_each(|x| *x *= scale);
        dd.b1.iter_mut().for_each(|x| *x *= scale);
        dd.w2.iter_mut().for_each(|x| *x *= scale);
        dd.b2 *= scale;
        match &mut self.dense {
            None => self.dense = Some(dd),
            Some(acc) => acc.add_scaled(1.0, &dd),
        }
        if let Some(mut ad) = update.attention_delta {
            ad.data_mut().iter_mut().for_each(|x| *x *= scale);
            match &mut self.attention {
                None => self.attention = Some(ad),
                Some(acc) => acc.add_scaled(1.0, &ad),
            }
        }
        self.weight += n as f64;
        for (id, g) in update.item_deltas {
            accumulate(&mut self.items, id, g, n);
        }
        update.history_deltas
    }

    /// Applies the averaged deltas to `model` at learning rate `server_lr`.
    pub fn apply<R: Rng>(self, model: &mut DlrmModel, server_lr: f32, rng: &mut R) {
        let inv = (1.0 / self.weight.max(1.0)) as f32;
        if let Some(mut acc) = self.dense {
            acc.w1.data_mut().iter_mut().for_each(|x| *x *= inv);
            acc.b1.iter_mut().for_each(|x| *x *= inv);
            acc.w2.iter_mut().for_each(|x| *x *= inv);
            acc.b2 *= inv;
            model.dense_mut().add_scaled(server_lr, &acc);
        }
        if let Some(mut acc) = self.attention {
            acc.data_mut().iter_mut().for_each(|x| *x *= inv);
            model.update_attention(server_lr, &acc);
        }
        for (id, (mut g, w)) in self.items {
            FedAvg.post(id, &mut g, w, rng);
            model.update_item_row(id, server_lr, &g);
        }
    }
}

/// Adds one client's FedAvg `Pre` of `g` (the gradient scaled by its
/// sample count `n`) to entry `id`'s running sum and weight.
fn accumulate(acc: &mut HashMap<u64, (Vec<f32>, f64)>, id: u64, mut g: Vec<f32>, n: u32) {
    let w = FedAvg.pre(&mut g, n);
    let entry = acc.entry(id).or_insert_with(|| (vec![0.0; g.len()], 0.0));
    crate::linalg::axpy(1.0, &g, &mut entry.0);
    entry.1 += w;
}

/// Evaluates the model's ROC-AUC on the dataset's test split.
pub fn evaluate_auc(model: &DlrmModel, dataset: &Dataset) -> f64 {
    let scored: Vec<(f32, bool)> = dataset
        .test()
        .iter()
        .map(|s| {
            let hist = &dataset.user(s.user).history;
            (
                model.forward_local(s.target_item, hist, s.dense).prob(),
                s.label,
            )
        })
        .collect();
    roc_auc(&scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::SyntheticConfig;
    use crate::model::{DlrmConfig, Pooling};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_dataset() -> Dataset {
        let mut cfg = SyntheticConfig::movielens_like();
        cfg.num_users = 96;
        cfg.num_items = 256;
        cfg.samples_per_user = 12;
        cfg.test_samples = 1200;
        Dataset::generate(cfg)
    }

    #[test]
    fn training_improves_auc_with_private_features() {
        let dataset = small_dataset();
        let mut rng = StdRng::seed_from_u64(21);
        let mut model = DlrmModel::new(
            DlrmConfig {
                num_items: 256,
                embedding_dim: 8,
                hidden_dim: 16,
                use_private_history: true,
                pooling: Pooling::Mean,
            },
            &mut rng,
        );
        let cfg = FlSimConfig {
            users_per_round: 24,
            ..Default::default()
        };
        let aucs = run_reference_fl(&mut model, &dataset, &cfg, &mut rng);
        let last = *aucs.last().unwrap();
        assert!(last > 0.62, "private-feature AUC too low: {last}");
        assert!(
            last > aucs[0] - 0.02,
            "training should not regress: {aucs:?}"
        );
    }

    #[test]
    fn private_features_beat_pub_baseline() {
        let dataset = small_dataset();
        let cfg = FlSimConfig {
            users_per_round: 24,
            ..Default::default()
        };

        let mut rng = StdRng::seed_from_u64(22);
        let mut private_model = DlrmModel::new(
            DlrmConfig {
                num_items: 256,
                embedding_dim: 8,
                hidden_dim: 16,
                use_private_history: true,
                pooling: Pooling::Mean,
            },
            &mut rng,
        );
        let auc_private = *run_reference_fl(&mut private_model, &dataset, &cfg, &mut rng)
            .last()
            .unwrap();

        let mut rng = StdRng::seed_from_u64(22);
        let mut pub_model = DlrmModel::new(
            DlrmConfig {
                num_items: 256,
                embedding_dim: 8,
                hidden_dim: 16,
                use_private_history: false,
                pooling: Pooling::Mean,
            },
            &mut rng,
        );
        let auc_pub = *run_reference_fl(&mut pub_model, &dataset, &cfg, &mut rng)
            .last()
            .unwrap();

        assert!(
            auc_private > auc_pub + 0.03,
            "private {auc_private} must beat pub {auc_pub} (Table 1's headline)"
        );
    }

    #[test]
    fn attention_pooling_trains_end_to_end() {
        let dataset = small_dataset();
        let mut rng = StdRng::seed_from_u64(24);
        let mut model = DlrmModel::new(
            DlrmConfig {
                num_items: 256,
                embedding_dim: 8,
                hidden_dim: 16,
                use_private_history: true,
                pooling: Pooling::Attention,
            },
            &mut rng,
        );
        let cfg = FlSimConfig {
            users_per_round: 24,
            rounds: 20,
            ..Default::default()
        };
        let aucs = run_reference_fl(&mut model, &dataset, &cfg, &mut rng);
        let last = *aucs.last().unwrap();
        assert!(last > 0.58, "attention model AUC too low: {last}");
    }

    #[test]
    fn evaluate_auc_runs_on_untrained_model() {
        let dataset = small_dataset();
        let mut rng = StdRng::seed_from_u64(23);
        let model = DlrmModel::new(DlrmConfig::tiny(256), &mut rng);
        let auc = evaluate_auc(&model, &dataset);
        assert!(
            (0.3..=0.7).contains(&auc),
            "untrained AUC should hover near 0.5: {auc}"
        );
    }
}
