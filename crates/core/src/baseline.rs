//! `Path ORAM+`: the paper's baseline system (§6.1).
//!
//! Path ORAM+ follows the general structure of FEDORA (Figure 4) — buffer
//! ORAM, programmable aggregation — but its main ORAM is an SSD-friendly
//! **Path ORAM**, and it always accesses the main ORAM **once per user
//! request** (Strawman 1: `k = K`), for perfect privacy. Every access is a
//! full path read *and* write, which is what wears the SSD out (Fig. 7)
//! and inflates latency (Fig. 8).

use fedora_fl::modes::AggregationMode;
use fedora_oram::buffer::{BufferError, BufferOram};
use fedora_oram::path_oram::PathOram;
use fedora_oram::store::{BucketStore, SsdBucketStore};
use fedora_storage::stats::DeviceStats;
use rand::Rng;

use crate::config::FedoraConfig;
use crate::server::{FedoraError, RoundReport};

/// The Path ORAM+ baseline server.
pub struct PathOramPlus {
    config: FedoraConfig,
    main: PathOram<SsdBucketStore>,
    buffer: BufferOram,
    active: Option<ActiveRound>,
}

#[derive(Clone, Debug)]
struct ActiveRound {
    report: RoundReport,
    ssd_before: DeviceStats,
    buffer_before: DeviceStats,
}

impl PathOramPlus {
    /// Builds the baseline over the same table/SSD configuration FEDORA
    /// uses, bulk-initializing the table via Path ORAM writes (excluded
    /// from statistics).
    pub fn new<R: Rng, F: FnMut(u64) -> Vec<u8>>(
        config: FedoraConfig,
        mut init: F,
        rng: &mut R,
    ) -> Self {
        let key = fedora_crypto::aead::Key::from_bytes([0x6A; 32]);
        let store = SsdBucketStore::new(
            config.geometry,
            key.derive_subkey("baseline-main"),
            config.ssd,
        );
        let mut main = PathOram::new(store, config.table.num_entries, rng);
        for id in 0..config.table.num_entries {
            #[allow(clippy::expect_used)] // construction: tree sized for the table
            main.write(id, init(id), rng)
                .expect("init within provisioned tree");
        }
        main.store_mut().reset_device_stats();
        let buffer = BufferOram::new(
            config.max_requests_per_round,
            config.table.entry_bytes,
            key.derive_subkey("baseline-buffer"),
            rng,
        );
        PathOramPlus {
            config,
            main,
            buffer,
            active: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FedoraConfig {
        &self.config
    }

    /// Cumulative SSD statistics.
    pub fn ssd_stats(&self) -> DeviceStats {
        self.main.store().device_stats()
    }

    /// Read phase: one main-ORAM access per user request (`k = K`), then
    /// one buffer build holding each first occurrence.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::server::FedoraServer::begin_round`].
    pub fn begin_round<R: Rng>(
        &mut self,
        requests: &[u64],
        rng: &mut R,
    ) -> Result<RoundReport, FedoraError> {
        if self.active.is_some() {
            return Err(FedoraError::RoundInProgress);
        }
        if requests.len() > self.config.max_requests_per_round {
            return Err(FedoraError::TooManyRequests {
                got: requests.len(),
                max: self.config.max_requests_per_round,
            });
        }
        let mut state = ActiveRound {
            report: RoundReport {
                k_requests: requests.len(),
                ..Default::default()
            },
            ssd_before: self.main.store().device_stats(),
            buffer_before: self.buffer.device_stats(),
        };
        let mut slots: Vec<Option<(u64, Vec<u8>)>> = Vec::with_capacity(requests.len());
        for &id in requests {
            state.report.k_accesses += 1;
            let payload = self.main.read(id, rng)?;
            if slots.iter().flatten().any(|(loaded, _)| *loaded == id) {
                // The main-ORAM access above already provided the perfect
                // privacy; duplicates only add a dummy buffer slot.
                slots.push(None);
                state.report.dummies += 1;
            } else {
                slots.push(Some((id, payload)));
                state.report.k_union += 1;
            }
        }
        self.buffer.load_round(slots, rng)?;
        let partial = state.report.clone();
        self.active = Some(state);
        Ok(partial)
    }

    /// Serves one request from the buffer ORAM (never lost: the baseline
    /// reads everything).
    ///
    /// # Errors
    ///
    /// [`FedoraError::UnknownEntry`] for un-requested ids.
    pub fn serve<R: Rng>(&mut self, id: u64, rng: &mut R) -> Result<Vec<u8>, FedoraError> {
        if self.active.is_none() {
            return Err(FedoraError::NoActiveRound);
        }
        match self.buffer.serve(id, rng) {
            Ok(bytes) => Ok(bytes),
            Err(BufferError::NotLoaded { id }) => Err(FedoraError::UnknownEntry { id }),
            Err(e) => Err(e.into()),
        }
    }

    /// Accumulates one client gradient (with `Pre`).
    ///
    /// # Errors
    ///
    /// As for [`serve`](Self::serve).
    pub fn aggregate<M: AggregationMode, R: Rng>(
        &mut self,
        mode: &M,
        id: u64,
        gradient: &[f32],
        n_samples: u32,
        rng: &mut R,
    ) -> Result<(), FedoraError> {
        if self.active.is_none() {
            return Err(FedoraError::NoActiveRound);
        }
        let mut g = gradient.to_vec();
        let weight = mode.pre(&mut g, n_samples);
        match self.buffer.aggregate(id, &g, weight, rng) {
            Ok(()) => Ok(()),
            Err(BufferError::NotLoaded { id }) => Err(FedoraError::UnknownEntry { id }),
            Err(e) => Err(e.into()),
        }
    }

    /// Write phase: applies `Post`, then one main-ORAM access per user
    /// request again (`K` writes total: real updates first, dummy accesses
    /// for the remainder — Strawman 1's constant-`K` behaviour).
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn end_round<M: AggregationMode, R: Rng>(
        &mut self,
        mode: &mut M,
        server_lr: f32,
        rng: &mut R,
    ) -> Result<RoundReport, FedoraError> {
        let mut state = self.active.take().ok_or(FedoraError::NoActiveRound)?;
        let drained = self.buffer.drain_round()?;
        let mut writes = 0usize;
        for entry in drained.entries {
            let mut agg = entry.gradient;
            mode.post(entry.id, &mut agg, entry.weight, rng);
            let mut values: Vec<f32> = entry
                .entry
                .chunks_exact(4)
                .map(crate::convert::le_f32)
                .collect();
            for (v, g) in values.iter_mut().zip(&agg) {
                *v += server_lr * g;
            }
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.main.write(entry.id, bytes, rng)?;
            writes += 1;
        }
        // Pad to K accesses: the baseline's access count is always K.
        for _ in writes..state.report.k_requests {
            self.main.dummy_access(rng)?;
        }
        state.report.k_accesses += state.report.k_requests;
        mode.on_round_end();

        state.report.ssd = self.main.store().device_stats().since(&state.ssd_before);
        state.report.buffer_dram = self.buffer.device_stats().since(&state.buffer_before);
        Ok(state.report)
    }
}

impl core::fmt::Debug for PathOramPlus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PathOramPlus")
            .field("table", &self.config.table)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FedoraConfig, TableSpec};
    use fedora_fl::modes::FedAvg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn baseline() -> (PathOramPlus, StdRng) {
        let mut rng = StdRng::seed_from_u64(31);
        let config = FedoraConfig::for_testing(TableSpec::tiny(64), 32);
        let b = PathOramPlus::new(config, |id| vec![id as u8; 32], &mut rng);
        (b, rng)
    }

    #[test]
    fn accesses_always_equal_2k() {
        let (mut b, mut rng) = baseline();
        let reqs = [5u64, 5, 5, 9, 9, 1];
        b.begin_round(&reqs, &mut rng).unwrap();
        let mut mode = FedAvg;
        let report = b.end_round(&mut mode, 1.0, &mut rng).unwrap();
        assert_eq!(report.k_accesses, 12, "K reads + K writes");
        assert_eq!(report.k_union, 3);
    }

    #[test]
    fn serve_and_update() {
        let (mut b, mut rng) = baseline();
        b.begin_round(&[0, 0], &mut rng).unwrap();
        assert_eq!(b.serve(0, &mut rng).unwrap(), vec![0u8; 32]);
        let mode = FedAvg;
        b.aggregate(&mode, 0, &[1.0; 8], 1, &mut rng).unwrap();
        let mut mode = FedAvg;
        b.end_round(&mut mode, 1.0, &mut rng).unwrap();
        b.begin_round(&[0], &mut rng).unwrap();
        let bytes = b.serve(0, &mut rng).unwrap();
        let vals: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![1.0; 8]);
        b.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn writes_to_ssd_every_access() {
        // The headline difference from FEDORA: the baseline's *read* phase
        // already writes (Path ORAM rewrites every path it reads).
        let (mut b, mut rng) = baseline();
        let before = b.ssd_stats();
        b.begin_round(&[1, 2, 3, 4], &mut rng).unwrap();
        let delta = b.ssd_stats().since(&before);
        assert!(delta.bytes_written > 0, "Path ORAM reads rewrite paths");
        let mut mode = FedAvg;
        b.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn data_survives_many_rounds() {
        let (mut b, mut rng) = baseline();
        let mut mode = FedAvg;
        for round in 0..8u64 {
            let reqs: Vec<u64> = (0..8).map(|i| (i * 5 + round) % 64).collect();
            b.begin_round(&reqs, &mut rng).unwrap();
            for &id in &reqs {
                let _ = b.serve(id, &mut rng).unwrap();
            }
            let report = b.end_round(&mut mode, 1.0, &mut rng).unwrap();
            assert_eq!(report.k_requests, reqs.len());
        }
    }
}
