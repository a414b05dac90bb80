//! FEDORA: practical federated recommendation model learning using ORAM
//! with controlled privacy.
//!
//! This crate is the paper's primary contribution: a federated-learning
//! server that lets users download/train/upload only the embedding-table
//! rows their private features touch, while an SSD-resident main ORAM
//! hides *which* rows and the ε-FDP mechanism bounds what leaks through
//! *how many* rows are touched.
//!
//! A round (Figure 4) runs:
//!
//! 1. **Union** — the controller obliviously unions the `K` user requests
//!    (chunked when `K` is large).
//! 2. **Choose `k`** — sampled from the ε-FDP distribution (Eq. 3).
//! 3. **Read phase** — `k` AO accesses move entries from the main ORAM
//!    (SSD, FL-friendly RAW ORAM: zero writes) into the buffer ORAM (DRAM).
//! 4. **Serve** — each of the `K` user requests is answered from the
//!    buffer ORAM.
//! 5. **Local training** — on user devices (the [`fedora_fl`] substrate).
//! 6. **Aggregate** — uploaded gradients accumulate in the buffer ORAM
//!    under a programmable `Pre` function.
//! 7. **Write phase** — `k` entries drain back, `Post` is applied, and
//!    the main ORAM absorbs them with one EO access per `A` insertions.
//!
//! Modules:
//!
//! * [`config`] — table presets (Small/Medium/Large from §6.1) and the
//!   full system configuration.
//! * [`server`] — the FEDORA controller pipeline over real simulated
//!   devices.
//! * [`baseline`] — `Path ORAM+`: the paper's baseline (SSD-friendly Path
//!   ORAM, one main-ORAM access per user request, perfect privacy).
//! * [`analytic`] — closed-form per-round I/O counts for paper-scale
//!   configurations (validated against the simulated pipeline by
//!   integration tests).
//! * [`cost`] — SSD lifetime (Fig. 7), hardware cost / power / energy
//!   (Fig. 9) from device statistics and the paper's constants.
//! * [`latency`] — the per-round latency model (Fig. 8) and the
//!   scratchpad ablation (Fig. 10).
//! * [`training`] — full FL training through the FEDORA pipeline
//!   (Table 1: access reduction, dummy/lost rates, final AUC).
//! * [`adversary`] — attack simulations: frequency analysis against
//!   unprotected lookups (wins), against ORAM traces (chance), and the
//!   optimal access-count distinguisher vs its DP bound.
//! * [`audit`] — the obliviousness auditor: shadow-mode page-trace
//!   capture plus a twin-run harness checking the configured privacy
//!   claim against the physical access sequence.
//! * [`durable`] — crash recovery: the write-ahead round journal, the
//!   checkpoint format, and the crash-point vocabulary of the chaos
//!   harness.
//!
//! # Example
//!
//! ```
//! use fedora::config::{FedoraConfig, TableSpec};
//! use fedora::server::FedoraServer;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let config = FedoraConfig::for_testing(TableSpec::tiny(256), 64);
//! let mut server = FedoraServer::new(config, |_| vec![0u8; 32], &mut rng);
//! let report = server.begin_round(&[1, 5, 1, 9, 5, 5], &mut rng).unwrap();
//! assert_eq!(report.k_union, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod convert {
    //! Infallible little-endian field decoding for fixed-layout entries.
    //! Lengths are layout invariants; the panic is centralized here rather
    //! than scattered through fallible-looking `expect` calls.

    /// Decodes a little-endian `f32` from an exactly-4-byte field.
    #[allow(clippy::expect_used)]
    pub(crate) fn le_f32(bytes: &[u8]) -> f32 {
        f32::from_le_bytes(bytes.try_into().expect("4-byte field"))
    }
}

pub mod adversary;
pub mod analytic;
pub mod audit;
pub mod baseline;
pub mod config;
pub mod cost;
pub mod durable;
pub mod latency;
pub mod server;
pub mod training;

pub use config::{FedoraConfig, TableSpec};
pub use durable::{CrashPoint, FaultPlan};
pub use server::{FedoraServer, RoundReport};
