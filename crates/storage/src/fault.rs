//! Seeded fault injection for chaos testing the integrity stack.
//!
//! A [`FaultInjector`] sits inside the simulated SSD ([`crate::SimSsd`])
//! and perturbs its traffic with three fault classes, each drawn from an
//! independent per-operation probability:
//!
//! * **Bit flips** — one bit of one returned page is flipped *in flight*
//!   (the stored bytes stay intact, like a transient NAND read error). The
//!   flip always lands in the first [`FaultConfig::flip_window`] bytes of a
//!   page, which for the bucket stores is always authenticated ciphertext,
//!   so every injected flip is detectable by construction.
//! * **Rollback replays** — the injector records the previous image of
//!   every page at overwrite time and, when scheduled, serves a whole
//!   bucket-aligned group of stale pages instead of the current ones. The
//!   stale group is a *genuine* old ciphertext (valid MAC under an older
//!   write counter), modeling a replaying device — exactly the attack the
//!   paper's Merkle-free counter scheme must catch.
//! * **Transient failures** — the operation fails with
//!   [`crate::ssd::SsdError::Transient`] before touching the device. The
//!   injector guarantees the immediate retry succeeds, so bounded-retry
//!   policies always make progress.
//!
//! At most **one** fault is injected per device operation, so upper-layer
//! detection counters can be compared 1:1 against [`FaultStats`].

use std::collections::HashMap;

use crate::durable::splitmix64;

/// Configuration of a [`FaultInjector`]. All rates are probabilities in
/// `[0, 1]` applied once per device operation (batch calls count as one
/// operation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; campaigns are reproducible given the seed.
    pub seed: u64,
    /// Probability a batch read returns one bit-flipped page.
    pub bitflip_per_read: f64,
    /// Probability a batch read serves a stale (rolled-back) bucket group.
    pub rollback_per_read: f64,
    /// Probability a read fails transiently (retry succeeds).
    pub transient_per_read: f64,
    /// Probability a write fails transiently (retry succeeds).
    pub transient_per_write: f64,
    /// Bit flips land in the first `flip_window` bytes of a page. The
    /// default of 1 keeps every flip inside authenticated ciphertext for
    /// page-aligned bucket layouts (each in-span page starts with
    /// ciphertext bytes).
    pub flip_window: usize,
    /// Rollbacks replace whole aligned groups of this many pages — set to
    /// the store's pages-per-bucket so a replayed bucket is internally
    /// consistent (splicing half a bucket would read as corruption, not
    /// rollback).
    pub pages_per_group: u64,
    /// Upper bound on distinct pages whose previous images are retained
    /// for rollback injection.
    pub max_tracked_pages: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            bitflip_per_read: 0.0,
            rollback_per_read: 0.0,
            transient_per_read: 0.0,
            transient_per_write: 0.0,
            flip_window: 1,
            pages_per_group: 1,
            max_tracked_pages: 1 << 16,
        }
    }
}

impl FaultConfig {
    /// A chaos-campaign preset: equal bit-flip / rollback / transient rates.
    pub fn chaos(seed: u64, bitflip: f64, rollback: f64, transient: f64) -> Self {
        FaultConfig {
            seed,
            bitflip_per_read: bitflip,
            rollback_per_read: rollback,
            transient_per_read: transient,
            transient_per_write: transient,
            ..Default::default()
        }
    }
}

/// Counts of injected faults, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Bit flips injected into read results.
    pub bitflips: u64,
    /// Rollback replays served.
    pub rollbacks: u64,
    /// Transient failures injected.
    pub transients: u64,
}

impl FaultStats {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.bitflips + self.rollbacks + self.transients
    }
}

/// The kind of fault a single operation suffered (for device accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// A bit flip was applied to one returned page.
    BitFlip {
        /// The affected page.
        page: u64,
    },
    /// A stale group of pages was served.
    Rollback {
        /// First page of the replayed group.
        group_start: u64,
    },
}

/// A seeded, rate-configurable fault injector (see module docs).
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng_state: u64,
    /// page → its previous image (captured at overwrite time).
    versions: HashMap<u64, Vec<u8>>,
    stats: FaultStats,
    /// One-shot flags guaranteeing a retry after a transient fault succeeds.
    read_cooldown: bool,
    write_cooldown: bool,
}

impl FaultInjector {
    /// Creates an injector from a configuration.
    pub fn new(config: FaultConfig) -> Self {
        assert!(config.flip_window > 0, "flip window must be non-empty");
        assert!(config.pages_per_group > 0, "group must be non-empty");
        FaultInjector {
            rng_state: config.seed ^ 0x6a09_e667_f3bc_c908,
            config,
            versions: HashMap::new(),
            stats: FaultStats::default(),
            read_cooldown: false,
            write_cooldown: false,
        }
    }

    /// The configuration this injector runs with.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// splitmix64 — deterministic, dependency-free.
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng_state)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn next_below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Decides whether this read fails transiently. Called before the
    /// device does any work; a `true` return means the caller should fail
    /// with [`crate::ssd::SsdError::Transient`]. The next read is
    /// guaranteed not to fail transiently.
    pub fn should_fail_read(&mut self) -> bool {
        if self.read_cooldown {
            self.read_cooldown = false;
            return false;
        }
        if self.config.transient_per_read > 0.0 && self.next_f64() < self.config.transient_per_read
        {
            self.read_cooldown = true;
            self.stats.transients += 1;
            return true;
        }
        false
    }

    /// Decides whether this write fails transiently (same contract as
    /// [`should_fail_read`](Self::should_fail_read)).
    pub fn should_fail_write(&mut self) -> bool {
        if self.write_cooldown {
            self.write_cooldown = false;
            return false;
        }
        if self.config.transient_per_write > 0.0
            && self.next_f64() < self.config.transient_per_write
        {
            self.write_cooldown = true;
            self.stats.transients += 1;
            return true;
        }
        false
    }

    /// Records the previous image of a page that is about to be
    /// overwritten — the raw material for rollback replays. Only retains
    /// images once a page has a *real* previous version (i.e. from its
    /// second write on), bounded by `max_tracked_pages`.
    pub fn record_pre_write(&mut self, page: u64, old: &[u8], first_write: bool) {
        if self.config.rollback_per_read <= 0.0 {
            return;
        }
        if first_write {
            // The all-zero initial image is not a valid old ciphertext;
            // mark the page seen without storing a replayable version.
            return;
        }
        if self.versions.contains_key(&page) || self.versions.len() < self.config.max_tracked_pages
        {
            self.versions.insert(page, old.to_vec());
        }
    }

    /// Possibly corrupts the in-flight results of a batch read. `pages`
    /// and `data` are parallel; at most one fault is applied. Returns what
    /// was injected, if anything.
    pub fn corrupt_read(&mut self, pages: &[u64], data: &mut [Vec<u8>]) -> Option<InjectedFault> {
        debug_assert_eq!(pages.len(), data.len());
        if pages.is_empty() {
            return None;
        }
        let draw = self.next_f64();
        if draw < self.config.rollback_per_read {
            if let Some(fault) = self.try_rollback(pages, data) {
                self.stats.rollbacks += 1;
                return Some(fault);
            }
            // No replayable group available — fall through to a bit flip
            // only if its own draw would also have fired, else inject
            // nothing (keeps rates independent).
            return None;
        }
        if draw < self.config.rollback_per_read + self.config.bitflip_per_read {
            let i = self.next_below(pages.len());
            let window = self.config.flip_window.min(data[i].len());
            if window == 0 {
                return None;
            }
            let byte = self.next_below(window);
            let bit = self.next_below(8) as u32;
            data[i][byte] ^= 1 << bit;
            self.stats.bitflips += 1;
            return Some(InjectedFault::BitFlip { page: pages[i] });
        }
        None
    }

    /// Serves a stale image for one whole page group, if every page of
    /// some group in the batch has a recorded previous version.
    fn try_rollback(&mut self, pages: &[u64], data: &mut [Vec<u8>]) -> Option<InjectedFault> {
        let group = self.config.pages_per_group;
        // Collect candidate group starts present in this batch.
        let mut starts: Vec<u64> = pages.iter().map(|p| (p / group) * group).collect();
        starts.sort_unstable();
        starts.dedup();
        let eligible: Vec<u64> = starts
            .into_iter()
            .filter(|&g0| {
                (g0..g0 + group).all(|p| pages.contains(&p) && self.versions.contains_key(&p))
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let g0 = eligible[self.next_below(eligible.len())];
        for (i, &p) in pages.iter().enumerate() {
            if p >= g0 && p < g0 + group {
                if let Some(old) = self.versions.get(&p) {
                    data[i].clone_from(old);
                }
            }
        }
        Some(InjectedFault::Rollback { group_start: g0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_is_inert() {
        let mut inj = FaultInjector::new(FaultConfig::default());
        let pages = [0u64, 1, 2];
        let mut data = vec![vec![0xAA; 64]; 3];
        for _ in 0..100 {
            assert!(!inj.should_fail_read());
            assert!(!inj.should_fail_write());
            assert!(inj.corrupt_read(&pages, &mut data).is_none());
        }
        assert_eq!(inj.stats().total(), 0);
        assert!(data.iter().all(|p| p.iter().all(|&b| b == 0xAA)));
    }

    #[test]
    fn bitflips_land_in_window_and_are_counted() {
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 42,
            bitflip_per_read: 1.0,
            flip_window: 1,
            ..Default::default()
        });
        for _ in 0..50 {
            let pages = [3u64, 4, 5];
            let mut data = vec![vec![0u8; 32]; 3];
            let fault = inj.corrupt_read(&pages, &mut data);
            assert!(matches!(fault, Some(InjectedFault::BitFlip { .. })));
            // Exactly one bit differs, and only in byte 0 of one page.
            let flipped: u32 = data
                .iter()
                .map(|p| p.iter().map(|b| b.count_ones()).sum::<u32>())
                .sum();
            assert_eq!(flipped, 1);
            assert!(data.iter().all(|p| p[1..].iter().all(|&b| b == 0)));
        }
        assert_eq!(inj.stats().bitflips, 50);
    }

    #[test]
    fn transient_faults_clear_on_retry() {
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 7,
            transient_per_read: 1.0,
            transient_per_write: 1.0,
            ..Default::default()
        });
        for _ in 0..10 {
            assert!(inj.should_fail_read(), "rate 1.0 always fires");
            assert!(!inj.should_fail_read(), "retry must succeed");
            assert!(inj.should_fail_write());
            assert!(!inj.should_fail_write());
        }
        assert_eq!(inj.stats().transients, 20);
    }

    #[test]
    fn rollback_requires_recorded_versions() {
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 9,
            rollback_per_read: 1.0,
            pages_per_group: 2,
            ..Default::default()
        });
        let pages = [4u64, 5];
        let mut data = vec![vec![2u8; 16]; 2];
        // No versions recorded: nothing injected.
        assert!(inj.corrupt_read(&pages, &mut data).is_none());

        // First writes record nothing (all-zero genesis image).
        inj.record_pre_write(4, &[0u8; 16], true);
        inj.record_pre_write(5, &[0u8; 16], true);
        assert!(inj.corrupt_read(&pages, &mut data).is_none());

        // Second writes capture real previous images.
        inj.record_pre_write(4, &[1u8; 16], false);
        inj.record_pre_write(5, &[1u8; 16], false);
        let fault = inj.corrupt_read(&pages, &mut data);
        assert_eq!(fault, Some(InjectedFault::Rollback { group_start: 4 }));
        assert!(
            data.iter().all(|p| p.iter().all(|&b| b == 1)),
            "stale image served"
        );
        assert_eq!(inj.stats().rollbacks, 1);
    }

    #[test]
    fn rollback_skips_partially_tracked_groups() {
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 11,
            rollback_per_read: 1.0,
            pages_per_group: 2,
            ..Default::default()
        });
        // Only page 4 of group {4,5} has a version.
        inj.record_pre_write(4, &[9u8; 8], false);
        let pages = [4u64, 5];
        let mut data = vec![vec![3u8; 8]; 2];
        assert!(inj.corrupt_read(&pages, &mut data).is_none());
        assert!(
            data.iter().all(|p| p.iter().all(|&b| b == 3)),
            "data untouched"
        );
    }

    #[test]
    fn campaigns_are_reproducible() {
        let run = |seed: u64| -> (FaultStats, Vec<Vec<u8>>) {
            let mut inj = FaultInjector::new(FaultConfig {
                seed,
                bitflip_per_read: 0.3,
                transient_per_read: 0.2,
                ..Default::default()
            });
            let mut all = Vec::new();
            for _ in 0..200 {
                let _ = inj.should_fail_read();
                let pages = [0u64, 1];
                let mut data = vec![vec![0u8; 4]; 2];
                let _ = inj.corrupt_read(&pages, &mut data);
                all.extend(data);
            }
            (inj.stats(), all)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1, run(6).1);
    }

    #[test]
    fn tracked_pages_bounded() {
        let mut inj = FaultInjector::new(FaultConfig {
            rollback_per_read: 1.0,
            max_tracked_pages: 4,
            ..Default::default()
        });
        for p in 0..100u64 {
            inj.record_pre_write(p, &[1u8; 8], false);
        }
        assert!(inj.versions.len() <= 4);
    }
}
