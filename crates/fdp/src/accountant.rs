//! Privacy accounting: group privacy and protection modes (paper §3.1).
//!
//! ε-FDP hides one feature value. Hiding `n` values *simultaneously* —
//! which also hides the **number** of values a user has, after padding
//! everyone to exactly `n` real-or-dummy values — costs a factor of `n`
//! by DP group privacy: the round must run with per-value budget `ε/n`.

/// What the round protects (the two modes evaluated in Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtectionMode {
    /// Hide each individual feature value ("hide priv val").
    HideValue,
    /// Hide the number of feature values by padding every user to
    /// `padded_count` values and protecting all of them as a group
    /// ("hide # of priv vals").
    HideValueCount {
        /// Every user is padded/subsampled to exactly this many values
        /// (the paper uses 100).
        padded_count: u32,
    },
}

impl ProtectionMode {
    /// The paper's "hide # of priv vals" configuration (n = 100).
    pub fn hide_count_paper() -> Self {
        ProtectionMode::HideValueCount { padded_count: 100 }
    }

    /// The group size this mode must protect simultaneously.
    pub fn group_size(&self) -> u32 {
        match self {
            ProtectionMode::HideValue => 1,
            ProtectionMode::HideValueCount { padded_count } => *padded_count,
        }
    }

    /// The mechanism ε to run with so the *user-facing* guarantee is
    /// `target_epsilon`: group privacy divides the budget by the group
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if the padded count is zero.
    pub fn mechanism_epsilon(&self, target_epsilon: f64) -> f64 {
        let n = self.group_size();
        assert!(n > 0, "group size must be positive");
        target_epsilon / n as f64
    }
}

/// Tracks the ε-FDP guarantee across a training run.
///
/// Within a round, chunks compose in parallel (free); across rounds, the
/// same feature value can participate repeatedly, and the accountant
/// reports both the per-round guarantee and the naive sequential
/// composition over rounds (the conservative bound the paper's framework
/// inherits from DP).
///
/// The history is kept as runs of equal ε, so a run at a fixed ε holds
/// one run however many rounds it lasts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FdpAccountant {
    /// `(ε, rounds)` runs, oldest first; consecutive runs differ in ε.
    runs: Vec<(f64, u64)>,
    /// Cached Σ εᵢ, maintained on every accepted record so
    /// [`total_epsilon`](Self::total_epsilon) is O(1) instead of re-summing
    /// the whole history on every ledger publish.
    total: f64,
    /// Rounds whose ε was rejected as ill-formed (NaN or negative).
    poisoned: u64,
}

impl FdpAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed round run at `epsilon` (user-facing value,
    /// i.e. after any group-privacy scaling). Returns `true` if the value
    /// was accepted into the ledger.
    ///
    /// An ill-formed ε (NaN or negative) is **rejected** and counted in
    /// [`poisoned_rounds`](Self::poisoned_rounds) instead: admitting one
    /// NaN would silently corrupt the cumulative total forever, and a
    /// negative ε has no privacy meaning. `+∞` is legal — it is exactly
    /// the honest ledger entry for a no-privacy round — and saturates the
    /// total at `+∞` from then on.
    pub fn record_round(&mut self, epsilon: f64) -> bool {
        if epsilon.is_nan() || epsilon < 0.0 {
            self.poisoned += 1;
            return false;
        }
        match self.runs.last_mut() {
            Some((e, n)) if e.to_bits() == epsilon.to_bits() => *n += 1,
            _ => self.runs.push((epsilon, 1)),
        }
        // Both operands are non-negative, so the sum cannot produce NaN;
        // overflow saturates to +∞, which is the correct reading.
        self.total += epsilon;
        true
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n as usize).sum()
    }

    /// Number of rejected (NaN/negative ε) record attempts.
    pub fn poisoned_rounds(&self) -> u64 {
        self.poisoned
    }

    /// The strongest (smallest) per-round guarantee seen.
    pub fn best_round_epsilon(&self) -> Option<f64> {
        self.runs.iter().map(|&(e, _)| e).reduce(f64::min)
    }

    /// The weakest (largest) per-round guarantee seen.
    pub fn worst_round_epsilon(&self) -> Option<f64> {
        self.runs.iter().map(|&(e, _)| e).reduce(f64::max)
    }

    /// The ε history as `(ε, rounds)` runs, oldest first (the checkpoint
    /// path persists these so a restored accountant reports identical
    /// bounds).
    pub fn runs(&self) -> &[(f64, u64)] {
        &self.runs
    }

    /// Reconstructs an accountant from persisted state: the `(ε, rounds)`
    /// runs plus the poisoned-round count. The cached total is re-derived
    /// by the same round-by-round sum [`record_round`](Self::record_round)
    /// makes, so it is bit-identical to the original and a checkpoint
    /// cannot smuggle in an inconsistent total. An ill-formed run (NaN or
    /// negative ε) is rejected round for round exactly as `record_round`
    /// would reject it, which keeps restoration conservative: it can only
    /// add to `poisoned`.
    pub fn from_state(runs: &[(f64, u64)], poisoned: u64) -> Self {
        let mut a = FdpAccountant {
            runs: Vec::with_capacity(runs.len()),
            total: 0.0,
            poisoned,
        };
        for &(e, n) in runs {
            if e.is_nan() || e < 0.0 {
                a.poisoned = a.poisoned.saturating_add(n);
                continue;
            }
            for _ in 0..n {
                a.record_round(e);
            }
        }
        a
    }

    /// Sequential composition over all recorded rounds: Σ εᵢ. A feature
    /// value that participates in every round is protected at this level
    /// overall (basic composition; tighter accountants are orthogonal).
    ///
    /// O(1): returns the running total maintained by
    /// [`record_round`](Self::record_round).
    pub fn total_epsilon(&self) -> f64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hide_value_group_is_one() {
        assert_eq!(ProtectionMode::HideValue.group_size(), 1);
        assert_eq!(ProtectionMode::HideValue.mechanism_epsilon(1.0), 1.0);
    }

    #[test]
    fn hide_count_scales_epsilon() {
        let m = ProtectionMode::hide_count_paper();
        assert_eq!(m.group_size(), 100);
        assert!((m.mechanism_epsilon(1.0) - 0.01).abs() < 1e-12);
        assert!((m.mechanism_epsilon(0.1) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn accountant_tracks_rounds() {
        let mut a = FdpAccountant::new();
        assert_eq!(a.rounds(), 0);
        assert!(a.best_round_epsilon().is_none());
        a.record_round(1.0);
        a.record_round(0.1);
        a.record_round(0.5);
        assert_eq!(a.rounds(), 3);
        assert_eq!(a.best_round_epsilon(), Some(0.1));
        assert_eq!(a.worst_round_epsilon(), Some(1.0));
        assert!((a.total_epsilon() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn cached_total_matches_resum() {
        let mut a = FdpAccountant::new();
        for i in 0..1000 {
            assert!(a.record_round(0.001 * i as f64));
        }
        let resum: f64 = (0..1000).map(|i| 0.001 * i as f64).sum();
        assert_eq!(a.total_epsilon(), resum);
    }

    #[test]
    fn poisoned_epsilon_rejected_not_absorbed() {
        let mut a = FdpAccountant::new();
        assert!(a.record_round(0.5));
        assert!(!a.record_round(f64::NAN));
        assert!(!a.record_round(-1.0));
        assert_eq!(a.rounds(), 1);
        assert_eq!(a.poisoned_rounds(), 2);
        assert_eq!(a.total_epsilon(), 0.5);
        assert!(!a.total_epsilon().is_nan());
    }

    #[test]
    fn infinite_epsilon_is_legal_and_saturates() {
        let mut a = FdpAccountant::new();
        assert!(a.record_round(f64::INFINITY));
        assert!(a.record_round(1.0));
        assert_eq!(a.rounds(), 2);
        assert_eq!(a.total_epsilon(), f64::INFINITY);
        assert_eq!(a.poisoned_rounds(), 0);
    }

    #[test]
    fn from_state_rebuilds_total_and_history() {
        let mut a = FdpAccountant::new();
        a.record_round(0.5);
        a.record_round(0.25);
        assert!(!a.record_round(f64::NAN));
        let b = FdpAccountant::from_state(a.runs(), a.poisoned_rounds());
        assert_eq!(b, a);
        assert_eq!(b.total_epsilon(), a.total_epsilon());
        // A tampered history cannot smuggle NaN into the total.
        let c = FdpAccountant::from_state(&[(0.5, 1), (f64::NAN, 2)], 0);
        assert_eq!(c.rounds(), 1);
        assert_eq!(c.poisoned_rounds(), 2);
        assert_eq!(c.total_epsilon(), 0.5);
    }

    #[test]
    fn equal_epsilon_rounds_hold_one_run() {
        let mut a = FdpAccountant::new();
        for _ in 0..100_000 {
            assert!(a.record_round(0.01));
        }
        assert_eq!(a.runs(), &[(0.01, 100_000)]);
        assert_eq!(a.rounds(), 100_000);
        let b = FdpAccountant::from_state(a.runs(), 0);
        assert_eq!(b.total_epsilon().to_bits(), a.total_epsilon().to_bits());
    }

    #[test]
    fn runs_restore_exactly_what_the_per_round_history_reports() {
        let sequence = [
            0.5,
            0.5,
            f64::NAN,
            0.1,
            0.1,
            0.1,
            -1.0,
            f64::INFINITY,
            0.5,
            0.3,
            0.3,
            f64::NAN,
            0.7,
        ];
        let mut a = FdpAccountant::new();
        let mut history = Vec::new();
        let mut poisoned = 0u64;
        for &e in &sequence {
            if a.record_round(e) {
                history.push(e);
            } else {
                poisoned += 1;
            }
        }
        let b = FdpAccountant::from_state(a.runs(), a.poisoned_rounds());
        for acct in [&a, &b] {
            assert_eq!(acct.rounds(), history.len());
            assert_eq!(acct.poisoned_rounds(), poisoned);
            assert_eq!(
                acct.total_epsilon().to_bits(),
                history.iter().fold(0.0f64, |t, &e| t + e).to_bits()
            );
            assert_eq!(
                acct.best_round_epsilon(),
                history.iter().copied().reduce(f64::min)
            );
            assert_eq!(
                acct.worst_round_epsilon(),
                history.iter().copied().reduce(f64::max)
            );
        }
        assert_eq!(a.runs().len(), 6);
        assert_eq!(b, a);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        let mut a = FdpAccountant::new();
        assert!(a.record_round(f64::MAX));
        assert!(a.record_round(f64::MAX));
        assert_eq!(a.total_epsilon(), f64::INFINITY);
        assert!(!a.total_epsilon().is_nan());
    }
}
