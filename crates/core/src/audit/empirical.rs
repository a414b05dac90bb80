//! Empirical-ε estimation over replayed twin pairs.
//!
//! The twin-run auditor ([`crate::audit`]) answers a yes/no question: did
//! the traces diverge beyond what the configured claim allows? This module
//! upgrades that to a *quantity* — how much did the observed access
//! pattern actually leak — and alarms when that confidently exceeds the
//! configured mechanism ε. It is an offline audit (`fedora_audit
//! --empirical`): the two arms of a pair must differ only in their input,
//! which consecutive live rounds never guarantee.
//!
//! ## Model
//!
//! Each replayed twin pair contributes one sample: the same round schedule
//! run with the same seed on two servers whose private inputs differ in
//! `d` feature values (`d` = [`value_distance`]; prefer `d = 1` adjacent
//! inputs, see [`adjacent_inputs`]). Both traces are canonicalized with
//! the offline auditor's machinery, then collapsed to **path counts** per
//! operation: the number of root-level (level-0) touches. Every tree-path
//! access touches the root exactly once, so the root count is the one
//! degree of freedom the mechanism's `k` draw controls — counting deeper
//! levels as well would replay the same evidence once per level (path
//! accesses are perfectly correlated across levels) and overstate the
//! leakage by the tree depth.
//!
//! The per-arm path-count distributions are estimated **empirically**
//! (smoothed pmfs over the observed support), not with a parametric
//! model: a parametric surrogate sees only means and would score an
//! honest DP mechanism (noise-overlapped supports) the same as a
//! deterministic leak with the same mean gap. The per-sample privacy loss
//! is the symmetric log-likelihood ratio of each arm's observed count
//! under its own pmf versus the other's, divided by `d` for per-value ε.
//!
//! ## Estimate and alarm semantics
//!
//! [`EpsilonEstimate::eps_hat`] is the bias-corrected mean per-value loss;
//! the confidence interval uses the same z ≈ 3.09 (α ≈ 0.001) as the
//! auditor's Wilson–Hilferty chi-squared critical value, so both
//! judgements alarm at the same significance. The alarm predicate
//! ([`EpsilonEstimate::exceeds`]) is deliberately conservative: it fires
//! only when the CI *lower* bound clears the budget, i.e. when the data
//! confidently rules out the configured ε.
//!
//! **Honest caveat:** a black-box estimate from `n` pairs can never
//! exceed ≈ `ln(2n + 1)` nats of measured loss per channel — disjoint
//! observed supports are indistinguishable from a likelihood ratio of
//! about `2n`. The estimate is therefore a *lower bound* on leakage, and
//! tight intervals (or confidently clearing a small budget) need tens of
//! samples. Deterministic leaks (the §3.2 naive-dedup strawman) hit that
//! `ln(2n + 1)` ceiling with zero variance, which is exactly what makes
//! them alarm quickly; honest mechanisms at `d = 1` sit well below their
//! configured ε.

use std::collections::BTreeMap;

use fedora_storage::AccessRecord;

use crate::audit::{
    canonicalize, chi_squared_two_sample, op_key, traced_run, CanonicalAccess, ChiSquared,
    CONFIDENCE_Z,
};
use crate::config::FedoraConfig;
use crate::server::FedoraError;

/// A per-operation channel key (read / write).
type Channel = u8;

/// Occurrences per distinct path-count value — one arm's raw pmf.
type Pmf = BTreeMap<u64, u64>;

/// Add-half-smoothed probabilities over a channel's union support.
type SmoothedPmf = BTreeMap<u64, f64>;

/// The running empirical-ε estimate over the twin pairs observed so far.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpsilonEstimate {
    /// Bias-corrected mean per-value privacy loss (the empirical ε).
    pub eps_hat: f64,
    /// Lower confidence bound at the auditor's significance (α ≈ 0.001).
    pub ci_lo: f64,
    /// Upper confidence bound (`+∞` until two samples exist).
    pub ci_hi: f64,
    /// Twin pairs the estimate is based on.
    pub samples: usize,
}

impl EpsilonEstimate {
    /// An estimate carrying no evidence at all.
    pub fn empty() -> Self {
        EpsilonEstimate {
            eps_hat: 0.0,
            ci_lo: 0.0,
            ci_hi: f64::INFINITY,
            samples: 0,
        }
    }

    /// Whether the estimate *confidently* exceeds `budget` (the configured
    /// per-value mechanism ε): the CI lower bound clears the budget with at
    /// least two samples behind it. Never fires against an infinite budget
    /// (a no-privacy claim bounds nothing).
    pub fn exceeds(&self, budget: f64) -> bool {
        budget.is_finite() && self.samples >= 2 && self.ci_lo > budget
    }
}

/// Streaming estimator: feed it raw twin traces one pair at a time
/// ([`EpsilonEstimator::observe_pair`]), read the current estimate at any
/// point ([`EpsilonEstimator::estimate`]). Only per-channel path counts
/// are retained, so memory grows with `samples`, not trace length.
#[derive(Clone, Debug)]
pub struct EpsilonEstimator {
    pages_per_bucket: u64,
    /// Twin value-distance `d`: the loss of one pair bounds `d` values'
    /// worth of ε, so per-value ε divides by it.
    distance: f64,
    counts_a: Vec<BTreeMap<Channel, u64>>,
    counts_b: Vec<BTreeMap<Channel, u64>>,
}

impl EpsilonEstimator {
    /// Creates an estimator for twins `distance` feature values apart on a
    /// tree with `pages_per_bucket` pages per bucket.
    pub fn new(pages_per_bucket: u64, distance: usize) -> Self {
        EpsilonEstimator {
            pages_per_bucket,
            distance: distance.max(1) as f64,
            counts_a: Vec::new(),
            counts_b: Vec::new(),
        }
    }

    /// Ingests one replayed twin pair (raw traces; canonicalization and
    /// path-count collapse happen here).
    pub fn observe_pair(&mut self, trace_a: &[AccessRecord], trace_b: &[AccessRecord]) {
        self.counts_a
            .push(path_counts(&canonicalize(trace_a, self.pages_per_bucket)));
        self.counts_b
            .push(path_counts(&canonicalize(trace_b, self.pages_per_bucket)));
    }

    /// The current estimate. See the [module docs](self) for semantics.
    pub fn estimate(&self) -> EpsilonEstimate {
        let n = self.counts_a.len();
        if n == 0 {
            return EpsilonEstimate::empty();
        }
        let nf = n as f64;
        // Channels observed anywhere, and the per-channel empirical pmfs
        // of each arm's path count (occurrences per distinct count value).
        let mut channels: BTreeMap<Channel, (Pmf, Pmf)> = BTreeMap::new();
        for i in 0..n {
            for (arm, per_sample) in [(0, &self.counts_a), (1, &self.counts_b)] {
                for (&ch, &c) in &per_sample[i] {
                    let entry = channels.entry(ch).or_default();
                    let pmf = if arm == 0 { &mut entry.0 } else { &mut entry.1 };
                    *pmf.entry(c).or_insert(0) += 1;
                }
            }
        }
        // Smoothed pmf over the union support (add-half keeps log-ratios
        // finite where one arm never produced a count value). `support`
        // also drives the plug-in bias correction below.
        let mut support_excess = 0usize;
        let mut smoothed: BTreeMap<Channel, (SmoothedPmf, SmoothedPmf)> = BTreeMap::new();
        for (&ch, (pmf_a, pmf_b)) in &channels {
            let support: Vec<u64> = {
                let mut s: Vec<u64> = pmf_a.keys().chain(pmf_b.keys()).copied().collect();
                s.sort_unstable();
                s.dedup();
                s
            };
            support_excess += support.len().saturating_sub(1);
            let denom = nf + 0.5 * support.len() as f64;
            let smooth = |pmf: &Pmf| -> SmoothedPmf {
                support
                    .iter()
                    .map(|&c| (c, (pmf.get(&c).copied().unwrap_or(0) as f64 + 0.5) / denom))
                    .collect()
            };
            smoothed.insert(ch, (smooth(pmf_a), smooth(pmf_b)));
        }
        // Per-pair loss: symmetric log-likelihood ratio of each arm's
        // observed counts under its own pmf versus the other's, summed
        // over channels, scaled to per-value ε.
        let losses: Vec<f64> = (0..n)
            .map(|i| {
                let mut llr = 0.0;
                for (ch, (pa, pb)) in &smoothed {
                    let ca = self.counts_a[i].get(ch).copied().unwrap_or(0);
                    let cb = self.counts_b[i].get(ch).copied().unwrap_or(0);
                    // Counts absent from the support maps only happen for
                    // the all-zero channel a trace never touched; both
                    // pmfs then agree and the term is zero.
                    if let (Some(&pa_a), Some(&pb_a)) = (pa.get(&ca), pb.get(&ca)) {
                        llr += 0.5 * (pa_a / pb_a).ln();
                    }
                    if let (Some(&pb_b), Some(&pa_b)) = (pb.get(&cb), pa.get(&cb)) {
                        llr += 0.5 * (pb_b / pa_b).ln();
                    }
                }
                llr / self.distance
            })
            .collect();
        let mean = losses.iter().sum::<f64>() / nf;
        // First-order plug-in bias of the empirical-llr estimate, scaled
        // to per-value ε like the losses.
        let bias = support_excess as f64 / self.distance / (2.0 * nf);
        let eps_hat = (mean - bias).max(0.0);
        if n < 2 {
            return EpsilonEstimate {
                eps_hat,
                ci_lo: 0.0,
                ci_hi: f64::INFINITY,
                samples: n,
            };
        }
        let var = losses.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (nf - 1.0);
        let half = CONFIDENCE_Z * (var / nf).sqrt();
        EpsilonEstimate {
            eps_hat,
            ci_lo: (eps_hat - half).max(0.0),
            ci_hi: eps_hat + half,
            samples: n,
        }
    }
}

/// Collapses a canonical trace into per-operation path counts: the number
/// of root-level touches, one per tree-path access.
fn path_counts(canon: &[CanonicalAccess]) -> BTreeMap<Channel, u64> {
    let mut counts: BTreeMap<Channel, u64> = BTreeMap::new();
    for c in canon {
        if c.level == 0 {
            *counts.entry(op_key(c.op)).or_insert(0) += 1;
        }
    }
    counts
}

/// Number of feature values two request schedules differ in: the symmetric
/// difference of their requested-entry sets (≥ 1, so a degenerate pair
/// still yields a defined per-value ε).
pub fn value_distance(requests_a: &[u64], requests_b: &[u64]) -> usize {
    use std::collections::BTreeSet;
    let a: BTreeSet<u64> = requests_a.iter().copied().collect();
    let b: BTreeSet<u64> = requests_b.iter().copied().collect();
    a.symmetric_difference(&b).count().max(1)
}

/// The canonical distance-1 estimation input: `k` requests for `k`
/// distinct entries versus the same schedule with the last entry replaced
/// by a duplicate of its neighbour — `k_union` differs by exactly one,
/// the adjacent-database pair of the DP definition.
pub fn adjacent_inputs(k: usize) -> (Vec<u64>, Vec<u64>) {
    if k < 2 {
        return (vec![0], vec![0]);
    }
    let a: Vec<u64> = (0..k as u64).collect();
    let mut b = a.clone();
    b[k - 1] = b[k - 2];
    (a, b)
}

/// Everything one empirical estimation run measured.
#[derive(Clone, Debug)]
pub struct EmpiricalOutcome {
    /// The empirical-ε estimate.
    pub estimate: EpsilonEstimate,
    /// Pooled chi-squared frequency test over all replayed traces (the
    /// offline auditor's judgement on the same evidence).
    pub chi: ChiSquared,
    /// The per-value mechanism ε the configuration claims.
    pub mechanism_epsilon: f64,
    /// Twin value-distance the per-value scaling used.
    pub distance: usize,
    /// Whether the estimate confidently exceeds the claimed ε.
    pub alarm: bool,
}

/// Replays `samples` independent twin pairs (one round each, seeds derived
/// from `seed`) and estimates the empirical per-value ε of `config`'s
/// mechanism. Fresh servers per replay, as [`traced_run`] builds them.
/// Prefer [`adjacent_inputs`] (distance 1) for the request pair: large
/// distances dilute the per-value estimate and weaken the alarm.
///
/// # Errors
///
/// Round failures propagate unchanged.
pub fn estimate_twin_inputs(
    config: &FedoraConfig,
    seed: u64,
    requests_a: &[u64],
    requests_b: &[u64],
    samples: usize,
) -> Result<EmpiricalOutcome, FedoraError> {
    let ppb = config.geometry.pages_per_bucket(config.ssd.page_bytes);
    let distance = value_distance(requests_a, requests_b);
    let mut estimator = EpsilonEstimator::new(ppb, distance);
    let mut pooled_a: Vec<CanonicalAccess> = Vec::new();
    let mut pooled_b: Vec<CanonicalAccess> = Vec::new();
    for i in 0..samples {
        // Golden-ratio stride decorrelates per-sample seeds while keeping
        // the schedule reproducible from one root seed.
        let s = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let trace_a = traced_run(config, s, requests_a, 1)?;
        let trace_b = traced_run(config, s, requests_b, 1)?;
        pooled_a.extend(canonicalize(&trace_a, ppb));
        pooled_b.extend(canonicalize(&trace_b, ppb));
        estimator.observe_pair(&trace_a, &trace_b);
    }
    let estimate = estimator.estimate();
    let chi = chi_squared_two_sample(&pooled_a, &pooled_b);
    let mechanism_epsilon = config.privacy.mechanism.epsilon();
    Ok(EmpiricalOutcome {
        estimate,
        chi,
        mechanism_epsilon,
        distance,
        alarm: estimate.exceeds(mechanism_epsilon),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedora_storage::{AccessOp, AccessRecord};

    /// `n` read path-accesses: each touches root (page 0) plus two deeper
    /// pages, the shape a tree-path fetch leaves with one page per bucket.
    fn paths(n: usize) -> Vec<AccessRecord> {
        let mut t = Vec::new();
        for _ in 0..n {
            for page in [0u64, 1, 3] {
                t.push(AccessRecord {
                    op: AccessOp::Read,
                    page,
                });
            }
        }
        t
    }

    #[test]
    fn empty_estimator_is_inconclusive() {
        let est = EpsilonEstimator::new(1, 7).estimate();
        assert_eq!(est, EpsilonEstimate::empty());
        assert!(!est.exceeds(0.0));
        assert!(!est.exceeds(1.0));
    }

    #[test]
    fn identical_twins_estimate_zero() {
        let mut e = EpsilonEstimator::new(1, 7);
        for _ in 0..4 {
            let t = paths(5);
            e.observe_pair(&t, &t);
        }
        let est = e.estimate();
        assert_eq!(est.samples, 4);
        assert_eq!(est.eps_hat, 0.0);
        assert_eq!(est.ci_lo, 0.0);
        assert!(est.ci_hi < 1e-9, "{est:?}");
        assert!(!est.exceeds(0.0));
    }

    #[test]
    fn deterministic_length_leak_yields_confident_epsilon() {
        // Arm A always walks 8 paths, arm B always 1 — the naive-dedup
        // shape: disjoint supports, zero variance.
        let mut e = EpsilonEstimator::new(1, 1);
        for _ in 0..8 {
            e.observe_pair(&paths(8), &paths(1));
        }
        let est = e.estimate();
        // Disjoint supports measure ≈ ln(2n + 1) nats.
        assert!(est.eps_hat > 2.0, "{est:?}");
        assert!(est.exceeds(1.0), "{est:?}");
        assert!(est.ci_lo > 1.0, "{est:?}");
    }

    #[test]
    fn noisy_overlapping_counts_stay_below_budget() {
        // Both arms draw path counts from overlapping supports (an honest
        // DP mechanism's shape): the measured per-value loss stays small.
        let a_counts = [8, 9, 8, 10, 9, 8, 9, 10];
        let b_counts = [9, 8, 10, 8, 9, 10, 8, 9];
        let mut e = EpsilonEstimator::new(1, 1);
        for (&ca, &cb) in a_counts.iter().zip(&b_counts) {
            e.observe_pair(&paths(ca), &paths(cb));
        }
        let est = e.estimate();
        assert!(est.eps_hat < 0.5, "{est:?}");
        assert!(!est.exceeds(1.0), "{est:?}");
    }

    #[test]
    fn one_sample_has_unbounded_upper_ci() {
        let mut e = EpsilonEstimator::new(1, 1);
        e.observe_pair(&paths(1), &paths(4));
        let est = e.estimate();
        assert_eq!(est.samples, 1);
        assert_eq!(est.ci_hi, f64::INFINITY);
        // A single pair can never alarm, however lopsided.
        assert!(!est.exceeds(0.0));
    }

    #[test]
    fn distance_scales_per_value_epsilon() {
        let build = |d: usize| {
            let mut e = EpsilonEstimator::new(1, d);
            for _ in 0..3 {
                e.observe_pair(&paths(8), &paths(2));
            }
            e.estimate().eps_hat
        };
        let tight = build(1);
        let grouped = build(8);
        assert!(tight > 0.0 && grouped > 0.0);
        assert!((tight / grouped - 8.0).abs() < 0.5, "{tight} vs {grouped}");
    }

    #[test]
    fn adjacent_inputs_are_distance_one() {
        let (a, b) = adjacent_inputs(8);
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 8);
        assert_eq!(value_distance(&a, &b), 1);
        let (a1, b1) = adjacent_inputs(1);
        assert_eq!(value_distance(&a1, &b1), 1); // clamped floor
    }

    #[test]
    fn value_distance_is_symmetric_difference() {
        assert_eq!(value_distance(&[0, 1, 2, 3], &[0, 0, 0, 0]), 3);
        assert_eq!(value_distance(&[5], &[5]), 1); // clamped floor
        assert_eq!(value_distance(&[1, 2], &[3, 4]), 4);
    }
}
