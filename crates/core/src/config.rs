//! System configuration: table presets and the full FEDORA parameter set.

use fedora_fdp::{FdpMechanism, ProtectionMode, YShape};
use fedora_oram::raw::RawOramConfig;
use fedora_oram::TreeGeometry;
use fedora_storage::profile::{SsdProfile, SSD_PAGE_BYTES};
use fedora_storage::Scratchpad;

/// An embedding-table specification (the paper's §6.1 table sizes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of embedding entries (rows).
    pub num_entries: u64,
    /// Bytes per entry.
    pub entry_bytes: usize,
}

impl TableSpec {
    /// The paper's Small table: 10 M entries × 64 B.
    pub fn small() -> Self {
        TableSpec {
            name: "Small",
            num_entries: 10_000_000,
            entry_bytes: 64,
        }
    }

    /// The paper's Medium table: 50 M entries × 128 B.
    pub fn medium() -> Self {
        TableSpec {
            name: "Medium",
            num_entries: 50_000_000,
            entry_bytes: 128,
        }
    }

    /// The paper's Large table: 250 M entries × 256 B.
    pub fn large() -> Self {
        TableSpec {
            name: "Large",
            num_entries: 250_000_000,
            entry_bytes: 256,
        }
    }

    /// All three paper presets.
    pub fn paper_presets() -> [TableSpec; 3] {
        [Self::small(), Self::medium(), Self::large()]
    }

    /// A tiny table for tests and the simulated pipeline.
    pub fn tiny(num_entries: u64) -> Self {
        TableSpec {
            name: "Tiny",
            num_entries,
            entry_bytes: 32,
        }
    }

    /// Raw table size in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.num_entries * self.entry_bytes as u64
    }

    /// The tree geometry FEDORA provisions for this table: `Z` sized so a
    /// bucket fills whole 4-KiB pages (§6.6: "make the bucket size a
    /// multiple of 4 KB"), one block per entry.
    pub fn geometry(&self) -> TreeGeometry {
        self.geometry_for_bucket_pages(1)
    }

    /// Geometry with a bucket spanning `pages` SSD pages (the §6.6 bucket-
    /// size ablation uses 1 and 4).
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0` or no block fits.
    pub fn geometry_for_bucket_pages(&self, pages: usize) -> TreeGeometry {
        assert!(pages > 0, "bucket must span at least one page");
        let budget = pages * SSD_PAGE_BYTES - fedora_crypto::aead::TAG_LEN;
        let slot = fedora_oram::bucket::SLOT_META_BYTES + self.entry_bytes;
        let z = budget / slot;
        assert!(z > 0, "entry too large for bucket");
        TreeGeometry::for_blocks(self.num_entries, self.entry_bytes, z)
    }
}

/// The privacy configuration of a FEDORA deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct PrivacyConfig {
    /// The ε-FDP mechanism (ε and the Y shape). Its ε is the *user-facing*
    /// target; the effective mechanism ε after group privacy is
    /// [`mechanism_epsilon`](Self::mechanism_epsilon).
    pub mechanism: FdpMechanism,
    /// Oblivious-union chunk size.
    pub chunk_size: usize,
    /// What the guarantee protects (value vs value-count): under
    /// [`ProtectionMode::HideValueCount`] group privacy divides the
    /// mechanism budget by the padded group size (§3.1).
    pub protection: ProtectionMode,
}

impl PrivacyConfig {
    /// ε-FDP at `epsilon` with a uniform shape and the paper's 16 Ki chunk.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon < 0`.
    #[allow(clippy::expect_used)] // the panic is this function's documented contract
    pub fn with_epsilon(epsilon: f64) -> Self {
        PrivacyConfig {
            mechanism: FdpMechanism::new(epsilon, YShape::Uniform).expect("non-negative epsilon"),
            chunk_size: fedora_fdp::ChunkPlan::PAPER_DEFAULT,
            protection: ProtectionMode::HideValue,
        }
    }

    /// Perfect privacy (Strawman 1 behaviour: `k = K` always).
    pub fn perfect() -> Self {
        PrivacyConfig {
            mechanism: FdpMechanism::vanilla(),
            chunk_size: fedora_fdp::ChunkPlan::PAPER_DEFAULT,
            protection: ProtectionMode::HideValue,
        }
    }

    /// No privacy (Strawman 2 behaviour: `k = k_union` always).
    pub fn none() -> Self {
        PrivacyConfig {
            mechanism: FdpMechanism::no_privacy(),
            chunk_size: fedora_fdp::ChunkPlan::PAPER_DEFAULT,
            protection: ProtectionMode::HideValue,
        }
    }

    /// The effective per-value mechanism ε after group-privacy division:
    /// `mechanism.epsilon() / protection.group_size()`. Equal to the
    /// user-facing ε under [`ProtectionMode::HideValue`].
    pub fn mechanism_epsilon(&self) -> f64 {
        self.protection.mechanism_epsilon(self.mechanism.epsilon())
    }
}

/// Cumulative ε-budget policy: the leakage alarm of the privacy
/// observability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrivacyBudgetConfig {
    /// Cumulative (sequentially composed) ε ceiling across all completed
    /// rounds. `None` disables the alarm entirely.
    pub max_total_epsilon: Option<f64>,
    /// When `true`, `begin_round` refuses any round whose ε would push the
    /// cumulative total past the ceiling
    /// ([`FedoraError::PrivacyBudgetExhausted`](crate::server::FedoraError)).
    /// When `false`, rounds keep running but crossing the ceiling journals
    /// a `privacy.budget.exceeded` event (alarm-only mode).
    pub enforce: bool,
}

impl PrivacyBudgetConfig {
    /// Alarm-only: journal `privacy.budget.exceeded` past `max_epsilon`
    /// but keep serving rounds.
    pub fn alarm(max_epsilon: f64) -> Self {
        PrivacyBudgetConfig {
            max_total_epsilon: Some(max_epsilon),
            enforce: false,
        }
    }

    /// Enforcing: refuse rounds that would overspend `max_epsilon`.
    pub fn enforcing(max_epsilon: f64) -> Self {
        PrivacyBudgetConfig {
            max_total_epsilon: Some(max_epsilon),
            enforce: true,
        }
    }
}

/// The live privacy/SLO watch plane: every `every_rounds` committed
/// rounds the server reads its watched series (rounds, round latency,
/// served and shed requests), windows them against the previous sample
/// the way [`fedora_telemetry::Snapshot::delta`] does, evaluates the configured rules over the *window* (not lifetime
/// averages), and journals a `watch.alarm.*` event per violated rule. The
/// latest report is kept in memory for the `fedora-net` `watch` verb.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchConfig {
    /// Sample every N committed rounds (0 disables the watch plane
    /// entirely — no samples, no overhead).
    pub every_rounds: u64,
    /// SLO: alarm when the window's `round.latency` p99 exceeds this many
    /// nanoseconds.
    pub max_round_p99_ns: Option<u64>,
    /// SLO: alarm when shed requests exceed this many parts-per-million of
    /// the window's admitted + shed requests.
    pub max_shed_ppm: Option<u64>,
    /// Privacy: alarm when the latest empirical-ε estimate confidently
    /// exceeds the configured mechanism ε (see
    /// [`crate::audit::empirical::EpsilonEstimate::exceeds`]).
    pub alarm_on_empirical: bool,
    /// Continuous empirical-ε refresh: every N committed rounds the server
    /// pairs the two most recent live shadow traces (captured via an
    /// internally attached [`fedora_storage::AccessTraceRecorder`]), feeds
    /// them to the running [`crate::audit::empirical::EpsilonEstimator`],
    /// and republishes the `fdp.empirical.*` gauges — no on-demand twin
    /// replay. 0 disables the refresher (no recorder is attached, no
    /// per-round trace copies are taken).
    pub empirical_every_rounds: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl WatchConfig {
    /// Watch plane off: no sampling, no rules, no overhead.
    pub fn disabled() -> Self {
        WatchConfig {
            every_rounds: 0,
            max_round_p99_ns: None,
            max_shed_ppm: None,
            alarm_on_empirical: false,
            empirical_every_rounds: 0,
        }
    }

    /// Sample every `every_rounds` rounds with the empirical-ε rule armed
    /// and no SLO thresholds (add them via struct update).
    pub fn every(every_rounds: u64) -> Self {
        WatchConfig {
            every_rounds,
            max_round_p99_ns: None,
            max_shed_ppm: None,
            alarm_on_empirical: true,
            empirical_every_rounds: 0,
        }
    }

    /// Whether the watch plane samples at all.
    pub fn is_enabled(&self) -> bool {
        self.every_rounds > 0
    }

    /// Whether the continuous empirical-ε refresher is on.
    pub fn empirical_enabled(&self) -> bool {
        self.empirical_every_rounds > 0
    }
}

/// How many worker threads seal and open the main ORAM's buckets.
///
/// It drives one mechanism: the main store fans a path's per-bucket AEAD
/// out over a [`fedora_par::WorkerPool`] of this many threads, set once
/// when the server is built. Work is partitioned statically by bucket and
/// merged in path order, so any thread count produces bit-identical
/// device bytes, round reports (modulo latency) and access traces. The
/// default of 1 runs the serial code path — no threads are spawned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Worker threads for the main store's bucket crypto (0 is clamped
    /// to 1).
    pub threads: usize,
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig { threads: 1 }
    }
}

impl ParallelismConfig {
    /// `threads` workers (0 clamps to 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelismConfig {
            threads: threads.max(1),
        }
    }
}

/// Fault-tolerance policy for the server's round pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultToleranceConfig {
    /// Transactional rounds: snapshot ORAM state at `begin_round` and roll
    /// back to it when an unrecoverable integrity failure aborts the round.
    /// Costs a full in-memory clone of the main + buffer ORAMs per round.
    pub transactional: bool,
    /// Bucket-read retries before quarantining (0 = fail immediately).
    pub max_read_retries: u32,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            transactional: false,
            max_read_retries: fedora_oram::store::DEFAULT_RETRY_LIMIT,
        }
    }
}

impl FaultToleranceConfig {
    /// Transactional rounds with the default retry/classification budget.
    pub fn transactional() -> Self {
        FaultToleranceConfig {
            transactional: true,
            ..Self::default()
        }
    }
}

/// The full FEDORA system configuration.
#[derive(Clone, Debug)]
pub struct FedoraConfig {
    /// The embedding table.
    pub table: TableSpec,
    /// Main-ORAM geometry (derived from the table unless overridden).
    pub geometry: TreeGeometry,
    /// RAW ORAM parameters (eviction period `A`).
    pub raw: RawOramConfig,
    /// Privacy settings.
    pub privacy: PrivacyConfig,
    /// Buffer-ORAM capacity: the maximum requests per round (max clients ×
    /// max features per client, both public).
    pub max_requests_per_round: usize,
    /// SSD device profile.
    pub ssd: SsdProfile,
    /// TEE scratchpad (None-equivalent: `Scratchpad::none()` for the
    /// Fig. 10 ablation).
    pub scratchpad: Scratchpad,
    /// Fault-tolerance policy (round transactions, retry budget).
    pub fault_tolerance: FaultToleranceConfig,
    /// Cumulative ε-budget alarm/enforcement (off by default).
    pub privacy_budget: PrivacyBudgetConfig,
    /// Worker threads for the main store's bucket crypto (serial by
    /// default).
    pub parallelism: ParallelismConfig,
    /// Live privacy/SLO watch plane (off by default).
    pub watch: WatchConfig,
    /// Telemetry event-journal capacity: the ring keeps the most recent
    /// N events and counts the rest in `telemetry.journal.dropped`.
    /// Defaults to [`fedora_telemetry::MAX_JOURNAL_EVENTS`]; raise it for
    /// long soak runs whose `tail` consumers poll slowly, lower it to
    /// bound memory on small deployments.
    pub journal_capacity: usize,
}

impl FedoraConfig {
    /// The paper's tuned configuration for a table preset.
    pub fn paper_tuned(table: TableSpec, max_requests_per_round: usize) -> Self {
        let geometry = table.geometry();
        FedoraConfig {
            table,
            geometry,
            raw: RawOramConfig {
                eviction_period: Self::tuned_eviction_period(&geometry),
            },
            privacy: PrivacyConfig::with_epsilon(1.0),
            max_requests_per_round,
            ssd: SsdProfile::pm9a1_like(),
            scratchpad: Scratchpad::paper_default(),
            fault_tolerance: FaultToleranceConfig::default(),
            privacy_budget: PrivacyBudgetConfig::default(),
            parallelism: ParallelismConfig::default(),
            watch: WatchConfig::disabled(),
            journal_capacity: fedora_telemetry::MAX_JOURNAL_EVENTS,
        }
    }

    /// A small configuration for tests: tiny trees, small chunks, fast EOs.
    pub fn for_testing(table: TableSpec, max_requests_per_round: usize) -> Self {
        let geometry = TreeGeometry::for_blocks(table.num_entries, table.entry_bytes, 8);
        FedoraConfig {
            table,
            geometry,
            raw: RawOramConfig { eviction_period: 4 },
            privacy: PrivacyConfig::with_epsilon(1.0),
            max_requests_per_round,
            ssd: SsdProfile::pm9a1_like(),
            scratchpad: Scratchpad::paper_default(),
            fault_tolerance: FaultToleranceConfig::default(),
            privacy_budget: PrivacyBudgetConfig::default(),
            parallelism: ParallelismConfig::default(),
            watch: WatchConfig::disabled(),
            journal_capacity: fedora_telemetry::MAX_JOURNAL_EVENTS,
        }
    }

    /// The paper's tuning rule for the eviction period: `A = 2Z` (the
    /// Ring-ORAM-style bound under ≤50 % provisioning). At the 4-KiB
    /// bucket of the Small table (`Z = 46`) this yields the paper's
    /// maximum of `A = 92`; larger buckets push `A` further (§6.6).
    pub fn tuned_eviction_period(geometry: &TreeGeometry) -> u32 {
        (2 * geometry.z() as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_sizes() {
        assert_eq!(TableSpec::small().data_bytes(), 640_000_000);
        assert_eq!(TableSpec::medium().data_bytes(), 6_400_000_000);
        assert_eq!(TableSpec::large().data_bytes(), 64_000_000_000);
    }

    #[test]
    fn geometry_buckets_fill_pages() {
        for spec in TableSpec::paper_presets() {
            let g = spec.geometry();
            assert_eq!(g.pages_per_bucket(4096), 1, "{}", spec.name);
            // Bucket nearly fills the page (> 90% utilization).
            assert!(g.bucket_stored_bytes() > 3600, "{}", spec.name);
            assert!(g.capacity_blocks() >= spec.num_entries, "{}", spec.name);
        }
    }

    #[test]
    fn small_table_z_and_a() {
        // 64-B entries: slot = 24 + 64 = 88; (4096-16)/88 = 46 slots, and
        // A = 2Z = 92 — exactly the paper's "up to 92".
        let g = TableSpec::small().geometry();
        assert_eq!(g.z(), 46);
        assert_eq!(FedoraConfig::tuned_eviction_period(&g), 92);
    }

    #[test]
    fn larger_buckets_allow_larger_a() {
        let small = TableSpec::small();
        let g1 = small.geometry_for_bucket_pages(1);
        let g4 = small.geometry_for_bucket_pages(4);
        assert!(g4.z() > g1.z());
        assert!(
            FedoraConfig::tuned_eviction_period(&g4) > FedoraConfig::tuned_eviction_period(&g1)
        );
    }

    #[test]
    fn oram_amplification_in_paper_range() {
        // The ORAM tree is 1.5–8× the raw data (§3.2); power-of-two leaf
        // rounding can push a config slightly past the nominal ceiling.
        for spec in TableSpec::paper_presets() {
            let g = spec.geometry();
            let amp = g.tree_bytes(4096) as f64 / spec.data_bytes() as f64;
            assert!(
                (1.5..=8.6).contains(&amp),
                "{}: amplification {amp}",
                spec.name
            );
        }
    }

    #[test]
    fn privacy_presets() {
        assert_eq!(PrivacyConfig::perfect().mechanism.epsilon(), 0.0);
        assert!(PrivacyConfig::none().mechanism.epsilon().is_infinite());
        assert_eq!(PrivacyConfig::with_epsilon(1.0).mechanism.epsilon(), 1.0);
    }

    #[test]
    fn group_privacy_divides_mechanism_epsilon() {
        let mut p = PrivacyConfig::with_epsilon(1.0);
        assert_eq!(p.mechanism_epsilon(), 1.0);
        p.protection = ProtectionMode::hide_count_paper();
        assert!((p.mechanism_epsilon() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn budget_presets() {
        assert_eq!(PrivacyBudgetConfig::default().max_total_epsilon, None);
        let alarm = PrivacyBudgetConfig::alarm(5.0);
        assert_eq!(alarm.max_total_epsilon, Some(5.0));
        assert!(!alarm.enforce);
        assert!(PrivacyBudgetConfig::enforcing(5.0).enforce);
    }
}
