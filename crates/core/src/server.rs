//! The FEDORA controller: the round pipeline of Figure 4.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use fedora_crypto::IntegrityError;
use fedora_fdp::{ChunkPlan, FdpAccountant};
use fedora_fl::modes::AggregationMode;
use fedora_oblivious::union::{oblivious_union, requests_scan_cost};
use fedora_oram::buffer::{BufferError, BufferOram};
use fedora_oram::raw::RawOram;
use fedora_oram::store::{BucketStore, IntegrityStats, ScrubReport, SsdBucketStore};
use fedora_oram::OramError;
use fedora_storage::stats::DeviceStats;
use fedora_storage::{AccessRecord, AccessTraceRecorder};
use fedora_storage::{ByteReader, ByteWriter, CodecError, FaultConfig, FaultStats};
use fedora_telemetry::{Counter, Gauge, Histogram, HistogramSummary, Registry, TraceSpan};
use rand::Rng;

use crate::audit::empirical::{value_distance, EpsilonEstimate, EpsilonEstimator};
use crate::config::FedoraConfig;
use crate::durable::{
    self, CheckpointStats, CrashPoint, DurableError, DurableState, FaultPlan, JournalRecord,
};

/// Errors from the FEDORA pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum FedoraError {
    /// More requests than the provisioned per-round maximum.
    TooManyRequests {
        /// Requests submitted.
        got: usize,
        /// The provisioned maximum.
        max: usize,
    },
    /// An entry id that was neither fetched nor lost this round.
    UnknownEntry {
        /// The offending id.
        id: u64,
    },
    /// A round operation was issued outside an active round.
    NoActiveRound,
    /// `begin_round` called while a round is already active.
    RoundInProgress,
    /// Main-ORAM failure.
    Oram(OramError),
    /// Buffer-ORAM failure.
    Buffer(BufferError),
    /// An integrity failure survived the store's retries, so the round
    /// was aborted, its ε charged, and the server stopped: every later
    /// `begin_round`, `checkpoint` and `recover` on it returns this same
    /// error. The way back is [`FedoraServer::recover`] on a freshly
    /// built server, which restores the last commit and charges the
    /// failed round from its journaled begin record, as after a crash.
    RoundAborted {
        /// What kind of integrity violation forced the abort.
        kind: IntegrityError,
        /// The bucket (tree node) that failed authentication.
        node: u64,
    },
    /// The configured cumulative ε budget would be exceeded by running
    /// another round, and the budget is in enforcing mode. The round was
    /// refused before any state changed; no budget was consumed.
    PrivacyBudgetExhausted {
        /// Cumulative ε already spent (the accountant's total).
        spent: f64,
        /// The configured maximum cumulative ε.
        budget: f64,
    },
    /// The chaos harness's armed crash point fired: the server simulated
    /// a process kill at this instant. The in-memory server is dead;
    /// recovery proceeds from the state directory on a fresh instance.
    CrashInjected {
        /// Which crash point fired.
        point: CrashPoint,
    },
    /// A journal or checkpoint operation failed.
    Durable(DurableError),
}

impl From<OramError> for FedoraError {
    fn from(e: OramError) -> Self {
        FedoraError::Oram(e)
    }
}

impl From<BufferError> for FedoraError {
    fn from(e: BufferError) -> Self {
        FedoraError::Buffer(e)
    }
}

impl From<DurableError> for FedoraError {
    fn from(e: DurableError) -> Self {
        FedoraError::Durable(e)
    }
}

impl core::fmt::Display for FedoraError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FedoraError::TooManyRequests { got, max } => {
                write!(f, "{got} requests exceed the provisioned maximum {max}")
            }
            FedoraError::UnknownEntry { id } => write!(f, "entry {id} not part of this round"),
            FedoraError::NoActiveRound => f.write_str("no active round"),
            FedoraError::RoundInProgress => f.write_str("a round is already in progress"),
            FedoraError::Oram(e) => write!(f, "main ORAM: {e}"),
            FedoraError::Buffer(e) => write!(f, "buffer ORAM: {e}"),
            FedoraError::RoundAborted { kind, node } => {
                write!(
                    f,
                    "round aborted, server stopped until recovery: bucket {node} failed with {kind}"
                )
            }
            FedoraError::PrivacyBudgetExhausted { spent, budget } => {
                write!(
                    f,
                    "privacy budget exhausted: ε spent {spent} of budget {budget}"
                )
            }
            FedoraError::CrashInjected { point } => {
                write!(f, "chaos crash injected at {point}")
            }
            FedoraError::Durable(e) => write!(f, "durability: {e}"),
        }
    }
}

impl std::error::Error for FedoraError {}

/// Host wall-clock time spent in each phase of one round, in nanoseconds.
///
/// The five phase fields partition [`PhaseBreakdown::round_ns`] exactly:
/// every phase interval is measured once against a single clock read pair
/// and `round_ns` accumulates those *same measured values*, so
/// `sum_ns() == round_ns` identically — no phase is ever derived by
/// subtraction, which would let clock skew between two different reads
/// leak into (or silently vanish from) a phase.
///
/// Note these are *host* times — the simulated device latencies of the cost
/// model live in the `DeviceStats` fields and `trace.io` records instead.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Oblivious-union scans across all chunks (step ①).
    pub union_ns: u64,
    /// Rest of the read phase: FDP sampling, ordering, main-ORAM fetches
    /// and buffer loads (steps ②–③).
    pub fetch_ns: u64,
    /// Serving user downloads from the buffer ORAM (step ④), summed over
    /// every `serve` call.
    pub serve_ns: u64,
    /// Gradient aggregation into the buffer ORAM (step ⑥), summed over
    /// every `aggregate` call.
    pub aggregate_ns: u64,
    /// Write phase: buffer drain, main-ORAM insertions and EO evictions,
    /// report finalization (step ⑦).
    pub write_ns: u64,
    /// Total measured round time (sum of the five phase intervals above).
    pub round_ns: u64,
}

impl PhaseBreakdown {
    /// Sum of the five phase fields (equals [`PhaseBreakdown::round_ns`]
    /// exactly).
    pub fn sum_ns(&self) -> u64 {
        self.union_ns + self.fetch_ns + self.serve_ns + self.aggregate_ns + self.write_ns
    }
}

/// Everything observable/countable about one round, used by the latency,
/// lifetime, and cost models.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundReport {
    /// Total user requests `K`.
    pub k_requests: usize,
    /// Unique entries per chunk, summed (`Σ_c k_union(c)`).
    pub k_union: usize,
    /// Main-ORAM accesses actually performed (`Σ_c k(c)`).
    pub k_accesses: usize,
    /// Padding (dummy) accesses issued (`k > k_union` part).
    pub dummies: usize,
    /// Entries lost to the mechanism (`k < k_union` part).
    pub lost: usize,
    /// Oblivious-union slot visits (the O(K²) scan cost).
    pub union_scan_slots: u64,
    /// EO accesses performed during the write phase.
    pub eo_accesses: u64,
    /// SSD activity for this round.
    pub ssd: DeviceStats,
    /// Buffer-ORAM DRAM activity for this round.
    pub buffer_dram: DeviceStats,
    /// VTree DRAM activity for this round.
    pub vtree_dram: DeviceStats,
    /// Integrity events (detections, retries, recoveries, quarantines)
    /// observed on the main ORAM during this round.
    pub integrity: IntegrityStats,
    /// Host wall-time spent per phase of this round.
    pub phases: PhaseBreakdown,
}

fn put_device_stats(w: &mut ByteWriter, s: &DeviceStats) {
    for v in [
        s.pages_read,
        s.pages_written,
        s.bytes_read,
        s.bytes_written,
        s.busy_ns,
        s.faults_bitflip,
        s.faults_rollback,
        s.faults_transient,
    ] {
        w.put_u64(v);
    }
}

fn get_device_stats(r: &mut ByteReader<'_>) -> Result<DeviceStats, CodecError> {
    Ok(DeviceStats {
        pages_read: r.get_u64()?,
        pages_written: r.get_u64()?,
        bytes_read: r.get_u64()?,
        bytes_written: r.get_u64()?,
        busy_ns: r.get_u64()?,
        faults_bitflip: r.get_u64()?,
        faults_rollback: r.get_u64()?,
        faults_transient: r.get_u64()?,
    })
}

impl RoundReport {
    /// A copy with the host-time-dependent phase wall-clock zeroed,
    /// leaving only the deterministic round facts. Two runs of the same
    /// round — or a run and its crash-recovered twin — produce
    /// byte-identical scrubbed reports.
    pub fn scrubbed(&self) -> RoundReport {
        RoundReport {
            phases: PhaseBreakdown::default(),
            ..self.clone()
        }
    }

    /// Serializes the deterministic round facts (everything but the
    /// phases, which [`scrubbed`](Self::scrubbed) zeroes) into `w`.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        for v in [
            self.k_requests,
            self.k_union,
            self.k_accesses,
            self.dummies,
            self.lost,
        ] {
            w.put_u64(v as u64);
        }
        w.put_u64(self.union_scan_slots);
        w.put_u64(self.eo_accesses);
        put_device_stats(w, &self.ssd);
        put_device_stats(w, &self.buffer_dram);
        put_device_stats(w, &self.vtree_dram);
        for v in [
            self.integrity.detected_corruption,
            self.integrity.detected_rollback,
            self.integrity.transient_retries,
            self.integrity.recovered,
            self.integrity.quarantined,
        ] {
            w.put_u64(v);
        }
    }

    /// Decodes a report captured by [`encode_state`](Self::encode_state)
    /// (phases come back zeroed, i.e. scrubbed).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<RoundReport, CodecError> {
        Ok(RoundReport {
            k_requests: r.get_u64()? as usize,
            k_union: r.get_u64()? as usize,
            k_accesses: r.get_u64()? as usize,
            dummies: r.get_u64()? as usize,
            lost: r.get_u64()? as usize,
            union_scan_slots: r.get_u64()?,
            eo_accesses: r.get_u64()?,
            ssd: get_device_stats(r)?,
            buffer_dram: get_device_stats(r)?,
            vtree_dram: get_device_stats(r)?,
            integrity: IntegrityStats {
                detected_corruption: r.get_u64()?,
                detected_rollback: r.get_u64()?,
                transient_retries: r.get_u64()?,
                recovered: r.get_u64()?,
                quarantined: r.get_u64()?,
            },
            phases: PhaseBreakdown::default(),
        })
    }

    /// FNV-1a-64 digest of the deterministic round facts (the journal's
    /// commit records carry this for recovery cross-checks).
    pub fn digest(&self) -> u64 {
        let mut w = ByteWriter::new();
        self.encode_state(&mut w);
        fedora_storage::fnv1a64(&w.into_bytes())
    }
}

/// The record of the aborted round that stopped the server.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundAbort {
    /// The integrity violation that forced the abort.
    pub kind: IntegrityError,
    /// The bucket that exhausted its retry budget.
    pub node: u64,
    /// The partial report at abort time (its `integrity` field holds the
    /// detections the round counted).
    pub report: RoundReport,
}

/// Snapshot of device stats at round start (to compute deltas).
#[derive(Debug)]
struct RoundState {
    report: RoundReport,
    ssd_before: DeviceStats,
    buffer_before: DeviceStats,
    vtree_before: DeviceStats,
    eo_before: u64,
    integrity_before: IntegrityStats,
    lost_ids: HashSet<u64>,
}

/// Telemetry handles for the FL-facing side of the round pipeline.
#[derive(Clone, Debug, Default)]
struct FlTelemetry {
    rounds_completed: Counter,
    rounds_aborted: Counter,
    download_bytes: Counter,
    upload_bytes: Counter,
    lost_serves: Counter,
    /// Committed-round wall time, as a histogram so interval views
    /// ([`Snapshot::delta`]) can report a windowed p99 (the
    /// `round.phase.*` gauges only carry the latest round).
    ///
    /// [`Snapshot::delta`]: fedora_telemetry::Snapshot::delta
    round_latency: Histogram,
    /// Monotonic liveness gauge: the durably committed round count, the
    /// round-pipeline equivalent of an `uptime_seconds` series (scrape it
    /// twice; if it moved, the pipeline is alive).
    uptime_rounds: Gauge,
}

impl FlTelemetry {
    fn attach(registry: &Registry) -> Self {
        FlTelemetry {
            rounds_completed: registry.counter("fl.rounds.completed"),
            rounds_aborted: registry.counter("fl.rounds.aborted"),
            download_bytes: registry.counter("fl.round.download_bytes"),
            upload_bytes: registry.counter("fl.round.upload_bytes"),
            lost_serves: registry.counter("fl.round.lost_serves"),
            round_latency: registry.histogram("round.latency"),
            uptime_rounds: registry.gauge("fedora.uptime.rounds"),
        }
    }
}

/// Retained-pair cap for the live empirical-ε refresher: enough pairs for
/// tight intervals (the black-box ceiling is ≈ ln(2n+1) nats), bounded so
/// a months-long soak holds constant memory and tracks recent behaviour.
const MAX_REFRESHER_PAIRS: usize = 128;

/// State of the continuous empirical-ε refresher: an internally owned
/// shadow recorder armed only on capture rounds, the running estimator,
/// and the first arm of the next pair. Unlike the offline twin audit
/// ([`crate::audit::empirical::estimate_twin_inputs`]), consecutive live
/// rounds are not controlled twins — each pair carries its own
/// [`value_distance`], making the estimate a *drift monitor*: an honest
/// mechanism keeps overlapping path-count supports and a small ε̂, while
/// an implementation whose access count tracks its inputs drifts upward.
struct EmpiricalRefresher {
    recorder: AccessTraceRecorder,
    estimator: EpsilonEstimator,
    /// Whether the recorder is currently attached to the main store.
    armed: bool,
    /// Request schedule of the capture round in flight.
    round_requests: Vec<u64>,
    /// First arm of the next estimator pair: (requests, trace).
    pending: Option<(Vec<u64>, Vec<AccessRecord>)>,
}

/// Telemetry handles mirroring the privacy accountant into the registry —
/// the *privacy ledger* of the observability layer (§3.1 accounting made
/// visible).
///
/// Public series carry only values derivable from the public protocol
/// parameters and the accountant (ε per round, cumulative ε, round
/// count). Anything derived from the secret `k_union` — dummy and lost
/// counts, the per-round union size, and the `k` overhead histogram — is
/// registered **audit-only** so default exports never leak it; an
/// operator must opt in via [`Snapshot::audit_view`] to see those series.
///
/// [`Snapshot::audit_view`]: fedora_telemetry::Snapshot::audit_view
#[derive(Clone, Debug, Default)]
struct PrivacyLedger {
    round_epsilon: Gauge,
    total_epsilon: Gauge,
    mechanism_epsilon: Gauge,
    rounds: Gauge,
    poisoned: Counter,
    budget_max: Gauge,
    budget_refused: Counter,
    // Secret-dependent series (derived from k_union): audit-only.
    dummies: Counter,
    lost: Counter,
    k_union: Gauge,
    k_overhead: Histogram,
    // Empirical-ε estimates come from twin-run audits over recorded
    // traces; the estimate itself is derived from access patterns, so it
    // stays audit-only alongside the other trace-derived series.
    empirical_eps_hat: Gauge,
    empirical_ci_lo: Gauge,
    empirical_ci_hi: Gauge,
    empirical_samples: Gauge,
}

impl PrivacyLedger {
    fn attach(registry: &Registry, config: &FedoraConfig) -> Self {
        let ledger = PrivacyLedger {
            round_epsilon: registry.gauge("fdp.round.epsilon"),
            total_epsilon: registry.gauge("fdp.total.epsilon"),
            mechanism_epsilon: registry.gauge("fdp.mechanism.epsilon"),
            rounds: registry.gauge("fdp.rounds"),
            poisoned: registry.counter("fdp.ledger.poisoned"),
            budget_max: registry.gauge("fdp.budget.max_epsilon"),
            budget_refused: registry.counter("fdp.budget.refused_rounds"),
            dummies: registry.counter_audit("fdp.dummies.total"),
            lost: registry.counter_audit("fdp.lost.total"),
            k_union: registry.gauge_audit("fdp.round.k_union"),
            k_overhead: registry.histogram_audit("fdp.k.overhead"),
            empirical_eps_hat: registry.gauge_audit("fdp.empirical.eps_hat"),
            empirical_ci_lo: registry.gauge_audit("fdp.empirical.ci_lo"),
            empirical_ci_hi: registry.gauge_audit("fdp.empirical.ci_hi"),
            empirical_samples: registry.gauge_audit("fdp.empirical.samples"),
        };
        // Static per config: the mechanism ε after group-privacy division
        // (ε/n for HideValueCount{n}), and the budget ceiling if set.
        ledger
            .mechanism_epsilon
            .set(config.privacy.mechanism_epsilon());
        if let Some(max) = config.privacy_budget.max_total_epsilon {
            ledger.budget_max.set(max);
        }
        ledger
    }
}

/// The FEDORA server.
pub struct FedoraServer {
    config: FedoraConfig,
    main: RawOram<SsdBucketStore>,
    buffer: BufferOram,
    chunk_plan: ChunkPlan,
    accountant: FdpAccountant,
    active: Option<RoundState>,
    /// The abort that stopped the server, if one has: while set,
    /// rounds, checkpoints and recovery are refused on this instance.
    abort: Option<RoundAbort>,
    /// Entry ids whose blocks were destroyed by a bucket repair; they are
    /// excluded (served as lost) until re-initialized out of band.
    quarantined_ids: HashSet<u64>,
    registry: Registry,
    telemetry: FlTelemetry,
    ledger: PrivacyLedger,
    /// Whether the cumulative-ε budget crossing has already been
    /// journaled (alarm mode fires `privacy.budget.exceeded` once).
    budget_flagged: bool,
    /// Trace span covering the active round (tracing only); closed on
    /// `end_round`, or on abort with an `aborted` attribute.
    round_span: Option<TraceSpan>,
    /// Durably committed rounds: incremented only once a round's
    /// checkpoint is on disk (or immediately, when durability is off).
    /// Doubles as the next round's number — it survives restarts via the
    /// checkpoint.
    committed_rounds: u64,
    /// Scrubbed report of the last committed round (persisted in the
    /// checkpoint so a recovered server can prove where it landed).
    last_committed: Option<RoundReport>,
    /// The aggregation mode's persistent optimizer state (Adam moments,
    /// LazyDP staleness) captured at each committed round and persisted
    /// in the checkpoint, so a recovered stateful mode resumes where its
    /// uncrashed twin would be (empty for stateless modes).
    mode_state: Vec<u8>,
    /// The write-ahead journal + checkpoint writer, when durability is
    /// enabled via [`Self::enable_durability`] / [`Self::recover`].
    durable: Option<DurableState>,
    /// The chaos harness's armed crash point, if any.
    crash_armed: Option<CrashPoint>,
    /// Restart-stable fault plan: re-arms the injector with a journaled
    /// per-round seed at every round begin.
    fault_plan: Option<FaultPlan>,
    /// Caller RNG seed hint journaled with each round begin (0 = unset).
    seed_hint: u64,
    /// Main-ORAM accesses so far in the active round (MidFetch trigger).
    round_accesses: u64,
    /// Main-ORAM insertions so far in the write phase (MidEvictionWrite
    /// trigger).
    round_inserts: u64,
    /// Latest empirical-ε estimate fed in via
    /// [`record_empirical_estimate`](Self::record_empirical_estimate).
    /// Ephemeral: estimates come from out-of-band twin-run audits, so
    /// they are not part of the durable checkpoint.
    empirical: Option<EpsilonEstimate>,
    /// Whether the empirical-ε exceedance has already been journaled
    /// (the `watch.alarm.empirical_eps` event fires once per crossing).
    empirical_flagged: bool,
    /// The watched series at the previous watch sample, for interval
    /// deltas. Ephemeral, like the rest of the watch plane.
    watch_prev: WatchMark,
    /// The most recent watch report, if the watch plane is enabled and
    /// has sampled at least once.
    watch_last: Option<WatchReport>,
    /// Continuous empirical-ε refresher state, present when
    /// [`WatchConfig::empirical_every_rounds`] > 0.
    ///
    /// [`WatchConfig::empirical_every_rounds`]: crate::config::WatchConfig::empirical_every_rounds
    refresher: Option<EmpiricalRefresher>,
}

/// One sample of the live privacy/SLO watch plane: interval health over
/// the last `window_rounds` committed rounds, evaluated against the
/// thresholds in [`WatchConfig`](crate::config::WatchConfig).
///
/// The report deliberately carries only public series (round latency,
/// shed ratio, cumulative ε from the accountant) plus the empirical-ε
/// *verdict-level* numbers — the estimate and its sample count — which
/// the operator already opted into by running the estimator. Alarms are
/// symbolic names (`round_p99`, `shed_ppm`, `empirical_eps`) so callers
/// can match on them without parsing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WatchReport {
    /// Committed-round count when this sample was taken.
    pub round: u64,
    /// Rounds committed since the previous sample.
    pub window_rounds: u64,
    /// p99 round wall-time over the window, in nanoseconds (0 when the
    /// window saw no rounds).
    pub round_p99_ns: u64,
    /// Served requests over the window (`net.requests` delta; 0 when the
    /// server runs without a network front end).
    pub requests: u64,
    /// Shed parts-per-million over the window: shed requests relative to
    /// all arrivals (served + shed).
    pub shed_ppm: u64,
    /// Cumulative ε spent (accountant total at sample time).
    pub total_epsilon: f64,
    /// Latest empirical-ε estimate (0 when no estimate recorded).
    pub eps_hat: f64,
    /// Twin pairs behind `eps_hat` (0 when no estimate recorded).
    pub eps_samples: u64,
    /// The configured mechanism ε the estimate is judged against.
    pub eps_budget: f64,
    /// Alarm names active in this window, in evaluation order.
    pub alarms: Vec<String>,
    /// Wall-time this sample itself cost, in nanoseconds.
    pub overhead_ns: u64,
}

/// The four series the watch plane windows, as read at one sample. The
/// default (all zero) mark makes the first window the whole history.
#[derive(Clone, Copy, Debug, Default)]
struct WatchMark {
    rounds: u64,
    requests: u64,
    shed: u64,
    round_latency: HistogramSummary,
}

impl WatchMark {
    /// Reads the series without registering them, so a watched server
    /// exports exactly the series an unwatched one does.
    fn read(registry: &Registry) -> Self {
        let counter = |name| registry.counter_value(name).unwrap_or(0);
        WatchMark {
            rounds: counter("fl.rounds.completed"),
            requests: counter("net.requests"),
            shed: counter("net.shed.requests"),
            round_latency: registry
                .histogram_summary("round.latency")
                .unwrap_or_default(),
        }
    }
}

impl FedoraServer {
    /// Builds the server: provisions the SSD main ORAM (bulk-loading the
    /// embedding table produced by `init`) and the DRAM buffer ORAM. The
    /// server owns an enabled telemetry [`Registry`] wired through every
    /// layer; use [`with_telemetry`](Self::with_telemetry) with
    /// [`Registry::disabled`] for the zero-overhead no-op sink.
    pub fn new<R: Rng, F: FnMut(u64) -> Vec<u8>>(
        config: FedoraConfig,
        init: F,
        rng: &mut R,
    ) -> Self {
        Self::with_telemetry(config, init, Registry::new(), rng)
    }

    /// Builds the server with an explicit telemetry registry (pass
    /// [`Registry::disabled`] to make every instrument a no-op).
    pub fn with_telemetry<R: Rng, F: FnMut(u64) -> Vec<u8>>(
        config: FedoraConfig,
        init: F,
        registry: Registry,
        rng: &mut R,
    ) -> Self {
        registry.set_journal_capacity(config.journal_capacity);
        Self::publish_build_info(&registry);
        let key = Self::master_key();
        let mut store =
            SsdBucketStore::new(config.geometry, key.derive_subkey("main-oram"), config.ssd);
        store.set_retry_limit(config.fault_tolerance.max_read_retries);
        store.set_threads(config.parallelism.threads);
        let mut main = RawOram::new(store, config.table.num_entries, config.raw, init, rng);
        main.set_telemetry(&registry);
        let mut buffer = BufferOram::new(
            config.max_requests_per_round,
            config.table.entry_bytes,
            key.derive_subkey("buffer-oram"),
            rng,
        );
        buffer.set_telemetry(&registry);
        let chunk_plan = ChunkPlan::new(config.privacy.chunk_size);
        let telemetry = FlTelemetry::attach(&registry);
        let ledger = PrivacyLedger::attach(&registry, &config);
        let refresher = if config.watch.empirical_enabled() {
            let ppb = config.geometry.pages_per_bucket(config.ssd.page_bytes);
            let mut estimator = EpsilonEstimator::new(ppb, 1);
            estimator.set_max_samples(MAX_REFRESHER_PAIRS);
            Some(EmpiricalRefresher {
                recorder: AccessTraceRecorder::new(),
                estimator,
                armed: false,
                round_requests: Vec::new(),
                pending: None,
            })
        } else {
            None
        };
        FedoraServer {
            config,
            main,
            buffer,
            chunk_plan,
            accountant: FdpAccountant::new(),
            active: None,
            abort: None,
            quarantined_ids: HashSet::new(),
            registry,
            telemetry,
            ledger,
            budget_flagged: false,
            round_span: None,
            committed_rounds: 0,
            last_committed: None,
            mode_state: Vec::new(),
            durable: None,
            crash_armed: None,
            fault_plan: None,
            seed_hint: 0,
            round_accesses: 0,
            round_inserts: 0,
            empirical: None,
            empirical_flagged: false,
            watch_prev: WatchMark::default(),
            watch_last: None,
            refresher,
        }
    }

    /// Publishes the build-identity series: a constant `fedora.build_info`
    /// gauge (value 1, present on every snapshot and scrape) plus numeric
    /// companions, and one `build.info` journal event carrying the string
    /// fields — crate version and machine fingerprint — that labelless
    /// gauges cannot.
    fn publish_build_info(registry: &Registry) {
        if !registry.is_enabled() {
            return;
        }
        registry.gauge("fedora.build_info").set(1.0);
        registry
            .gauge("fedora.build.checkpoint_version")
            .set_u64(u64::from(durable::CHECKPOINT_VERSION));
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        registry.gauge("fedora.build.logical_cpus").set_u64(cpus);
        registry.event(
            "build.info",
            &[
                ("crate_version", env!("CARGO_PKG_VERSION").into()),
                ("os", std::env::consts::OS.into()),
                ("arch", std::env::consts::ARCH.into()),
                ("logical_cpus", cpus.into()),
                (
                    "checkpoint_version",
                    u64::from(durable::CHECKPOINT_VERSION).into(),
                ),
            ],
        );
    }

    /// The deployment master key every subsystem key derives from (a
    /// fixed constant in this simulation; a real deployment would load
    /// it from a sealed secret store).
    fn master_key() -> fedora_crypto::aead::Key {
        fedora_crypto::aead::Key::from_bytes([0x5E; 32])
    }

    /// The telemetry registry every layer of this server reports into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace-span id of the active round, when a round is open and
    /// tracing is enabled (`None` otherwise). Network front ends parent
    /// per-request spans under this id so a request's span is causally
    /// linked child-of-round in the trace export.
    pub fn round_span_id(&self) -> Option<u64> {
        self.round_span
            .as_ref()
            .map(fedora_telemetry::TraceSpan::id)
            .filter(|&id| id != 0)
    }

    /// The configuration.
    pub fn config(&self) -> &FedoraConfig {
        &self.config
    }

    /// The privacy accountant.
    pub fn accountant(&self) -> &FdpAccountant {
        &self.accountant
    }

    /// Cumulative SSD statistics (since construction).
    pub fn ssd_stats(&self) -> DeviceStats {
        self.main.store().device_stats()
    }

    /// The main ORAM (for inspection in tests/benches).
    pub fn main_oram(&self) -> &RawOram<SsdBucketStore> {
        &self.main
    }

    /// The buffer ORAM.
    pub fn buffer_oram(&self) -> &BufferOram {
        &self.buffer
    }

    /// The aborted round that stopped this server: empty while it runs,
    /// one record once an integrity failure has stopped it.
    pub fn aborts(&self) -> &[RoundAbort] {
        self.abort.as_slice()
    }

    /// Cumulative main-ORAM integrity counters (an aborted round's
    /// detections included).
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.main.store().integrity_stats()
    }

    /// Attaches a shadow-mode access recorder to the main ORAM's SSD so
    /// the physical page-access sequence can be audited for obliviousness
    /// (see [`AccessTraceRecorder`] and [`crate::audit`]). An aborted
    /// round's accesses stay in the trace: the bus saw them.
    ///
    /// Note: when the continuous empirical-ε refresher is enabled
    /// ([`WatchConfig::empirical_every_rounds`] > 0) the server re-arms
    /// its *own* recorder at every capture round, displacing one attached
    /// here — run offline audits with the refresher off.
    ///
    /// [`WatchConfig::empirical_every_rounds`]: crate::config::WatchConfig::empirical_every_rounds
    pub fn set_access_recorder(&mut self, recorder: AccessTraceRecorder) {
        self.main.store_mut().set_access_recorder(recorder);
    }

    /// Arms seeded fault injection on the main ORAM's SSD.
    pub fn arm_faults(&mut self, config: FaultConfig) {
        self.main.store_mut().arm_faults(config);
    }

    /// Disarms fault injection.
    pub fn disarm_faults(&mut self) {
        self.main.store_mut().disarm_faults();
    }

    /// Counters of faults actually injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.main.store().fault_stats()
    }

    /// Installs a restart-stable fault plan: from now on every round
    /// re-arms the injector with a seed derived from (plan, round
    /// number), and that seed is journaled in the round's begin record —
    /// so a chaos campaign resumed after a crash/restore replays the
    /// same fault stream.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Removes the fault plan and disarms injection.
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
        self.disarm_faults();
    }

    /// Arms one crash point: the next time execution reaches it, the
    /// server simulates a process kill by erroring out with
    /// [`FedoraError::CrashInjected`]. One-shot (disarms on fire).
    pub fn arm_crash_point(&mut self, point: CrashPoint) {
        self.crash_armed = Some(point);
    }

    /// Disarms any armed crash point.
    pub fn disarm_crash_point(&mut self) {
        self.crash_armed = None;
    }

    /// Records the caller's RNG seed for the upcoming rounds; journaled
    /// in each round-begin record so a recovered campaign can re-derive
    /// its request stream (0 = unset).
    pub fn set_round_seed_hint(&mut self, seed: u64) {
        self.seed_hint = seed;
    }

    /// Durably committed rounds (checkpoint on disk, or completed rounds
    /// when durability is off). Survives restarts when durability is on.
    pub fn committed_rounds(&self) -> u64 {
        self.committed_rounds
    }

    /// Whether a round is currently open (`begin_round` called, no
    /// matching `end_round` yet). Serving front ends use this as the
    /// drain condition: shutdown must not fall between `begin_round` and
    /// the journal commit inside `end_round`, or recovery will charge the
    /// torn round's privacy budget for work no client received.
    pub fn round_active(&self) -> bool {
        self.active.is_some()
    }

    /// Scrubbed report of the last committed round (restored from the
    /// checkpoint after recovery).
    pub fn last_committed_report(&self) -> Option<&RoundReport> {
        self.last_committed.as_ref()
    }

    /// The aggregation mode's checkpointed optimizer state as of the last
    /// committed round (empty for stateless modes or before the first
    /// committed round). Restored from the checkpoint by
    /// [`Self::recover`]; apply it with [`Self::restore_mode`].
    pub fn mode_state(&self) -> &[u8] {
        &self.mode_state
    }

    /// Restores the checkpointed optimizer state onto a freshly built
    /// `mode` of the same kind the server was trained with. Call after
    /// [`Self::recover`] when running a stateful mode (FedAdam, LazyDP) —
    /// without it the recovered mode resumes with reset moments/staleness
    /// and diverges from an uncrashed twin. Stateless modes accept the
    /// empty state and are a no-op.
    ///
    /// # Errors
    ///
    /// [`FedoraError::Durable`] when the bytes do not decode as `mode`'s
    /// state (wrong mode kind for this state directory).
    pub fn restore_mode<M: AggregationMode>(&self, mode: &mut M) -> Result<(), FedoraError> {
        mode.restore_state(&self.mode_state)
            .map_err(|what| DurableError::Codec(CodecError::Invalid(what)).into())
    }

    /// Attaches a fresh state directory: writes the whole device image
    /// there, opens an empty write-ahead round journal and writes the
    /// baseline checkpoint (generation 0), so a crash in the very first
    /// round is recoverable.
    ///
    /// # Errors
    ///
    /// [`FedoraError::Durable`] with [`DurableError::StateExists`] when the
    /// directory already holds a checkpoint (resume it with
    /// [`Self::recover`] instead); [`FedoraError::Durable`] on I/O failure.
    pub fn enable_durability(&mut self, dir: &Path) -> Result<(), FedoraError> {
        let key = Self::master_key().derive_subkey("durable");
        let ssd = self.main.store_mut().ssd_mut();
        self.durable = Some(DurableState::create(dir, key, ssd, &self.registry)?);
        let stats = self.write_checkpoint()?;
        self.finish_checkpoint(stats)?;
        Ok(())
    }

    /// Writes a checkpoint now (between rounds), with the pages the device
    /// changed since the previous one (a bucket repair, say). Rounds also
    /// checkpoint automatically as part of their commit.
    ///
    /// # Errors
    ///
    /// [`FedoraError::RoundAborted`] once stopped, so a stranded working
    /// set never reaches disk; [`FedoraError::RoundInProgress`] during a
    /// round; [`FedoraError::Durable`] when durability is off or the
    /// write fails.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, FedoraError> {
        self.refuse_if_stopped()?;
        if self.active.is_some() {
            return Err(FedoraError::RoundInProgress);
        }
        let stats = self.write_checkpoint()?;
        self.finish_checkpoint(stats)
    }

    /// Step 1 of a durable commit: seals the controller state and writes
    /// it, with the device pages changed since the previous generation,
    /// as the next checkpoint generation.
    fn write_checkpoint(&mut self) -> Result<CheckpointStats, FedoraError> {
        let started = Instant::now();
        let body = self.encode_checkpoint_body();
        let Some(d) = self.durable.as_mut() else {
            return Err(DurableError::NotEnabled.into());
        };
        let mut stats = d.write_checkpoint(&body, self.main.store_mut().ssd_mut())?;
        stats.ns = started.elapsed().as_nanos() as u64;
        Ok(stats)
    }

    /// Steps 4–5 of a durable commit, after its Commit record: writes the
    /// previous generation's pages into the device image and prunes, then
    /// publishes the checkpoint series. `durable.checkpoint.ns` covers
    /// both this and [`Self::write_checkpoint`].
    fn finish_checkpoint(
        &mut self,
        mut stats: CheckpointStats,
    ) -> Result<CheckpointStats, FedoraError> {
        let started = Instant::now();
        let Some(d) = self.durable.as_mut() else {
            return Err(DurableError::NotEnabled.into());
        };
        d.apply_and_prune(self.main.store().ssd())?;
        stats.ns += started.elapsed().as_nanos() as u64;
        if self.registry.is_enabled() {
            self.registry.counter("durable.checkpoints").incr();
            self.registry
                .gauge("durable.checkpoint.bytes")
                .set_u64(stats.bytes);
            self.registry
                .gauge("durable.checkpoint.ns")
                .set_u64(stats.ns);
            self.registry
                .gauge("durable.redo.bytes")
                .set_u64(stats.redo_bytes);
            self.registry
                .gauge("durable.redo.pages")
                .set_u64(stats.redo_pages);
        }
        Ok(stats)
    }

    /// Recovers this (freshly built, same-configuration) server from the
    /// state directory: restores the newest loadable checkpoint and the
    /// device pages it names (`device.img` plus the retained redo
    /// sections, see [`DurableState::resume`]), then replays the
    /// journal — every round-begin record at or past the
    /// restored round is a *torn* round whose ε is charged to the
    /// accountant anyway. A crash therefore can only over-report
    /// leakage, never under-report it. Returns the committed round count
    /// recovery landed on.
    ///
    /// # Errors
    ///
    /// [`FedoraError::RoundAborted`] on a stopped server (recover onto a
    /// freshly built one instead);
    /// [`FedoraError::Durable`] with [`DurableError::NoCheckpoint`] when
    /// the directory holds none; `FedoraError::Oram` with
    /// [`IntegrityError::Rollback`] when the newest loadable checkpoint
    /// is *older* than the journal's newest commit (a rolled-back /
    /// stale checkpoint — restoring it would silently rewind committed
    /// state); other [`FedoraError::Durable`] values on I/O, tampering, or
    /// a missing or wrong-size device image.
    pub fn recover(&mut self, dir: &Path) -> Result<u64, FedoraError> {
        self.refuse_if_stopped()?;
        if self.active.is_some() {
            return Err(FedoraError::RoundInProgress);
        }
        let key = Self::master_key().derive_subkey("durable");
        let records = durable::read_records(dir, &key)?;
        let Some(landed) = durable::load_latest_checkpoint(dir, &key)? else {
            return Err(DurableError::NoCheckpoint.into());
        };
        let generation = landed.generation;
        self.apply_checkpoint_body(&landed.body)
            .map_err(DurableError::Codec)?;
        // Stale-checkpoint detection: a commit record for round r means a
        // checkpoint with committed_rounds ≥ r+1 was durable before the
        // record was written. Restoring anything older is a rollback.
        let newest_commit = records
            .iter()
            .filter_map(|rec| match rec {
                JournalRecord::Commit(c) => Some(c.round),
                JournalRecord::Begin(_) => None,
            })
            .max();
        if let Some(r) = newest_commit {
            if self.committed_rounds < r + 1 {
                return Err(FedoraError::Oram(OramError::Integrity {
                    kind: IntegrityError::Rollback,
                    node: 0,
                }));
            }
        }
        // Only now, with the checkpoint accepted, do the device pages come
        // back: the image, then the retained redo sections.
        let ssd = self.main.store_mut().ssd_mut();
        self.durable = Some(DurableState::resume(dir, key, landed, ssd, &self.registry)?);
        // Conservative ε replay: any begin record at or past the restored
        // round belongs to a torn (or aborted) round whose in-memory
        // accounting was lost. Charge each one; over-reporting is safe.
        let mut torn = 0u64;
        for rec in &records {
            if let JournalRecord::Begin(b) = rec {
                if b.round >= self.committed_rounds {
                    self.accountant.record_round(b.epsilon);
                    torn += 1;
                }
            }
        }
        // Republish the restored accountant into the ledger so the
        // telemetry high-water marks survive the restart too.
        self.ledger
            .total_epsilon
            .set(self.accountant.total_epsilon());
        self.ledger.rounds.set_u64(self.accountant.rounds() as u64);
        self.telemetry.rounds_completed.add(self.committed_rounds);
        self.registry.event(
            "durable.recovered",
            &[
                ("round", self.committed_rounds.into()),
                ("generation", generation.into()),
                ("torn_rounds", torn.into()),
            ],
        );
        Ok(self.committed_rounds)
    }

    /// Quarantined main-ORAM buckets (failed reads pending repair).
    pub fn quarantined_buckets(&self) -> Vec<u64> {
        self.main.store().quarantined_nodes()
    }

    /// Entry ids lost to bucket repairs, excluded from future rounds.
    pub fn quarantined_entries(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.quarantined_ids.iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Verifies every main-ORAM bucket's MAC (background scrubbing).
    /// Must be called between rounds.
    ///
    /// # Errors
    ///
    /// [`FedoraError::RoundInProgress`] during a round.
    pub fn scrub(&mut self) -> Result<ScrubReport, FedoraError> {
        if self.active.is_some() {
            return Err(FedoraError::RoundInProgress);
        }
        Ok(self.main.scrub())
    }

    /// Repairs one quarantined bucket in place (empties it and clears its
    /// valid bits); blocks that lived there become missing and their
    /// entries are quarantined lazily on the next fetch.
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn repair_bucket(&mut self, node: u64) -> Result<(), FedoraError> {
        self.main.repair_bucket(node)?;
        Ok(())
    }

    /// Once an integrity failure has stopped the server, returns the
    /// stored [`FedoraError::RoundAborted`].
    fn refuse_if_stopped(&self) -> Result<(), FedoraError> {
        match &self.abort {
            Some(a) => Err(FedoraError::RoundAborted {
                kind: a.kind,
                node: a.node,
            }),
            None => Ok(()),
        }
    }

    /// Fires the armed crash point, if it matches: simulates a process
    /// kill by erroring out of the pipeline. One-shot.
    fn crash_check(&mut self, point: CrashPoint) -> Result<(), FedoraError> {
        if self.crash_armed == Some(point) {
            self.crash_armed = None;
            self.registry.event(
                "durable.crash.injected",
                &[("point", point.name().to_string().into())],
            );
            return Err(FedoraError::CrashInjected { point });
        }
        Ok(())
    }

    /// Counts one main-ORAM access of the read phase; the first fires
    /// the [`CrashPoint::MidFetch`] crash point (which therefore never
    /// fires on a zero-access round).
    fn note_read_access(&mut self) -> Result<(), FedoraError> {
        self.round_accesses += 1;
        if self.round_accesses == 1 {
            self.crash_check(CrashPoint::MidFetch)?;
        }
        Ok(())
    }

    /// Counts one main-ORAM insertion of the write phase; the first
    /// fires the [`CrashPoint::MidEvictionWrite`] crash point.
    fn note_insert(&mut self) -> Result<(), FedoraError> {
        self.round_inserts += 1;
        if self.round_inserts == 1 {
            self.crash_check(CrashPoint::MidEvictionWrite)?;
        }
        Ok(())
    }

    /// Serializes the controller state for a checkpoint: round counter,
    /// budget flag, accountant (its runs of equal ε), entry quarantine,
    /// last committed report, aggregation-mode optimizer state, main-ORAM
    /// controller (EO count, repaired buckets) + store (cumulative
    /// integrity stats, node quarantine, the SSD's written-page map and
    /// statistics), and the buffer ORAM's bucket counters. The SSD's pages
    /// are not in it: the durable writer keeps them in the device image
    /// and the redo sections.
    fn encode_checkpoint_body(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.committed_rounds);
        w.put_bool(self.budget_flagged);
        let runs = self.accountant.runs();
        w.put_u64(runs.len() as u64);
        for &(e, n) in runs {
            w.put_f64(e);
            w.put_u64(n);
        }
        w.put_u64(self.accountant.poisoned_rounds());
        let mut quarantined: Vec<u64> = self.quarantined_ids.iter().copied().collect();
        quarantined.sort_unstable();
        w.put_u64s(&quarantined);
        w.put_bool(self.last_committed.is_some());
        if let Some(report) = &self.last_committed {
            report.encode_state(&mut w);
        }
        w.put_bytes(&self.mode_state);
        self.main.encode_controller_state(&mut w);
        self.main.store().encode_state(&mut w);
        self.buffer.encode_state(&mut w);
        w.into_bytes()
    }

    /// Applies a checkpoint body onto this freshly built same-geometry
    /// server (the inverse of [`Self::encode_checkpoint_body`]).
    fn apply_checkpoint_body(&mut self, body: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(body);
        self.committed_rounds = r.get_u64()?;
        self.budget_flagged = r.get_bool()?;
        let n = r.get_u64()? as usize;
        let mut runs = Vec::new();
        for _ in 0..n {
            runs.push((r.get_f64()?, r.get_u64()?));
        }
        let poisoned = r.get_u64()?;
        self.accountant = FdpAccountant::from_state(&runs, poisoned);
        self.quarantined_ids = r.get_u64s()?.into_iter().collect();
        self.last_committed = if r.get_bool()? {
            Some(RoundReport::decode_state(&mut r)?)
        } else {
            None
        };
        self.mode_state = r.get_bytes()?;
        self.main.decode_controller_state(&mut r)?;
        self.main.store_mut().decode_state(&mut r)?;
        self.buffer.decode_state(&mut r)?;
        r.expect_end()
    }

    /// Durably commits the just-finished round: checkpoint first (data
    /// sync), then the journal commit record (commit marker — classic
    /// WAL ordering), then the previous generation's pages into the
    /// device image. A crash in the window between the first two recovers
    /// *forward* to the checkpoint, which already holds the round's
    /// state and ε — never backward past it.
    ///
    /// `prev_last` is the last-committed report from before this round:
    /// when the checkpoint itself never becomes durable, the commit
    /// counters are unwound to it, so a still-usable in-memory server
    /// never reports a committed round that is not on disk. A failure
    /// *after* the checkpoint is durable (lost commit marker) keeps the
    /// incremented counters — they match what recovery would land on.
    fn checkpoint_and_commit(
        &mut self,
        report: &RoundReport,
        prev_last: Option<RoundReport>,
    ) -> Result<(), FedoraError> {
        if self.durable.is_some() {
            let round = self.committed_rounds - 1;
            let stats = match self.write_checkpoint() {
                Ok(stats) => stats,
                Err(e) => {
                    self.committed_rounds -= 1;
                    self.last_committed = prev_last;
                    return Err(e);
                }
            };
            self.crash_check(CrashPoint::PostDataSyncPreCommit)?;
            let digest = report.digest();
            let total = self.accountant.total_epsilon();
            if let Some(d) = self.durable.as_mut() {
                d.append_commit(round, stats.generation, total, digest)?;
            }
            self.finish_checkpoint(stats)?;
        } else if let Err(e) = self.crash_check(CrashPoint::PostDataSyncPreCommit) {
            // No durable state to recover forward to: the simulated kill
            // means this round committed nowhere.
            self.committed_rounds -= 1;
            self.last_committed = prev_last;
            return Err(e);
        }
        Ok(())
    }

    /// Steps ①–④ of Figure 4: oblivious union (chunked), ε-FDP choice of
    /// `k`, and the read phase moving entries into the buffer ORAM.
    /// Returns the partial report (read-side numbers).
    ///
    /// # Errors
    ///
    /// [`FedoraError::RoundAborted`] once an integrity failure has
    /// stopped the server (this call's own failure included);
    /// [`FedoraError::TooManyRequests`] when `requests` exceeds the
    /// provisioned maximum; [`OramError::BlockOutOfRange`] for an id
    /// outside the table, before anything is journaled or accessed;
    /// [`FedoraError::RoundInProgress`] when called twice without
    /// `end_round`; device errors propagate.
    pub fn begin_round<R: Rng>(
        &mut self,
        requests: &[u64],
        rng: &mut R,
    ) -> Result<RoundReport, FedoraError> {
        self.refuse_if_stopped()?;
        if self.active.is_some() {
            return Err(FedoraError::RoundInProgress);
        }
        if requests.len() > self.config.max_requests_per_round {
            return Err(FedoraError::TooManyRequests {
                got: requests.len(),
                max: self.config.max_requests_per_round,
            });
        }
        let capacity = self.config.table.num_entries;
        if let Some(&id) = requests.iter().find(|&&id| id >= capacity) {
            return Err(OramError::BlockOutOfRange { id, capacity }.into());
        }
        // Enforcing budget mode: refuse the round up front — before any
        // event, span, or state change — when completing it would push the
        // cumulative ε past the ceiling. A refused round consumes nothing.
        if self.config.privacy_budget.enforce {
            if let Some(max) = self.config.privacy_budget.max_total_epsilon {
                let spent = self.accountant.total_epsilon();
                if spent + self.config.privacy.mechanism.epsilon() > max {
                    self.ledger.budget_refused.incr();
                    self.registry.event(
                        "privacy.budget.refused",
                        &[
                            ("round", self.committed_rounds.into()),
                            ("spent", spent.into()),
                            ("budget", max.into()),
                        ],
                    );
                    return Err(FedoraError::PrivacyBudgetExhausted { spent, budget: max });
                }
            }
        }
        // Enforcing budget mode also honors the empirical estimator: a
        // confident measured exceedance of the mechanism ε means the
        // implementation is leaking more than the accountant admits, so
        // refusing further rounds is the only sound response.
        if self.config.privacy_budget.enforce {
            if let Some(est) = self.empirical.as_ref() {
                let budget = self.config.privacy.mechanism.epsilon();
                if est.exceeds(budget) {
                    let eps_hat = est.eps_hat;
                    self.ledger.budget_refused.incr();
                    self.registry.event(
                        "privacy.budget.refused",
                        &[
                            ("round", self.committed_rounds.into()),
                            ("spent", eps_hat.into()),
                            ("budget", budget.into()),
                            ("empirical", true.into()),
                        ],
                    );
                    return Err(FedoraError::PrivacyBudgetExhausted {
                        spent: eps_hat,
                        budget,
                    });
                }
            }
        }
        // Restart-stable chaos: derive and arm this round's fault seed
        // before journaling it, so a recovered campaign replays the same
        // stream for the same round number.
        let fault_seed = self.fault_plan.map(|plan| {
            let cfg = plan.config_for_round(self.committed_rounds);
            let seed = cfg.seed;
            self.main.store_mut().arm_faults(cfg);
            seed
        });
        // Write-ahead: the round-begin record (ε intent, client-set
        // digest, chaos seed) is durable before any ORAM state changes.
        if let Some(d) = self.durable.as_mut() {
            d.append_begin(
                self.committed_rounds,
                self.config.privacy.mechanism.epsilon(),
                requests.len() as u64,
                durable::request_digest(requests),
                fault_seed,
                self.seed_hint,
            )?;
        }
        self.round_accesses = 0;
        self.round_inserts = 0;
        // Continuous empirical-ε refresher: arm the shadow recorder only
        // on capture rounds (this round commits as committed_rounds + 1),
        // so every other round pays zero per-access recording overhead.
        if let Some(r) = self.refresher.as_mut() {
            let every = self.config.watch.empirical_every_rounds;
            if every > 0 && (self.committed_rounds + 1).is_multiple_of(every) {
                r.recorder.clear();
                r.round_requests = requests.to_vec();
                if !r.armed {
                    self.main
                        .store_mut()
                        .set_access_recorder(r.recorder.clone());
                    r.armed = true;
                }
            } else if r.armed {
                self.main
                    .store_mut()
                    .set_access_recorder(AccessTraceRecorder::disabled());
                r.armed = false;
            }
        }
        self.crash_check(CrashPoint::PostJournalBegin)?;
        self.registry.event(
            "round.begin",
            &[
                ("round", self.committed_rounds.into()),
                ("k_requests", (requests.len() as u64).into()),
            ],
        );
        // The round's trace span stays open across serve/aggregate calls
        // until end_round (or abort) closes it.
        self.round_span = Some(self.registry.trace_span_with(
            "round",
            &[
                ("round", self.committed_rounds.into()),
                ("k_requests", (requests.len() as u64).into()),
            ],
        ));
        let mut state = RoundState {
            report: RoundReport {
                k_requests: requests.len(),
                ..Default::default()
            },
            ssd_before: self.main.store().device_stats(),
            buffer_before: self.buffer.device_stats(),
            vtree_before: self.main.vtree().device_stats(),
            eo_before: self.main.eo_count(),
            integrity_before: self.main.store().integrity_stats(),
            lost_ids: HashSet::new(),
        };
        match self.read_phase(requests, &mut state, rng) {
            Ok(()) => {
                // Every interval measured inside the read phase landed in
                // exactly one of union_ns / fetch_ns; round_ns accumulates
                // those same values, so the partition is exact — no
                // subtraction across distinct clock reads.
                state.report.phases.round_ns +=
                    state.report.phases.union_ns + state.report.phases.fetch_ns;
                let partial = state.report.clone();
                self.active = Some(state);
                Ok(partial)
            }
            Err(e) => Err(self.abort_round(state, e)),
        }
    }

    /// Steps ①–③ proper: chunked union, FDP `k`, the main-ORAM fetches,
    /// and one buffer build over the round's slots.
    fn read_phase<R: Rng>(
        &mut self,
        requests: &[u64],
        state: &mut RoundState,
        rng: &mut R,
    ) -> Result<(), FedoraError> {
        let _trace = self.registry.trace_span("round.read");
        // The round's buffer slots in fetch order: `None` is a dummy.
        let mut slots: Vec<Option<(u64, Vec<u8>)>> = Vec::new();
        for chunk in requests.chunks(self.chunk_plan.chunk_size()) {
            if chunk.is_empty() {
                continue;
            }
            // ① Oblivious union (data-independent scan over the chunk).
            let union_started = Instant::now();
            let union = {
                let _u = self
                    .registry
                    .trace_span_with("round.union", &[("chunk_len", chunk.len().into())]);
                oblivious_union(chunk, chunk.len())
            };
            state.report.phases.union_ns += union_started.elapsed().as_nanos() as u64;
            state.report.union_scan_slots +=
                requests_scan_cost(chunk.len(), self.chunk_plan.chunk_size());
            let k_union = union.len_real();
            state.report.k_union += k_union;

            // ②–③ below are one timed fetch interval: FDP sampling and
            // the main-ORAM / buffer accesses.
            let fetch_started = Instant::now();
            // ② ε-FDP choice of k.
            let k = self
                .config
                .privacy
                .mechanism
                .sample_k(k_union as u64, chunk.len() as u64, rng) as usize;
            state.report.k_accesses += k;

            // ③ Read phase: §4.2 leaves the choice of which `k` entries to
            // read open; like the paper's prototype, read the first `k`
            // in union (first-seen) order.
            let candidates = union.real_entries();
            let to_fetch = k.min(k_union);
            for &id in &candidates[..to_fetch] {
                if slots.iter().flatten().any(|(loaded, _)| *loaded == id) {
                    // Cross-chunk duplicate: the entry already left the
                    // main ORAM this round. The access still happens (same
                    // observable path read), it just returns nothing new —
                    // the performance cost of chunking the paper describes.
                    self.main.dummy_fetch(rng)?;
                    slots.push(None);
                } else if self.quarantined_ids.contains(&id) {
                    // Degraded mode: the entry's block was destroyed by a
                    // bucket repair. Keep the observable access pattern
                    // (same path read + buffer slot) but serve it as lost.
                    self.main.dummy_fetch(rng)?;
                    slots.push(None);
                    state.report.lost += 1;
                    state.lost_ids.insert(id);
                } else {
                    match self.main.fetch(id, rng) {
                        Ok(block) => slots.push(Some((id, block.payload))),
                        Err(OramError::MissingBlock { id }) => {
                            // Lazy quarantine: the path read happened but
                            // the block is gone (its bucket was repaired).
                            self.quarantined_ids.insert(id);
                            slots.push(None);
                            state.report.lost += 1;
                            state.lost_ids.insert(id);
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                self.note_read_access()?;
            }
            // Lost entries (k < k_union): not read this round.
            for &id in &candidates[to_fetch..] {
                state.report.lost += 1;
                state.lost_ids.insert(id);
            }
            // Dummy accesses (k > k_union).
            for _ in k_union..k {
                state.report.dummies += 1;
                self.main.dummy_fetch(rng)?;
                slots.push(None);
                self.note_read_access()?;
            }
            state.report.phases.fetch_ns += fetch_started.elapsed().as_nanos() as u64;
        }
        // ③ The working set enters the buffer ORAM in one whole-tree
        // build, timed as part of the fetch.
        let build_started = Instant::now();
        self.buffer.load_round(slots, rng)?;
        state.report.phases.fetch_ns += build_started.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Handles a mid-round failure. An integrity failure from either ORAM
    /// stops the server: the round's ε is charged (its path reads were
    /// observed), the abort is recorded, and [`FedoraError::RoundAborted`]
    /// is returned now and by every later `begin_round`. Nothing is
    /// rewound; crash recovery on a fresh server is the way back. Every
    /// other error propagates unchanged.
    fn abort_round(&mut self, mut state: RoundState, err: FedoraError) -> FedoraError {
        // Any path through here ends the round attempt: close the round's
        // trace span (mid-round child spans already unwound via their own
        // drop guards) and mark it so trace consumers can tell an aborted
        // tree from a completed one.
        if let Some(mut span) = self.round_span.take() {
            span.attr("aborted", true);
        }
        let (FedoraError::Oram(OramError::Integrity { kind, node })
        | FedoraError::Buffer(BufferError::Oram(OramError::Integrity { kind, node }))) = err
        else {
            return err;
        };
        self.charge_round_epsilon();
        state.report.integrity = self
            .main
            .store()
            .integrity_stats()
            .since(&state.integrity_before);
        self.telemetry.rounds_aborted.incr();
        self.registry.event(
            "round.abort",
            &[
                ("round", self.committed_rounds.into()),
                ("node", node.into()),
                ("kind", format!("{kind:?}").into()),
            ],
        );
        self.abort = Some(RoundAbort {
            kind,
            node,
            report: state.report,
        });
        FedoraError::RoundAborted { kind, node }
    }

    /// Charges one round's ε to the accountant and publishes the ledger:
    /// `fdp.round.epsilon`, `fdp.total.epsilon`, `fdp.rounds`, and the
    /// one-shot budget alarm. Committed and aborted rounds both pay.
    fn charge_round_epsilon(&mut self) {
        let round_epsilon = self.config.privacy.mechanism.epsilon();
        if self.accountant.record_round(round_epsilon) {
            self.ledger.round_epsilon.set(round_epsilon);
        } else {
            self.ledger.poisoned.incr();
        }
        self.ledger
            .total_epsilon
            .set(self.accountant.total_epsilon());
        self.ledger.rounds.set_u64(self.accountant.rounds() as u64);
        if !self.budget_flagged {
            if let Some(max) = self.config.privacy_budget.max_total_epsilon {
                let spent = self.accountant.total_epsilon();
                if spent > max {
                    self.budget_flagged = true;
                    self.registry.event(
                        "privacy.budget.exceeded",
                        &[
                            ("round", self.committed_rounds.into()),
                            ("spent", spent.into()),
                            ("budget", max.into()),
                        ],
                    );
                }
            }
        }
    }

    /// Step ④: serves one user request from the buffer ORAM. Returns
    /// `None` when the entry was lost to the FDP mechanism this round
    /// (caller applies the default-value strategy); the request still
    /// makes its one buffer access.
    ///
    /// # Errors
    ///
    /// [`FedoraError::UnknownEntry`] for ids outside this round's union;
    /// [`FedoraError::NoActiveRound`] outside a round.
    pub fn serve<R: Rng>(&mut self, id: u64, rng: &mut R) -> Result<Option<Vec<u8>>, FedoraError> {
        let started = Instant::now();
        let result = self.serve_inner(id, rng);
        if let Some(state) = self.active.as_mut() {
            let ns = started.elapsed().as_nanos() as u64;
            state.report.phases.serve_ns += ns;
            state.report.phases.round_ns += ns;
        }
        result
    }

    fn serve_inner<R: Rng>(
        &mut self,
        id: u64,
        rng: &mut R,
    ) -> Result<Option<Vec<u8>>, FedoraError> {
        let state = self.active.as_ref().ok_or(FedoraError::NoActiveRound)?;
        let _trace = self.registry.trace_span("round.serve");
        if state.lost_ids.contains(&id) {
            // A lost entry still costs its buffer access, so the round's
            // buffer trace does not depend on which entries were lost.
            self.telemetry.lost_serves.incr();
            self.buffer.dummy_access(rng)?;
            return Ok(None);
        }
        match self.buffer.serve(id, rng) {
            Ok(bytes) => {
                self.telemetry.download_bytes.add(bytes.len() as u64);
                Ok(Some(bytes))
            }
            Err(BufferError::NotLoaded { id }) => Err(FedoraError::UnknownEntry { id }),
            Err(e) => Err(e.into()),
        }
    }

    /// Step ⑥: accumulates one client's gradient for one entry. The mode's
    /// `Pre` function is applied here, inside the trusted controller.
    /// Gradients for lost entries are dropped (returns `false`) after the
    /// same one buffer access a kept gradient costs.
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
    ) -> Result<bool, FedoraError> {
        let started = Instant::now();
        let result = self.aggregate_inner(mode, id, gradient, n_samples, rng);
        if let Some(state) = self.active.as_mut() {
            let ns = started.elapsed().as_nanos() as u64;
            state.report.phases.aggregate_ns += ns;
            state.report.phases.round_ns += ns;
        }
        result
    }

    fn aggregate_inner<M: AggregationMode, R: Rng>(
        &mut self,
        mode: &M,
        id: u64,
        gradient: &[f32],
        n_samples: u32,
        rng: &mut R,
    ) -> Result<bool, FedoraError> {
        let state = self.active.as_ref().ok_or(FedoraError::NoActiveRound)?;
        let _trace = self.registry.trace_span("round.aggregate");
        // The client's upload arrived either way — count its bytes even
        // when the entry was lost and the gradient is dropped.
        self.telemetry
            .upload_bytes
            .add(core::mem::size_of_val(gradient) as u64);
        if state.lost_ids.contains(&id) {
            self.buffer.dummy_access(rng)?;
            return Ok(false);
        }
        let mut g = gradient.to_vec();
        let weight = mode.pre(&mut g, n_samples);
        match self.buffer.aggregate(id, &g, weight, rng) {
            Ok(()) => Ok(true),
            Err(BufferError::NotLoaded { id }) => Err(FedoraError::UnknownEntry { id }),
            Err(e) => Err(e.into()),
        }
    }

    /// Step ⑦: drains the buffer ORAM, applies `Post` and the server
    /// learning rate, and writes the `k` entries (real and dummy) back to
    /// the main ORAM — one EO access per `A` insertions, no AO accesses.
    /// Completes the round and returns its final report.
    ///
    /// # Errors
    ///
    /// [`FedoraError::NoActiveRound`] outside a round; device errors
    /// propagate.
    pub fn end_round<M: AggregationMode, R: Rng>(
        &mut self,
        mode: &mut M,
        server_lr: f32,
        rng: &mut R,
    ) -> Result<RoundReport, FedoraError> {
        let mut state = self.active.take().ok_or(FedoraError::NoActiveRound)?;
        match self.write_phase(mode, server_lr, &mut state, rng) {
            Ok(report) => {
                // Close the round's trace span (emits trace.end).
                self.round_span = None;
                Ok(report)
            }
            Err(e) => Err(self.abort_round(state, e)),
        }
    }

    /// Step ⑦ proper: the drain + writeback loop and report finalization.
    fn write_phase<M: AggregationMode, R: Rng>(
        &mut self,
        mode: &mut M,
        server_lr: f32,
        state: &mut RoundState,
        rng: &mut R,
    ) -> Result<RoundReport, FedoraError> {
        let write_started = Instant::now();
        let _trace = self.registry.trace_span("round.write");
        let drained = self.buffer.drain_round()?;
        for entry in drained.entries {
            let mut agg = entry.gradient;
            mode.post(entry.id, &mut agg, entry.weight, rng);
            // θ_{t+1} = θ_t + η·Post(Σ Pre(Δ)) — deltas already point
            // downhill (they are trained-minus-downloaded differences).
            let mut values: Vec<f32> = entry
                .entry
                .chunks_exact(4)
                .map(crate::convert::le_f32)
                .collect();
            for (v, g) in values.iter_mut().zip(&agg) {
                *v += server_lr * g;
            }
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.main.insert(entry.id, bytes, rng)?;
            self.note_insert()?;
        }
        for _ in 0..drained.dummy_count {
            self.main.insert_dummy()?;
            self.note_insert()?;
        }
        mode.on_round_end();

        // Finalize the report.
        state.report.eo_accesses = self.main.eo_count() - state.eo_before;
        state.report.ssd = self.main.store().device_stats().since(&state.ssd_before);
        state.report.buffer_dram = self.buffer.device_stats().since(&state.buffer_before);
        state.report.vtree_dram = self.main.vtree().device_stats().since(&state.vtree_before);
        state.report.integrity = self
            .main
            .store()
            .integrity_stats()
            .since(&state.integrity_before);
        self.charge_round_epsilon();
        self.ledger.dummies.add(state.report.dummies as u64);
        self.ledger.lost.add(state.report.lost as u64);
        self.ledger.k_union.set_u64(state.report.k_union as u64);
        self.ledger.k_overhead.record(state.report.dummies as u64);
        self.telemetry.rounds_completed.incr();
        let write_ns = write_started.elapsed().as_nanos() as u64;
        state.report.phases.write_ns = write_ns;
        state.report.phases.round_ns += write_ns;
        self.telemetry
            .round_latency
            .record(state.report.phases.round_ns);
        self.publish_phase_gauges(&state.report.phases);
        self.registry.event(
            "round.end",
            &[
                ("round", self.committed_rounds.into()),
                ("k_accesses", (state.report.k_accesses as u64).into()),
                ("lost", (state.report.lost as u64).into()),
                ("eo_accesses", state.report.eo_accesses.into()),
            ],
        );
        // Durable commit: the round counts as committed once its
        // checkpoint is on disk; the journal commit record then seals it.
        // The mode's optimizer state (Adam moments, LazyDP staleness)
        // rides in that checkpoint so a recovered stateful mode resumes
        // exactly where its uncrashed twin would be.
        if self.durable.is_some() {
            self.mode_state = mode.state_bytes();
        }
        let prev_last = self.last_committed.replace(state.report.scrubbed());
        self.committed_rounds += 1;
        self.checkpoint_and_commit(&state.report, prev_last)?;
        self.telemetry.uptime_rounds.set_u64(self.committed_rounds);
        // Refresh before the watch sample so a report taken at the same
        // commit already sees the new estimate.
        self.maybe_empirical_refresh();
        self.maybe_watch_sample();
        Ok(state.report.clone())
    }

    /// Feeds an out-of-band empirical-ε estimate (from
    /// [`audit::empirical`](crate::audit::empirical)) into the server's
    /// privacy ledger and watch plane.
    ///
    /// Publishes the `fdp.empirical.*` audit-only gauges, and — if the
    /// estimate confidently exceeds the configured mechanism ε — journals
    /// a `watch.alarm.empirical_eps` event once per crossing. When budget
    /// enforcement is on, subsequent [`begin_round`](Self::begin_round)
    /// calls are refused while the exceedance stands.
    pub fn record_empirical_estimate(&mut self, estimate: EpsilonEstimate) {
        self.ledger.empirical_eps_hat.set(estimate.eps_hat);
        self.ledger.empirical_ci_lo.set(estimate.ci_lo);
        self.ledger.empirical_ci_hi.set(estimate.ci_hi);
        self.ledger
            .empirical_samples
            .set_u64(estimate.samples as u64);
        let budget = self.config.privacy.mechanism.epsilon();
        if estimate.exceeds(budget) {
            if !self.empirical_flagged {
                self.empirical_flagged = true;
                self.registry.event(
                    "watch.alarm.empirical_eps",
                    &[
                        ("round", self.committed_rounds.into()),
                        ("eps_hat", estimate.eps_hat.into()),
                        ("ci_lo", estimate.ci_lo.into()),
                        ("budget", budget.into()),
                        ("samples", (estimate.samples as u64).into()),
                    ],
                );
            }
        } else {
            self.empirical_flagged = false;
        }
        self.empirical = Some(estimate);
    }

    /// The latest empirical-ε estimate recorded via
    /// [`record_empirical_estimate`](Self::record_empirical_estimate).
    pub fn empirical_estimate(&self) -> Option<&EpsilonEstimate> {
        self.empirical.as_ref()
    }

    /// The most recent watch-plane report, if the watch plane is enabled
    /// ([`WatchConfig::every_rounds`] > 0) and has sampled at least once.
    ///
    /// [`WatchConfig::every_rounds`]: crate::config::WatchConfig::every_rounds
    pub fn watch_report(&self) -> Option<&WatchReport> {
        self.watch_last.as_ref()
    }

    /// Continuous empirical-ε refresher: every
    /// `watch.empirical_every_rounds` committed rounds, take the shadow
    /// trace the round just left in the internally armed recorder. Two
    /// consecutive captures form one estimator pair (scaled by the
    /// schedules' [`value_distance`]); each completed pair re-estimates
    /// and republishes the `fdp.empirical.*` gauges via
    /// [`record_empirical_estimate`](Self::record_empirical_estimate) —
    /// no on-demand twin replay anywhere. The refresher's own cost lands
    /// in `watch.sample.ns`, so the watch plane's <5% overhead budget
    /// covers it too.
    fn maybe_empirical_refresh(&mut self) {
        let every = self.config.watch.empirical_every_rounds;
        if every == 0 || !self.committed_rounds.is_multiple_of(every) || self.refresher.is_none() {
            return;
        }
        let started = Instant::now();
        let refreshed = match self.refresher.as_mut() {
            Some(r) => {
                let trace = r.recorder.take();
                let requests = std::mem::take(&mut r.round_requests);
                if trace.is_empty() {
                    None
                } else {
                    match r.pending.take() {
                        None => {
                            r.pending = Some((requests, trace));
                            None
                        }
                        Some((reqs_a, trace_a)) => {
                            let d = value_distance(&reqs_a, &requests);
                            r.estimator.observe_pair_scaled(&trace_a, &trace, d);
                            Some((r.estimator.estimate(), d))
                        }
                    }
                }
            }
            None => None,
        };
        if let Some((estimate, distance)) = refreshed {
            self.record_empirical_estimate(estimate);
            self.registry.event(
                "watch.empirical.refresh",
                &[
                    ("round", self.committed_rounds.into()),
                    ("eps_hat", estimate.eps_hat.into()),
                    ("samples", (estimate.samples as u64).into()),
                    ("distance", (distance as u64).into()),
                ],
            );
        }
        self.registry
            .histogram("watch.sample.ns")
            .record(started.elapsed().as_nanos() as u64);
    }

    /// Watch-plane sampler: every `watch.every_rounds` committed rounds,
    /// read the four watched series, window them against the previous
    /// sample the way [`Snapshot::delta`] does (saturating counters,
    /// [`HistogramSummary::delta`]), evaluate the SLO/privacy rules, and
    /// journal one `watch.alarm.*` event per tripped rule. The sample's own
    /// cost lands in the `watch.sample.ns` histogram so the overhead claim
    /// is itself measurable.
    ///
    /// [`Snapshot::delta`]: fedora_telemetry::Snapshot::delta
    fn maybe_watch_sample(&mut self) {
        let cfg = self.config.watch;
        if !cfg.is_enabled() || !self.committed_rounds.is_multiple_of(cfg.every_rounds) {
            return;
        }
        let started = Instant::now();
        let now = WatchMark::read(&self.registry);
        let prev = self.watch_prev;
        let window_rounds = now.rounds.saturating_sub(prev.rounds);
        let round_p99_ns = now.round_latency.delta(&prev.round_latency).p99;
        let requests = now.requests.saturating_sub(prev.requests);
        let shed = now.shed.saturating_sub(prev.shed);
        let arrivals = requests.saturating_add(shed);
        let shed_ppm = shed
            .saturating_mul(1_000_000)
            .checked_div(arrivals)
            .unwrap_or(0);
        let mut alarms = Vec::new();
        if let Some(max) = cfg.max_round_p99_ns {
            if window_rounds > 0 && round_p99_ns > max {
                alarms.push("round_p99".to_string());
                self.registry.event(
                    "watch.alarm.round_p99",
                    &[
                        ("round", self.committed_rounds.into()),
                        ("p99_ns", round_p99_ns.into()),
                        ("max_ns", max.into()),
                        ("window_rounds", window_rounds.into()),
                    ],
                );
            }
        }
        if let Some(max) = cfg.max_shed_ppm {
            if arrivals > 0 && shed_ppm > max {
                alarms.push("shed_ppm".to_string());
                self.registry.event(
                    "watch.alarm.shed_ppm",
                    &[
                        ("round", self.committed_rounds.into()),
                        ("shed_ppm", shed_ppm.into()),
                        ("max_ppm", max.into()),
                        ("requests", requests.into()),
                    ],
                );
            }
        }
        // The empirical-ε alarm is journaled at estimate-record time (see
        // record_empirical_estimate); the watch report lists it while the
        // exceedance stands so pollers see it without replaying events.
        if cfg.alarm_on_empirical && self.empirical_flagged {
            alarms.push("empirical_eps".to_string());
        }
        let (eps_hat, eps_samples) = self
            .empirical
            .as_ref()
            .map_or((0.0, 0), |e| (e.eps_hat, e.samples as u64));
        self.registry
            .gauge("watch.alarms.active")
            .set_u64(alarms.len() as u64);
        let overhead_ns = started.elapsed().as_nanos() as u64;
        self.registry
            .histogram("watch.sample.ns")
            .record(overhead_ns);
        self.watch_last = Some(WatchReport {
            round: self.committed_rounds,
            window_rounds,
            round_p99_ns,
            requests,
            shed_ppm,
            total_epsilon: self.accountant.total_epsilon(),
            eps_hat,
            eps_samples,
            eps_budget: self.config.privacy.mechanism.epsilon(),
            alarms,
            overhead_ns,
        });
        self.watch_prev = now;
    }

    /// Mirrors the latest round's phase breakdown into `round.phase.*`
    /// gauges so flat metric consumers (BENCH files, scrapes) see it
    /// without parsing reports.
    fn publish_phase_gauges(&self, phases: &PhaseBreakdown) {
        if !self.registry.is_enabled() {
            return;
        }
        for (name, ns) in [
            ("round.phase.union_ns", phases.union_ns),
            ("round.phase.fetch_ns", phases.fetch_ns),
            ("round.phase.serve_ns", phases.serve_ns),
            ("round.phase.aggregate_ns", phases.aggregate_ns),
            ("round.phase.write_ns", phases.write_ns),
            ("round.phase.round_ns", phases.round_ns),
        ] {
            self.registry.gauge(name).set_u64(ns);
        }
    }

    /// Reads the whole table out of the main ORAM (fetch + reinsert each
    /// entry). Used to sync a model for evaluation; **not** part of the
    /// private protocol.
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn snapshot_table<R: Rng>(&mut self, rng: &mut R) -> Result<Vec<Vec<u8>>, FedoraError> {
        let mut out = Vec::with_capacity(self.config.table.num_entries as usize);
        for id in 0..self.config.table.num_entries {
            if self.quarantined_ids.contains(&id) {
                out.push(vec![0; self.config.table.entry_bytes]);
                continue;
            }
            match self.main.fetch(id, rng) {
                Ok(block) => {
                    out.push(block.payload.clone());
                    self.main.insert(id, block.payload, rng)?;
                }
                Err(OramError::MissingBlock { id }) => {
                    self.quarantined_ids.insert(id);
                    out.push(vec![0; self.config.table.entry_bytes]);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }
}

impl core::fmt::Debug for FedoraServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FedoraServer")
            .field("table", &self.config.table)
            .field("committed_rounds", &self.committed_rounds)
            .field("round_active", &self.active.is_some())
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FedoraConfig, ParallelismConfig, PrivacyConfig, TableSpec, WatchConfig};
    use fedora_fl::modes::{FedAdam, FedAvg, LazyDp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn server(epsilon: Option<f64>) -> (FedoraServer, StdRng) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
        config.privacy = match epsilon {
            None => PrivacyConfig::none(),
            Some(0.0) => PrivacyConfig::perfect(),
            Some(e) => PrivacyConfig::with_epsilon(e),
        };
        let s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
        (s, rng)
    }

    #[test]
    fn round_counts_union() {
        let (mut s, mut rng) = server(None); // ε=∞: k = k_union exactly
        let report = s.begin_round(&[42, 7, 42, 38, 42, 38], &mut rng).unwrap();
        assert_eq!(report.k_requests, 6);
        assert_eq!(report.k_union, 3);
        assert_eq!(report.k_accesses, 3);
        assert_eq!(report.dummies, 0);
        assert_eq!(report.lost, 0);
        let mut mode = FedAvg;
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn phases_partition_round_exactly() {
        // The five phase fields must sum to round_ns identically.
        let mut rng = StdRng::seed_from_u64(23);
        let config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
        let mut s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
        let mut mode = FedAvg;
        let batches: [&[u64]; 3] = [&[1, 2, 3, 4], &[5, 6, 7], &[8, 9]];
        for (i, batch) in batches.iter().enumerate() {
            s.begin_round(batch, &mut rng).unwrap();
            let report = s.end_round(&mut mode, 1.0, &mut rng).unwrap();
            let p = report.phases;
            assert_eq!(
                p.sum_ns(),
                p.round_ns,
                "phases must partition round_ns exactly (round {i})"
            );
            assert!(p.round_ns > 0, "round wall time measured");
        }
    }

    /// The watch plane reads the series it windows without registering
    /// them, so a server without a network front end exports no `net.*`.
    #[test]
    fn watch_sampling_registers_no_watched_series() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
        config.watch = WatchConfig::every(1);
        let mut s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
        for _ in 0..2 {
            s.begin_round(&[1, 2, 3], &mut rng).unwrap();
            s.end_round(&mut FedAvg, 1.0, &mut rng).unwrap();
        }
        let report = s.watch_report().expect("sampled every round");
        assert_eq!((report.round, report.window_rounds), (2, 1));
        assert!(report.round_p99_ns > 0);
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("net.requests"), None);
        assert_eq!(snap.counter("net.shed.requests"), None);
    }

    #[test]
    fn serve_returns_entries() {
        let (mut s, mut rng) = server(None);
        s.begin_round(&[5, 9, 5], &mut rng).unwrap();
        assert_eq!(s.serve(5, &mut rng).unwrap().unwrap(), vec![5u8; 32]);
        assert_eq!(s.serve(9, &mut rng).unwrap().unwrap(), vec![9u8; 32]);
        // Duplicate serve is fine (K serves per round).
        assert_eq!(s.serve(5, &mut rng).unwrap().unwrap(), vec![5u8; 32]);
        // Un-requested entry is an error.
        assert!(matches!(
            s.serve(100, &mut rng),
            Err(FedoraError::UnknownEntry { id: 100 })
        ));
    }

    #[test]
    fn aggregate_and_update_applies_fedavg() {
        let (mut s, mut rng) = server(None);
        // Entry 3 starts as bytes [3;32] → f32 garbage; use entry 0 which
        // is all zeros.
        s.begin_round(&[0], &mut rng).unwrap();
        let mut mode = FedAvg;
        // Two clients: grads [1.0...] (n=1) and [3.0...] (n=1) → mean 2.0.
        let dim = 8;
        assert!(s.aggregate(&mode, 0, &vec![1.0; dim], 1, &mut rng).unwrap());
        assert!(s.aggregate(&mode, 0, &vec![3.0; dim], 1, &mut rng).unwrap());
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        // Next round: entry 0 should now decode as 2.0s.
        s.begin_round(&[0], &mut rng).unwrap();
        let bytes = s.serve(0, &mut rng).unwrap().unwrap();
        let vals: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![2.0; dim]);
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn perfect_privacy_always_reads_k() {
        let (mut s, mut rng) = server(Some(0.0));
        let report = s.begin_round(&[1, 1, 1, 1, 2, 2, 3, 3], &mut rng).unwrap();
        assert_eq!(report.k_accesses, 8, "Strawman 1: k = K");
        assert_eq!(report.dummies, 8 - 3);
        assert_eq!(report.lost, 0);
        let mut mode = FedAvg;
        let final_report = s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        assert!(final_report.eo_accesses >= 2, "8 inserts / A=4 = 2 EOs");
    }

    #[test]
    fn lost_entries_served_as_none() {
        // Force losses with a shape that always picks k=1.
        let mut rng = StdRng::seed_from_u64(18);
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
        config.privacy.mechanism =
            fedora_fdp::FdpMechanism::new(f64::INFINITY, fedora_fdp::YShape::Custom(vec![1.0]))
                .unwrap();
        // ε=∞ picks k=k_union; to force loss use ε=0-ish with delta at 1:
        config.privacy.mechanism =
            fedora_fdp::FdpMechanism::new(0.0, fedora_fdp::YShape::Custom(vec![1.0])).unwrap();
        let mut s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
        let report = s.begin_round(&[10, 20, 30], &mut rng).unwrap();
        assert_eq!(report.k_accesses, 1);
        assert_eq!(report.lost, 2);
        // First-k strategy: entry 10 read; 20 and 30 lost.
        assert!(s.serve(10, &mut rng).unwrap().is_some());
        assert!(s.serve(20, &mut rng).unwrap().is_none());
        assert!(s.serve(30, &mut rng).unwrap().is_none());
        // Gradients for lost entries are dropped.
        let mode = FedAvg;
        assert!(!s.aggregate(&mode, 20, &[1.0; 8], 1, &mut rng).unwrap());
        let mut mode = FedAvg;
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn read_phase_is_ssd_write_free() {
        let (mut s, mut rng) = server(Some(1.0));
        let before = s.ssd_stats();
        s.begin_round(&[1, 2, 3, 4, 5, 6, 7, 8], &mut rng).unwrap();
        let after_read = s.ssd_stats().since(&before);
        assert_eq!(
            after_read.bytes_written, 0,
            "Opt. 1+2: read phase never writes"
        );
        assert!(after_read.bytes_read > 0);
        let mut mode = FedAvg;
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn round_lifecycle_enforced() {
        let (mut s, mut rng) = server(None);
        let mut mode = FedAvg;
        assert!(matches!(
            s.end_round(&mut mode, 1.0, &mut rng),
            Err(FedoraError::NoActiveRound)
        ));
        s.begin_round(&[1], &mut rng).unwrap();
        assert!(matches!(
            s.begin_round(&[2], &mut rng),
            Err(FedoraError::RoundInProgress)
        ));
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn out_of_range_ids_rejected_before_any_access() {
        let (mut s, mut rng) = server(None);
        let pages_before = s.ssd_stats().pages_read;
        assert_eq!(
            s.begin_round(&[1, 2, 3, 5000], &mut rng).unwrap_err(),
            FedoraError::Oram(OramError::BlockOutOfRange {
                id: 5000,
                capacity: 128
            })
        );
        assert_eq!(s.ssd_stats().pages_read, pages_before, "no path was read");
        assert_eq!(s.buffer_oram().loaded_len(), 0, "nothing was stranded");
        assert!(!s.round_active());
        s.begin_round(&[1, 2, 3], &mut rng).unwrap();
        s.end_round(&mut FedAvg, 1.0, &mut rng).unwrap();
        assert_eq!(s.committed_rounds(), 1);
    }

    #[test]
    fn too_many_requests_rejected() {
        let (mut s, mut rng) = server(None);
        let reqs: Vec<u64> = (0..65).map(|i| i % 128).collect();
        assert!(matches!(
            s.begin_round(&reqs, &mut rng),
            Err(FedoraError::TooManyRequests { got: 65, max: 64 })
        ));
    }

    #[test]
    fn cross_chunk_duplicates_counted_but_safe() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
        config.privacy = PrivacyConfig::none();
        config.privacy.chunk_size = 2; // force many chunks
        let mut s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
        // Entry 7 appears in three chunks.
        let report = s.begin_round(&[7, 1, 7, 2, 7, 3], &mut rng).unwrap();
        // Per-chunk unions: {7,1}, {7,2}, {7,3} → k_union = 6 (chunking
        // cost), but the data stays consistent.
        assert_eq!(report.k_union, 6);
        assert_eq!(s.serve(7, &mut rng).unwrap().unwrap(), vec![7u8; 32]);
        let mut mode = FedAvg;
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        // Entry intact next round.
        s.begin_round(&[7], &mut rng).unwrap();
        assert_eq!(s.serve(7, &mut rng).unwrap().unwrap(), vec![7u8; 32]);
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn multi_round_consistency() {
        let (mut s, mut rng) = server(Some(1.0));
        let mut mode = FedAvg;
        for round in 0..10u64 {
            let reqs: Vec<u64> = (0..16).map(|i| (i * 7 + round) % 128).collect();
            s.begin_round(&reqs, &mut rng).unwrap();
            for &id in &reqs {
                let _ = s.serve(id, &mut rng).unwrap();
            }
            s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        }
        assert_eq!(s.committed_rounds(), 10);
        // Every bucket authenticates at the counter its EO count derives.
        assert!(s.scrub().unwrap().is_clean());
    }

    #[test]
    fn snapshot_reads_whole_table() {
        let (mut s, mut rng) = server(None);
        let table = s.snapshot_table(&mut rng).unwrap();
        assert_eq!(table.len(), 128);
        assert_eq!(table[5], vec![5u8; 32]);
        // Table still intact afterwards.
        let table2 = s.snapshot_table(&mut rng).unwrap();
        assert_eq!(table, table2);
    }

    #[test]
    fn transient_faults_retried_transparently() {
        let (mut s, mut rng) = server(None);
        s.arm_faults(FaultConfig::chaos(7, 0.0, 0.0, 1.0));
        s.begin_round(&[3, 4, 5], &mut rng).unwrap();
        assert_eq!(s.serve(3, &mut rng).unwrap().unwrap(), vec![3u8; 32]);
        let mut mode = FedAvg;
        let report = s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        assert!(
            report.integrity.transient_retries > 0,
            "{:?}",
            report.integrity
        );
        assert!(s.aborts().is_empty());
        assert!(s.fault_stats().transients > 0);
    }

    /// There is no in-process rollback: an integrity error that outlives
    /// the retries propagates as `RoundAborted` and stops the server.
    #[test]
    fn non_transactional_integrity_error_propagates() {
        let (mut s, mut rng) = server(Some(1.0));
        s.begin_round(&[1, 2, 3], &mut rng).unwrap();
        s.end_round(&mut FedAvg, 1.0, &mut rng).unwrap();
        assert_eq!(s.accountant().total_epsilon(), 1.0);

        // Every read attempt gets an in-flight bit flip: the retry budget
        // exhausts and the round aborts.
        s.arm_faults(FaultConfig::chaos(11, 1.0, 0.0, 0.0));
        let reqs = [10u64, 20, 30];
        let err = s.begin_round(&reqs, &mut rng).unwrap_err();
        let FedoraError::RoundAborted { kind, node } = err else {
            panic!("expected RoundAborted, got {err}");
        };
        assert_eq!(s.aborts().len(), 1);
        assert_eq!((s.aborts()[0].kind, s.aborts()[0].node), (kind, node));
        assert!(s.aborts()[0].report.integrity.detected_corruption > 0);
        assert_eq!(s.committed_rounds(), 1, "aborted round must not complete");
        // The round's path reads were observed, so its ε is charged.
        assert_eq!(s.accountant().total_epsilon(), 2.0);
        // Nothing rewinds: the device counters still equal the registry's.
        let pages_read = s.registry().counter_value("storage.pages_read");
        assert_eq!(pages_read, Some(s.ssd_stats().pages_read));

        // Stopped: rounds and checkpoints are refused the same way, with
        // no further charge, even once the faults are gone.
        s.disarm_faults();
        let pages_before = s.ssd_stats().pages_read;
        for _ in 0..2 {
            assert_eq!(s.begin_round(&reqs, &mut rng).unwrap_err(), err);
        }
        assert_eq!(s.checkpoint().unwrap_err(), err);
        assert_eq!(s.ssd_stats().pages_read, pages_before);
        assert_eq!(s.accountant().total_epsilon(), 2.0);
        assert_eq!(s.aborts().len(), 1);
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("fl.rounds.aborted"), Some(1));
        assert_eq!(snap.gauge("fdp.total.epsilon"), Some(2.0));
        assert_eq!(snap.gauge("fdp.rounds"), Some(2.0));
    }

    /// An aborted round rolls back the one way there is: the stopped
    /// server is dropped, a fresh one recovers the last commit from the
    /// checkpoint, and the same round then commits with correct data.
    #[test]
    fn transactional_round_aborts_rolls_back_and_recovers() {
        let dir = temp_state_dir("abort-recover");
        let (mut s, mut rng) = durable_server_with(None, &dir, 1);
        let before = s.snapshot_table(&mut rng).unwrap();

        // Every read attempt gets an in-flight bit flip: the retry budget
        // exhausts and the round must abort.
        s.arm_faults(FaultConfig::chaos(11, 1.0, 0.0, 0.0));
        let reqs = [10u64, 20, 30];
        let err = s.begin_round(&reqs, &mut rng).unwrap_err();
        assert!(matches!(err, FedoraError::RoundAborted { .. }), "{err}");
        assert_eq!(s.aborts().len(), 1);
        assert!(s.aborts()[0].report.integrity.detected_corruption > 0);
        assert_eq!(s.committed_rounds(), 1, "aborted round must not complete");
        drop(s);

        let (mut t, mut rng) = server(None);
        assert_eq!(t.recover(&dir).unwrap(), 1);
        assert!(t.aborts().is_empty());
        assert_eq!(t.snapshot_table(&mut rng).unwrap(), before);
        let mut mode = FedAvg;
        for _ in 0..3 {
            t.begin_round(&reqs, &mut rng).unwrap();
            for &id in &reqs {
                let bytes = t.serve(id, &mut rng).unwrap();
                assert_eq!(bytes.as_ref(), Some(&before[id as usize]), "entry {id}");
            }
            t.end_round(&mut mode, 1.0, &mut rng).unwrap();
        }
        assert_eq!(t.committed_rounds(), 4, "forward progress after the abort");
        assert!(t.scrub().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_mode_excludes_quarantined_entries() {
        let (mut s, mut rng) = server(None);
        // Destroy every tree bucket: all non-stash blocks become missing.
        let nodes = s.main_oram().store().geometry().num_nodes();
        for node in 0..nodes {
            s.repair_bucket(node).unwrap();
        }
        let reqs = [10u64, 20, 30, 40, 50, 60, 70, 80];
        let mut mode = FedAvg;
        s.begin_round(&reqs, &mut rng).unwrap();
        let mut lost = 0;
        for &id in &reqs {
            match s.serve(id, &mut rng).unwrap() {
                Some(bytes) => assert_eq!(bytes, vec![id as u8; 32], "stash survivor"),
                None => lost += 1,
            }
        }
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        assert!(lost >= 1, "emptied tree must lose some requested entries");
        assert_eq!(s.quarantined_entries().len(), lost);
        // The next round still proceeds, with the same entries excluded.
        s.begin_round(&reqs, &mut rng).unwrap();
        for &id in s.quarantined_entries().clone().iter() {
            assert!(s.serve(id, &mut rng).unwrap().is_none());
        }
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
    }

    #[test]
    fn registry_after_round_carries_headline_series() {
        let (mut s, mut rng) = server(None);
        assert!(s.registry().is_enabled());
        s.begin_round(&[1, 2, 3, 1], &mut rng).unwrap();
        s.serve(1, &mut rng).unwrap();
        let mode = FedAvg;
        s.aggregate(&mode, 1, &[0.5; 8], 1, &mut rng).unwrap();
        let mut mode = FedAvg;
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        let m = &s.registry().snapshot();
        // Acceptance keys: all present and coherent with the report.
        let access = m.histogram("oram.access.latency").expect("latency hist");
        assert!(access.count > 0);
        assert!(access.min <= access.p50 && access.p50 <= access.p95);
        assert!(access.p95 <= access.p99 && access.p99 <= access.max);
        assert_eq!(
            m.counter("storage.pages_read"),
            Some(s.ssd_stats().pages_read)
        );
        assert_eq!(
            m.counter("storage.pages_written"),
            Some(s.ssd_stats().pages_written)
        );
        assert_eq!(m.counter("fl.round.upload_bytes"), Some(8 * 4));
        assert_eq!(m.counter("fl.round.download_bytes"), Some(32));
        assert_eq!(m.counter("integrity.retries"), Some(0));
        assert_eq!(m.counter("fl.rounds.completed"), Some(1));
        assert!(m.events.iter().any(|e| e.name == "round.begin"));
        assert!(m.events.iter().any(|e| e.name == "round.end"));
    }

    #[test]
    fn faults_feed_integrity_retry_counter() {
        let (mut s, mut rng) = server(None);
        s.arm_faults(FaultConfig::chaos(7, 0.0, 0.0, 1.0));
        s.begin_round(&[3, 4, 5], &mut rng).unwrap();
        let mut mode = FedAvg;
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        let retries = s.registry().counter_value("integrity.retries");
        assert!(retries.unwrap_or(0) > 0);
    }

    #[test]
    fn disabled_registry_yields_empty_snapshots() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
        config.privacy = PrivacyConfig::none();
        let mut s = FedoraServer::with_telemetry(
            config,
            |id| vec![id as u8; 32],
            fedora_telemetry::Registry::disabled(),
            &mut rng,
        );
        assert!(!s.registry().is_enabled());
        s.begin_round(&[1, 2], &mut rng).unwrap();
        let mut mode = FedAvg;
        let report = s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        assert_eq!(
            s.registry().snapshot(),
            fedora_telemetry::Snapshot::default()
        );
        // The pipeline itself is unaffected.
        assert_eq!(report.k_requests, 2);
    }

    #[test]
    fn ledger_tracks_accountant_exactly() {
        let (mut s, mut rng) = server(Some(0.5));
        let mut mode = FedAvg;
        for round in 1..=3u64 {
            s.begin_round(&[1, 2, 3, 2], &mut rng).unwrap();
            s.end_round(&mut mode, 1.0, &mut rng).unwrap();
            let m = s.registry().snapshot();
            let total = m.gauge("fdp.total.epsilon");
            assert_eq!(total, Some(s.accountant().total_epsilon()));
            assert_eq!(m.gauge("fdp.rounds"), Some(round as f64));
        }
        let m = s.registry().snapshot();
        assert_eq!(m.gauge("fdp.round.epsilon"), Some(0.5));
        assert_eq!(m.gauge("fdp.mechanism.epsilon"), Some(0.5));
        assert_eq!(m.counter("fdp.ledger.poisoned"), Some(0));
    }

    #[test]
    fn ledger_secret_series_are_audit_only() {
        let (mut s, mut rng) = server(Some(0.0)); // perfect: k = K, dummies > 0
        s.begin_round(&[7, 7, 7, 9], &mut rng).unwrap();
        let mut mode = FedAvg;
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        let m = &s.registry().snapshot();
        // Lookups always resolve (the tag affects exporters only)…
        assert_eq!(m.counter("fdp.dummies.total"), Some(2));
        assert_eq!(m.gauge("fdp.round.k_union"), Some(2.0));
        // …but every k_union-derived series is tagged audit-only.
        for name in [
            "fdp.dummies.total",
            "fdp.lost.total",
            "fdp.round.k_union",
            "fdp.k.overhead",
        ] {
            assert!(m.is_audit_only(name), "{name} must be audit-only");
        }
        assert!(!m.is_audit_only("fdp.total.epsilon"));
    }

    #[test]
    fn budget_alarm_journals_once() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
        config.privacy = PrivacyConfig::with_epsilon(1.0);
        config.privacy_budget = crate::config::PrivacyBudgetConfig::alarm(2.5);
        let mut s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
        let mut mode = FedAvg;
        for _ in 0..4 {
            s.begin_round(&[1, 2], &mut rng).unwrap();
            s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        }
        // 4 rounds at ε=1.0 cross the 2.5 ceiling at round 3; the alarm
        // journals exactly once and never refuses a round.
        let m = s.registry().snapshot();
        let crossings: Vec<_> = m
            .events
            .iter()
            .filter(|e| e.name == "privacy.budget.exceeded")
            .collect();
        assert_eq!(crossings.len(), 1);
        assert_eq!(
            crossings[0].field("round"),
            Some(&fedora_telemetry::Value::U64(2))
        );
        assert_eq!(m.gauge("fdp.budget.max_epsilon"), Some(2.5));
        assert_eq!(m.counter("fdp.budget.refused_rounds"), Some(0));
    }

    #[test]
    fn enforcing_budget_refuses_round_without_consuming() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut config = FedoraConfig::for_testing(TableSpec::tiny(128), 64);
        config.privacy = PrivacyConfig::with_epsilon(1.0);
        config.privacy_budget = crate::config::PrivacyBudgetConfig::enforcing(2.5);
        let mut s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
        let mut mode = FedAvg;
        for _ in 0..2 {
            s.begin_round(&[1, 2], &mut rng).unwrap();
            s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        }
        // Third round would spend 3.0 > 2.5: refused before any state change.
        let err = s.begin_round(&[1, 2], &mut rng).unwrap_err();
        assert_eq!(
            err,
            FedoraError::PrivacyBudgetExhausted {
                spent: 2.0,
                budget: 2.5
            }
        );
        assert_eq!(s.accountant().total_epsilon(), 2.0);
        assert_eq!(s.committed_rounds(), 2);
        let m = s.registry().snapshot();
        assert_eq!(m.counter("fdp.budget.refused_rounds"), Some(1));
        assert!(m.events.iter().any(|e| e.name == "privacy.budget.refused"));
        // A refused round leaves no active round behind.
        assert!(matches!(
            s.end_round(&mut mode, 1.0, &mut rng),
            Err(FedoraError::NoActiveRound)
        ));
    }

    fn temp_state_dir(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "fedora-server-durable-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    /// Builds the durable twin of `server(...)` (same seed/config) and
    /// runs `rounds` committed rounds against a fixed request stream.
    fn durable_server_with(
        epsilon: Option<f64>,
        dir: &std::path::Path,
        rounds: u64,
    ) -> (FedoraServer, StdRng) {
        let (s, rng) = server(epsilon);
        run_durable(s, rng, dir, rounds)
    }

    /// Enables durability on `s` and runs `rounds` committed rounds
    /// against a fixed request stream.
    fn run_durable(
        mut s: FedoraServer,
        mut rng: StdRng,
        dir: &std::path::Path,
        rounds: u64,
    ) -> (FedoraServer, StdRng) {
        s.enable_durability(dir).unwrap();
        let mut mode = FedAvg;
        for round in 0..rounds {
            let reqs: Vec<u64> = (0..8).map(|i| (i * 5 + round) % 128).collect();
            s.begin_round(&reqs, &mut rng).unwrap();
            for &id in &reqs {
                let _ = s.serve(id, &mut rng).unwrap();
            }
            s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        }
        (s, rng)
    }

    fn durable_server(dir: &std::path::Path, rounds: u64) -> (FedoraServer, StdRng) {
        durable_server_with(Some(0.5), dir, rounds)
    }

    #[test]
    fn checkpoint_restore_roundtrips_full_state() {
        let dir = temp_state_dir("roundtrip");
        let (s, _) = durable_server(&dir, 3);
        let want_eps = s.accountant().total_epsilon();
        let want_report = s.last_committed_report().cloned().unwrap();

        let (mut t, mut rng) = server(Some(0.5));
        assert_eq!(t.recover(&dir).unwrap(), 3);
        assert_eq!(t.committed_rounds(), 3);
        assert_eq!(t.accountant().total_epsilon(), want_eps);
        assert_eq!(t.last_committed_report().cloned().unwrap(), want_report);
        // The recovered server keeps making progress and the table data
        // survived (same entries as the original initialization). Under
        // ε=0.5 the FDP mechanism may sample k < k_union and lose an
        // entry, so require only that whatever *was* fetched decodes to
        // the initialization pattern — and that something was.
        t.begin_round(&[5, 9], &mut rng).unwrap();
        let mut served = 0;
        for id in [5u64, 9] {
            if let Some(bytes) = t.serve(id, &mut rng).unwrap() {
                assert_eq!(bytes, vec![id as u8; 32]);
                served += 1;
            }
        }
        assert!(served >= 1, "at least one requested entry fetched");
        let mut mode = FedAvg;
        t.end_round(&mut mode, 1.0, &mut rng).unwrap();
        assert_eq!(t.committed_rounds(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_crash_point_recovers_to_last_commit() {
        // Perfect privacy: k = K ≥ 1 and K insertions per round, so every
        // crash point is guaranteed to fire deterministically.
        for point in CrashPoint::all() {
            let dir = temp_state_dir(point.name());
            let (mut s, mut rng) = durable_server_with(Some(0.0), &dir, 2);
            let committed_eps = s.accountant().total_epsilon();

            s.arm_crash_point(point);
            let reqs = [1u64, 2, 3, 4];
            let mut crashed = false;
            match s.begin_round(&reqs, &mut rng) {
                Err(FedoraError::CrashInjected { .. }) => crashed = true,
                Err(e) => panic!("{point}: unexpected {e}"),
                Ok(_) => {
                    let mut mode = FedAvg;
                    match s.end_round(&mut mode, 1.0, &mut rng) {
                        Err(FedoraError::CrashInjected { .. }) => crashed = true,
                        Err(e) => panic!("{point}: unexpected {e}"),
                        Ok(_) => {}
                    }
                }
            }
            assert!(crashed, "{point}: crash point never fired");
            // What the dying server knew it had durably committed.
            let want_rounds = s.committed_rounds();
            let want_report = s.last_committed_report().cloned().unwrap();
            match point {
                // Pre-commit crash: the round's checkpoint was already
                // durable, so recovery lands one past the old commit.
                CrashPoint::PostDataSyncPreCommit => assert_eq!(want_rounds, 3, "{point}"),
                _ => assert_eq!(want_rounds, 2, "{point}"),
            }
            drop(s); // the "kill"

            let (mut t, mut rng2) = server(Some(0.0));
            assert_eq!(t.recover(&dir).unwrap(), want_rounds, "{point}");
            assert_eq!(
                t.last_committed_report().cloned().unwrap(),
                want_report,
                "{point}: recovered state must equal the last committed round"
            );
            assert!(
                t.accountant().total_epsilon() >= committed_eps,
                "{point}: recovery must never under-report ε"
            );
            // The recovered server keeps making committed progress.
            t.begin_round(&[7, 8], &mut rng2).unwrap();
            let mut mode = FedAvg;
            t.end_round(&mut mode, 1.0, &mut rng2).unwrap();
            assert_eq!(t.committed_rounds(), want_rounds + 1, "{point}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Runs `rounds` committed rounds against `mode` on a durable server
    /// (perfect privacy so crash points fire deterministically).
    fn run_rounds<M: AggregationMode>(
        s: &mut FedoraServer,
        mode: &mut M,
        rng: &mut StdRng,
        rounds: u64,
    ) {
        for round in 0..rounds {
            let reqs: Vec<u64> = (0..4).map(|i| (i * 7 + round) % 128).collect();
            s.begin_round(&reqs, rng).unwrap();
            for &id in &reqs {
                let _ = s.serve(id, rng).unwrap();
            }
            s.end_round(mode, 1.0, rng).unwrap();
        }
    }

    #[test]
    fn fedadam_state_resumes_from_checkpoint_after_crash() {
        let dir = temp_state_dir("adam");
        let (mut s, mut rng) = server(Some(0.0));
        s.enable_durability(&dir).unwrap();
        let mut mode = FedAdam::new();
        run_rounds(&mut s, &mut mode, &mut rng, 2);
        let committed_state = mode.state_bytes();
        assert!(!committed_state.is_empty());

        // Crash mid-write of round 3: the in-memory mode has already
        // advanced past the committed state when the "process dies".
        s.arm_crash_point(CrashPoint::MidEvictionWrite);
        s.begin_round(&[1, 2, 3, 4], &mut rng).unwrap();
        for id in [1u64, 2, 3, 4] {
            let _ = s.serve(id, &mut rng).unwrap();
        }
        let err = s.end_round(&mut mode, 1.0, &mut rng).unwrap_err();
        assert!(matches!(err, FedoraError::CrashInjected { .. }));
        assert_ne!(
            mode.state_bytes(),
            committed_state,
            "the torn round must have advanced the dying mode"
        );
        drop(s);

        // Recovery restores the mode state captured at the last commit,
        // not the torn round's advanced state.
        let (mut t, _) = server(Some(0.0));
        assert_eq!(t.recover(&dir).unwrap(), 2);
        assert_eq!(t.mode_state(), &committed_state[..]);
        let mut recovered = FedAdam::new();
        t.restore_mode(&mut recovered).unwrap();
        assert_eq!(recovered.state_bytes(), committed_state);
        assert_eq!(recovered.tracked_entries(), mode.tracked_entries());
        // Restoring onto the wrong mode kind is an error, not silence.
        let mut wrong = FedAvg;
        assert!(matches!(
            t.restore_mode(&mut wrong),
            Err(FedoraError::Durable(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazydp_staleness_survives_recovery() {
        let dir = temp_state_dir("lazydp");
        let (mut s, mut rng) = server(Some(0.0));
        s.enable_durability(&dir).unwrap();
        let mut mode = LazyDp::new(1.0, 0.0);
        run_rounds(&mut s, &mut mode, &mut rng, 3);
        let committed_state = mode.state_bytes();
        drop(s);

        let (mut t, _) = server(Some(0.0));
        assert_eq!(t.recover(&dir).unwrap(), 3);
        let mut recovered = LazyDp::new(1.0, 0.0);
        t.restore_mode(&mut recovered).unwrap();
        assert_eq!(recovered.state_bytes(), committed_state);
        // Staleness is answered identically by the recovered twin, for
        // touched and never-touched entries alike.
        for id in [0u64, 1, 7, 99] {
            assert_eq!(recovered.staleness(id), mode.staleness(id), "entry {id}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_checkpoint_does_not_report_commit() {
        let dir = temp_state_dir("ckpt-fail");
        let (mut s, mut rng) = durable_server(&dir, 2);
        let want_report = s.last_committed_report().cloned().unwrap();
        // Sabotage the state directory so the next checkpoint write fails
        // with a real I/O error (not a simulated crash). The journal's
        // open file handle keeps begin-record appends working.
        std::fs::remove_dir_all(&dir).unwrap();
        let mut mode = FedAvg;
        s.begin_round(&[1, 2], &mut rng).unwrap();
        let err = s.end_round(&mut mode, 1.0, &mut rng).unwrap_err();
        assert!(
            matches!(err, FedoraError::Durable(DurableError::Io(_))),
            "expected durable I/O error, got {err:?}"
        );
        // The round is not durable, so the still-usable server must not
        // report it as committed: counters and the last-committed report
        // stay at the last state that is actually on disk.
        assert_eq!(s.committed_rounds(), 2);
        assert_eq!(s.last_committed_report().cloned().unwrap(), want_report);
    }

    #[test]
    fn torn_round_epsilon_charged_conservatively() {
        let dir = temp_state_dir("torn-eps");
        let (mut s, mut rng) = durable_server(&dir, 2);
        let committed_eps = s.accountant().total_epsilon();
        assert_eq!(committed_eps, 1.0); // 2 rounds × ε=0.5
        s.arm_crash_point(CrashPoint::PostJournalBegin);
        let err = s.begin_round(&[1, 2, 3], &mut rng).unwrap_err();
        assert!(matches!(err, FedoraError::CrashInjected { .. }));
        drop(s);

        let (mut t, _) = server(Some(0.5));
        assert_eq!(t.recover(&dir).unwrap(), 2);
        // The torn round's intended ε was journaled at round-begin and is
        // charged on recovery even though the round never ran: recovery
        // over-reports rather than ever under-reporting.
        assert!(
            t.accountant().total_epsilon() >= committed_eps + 0.5 - 1e-9,
            "torn ε must be charged (got {})",
            t.accountant().total_epsilon()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_checkpoint_restore_detected_as_rollback() {
        let dir = temp_state_dir("stale");
        let (_s, _) = durable_server(&dir, 3);
        // Simulate a rollback attack / stale backup: delete the newer
        // checkpoints so only generations older than the newest commit
        // record remain. (The commit keeps gens 2 and 3 here; commit
        // records exist for rounds 0..3.)
        let mut gens = crate::durable::list_checkpoints(&dir).unwrap();
        let newest = gens.pop().unwrap();
        std::fs::remove_file(dir.join(format!("ckpt-{newest:020}.bin"))).unwrap();
        let (mut t, _) = server(Some(0.5));
        let err = t.recover(&dir).unwrap_err();
        assert_eq!(
            err,
            FedoraError::Oram(OramError::Integrity {
                kind: IntegrityError::Rollback,
                node: 0
            })
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_without_checkpoint_errors() {
        let dir = temp_state_dir("nockpt");
        std::fs::create_dir_all(&dir).unwrap();
        let (mut t, _) = server(Some(0.5));
        assert_eq!(
            t.recover(&dir).unwrap_err(),
            FedoraError::Durable(crate::durable::DurableError::NoCheckpoint)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_seeds_are_journaled_and_replayed() {
        let dir = temp_state_dir("faultplan");
        // Zero rates: the injector arms (and the seed journals) without
        // perturbing the round itself.
        let plan = FaultPlan {
            master_seed: 99,
            bitflip: 0.0,
            rollback: 0.0,
            transient: 0.0,
        };
        let (mut s, mut rng) = server(Some(0.5));
        s.enable_durability(&dir).unwrap();
        s.set_fault_plan(plan);
        let mut mode = FedAvg;
        s.begin_round(&[1, 2, 3], &mut rng).unwrap();
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        drop(s);
        // The begin record carries exactly the plan-derived seed.
        let key = fedora_crypto::aead::Key::from_bytes([0x5E; 32]).derive_subkey("durable");
        let records = crate::durable::read_records(&dir, &key).unwrap();
        let begins: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                crate::durable::JournalRecord::Begin(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(begins.len(), 1);
        assert_eq!(begins[0].fault_seed, Some(plan.round_seed(0)));
        assert_eq!(begins[0].k_requests, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_telemetry_series_published() {
        for threads in [1, 4] {
            let dir = temp_state_dir(&format!("telemetry-t{threads}"));
            let mut rng = StdRng::seed_from_u64(17);
            let mut config = FedoraConfig::for_testing(TableSpec::tiny(1024), 64);
            config.privacy = PrivacyConfig::with_epsilon(0.5);
            config.parallelism = ParallelismConfig::with_threads(threads);
            let s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
            let (s, _) = run_durable(s, rng, &dir, 2);
            let m = s.registry().snapshot();
            // Baseline checkpoint + one per committed round.
            assert_eq!(
                m.counter("durable.checkpoints"),
                Some(3),
                "threads={threads}"
            );
            // A full-state checkpoint of a tiny table stays well under 10 MB.
            let bytes = m.gauge("durable.checkpoint.bytes").unwrap_or(0.0);
            assert!(bytes > 0.0 && bytes < 10e6, "threads={threads}: {bytes} B");
            // The gauge holds one checkpoint's wall time, which is
            // fsync-dominated and noisy, so it is bounded absolutely.
            let ns = m.gauge("durable.checkpoint.ns").unwrap_or(0.0);
            assert!(ns > 0.0 && ns < 500e6, "threads={threads}: {ns} ns");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn enable_durability_refuses_a_used_directory() {
        let dir = temp_state_dir("used-dir");
        let (s, _) = durable_server(&dir, 2);
        drop(s);
        let journal = std::fs::read(dir.join("journal.log")).unwrap();
        let image = std::fs::read(dir.join("device.img")).unwrap();
        let (mut other, mut rng) = server(Some(0.5));
        assert_eq!(
            other.enable_durability(&dir).unwrap_err(),
            FedoraError::Durable(DurableError::StateExists)
        );
        // The refused server stays non-durable, and its rounds touch
        // nothing in the directory.
        other.begin_round(&[1, 2], &mut rng).unwrap();
        other.end_round(&mut FedAvg, 1.0, &mut rng).unwrap();
        assert_eq!(std::fs::read(dir.join("journal.log")).unwrap(), journal);
        assert_eq!(std::fs::read(dir.join("device.img")).unwrap(), image);
        let (mut t, _) = server(Some(0.5));
        assert_eq!(t.recover(&dir).unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn redo_holds_the_pages_written_since_the_previous_generation() {
        let dir = temp_state_dir("redo");
        let (mut s, mut rng) = server(Some(0.5));
        let (mut plain, mut plain_rng) = server(Some(0.5));
        s.enable_durability(&dir).unwrap();
        let recorder = AccessTraceRecorder::new();
        s.set_access_recorder(recorder.clone());
        let page_bytes = s.config().ssd.page_bytes as u64;
        let file_len = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
        let mut prev_redo_bytes = 0;
        let mut total_pages = 0;
        let mut mode = FedAvg;
        let mut plain_mode = FedAvg;
        for round in 0..5u64 {
            let reqs: Vec<u64> = (0..12).map(|i| (i * 9 + round * 5) % 128).collect();
            recorder.clear();
            let written_before = s.registry().snapshot().counter("durable.bytes.written");
            let journal_before = file_len("journal.log");
            s.begin_round(&reqs, &mut rng).unwrap();
            plain.begin_round(&reqs, &mut plain_rng).unwrap();
            for &id in &reqs {
                assert_eq!(
                    s.serve(id, &mut rng).unwrap(),
                    plain.serve(id, &mut plain_rng).unwrap()
                );
            }
            let report = s.end_round(&mut mode, 1.0, &mut rng).unwrap();
            let plain_report = plain
                .end_round(&mut plain_mode, 1.0, &mut plain_rng)
                .unwrap();
            assert_eq!(report.scrubbed(), plain_report.scrubbed(), "round {round}");

            let mut pages: Vec<u64> = recorder
                .snapshot()
                .iter()
                .filter(|r| r.op == fedora_storage::AccessOp::Write)
                .map(|r| r.page)
                .collect();
            pages.sort_unstable();
            pages.dedup();
            total_pages += pages.len();
            let m = s.registry().snapshot();
            let redo_bytes = pages.len() as u64 * page_bytes;
            assert_eq!(m.gauge("durable.redo.pages"), Some(pages.len() as f64));
            assert_eq!(m.gauge("durable.redo.bytes"), Some(redo_bytes as f64));
            // Everything the writer put on disk: the new checkpoint file,
            // the journal's two records, and the previous generation's
            // pages written into the image.
            let generation = round + 1;
            let ckpt = file_len(&format!("ckpt-{generation:020}.bin"));
            assert_eq!(
                m.counter("durable.bytes.written").unwrap() - written_before.unwrap(),
                ckpt + (file_len("journal.log") - journal_before) + prev_redo_bytes,
                "round {round}"
            );
            assert!(ckpt >= redo_bytes + m.gauge("durable.checkpoint.bytes").unwrap() as u64);
            prev_redo_bytes = redo_bytes;
        }
        assert!(total_pages > 0, "some round must have evicted");
        // Same seed, same device: durability never touches the pages.
        let (a, b) = (s.main_oram().store().ssd(), plain.main_oram().store().ssd());
        for page in 0..a.num_pages() {
            assert_eq!(a.snapshot_page(page), b.snapshot_page(page), "page {page}");
        }
        assert_eq!(a.stats(), b.stats());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_size_stays_bounded() {
        // Controller state must not grow with the round count: only the ε
        // ledger (8 B per round) and the stash occupancy move the size.
        let dir = temp_state_dir("bounded");
        let mut rng = StdRng::seed_from_u64(23);
        let config = FedoraConfig::for_testing(TableSpec::tiny(256), 32);
        let mut s = FedoraServer::new(config, |id| vec![id as u8; 32], &mut rng);
        s.enable_durability(&dir).unwrap();
        let mut mode = FedAvg;
        let mut sizes = Vec::new();
        for round in 0..40u64 {
            let reqs: Vec<u64> = (0..32).map(|i| (i * 11 + round * 7) % 256).collect();
            s.begin_round(&reqs, &mut rng).unwrap();
            for &id in &reqs {
                let _ = s.serve(id, &mut rng).unwrap();
            }
            s.end_round(&mut mode, 1.0, &mut rng).unwrap();
            let bytes = s.registry().snapshot().gauge("durable.checkpoint.bytes");
            sizes.push(bytes.unwrap_or(0.0));
        }
        let growth = sizes[39] - sizes[0];
        assert!(
            growth <= 4096.0,
            "checkpoint grew {growth} B over 39 rounds ({} → {} B)",
            sizes[0],
            sizes[39]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_points_without_durability_still_fire() {
        let (mut s, mut rng) = server(None);
        s.arm_crash_point(CrashPoint::MidFetch);
        let err = s.begin_round(&[1, 2], &mut rng).unwrap_err();
        assert_eq!(
            err,
            FedoraError::CrashInjected {
                point: CrashPoint::MidFetch
            }
        );
    }

    #[test]
    fn scrub_only_between_rounds() {
        let (mut s, mut rng) = server(None);
        s.begin_round(&[1], &mut rng).unwrap();
        assert!(matches!(s.scrub(), Err(FedoraError::RoundInProgress)));
        let mut mode = FedAvg;
        s.end_round(&mut mode, 1.0, &mut rng).unwrap();
        let report = s.scrub().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.checked > 0);
    }
}
