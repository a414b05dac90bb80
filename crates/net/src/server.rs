//! The serving front end: threads, admission control, graceful drain.
//!
//! [`NetServer::spawn`] takes an owned [`FedoraServer`] and runs it behind
//! a TCP listener:
//!
//! * an **acceptor** thread admits connections up to
//!   [`NetConfig::max_connections`]; beyond that it answers one
//!   [`Response::Overloaded`] frame and closes (counted in
//!   `net.shed.connections`);
//! * a **reader** thread per connection parses frames and requests.
//!   Registration, health, watch, scrape, and tail are answered inline;
//!   train work is pushed onto a **bounded** job queue with
//!   `try_send` — a full queue yields an immediate
//!   [`Response::Overloaded`] (`net.shed.requests`), never an unbounded
//!   buffer. Malformed frames or requests get a typed error reply and the
//!   session is closed; the worker moves on, it never wedges;
//! * a single **engine** thread owns the `FedoraServer` and executes
//!   batches of train jobs as full rounds (`begin_round` → `serve` /
//!   `aggregate` per job → `end_round`). A round therefore never spans an
//!   engine iteration, which is what makes shutdown drain-safe: the stop
//!   marker is a queue entry, so every job admitted before it completes —
//!   through the durable commit inside `end_round` — and nothing after
//!   the marker starts. The journal commit boundary and the drain
//!   boundary coincide by construction.
//!
//! An armed [`fedora::CrashPoint`] fires as
//! [`FedoraError::CrashInjected`]; the engine treats it as the process
//! dying mid-round — no replies are sent for the doomed batch and
//! [`EngineOutcome::Crashed`] is returned so tests can recover from the
//! state dir and check that torn sessions were not counted as commits.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedora::server::FedoraError;
use fedora::FedoraServer;
use fedora_fl::wire;
use fedora_fl::FedAvg;
use fedora_storage::splitmix64;
use fedora_telemetry::{Counter, Event, Histogram, Registry, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::frame::{self, FrameError};
use crate::proto::{self, Request, Response, ScrapeFormat, TailEvent};

/// Tuning knobs for the front end.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Most simultaneous connections before new ones are shed.
    pub max_connections: usize,
    /// Bound on the train job queue; a full queue sheds with
    /// [`Response::Overloaded`].
    pub queue_depth: usize,
    /// Frame payload ceiling (see [`frame::MAX_FRAME_BYTES`]).
    pub max_frame_bytes: usize,
    /// Server learning rate applied at `end_round`.
    pub server_lr: f32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            queue_depth: 128,
            max_frame_bytes: frame::MAX_FRAME_BYTES,
            server_lr: 1.0,
        }
    }
}

/// How the engine thread ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineOutcome {
    /// Graceful drain: every job admitted before the stop marker ran to
    /// its durable commit.
    Drained {
        /// Rounds durably committed over the server's lifetime.
        committed_rounds: u64,
    },
    /// An armed crash point fired (or the engine panicked); the round in
    /// flight was abandoned exactly as a process kill would.
    Crashed {
        /// The crash point (or panic) description.
        detail: String,
    },
}

/// State shared between the acceptor, readers, and engine.
struct Shared {
    shutdown: AtomicBool,
    committed: AtomicU64,
    round_active: AtomicBool,
    live_conns: AtomicUsize,
    next_client: AtomicU32,
    table_entries: u64,
    /// Cumulative ε (`f64::to_bits`), mirrored by the engine after each
    /// committed batch so `health` replies never block on the engine.
    total_epsilon: AtomicU64,
    /// Latest watch-plane report, mirrored by the engine after each
    /// committed batch (stays `None` when the watch plane is disabled).
    watch: Mutex<Option<fedora::server::WatchReport>>,
    /// splitmix64 counter for server-assigned request trace ids (bare
    /// clients that send `train` without a `trace` member still get one).
    next_trace: AtomicU64,
}

/// Front-end instruments, registered eagerly so every counter appears
/// (at zero) in any snapshot.
#[derive(Clone)]
struct NetMetrics {
    accepted: Counter,
    shed_conns: Counter,
    shed_requests: Counter,
    frame_errors: Counter,
    proto_errors: Counter,
    requests: Counter,
    rounds: Counter,
    service: Histogram,
    /// Per-request phase attribution. Each sample is recorded with the
    /// request's trace id as its bucket exemplar, so a p99 outlier in any
    /// phase can be followed back to the exact request (see the
    /// `# EXEMPLAR` lines in the Prometheus scrape and the
    /// `net.request` span in the Chrome trace export).
    phase_queue: Histogram,
    phase_assemble: Histogram,
    phase_fetch: Histogram,
    phase_serve: Histogram,
    phase_reply: Histogram,
}

impl NetMetrics {
    fn attach(registry: &Registry) -> Self {
        NetMetrics {
            accepted: registry.counter("net.accepted"),
            shed_conns: registry.counter("net.shed.connections"),
            shed_requests: registry.counter("net.shed.requests"),
            frame_errors: registry.counter("net.errors.frame"),
            proto_errors: registry.counter("net.errors.proto"),
            requests: registry.counter("net.requests"),
            rounds: registry.counter("net.rounds"),
            service: registry.histogram("net.request.service_ns"),
            phase_queue: registry.histogram("net.request.phase.queue_ns"),
            phase_assemble: registry.histogram("net.request.phase.assemble_ns"),
            phase_fetch: registry.histogram("net.request.phase.fetch_ns"),
            phase_serve: registry.histogram("net.request.phase.serve_ns"),
            phase_reply: registry.histogram("net.request.phase.reply_ns"),
        }
    }
}

/// The write half of a connection. Readers and the engine both reply
/// through this; the mutex keeps concurrently produced frames from
/// interleaving on the socket.
#[derive(Clone)]
struct ConnWriter {
    stream: Arc<Mutex<TcpStream>>,
    max_frame: usize,
}

impl ConnWriter {
    /// Best-effort reply: a peer that already hung up is not an error
    /// worth acting on.
    fn send(&self, seq: u64, resp: &Response) {
        let payload = proto::encode_response(seq, resp);
        let mut guard = match self.stream.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let _ = frame::write_frame(&mut *guard, &payload, self.max_frame);
    }
}

struct TrainJob {
    seq: u64,
    client: u32,
    entries: Vec<u64>,
    updates: Vec<Vec<u64>>,
    /// Request trace id: caller-supplied, or server-assigned for bare
    /// clients. Never 0 (0 means "no exemplar" in the histograms).
    trace: u64,
    conn: ConnWriter,
    enqueued: Instant,
}

enum Job {
    Train(TrainJob),
    Shutdown,
}

/// A running front end. Dropping the handle without calling
/// [`NetHandle::join`] leaves the threads running until process exit;
/// call [`NetHandle::shutdown_and_join`] for an orderly stop.
pub struct NetServer;

/// Join handle for a spawned [`NetServer`].
pub struct NetHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    tx: SyncSender<Job>,
    engine: Option<JoinHandle<EngineOutcome>>,
    acceptor: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    registry: Registry,
}

impl NetServer {
    /// Binds `listen` and spawns the acceptor + engine threads around an
    /// owned, fully configured [`FedoraServer`] (arm crash points or
    /// enable durability *before* spawning). `seed` drives the engine's
    /// round randomness deterministically.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn spawn(
        server: FedoraServer,
        seed: u64,
        listen: &str,
        config: NetConfig,
    ) -> std::io::Result<NetHandle> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let registry = server.registry().clone();
        let metrics = NetMetrics::attach(&registry);
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            committed: AtomicU64::new(server.committed_rounds()),
            round_active: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
            next_client: AtomicU32::new(1),
            table_entries: server.config().table.num_entries,
            total_epsilon: AtomicU64::new(server.accountant().total_epsilon().to_bits()),
            watch: Mutex::new(server.watch_report().cloned()),
            next_trace: AtomicU64::new(seed ^ 0xC0DE_F00D_5EED_0001),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let engine = {
            let shared = Arc::clone(&shared);
            let metrics = metrics.clone();
            let rng = StdRng::seed_from_u64(seed);
            let lr = config.server_lr;
            std::thread::Builder::new()
                .name("fedora-net-engine".into())
                .spawn(move || run_engine(server, rng, rx, shared, metrics, lr))?
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            let metrics = metrics.clone();
            let registry = registry.clone();
            let tx = tx.clone();
            let conns = Arc::clone(&conns);
            let readers = Arc::clone(&readers);
            let config = config.clone();
            std::thread::Builder::new()
                .name("fedora-net-accept".into())
                .spawn(move || {
                    run_acceptor(
                        listener, shared, metrics, registry, tx, conns, readers, config,
                    )
                })?
        };

        Ok(NetHandle {
            addr,
            shared,
            tx,
            engine: Some(engine),
            acceptor: Some(acceptor),
            readers,
            conns,
            registry,
        })
    }
}

impl NetHandle {
    /// The bound address (useful with `--listen 127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The telemetry registry the pipeline and front end report into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Requests a graceful drain without waiting: the acceptor stops, new
    /// work is answered with [`Response::ShuttingDown`], and a stop
    /// marker is queued *behind* all admitted jobs.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Blocking send keeps drain semantics even when the queue is
        // full; a dead engine (crash) surfaces as a send error we ignore.
        let _ = self.tx.send(Job::Shutdown);
    }

    /// Waits for the engine to finish (drain or crash), then tears down
    /// the listener and sessions. Returns how the engine ended.
    pub fn join(mut self) -> EngineOutcome {
        let outcome = match self.engine.take() {
            Some(handle) => handle.join().unwrap_or(EngineOutcome::Crashed {
                detail: "engine thread panicked".to_owned(),
            }),
            None => EngineOutcome::Crashed {
                detail: "engine already joined".to_owned(),
            },
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Force-close sessions so blocked readers unblock and exit.
        if let Ok(conns) = self.conns.lock() {
            for stream in conns.iter() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(acceptor) = self.acceptor.take() {
            // Wake the blocked accept; should even a loopback connect
            // fail, leave the acceptor blocked rather than hang here.
            if TcpStream::connect(self.addr).is_ok() {
                let _ = acceptor.join();
            }
        }
        let handles = match self.readers.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for handle in handles {
            let _ = handle.join();
        }
        outcome
    }

    /// [`Self::shutdown`] followed by [`Self::join`].
    pub fn shutdown_and_join(self) -> EngineOutcome {
        self.shutdown();
        self.join()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_acceptor(
    listener: TcpListener,
    shared: Arc<Shared>,
    metrics: NetMetrics,
    registry: Registry,
    tx: SyncSender<Job>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    config: NetConfig,
) {
    // Each accept blocks until a connection arrives. `NetHandle::join`
    // wakes it with one of its own after setting the flag; nothing
    // accepted after the flag is served.
    for accepted in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let writer = match stream.try_clone() {
                    Ok(clone) => ConnWriter {
                        stream: Arc::new(Mutex::new(clone)),
                        max_frame: config.max_frame_bytes,
                    },
                    Err(_) => continue,
                };
                if shared.live_conns.load(Ordering::SeqCst) >= config.max_connections {
                    metrics.shed_conns.incr();
                    writer.send(0, &Response::Overloaded);
                    continue;
                }
                metrics.accepted.incr();
                shared.live_conns.fetch_add(1, Ordering::SeqCst);
                if let Ok(clone) = stream.try_clone() {
                    if let Ok(mut guard) = conns.lock() {
                        guard.push(clone);
                    }
                }
                let shared = Arc::clone(&shared);
                let metrics = metrics.clone();
                let registry = registry.clone();
                let tx = tx.clone();
                let spawned = std::thread::Builder::new()
                    .name("fedora-net-conn".into())
                    .spawn(move || run_reader(stream, writer, shared, metrics, registry, tx));
                if let Ok(handle) = spawned {
                    if let Ok(mut guard) = readers.lock() {
                        guard.push(handle);
                    }
                }
            }
            Err(_) => break,
        }
    }
}

fn run_reader(
    mut stream: TcpStream,
    writer: ConnWriter,
    shared: Arc<Shared>,
    metrics: NetMetrics,
    registry: Registry,
    tx: SyncSender<Job>,
) {
    loop {
        let payload = match frame::read_frame(&mut stream, writer.max_frame) {
            Ok(Some(payload)) => payload,
            // Clean close at a frame boundary.
            Ok(None) => break,
            Err(FrameError::Io(_)) => break,
            Err(e) => {
                // Protocol-level framing violation: typed reply, then the
                // session is over — a peer that cannot frame cannot be
                // trusted to resynchronize.
                metrics.frame_errors.incr();
                writer.send(
                    0,
                    &Response::Error {
                        kind: "frame".to_owned(),
                        message: e.to_string(),
                    },
                );
                break;
            }
        };
        let (seq, request) = match proto::decode_request(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                metrics.proto_errors.incr();
                writer.send(
                    0,
                    &Response::Error {
                        kind: "proto".to_owned(),
                        message: e.to_string(),
                    },
                );
                break;
            }
        };
        metrics.requests.incr();
        match request {
            Request::Hello => {
                let client = shared.next_client.fetch_add(1, Ordering::SeqCst);
                writer.send(seq, &Response::Welcome { client });
            }
            Request::Health => {
                writer.send(
                    seq,
                    &Response::HealthOk {
                        committed_rounds: shared.committed.load(Ordering::SeqCst),
                        round_active: shared.round_active.load(Ordering::SeqCst),
                        total_epsilon: f64::from_bits(shared.total_epsilon.load(Ordering::SeqCst)),
                        shed_requests: metrics.shed_requests.get(),
                        shed_connections: metrics.shed_conns.get(),
                    },
                );
            }
            Request::Watch => {
                let report = match shared.watch.lock() {
                    Ok(guard) => guard.clone(),
                    Err(poisoned) => poisoned.into_inner().clone(),
                };
                writer.send(seq, &Response::WatchOk { report });
            }
            Request::Scrape { format } => {
                // Served on the reader thread: a snapshot is read-only
                // against the registry, so scrapes never queue behind (or
                // stall) the engine. Both serializations redact
                // audit-only series.
                let snapshot = registry.snapshot();
                let body = match format {
                    ScrapeFormat::Prom => snapshot.to_prometheus_text(),
                    ScrapeFormat::Json => snapshot.to_json(),
                };
                for chunk in proto::scrape_chunks(&body, writer.max_frame) {
                    writer.send(seq, &chunk);
                }
            }
            Request::Tail { cursor, max } => {
                let take = usize::try_from(max)
                    .unwrap_or(usize::MAX)
                    .min(proto::MAX_TAIL_EVENTS);
                let (events, next_cursor) = registry.events_since(cursor, take);
                writer.send(
                    seq,
                    &Response::TailOk {
                        events: events.iter().map(tail_event).collect(),
                        next_cursor,
                        dropped: registry.events_dropped(),
                    },
                );
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = tx.send(Job::Shutdown);
                writer.send(seq, &Response::ShuttingDown);
            }
            Request::Train {
                client,
                entries,
                updates,
                trace,
            } => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    writer.send(seq, &Response::ShuttingDown);
                    continue;
                }
                if let Some(&bad) = entries.iter().find(|&&id| id >= shared.table_entries) {
                    writer.send(
                        seq,
                        &Response::Error {
                            kind: "proto".to_owned(),
                            message: format!(
                                "entry {bad} outside table of {}",
                                shared.table_entries
                            ),
                        },
                    );
                    continue;
                }
                // Bare clients (no trace member, or the 0 sentinel) get a
                // server-assigned id so every request is followable.
                let trace = match trace.filter(|&t| t != 0) {
                    Some(t) => t,
                    None => {
                        let mut n = shared.next_trace.fetch_add(1, Ordering::Relaxed);
                        splitmix64(&mut n).max(1)
                    }
                };
                enqueue(
                    &tx,
                    Job::Train(TrainJob {
                        seq,
                        client,
                        entries,
                        updates,
                        trace,
                        conn: writer.clone(),
                        enqueued: Instant::now(),
                    }),
                    seq,
                    &writer,
                    &metrics,
                );
            }
        }
    }
    // The reader is the session's lifetime: once it exits (clean close,
    // I/O error, or protocol violation) the socket must actually close
    // from the peer's point of view. Clones of the stream live on in the
    // writer and the teardown registry, so dropping `stream` alone would
    // leave the connection half-open until server shutdown.
    let _ = stream.shutdown(Shutdown::Both);
    shared.live_conns.fetch_sub(1, Ordering::SeqCst);
}

/// Renders one journal event for the wire: `u64`/`i64` values keep full
/// precision as decimal text, floats use their shortest display form,
/// strings pass through verbatim (trace ids are already `0x…` strings).
fn tail_event(e: &Event) -> TailEvent {
    TailEvent {
        seq: e.seq,
        name: e.name.clone(),
        fields: e
            .fields
            .iter()
            .map(|(k, v)| {
                let rendered = match v {
                    Value::U64(v) => v.to_string(),
                    Value::I64(v) => v.to_string(),
                    Value::F64(v) => format!("{v}"),
                    Value::Str(s) => s.clone(),
                };
                (k.clone(), rendered)
            })
            .collect(),
    }
}

/// Admission control: bounded queue, explicit shed on overflow.
fn enqueue(tx: &SyncSender<Job>, job: Job, seq: u64, writer: &ConnWriter, metrics: &NetMetrics) {
    match tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            metrics.shed_requests.incr();
            writer.send(seq, &Response::Overloaded);
        }
        Err(TrySendError::Disconnected(_)) => {
            writer.send(seq, &Response::ShuttingDown);
        }
    }
}

fn run_engine(
    mut server: FedoraServer,
    mut rng: StdRng,
    rx: Receiver<Job>,
    shared: Arc<Shared>,
    metrics: NetMetrics,
    server_lr: f32,
) -> EngineOutcome {
    let mut mode = FedAvg;
    let dim = server.config().table.entry_bytes / 4;
    let max_k = server.config().max_requests_per_round;
    // The job that ended the previous batch without joining it (a
    // non-train barrier, or a train job that did not fit): it runs next,
    // so queue order is preserved.
    let mut pending: Option<Job> = None;
    loop {
        let first = match pending.take() {
            Some(job) => job,
            None => match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return EngineOutcome::Drained {
                        committed_rounds: server.committed_rounds(),
                    }
                }
            },
        };
        let first = match first {
            Job::Shutdown => {
                return EngineOutcome::Drained {
                    committed_rounds: server.committed_rounds(),
                }
            }
            Job::Train(job) => job,
        };
        // Batch further queued train jobs into this round, up to the
        // pipeline's K. Non-train jobs act as batch barriers so queue
        // order is preserved.
        let batch_start = Instant::now();
        let mut batch = vec![first];
        let mut total: usize = batch[0].entries.len();
        while let Ok(job) = rx.try_recv() {
            match job {
                Job::Train(train) if total + train.entries.len() <= max_k => {
                    total += train.entries.len();
                    batch.push(train);
                }
                other => {
                    pending = Some(other);
                    break;
                }
            }
        }
        match run_batch(
            &mut server,
            &mut mode,
            &mut rng,
            batch,
            batch_start,
            dim,
            server_lr,
            &shared,
            &metrics,
        ) {
            Ok(()) => {
                shared
                    .committed
                    .store(server.committed_rounds(), Ordering::SeqCst);
                shared.total_epsilon.store(
                    server.accountant().total_epsilon().to_bits(),
                    Ordering::SeqCst,
                );
                if let Some(report) = server.watch_report() {
                    let mut guard = match shared.watch.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    *guard = Some(report.clone());
                }
            }
            Err(detail) => {
                // A crash point fired: behave like the process died —
                // abandon the batch (no replies) and stop serving.
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.round_active.store(false, Ordering::SeqCst);
                return EngineOutcome::Crashed { detail };
            }
        }
    }
}

/// Runs one batch as one full round. `Err` only for injected crashes —
/// every other failure is reported to the affected clients and absorbed.
///
/// Request-scoped observability happens here: each job gets a
/// `net.request` span opened as a child of the committing round's span
/// (visible in the Chrome trace export when tracing is on), its wall time
/// is attributed across the `net.request.phase.*` histograms with the
/// request's trace id as bucket exemplar, and a `net.request.done`
/// journal event ties trace id → round → phase timings for the `tail`
/// verb.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    server: &mut FedoraServer,
    mode: &mut FedAvg,
    rng: &mut StdRng,
    batch: Vec<TrainJob>,
    batch_start: Instant,
    dim: usize,
    server_lr: f32,
    shared: &Shared,
    metrics: &NetMetrics,
) -> Result<(), String> {
    // Reject shape-invalid jobs before the round starts so they cannot
    // poison the batch.
    let mut jobs = Vec::with_capacity(batch.len());
    for job in batch {
        if job.updates.iter().any(|words| words.len() != dim) {
            job.conn.send(
                job.seq,
                &Response::Error {
                    kind: "proto".to_owned(),
                    message: format!("update words must have dimension {dim}"),
                },
            );
        } else {
            jobs.push(job);
        }
    }
    if jobs.is_empty() {
        return Ok(());
    }
    let registry = server.registry().clone();
    let requests: Vec<u64> = jobs
        .iter()
        .flat_map(|job| job.entries.iter().copied())
        .collect();
    let fail_all = |jobs: &[TrainJob], e: &FedoraError| {
        for job in jobs {
            job.conn.send(
                job.seq,
                &Response::Error {
                    kind: "server".to_owned(),
                    message: e.to_string(),
                },
            );
        }
    };
    // Served rows, outer-indexed by job, inner by that job's entries;
    // per-job serve-phase nanoseconds alongside.
    type BatchRows = Vec<Vec<Option<Vec<u8>>>>;
    shared.round_active.store(true, Ordering::SeqCst);
    let fetch_start = Instant::now();
    let mut serve_ns_per_job = vec![0u64; jobs.len()];
    let mut fetch_share_ns = 0u64;
    let result = (|| -> Result<Option<BatchRows>, FedoraError> {
        server.begin_round(&requests, rng)?;
        // The round's ORAM fetch happens inside begin_round; each request
        // in the batch is charged an equal share of it.
        fetch_share_ns = (fetch_start.elapsed().as_nanos() as u64) / jobs.len() as u64;
        let round_span = server.round_span_id().unwrap_or(0);
        let mut rows_per_job = Vec::with_capacity(jobs.len());
        for (idx, job) in jobs.iter().enumerate() {
            // Child-of-round span covering this request's serve work:
            // ORAM accesses performed inside `serve` nest under it, so a
            // phase-histogram exemplar resolves to the exact socket-to-
            // bucket path in the trace export.
            let mut span = registry.trace_span_under_with(
                round_span,
                "net.request",
                &[
                    ("trace", Value::Str(format!("{:#x}", job.trace))),
                    ("client", Value::U64(u64::from(job.client))),
                    ("entries", Value::U64(job.entries.len() as u64)),
                ],
            );
            let serve_start = Instant::now();
            let mut rows = Vec::with_capacity(job.entries.len());
            for &id in &job.entries {
                rows.push(server.serve(id, rng)?);
            }
            serve_ns_per_job[idx] = serve_start.elapsed().as_nanos() as u64;
            span.attr("serve_ns", serve_ns_per_job[idx]);
            rows_per_job.push(rows);
        }
        for job in &jobs {
            for (&id, words) in job.entries.iter().zip(&job.updates) {
                let gradient = wire::dequantize(words);
                server.aggregate(&*mode, id, &gradient, 1, rng)?;
            }
        }
        server.end_round(mode, server_lr, rng)?;
        Ok(Some(rows_per_job))
    })();
    shared.round_active.store(false, Ordering::SeqCst);
    match result {
        Ok(Some(rows_per_job)) => {
            let round = server.committed_rounds();
            // Publish the new commit count and spent ε before any reply
            // leaves: a client that saw its TrainOk must never read a
            // stale (lower) value from a subsequent Health probe.
            shared.committed.store(round, Ordering::SeqCst);
            shared.total_epsilon.store(
                server.accountant().total_epsilon().to_bits(),
                Ordering::SeqCst,
            );
            metrics.rounds.incr();
            let assemble_ns = fetch_start.saturating_duration_since(batch_start);
            for (idx, (job, rows)) in jobs.iter().zip(rows_per_job).enumerate() {
                let queue_ns = batch_start
                    .saturating_duration_since(job.enqueued)
                    .as_nanos() as u64;
                let reply_start = Instant::now();
                job.conn.send(job.seq, &Response::TrainOk { round, rows });
                let reply_ns = reply_start.elapsed().as_nanos() as u64;
                let serve_ns = serve_ns_per_job[idx];
                metrics
                    .phase_queue
                    .record_with_exemplar(queue_ns, job.trace);
                metrics
                    .phase_assemble
                    .record_with_exemplar(assemble_ns.as_nanos() as u64, job.trace);
                metrics
                    .phase_fetch
                    .record_with_exemplar(fetch_share_ns, job.trace);
                metrics
                    .phase_serve
                    .record_with_exemplar(serve_ns, job.trace);
                metrics
                    .phase_reply
                    .record_with_exemplar(reply_ns, job.trace);
                metrics
                    .service
                    .record_with_exemplar(job.enqueued.elapsed().as_nanos() as u64, job.trace);
                registry.event(
                    "net.request.done",
                    &[
                        ("trace", Value::Str(format!("{:#x}", job.trace))),
                        ("client", Value::U64(u64::from(job.client))),
                        ("round", Value::U64(round)),
                        ("entries", Value::U64(job.entries.len() as u64)),
                        ("queue_ns", Value::U64(queue_ns)),
                        ("fetch_ns", Value::U64(fetch_share_ns)),
                        ("serve_ns", Value::U64(serve_ns)),
                        ("reply_ns", Value::U64(reply_ns)),
                    ],
                );
            }
            Ok(())
        }
        Ok(None) => Ok(()),
        Err(FedoraError::CrashInjected { point }) => Err(format!("{point:?}")),
        Err(e) => {
            fail_all(&jobs, &e);
            // Close a round left open by a mid-round failure so the next
            // batch starts clean; a crash point firing during this
            // best-effort close still ends the engine.
            if server.round_active() {
                if let Err(FedoraError::CrashInjected { point }) =
                    server.end_round(mode, server_lr, rng)
                {
                    return Err(format!("{point:?}"));
                }
            }
            Ok(())
        }
    }
}
