//! `fedora-cli` — command-line front end for the live simulated pipeline
//! and its TCP serving stack.
//!
//! ```text
//! fedora-cli round   --entries 4096 --requests 7,19,7,42 --epsilon 1.0
//! fedora-cli restore --state-dir state --entries 4096
//! fedora-cli serve   --listen 127.0.0.1:7878 --entries 1024 --state-dir state
//! fedora-cli watch   --addr 127.0.0.1:7878
//! ```
//!
//! Each command takes only the flags it reads; any other flag is an
//! error. The analytic lifetime and latency figures are the
//! `fig7_ssd_lifetime` and `fig8_latency` bench binaries, and the
//! access-count attack is `examples/attack_demo.rs`.
//!
//! The binary lives in `fedora-net` (not the core crate) so `serve` can
//! front the TCP serving stack without a dependency cycle.

use std::collections::HashMap;
use std::io::{self, Write};

use fedora::config::WatchConfig;
use fedora::config::{FedoraConfig, ParallelismConfig, PrivacyConfig, TableSpec};
use fedora::server::FedoraServer;
use fedora_fl::modes::FedAvg;
use fedora_net::{NetClient, NetConfig, NetServer, Request, Response, ScrapeFormat};
use fedora_telemetry::{Registry, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
fedora-cli — FEDORA live pipeline and serving front end

USAGE:
    fedora-cli <command> [--key value]...

COMMANDS:
    round      run one live round on the simulated pipeline
               --entries N  --requests a,b,c,... (at most 64 ids)
               --epsilon E
               --threads N (worker threads for bulk path crypto;
               default 1 — thread count never changes results)
               --state-dir DIR (durable mode: restore any prior
               checkpointed state, journal + checkpoint the round)
    checkpoint write a fresh checkpoint (controller state plus the
               device pages changed since the previous one)
               --state-dir DIR  --entries N  --epsilon E
    restore    recover from a state dir and report what was restored
               --state-dir DIR  --entries N  --epsilon E
    serve      run the TCP serving front end until a protocol Shutdown
               --listen HOST:PORT (default 127.0.0.1:0; prints the
               bound address as 'listening on ADDR' before serving)
               --entries N  --epsilon E  --seed N  --threads N
               --state-dir DIR (durable: restore prior state, journal
               + checkpoint every committed round)
               --queue-depth N  --max-connections N (admission control:
               excess load is shed with explicit Overloaded replies)
               --watch-every N (sample the privacy/SLO watch plane every
               N committed rounds; 0 = off)  --watch-max-p99-ms MS
               --watch-max-shed-ppm PPM (SLO alarm thresholds)
               --journal-capacity N (telemetry event-journal ring size;
               scrape 'telemetry.journal.dropped' to size it)
    watch      poll a live server's watch-plane report
               --addr HOST:PORT (as printed by serve)
    scrape     fetch a live server's telemetry snapshot over the wire
               --addr HOST:PORT  --format prom|json (default prom;
               audit-only series are redacted server-side; oversized
               bodies arrive chunked and are reassembled here)
    tail       stream a live server's journal events from a cursor
               --addr HOST:PORT  --cursor N (default 0; pass the
               printed next cursor to resume)  --max N (default 100)
    help       print this message

round, checkpoint, restore and serve build the same server: each takes
--entries N, --epsilon E, --seed N, --threads N, the --watch-* flags
and --journal-capacity N as serve documents them. The four also accept
--metrics-out PATH to write the pipeline's telemetry snapshot
(counters, gauges, histogram percentiles, event journal),
--metrics-format json|prom to pick its serialization (single-line
JSON by default; audit-only series are redacted in every format), and
--trace-out PATH to capture causal spans as Chrome trace-event JSON
(open in https://ui.perfetto.dev). A flag the command does not take is
an error.
";

/// Parsed `--key value` pairs.
type Flags = HashMap<String, String>;

/// Why a command stopped.
#[derive(Debug)]
enum CliError {
    /// A usage or pipeline failure, reported as `error: <message>`.
    Msg(String),
    /// Writing to stdout failed. A closed reader ends the command
    /// quietly; any other failure is an error.
    Stdout(io::Error),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Msg(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Msg(msg.to_owned())
    }
}

/// The only I/O a command propagates with `?` is its stdout.
impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Stdout(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Msg(msg) => f.write_str(msg),
            CliError::Stdout(e) => write!(f, "stdout: {e}"),
        }
    }
}

type CmdResult = Result<(), CliError>;

/// A command's entry point: it prints its report to `out`.
type Run = fn(&Flags, &mut dyn Write) -> CmdResult;

/// Flags of the live server `round`, `checkpoint`, `restore` and `serve`
/// build ([`live_server`]).
const SERVER_FLAGS: &[&str] = &[
    "entries",
    "epsilon",
    "seed",
    "threads",
    "watch-every",
    "watch-max-p99-ms",
    "watch-max-shed-ppm",
    "journal-capacity",
];

/// Flags of the snapshot and trace a command writes when it ends
/// ([`write_metrics`]).
const METRICS_FLAGS: &[&str] = &["metrics-out", "metrics-format", "trace-out"];

/// The command called `name`, with the sets of flags it reads.
fn command(name: &str) -> Option<(Run, &'static [&'static [&'static str]])> {
    Some(match name {
        "round" => (
            cmd_round,
            &[SERVER_FLAGS, METRICS_FLAGS, &["requests", "state-dir"]],
        ),
        "checkpoint" => (
            cmd_checkpoint,
            &[SERVER_FLAGS, METRICS_FLAGS, &["state-dir"]],
        ),
        "restore" => (cmd_restore, &[SERVER_FLAGS, METRICS_FLAGS, &["state-dir"]]),
        "serve" => (
            cmd_serve,
            &[
                SERVER_FLAGS,
                METRICS_FLAGS,
                &["listen", "state-dir", "queue-depth", "max-connections"],
            ],
        ),
        "watch" => (cmd_watch, &[&["addr"]]),
        "scrape" => (cmd_scrape, &[&["addr", "format"]]),
        "tail" => (cmd_tail, &[&["addr", "cursor", "max"]]),
        "help" | "--help" | "-h" => (cmd_help, &[]),
        _ => return None,
    })
}

/// Parses `--key value` pairs, refusing the first key that is in none of
/// the `accepted` sets of command `name`.
fn parse_flags(name: &str, accepted: &[&[&str]], args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        if !accepted.iter().any(|set| set.contains(&key)) {
            return Err(format!("unknown flag --{key} for {name}"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(flags)
}

/// Builds the registry a command reports into, with causal tracing
/// pre-enabled when `--trace-out` asks for a trace.
fn registry_for(flags: &Flags) -> Registry {
    let registry = Registry::new();
    if flags.contains_key("trace-out") {
        registry.set_tracing(true);
    }
    registry
}

/// Writes `snapshot` when `--metrics-out PATH` was given (in the
/// `--metrics-format` serialization, JSON by default), and as Chrome
/// trace-event JSON when `--trace-out PATH` was given.
fn write_metrics(flags: &Flags, snapshot: &Snapshot, out: &mut dyn Write) -> CmdResult {
    if let Some(path) = flags.get("metrics-out") {
        let format = flags
            .get("metrics-format")
            .map(String::as_str)
            .unwrap_or("json");
        let target = std::path::Path::new(path);
        match format {
            "json" => snapshot.write_json(target),
            "prom" | "prometheus" => snapshot.write_prometheus(target),
            other => {
                let msg = format!("--metrics-format: unknown format '{other}' (json|prom)");
                return Err(msg.into());
            }
        }
        .map_err(|e| format!("--metrics-out {path}: {e}"))?;
        writeln!(out, "  metrics written to {path} ({format})")?;
    }
    if let Some(path) = flags.get("trace-out") {
        snapshot
            .write_chrome_trace(std::path::Path::new(path))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        writeln!(
            out,
            "  trace written to {path} (load in https://ui.perfetto.dev)"
        )?;
    }
    Ok(())
}

fn f64_flag(flags: &Flags, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) if v == "inf" => Ok(f64::INFINITY),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
    }
}

fn u64_flag(flags: &Flags, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer '{v}'")),
    }
}

/// Attaches `server` to `--state-dir`: recovers when checkpointed state
/// already exists there, otherwise initialises a fresh durable store
/// (device image, baseline checkpoint, empty journal). Returns the
/// restored committed round count (0 when starting fresh).
fn attach_state_dir(
    server: &mut FedoraServer,
    dir: &str,
    out: &mut dyn Write,
) -> Result<u64, CliError> {
    let path = std::path::Path::new(dir);
    let existing = fedora::durable::list_checkpoints(path).map_err(|e| e.to_string())?;
    if existing.is_empty() {
        server.enable_durability(path).map_err(|e| e.to_string())?;
        writeln!(out, "  state dir {dir}: initialised (no prior checkpoint)")?;
        Ok(0)
    } else {
        let rounds = server.recover(path).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "  state dir {dir}: restored to committed round {rounds} \
             (eps spent = {:.3})",
            server.accountant().total_epsilon()
        )?;
        Ok(rounds)
    }
}

/// Requests one round may carry. Every subcommand builds its server with
/// this bound: it sizes the buffer ORAM, and a checkpoint only restores
/// into a server of the capacity that wrote it.
const MAX_REQUESTS_PER_ROUND: usize = 64;

/// Builds the live pipeline server `round`, `checkpoint`, `restore` and
/// `serve` operate on. Geometry and privacy must match the run that wrote
/// the checkpoint.
fn live_server(flags: &Flags) -> Result<(FedoraServer, StdRng), String> {
    let entries = u64_flag(flags, "entries", 4096)?;
    let epsilon = f64_flag(flags, "epsilon", 1.0)?;
    let threads = u64_flag(flags, "threads", 1)?.max(1) as usize;
    let mut rng = StdRng::seed_from_u64(u64_flag(flags, "seed", 42)?);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(entries), MAX_REQUESTS_PER_ROUND);
    config.parallelism = ParallelismConfig::with_threads(threads);
    config.privacy = if epsilon == 0.0 {
        PrivacyConfig::perfect()
    } else if epsilon.is_infinite() {
        PrivacyConfig::none()
    } else {
        PrivacyConfig::with_epsilon(epsilon)
    };
    let watch_every = u64_flag(flags, "watch-every", 0)?;
    if watch_every > 0 {
        let mut watch = WatchConfig::every(watch_every);
        if let Some(ms) = flags.get("watch-max-p99-ms") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("--watch-max-p99-ms: bad integer '{ms}'"))?;
            watch.max_round_p99_ns = Some(ms.saturating_mul(1_000_000));
        }
        if flags.contains_key("watch-max-shed-ppm") {
            watch.max_shed_ppm = Some(u64_flag(flags, "watch-max-shed-ppm", 0)?);
        }
        config.watch = watch;
    }
    if flags.contains_key("journal-capacity") {
        config.journal_capacity = u64_flag(flags, "journal-capacity", 0)?.max(1) as usize;
    }
    let server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], registry_for(flags), &mut rng);
    Ok((server, rng))
}

/// Polls a live server's watch verb and pretty-prints the report. Scripts
/// grep the `alarms:` line, so its shape (`alarms: none` or a
/// comma-joined list) is load-bearing.
fn cmd_watch(flags: &Flags, out: &mut dyn Write) -> CmdResult {
    let addr = flags.get("addr").ok_or("watch needs --addr HOST:PORT")?;
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match client
        .call(&Request::Watch)
        .map_err(|e| format!("watch {addr}: {e}"))?
    {
        Response::WatchOk { report: Some(r) } => {
            writeln!(out, "Watch report at round {}:", r.round)?;
            writeln!(
                out,
                "  window: {} rounds, p99 {:.3} ms, {} requests, shed {} ppm",
                r.window_rounds,
                r.round_p99_ns as f64 / 1e6,
                r.requests,
                r.shed_ppm
            )?;
            writeln!(out, "  privacy: eps total {:.3}", r.total_epsilon)?;
            if r.alarms.is_empty() {
                writeln!(out, "  alarms: none")?;
            } else {
                writeln!(out, "  alarms: {}", r.alarms.join(", "))?;
            }
            writeln!(
                out,
                "  sampler overhead: {:.3} ms",
                r.overhead_ns as f64 / 1e6
            )?;
            Ok(())
        }
        Response::WatchOk { report: None } => {
            writeln!(
                out,
                "watch plane has not sampled yet (enable with serve --watch-every N)"
            )?;
            Ok(())
        }
        other => Err(format!("unexpected reply: {other:?}").into()),
    }
}

/// Fetches a live server's telemetry snapshot over the `scrape` verb and
/// prints it verbatim (Prometheus text by default). Chunked bodies are
/// reassembled inside [`NetClient::scrape`], so piping the output to a
/// file always yields one complete document.
fn cmd_scrape(flags: &Flags, out: &mut dyn Write) -> CmdResult {
    let addr = flags.get("addr").ok_or("scrape needs --addr HOST:PORT")?;
    let format = match flags.get("format").map(String::as_str).unwrap_or("prom") {
        "prom" | "prometheus" => ScrapeFormat::Prom,
        "json" => ScrapeFormat::Json,
        other => return Err(format!("--format: unknown format '{other}' (prom|json)").into()),
    };
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let body = client
        .scrape(format)
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    out.write_all(body.as_bytes())?;
    if !body.ends_with('\n') {
        writeln!(out)?;
    }
    Ok(())
}

/// Streams a live server's journal events from `--cursor` and prints one
/// line per event plus a trailing `next cursor:` line scripts resume
/// from. A non-zero dropped delta between polls means the server's ring
/// evicted events this tail never saw (raise serve --journal-capacity).
fn cmd_tail(flags: &Flags, out: &mut dyn Write) -> CmdResult {
    let addr = flags.get("addr").ok_or("tail needs --addr HOST:PORT")?;
    let cursor = u64_flag(flags, "cursor", 0)?;
    let max = u64_flag(flags, "max", 100)?;
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (events, next_cursor, dropped) = client
        .tail(cursor, max)
        .map_err(|e| format!("tail {addr}: {e}"))?;
    for event in &events {
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        writeln!(
            out,
            "{:>8}  {}  {}",
            event.seq,
            event.name,
            fields.join(" ")
        )?;
    }
    writeln!(
        out,
        "next cursor: {next_cursor} ({} events, {dropped} dropped)",
        events.len()
    )?;
    Ok(())
}

fn cmd_checkpoint(flags: &Flags, out: &mut dyn Write) -> CmdResult {
    let dir = flags
        .get("state-dir")
        .ok_or("checkpoint needs --state-dir DIR")?;
    let (mut server, _rng) = live_server(flags)?;
    let rounds = attach_state_dir(&mut server, dir, out)?;
    let stats = server.checkpoint().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "  checkpoint generation {} written: {} bytes of controller state \
         + {} redo bytes in {:.3} ms (committed rounds = {rounds})",
        stats.generation,
        stats.bytes,
        stats.redo_bytes,
        stats.ns as f64 / 1e6
    )?;
    write_metrics(flags, &server.registry().snapshot(), out)
}

fn cmd_restore(flags: &Flags, out: &mut dyn Write) -> CmdResult {
    let dir = flags
        .get("state-dir")
        .ok_or("restore needs --state-dir DIR")?;
    let (mut server, _rng) = live_server(flags)?;
    let path = std::path::Path::new(dir.as_str());
    let rounds = server.recover(path).map_err(|e| e.to_string())?;
    let generations = fedora::durable::list_checkpoints(path).map_err(|e| e.to_string())?;
    writeln!(out, "Restored from {dir}:")?;
    writeln!(out, "  committed rounds: {rounds}")?;
    writeln!(
        out,
        "  eps spent: {:.3} over {} accounted rounds",
        server.accountant().total_epsilon(),
        server.accountant().rounds()
    )?;
    writeln!(out, "  checkpoint generations on disk: {generations:?}")?;
    if let Some(report) = server.last_committed_report() {
        writeln!(
            out,
            "  last committed round: K = {}, k_union = {}, k = {}, dummies = {}",
            report.k_requests, report.k_union, report.k_accesses, report.dummies
        )?;
    }
    write_metrics(flags, &server.registry().snapshot(), out)
}

fn cmd_round(flags: &Flags, out: &mut dyn Write) -> CmdResult {
    let entries = u64_flag(flags, "entries", 4096)?;
    let epsilon = f64_flag(flags, "epsilon", 1.0)?;
    let requests: Vec<u64> = flags
        .get("requests")
        .map(String::as_str)
        .unwrap_or("7,19,7,42,7,230")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad request id '{s}'"))
        })
        .collect::<Result<_, _>>()?;
    if requests.len() > MAX_REQUESTS_PER_ROUND {
        return Err(format!(
            "{} request ids; a round takes at most {MAX_REQUESTS_PER_ROUND}",
            requests.len()
        )
        .into());
    }
    if let Some(&bad) = requests.iter().find(|&&r| r >= entries) {
        return Err(format!("request {bad} outside table of {entries} entries").into());
    }

    let (mut server, mut rng) = live_server(flags)?;
    if let Some(dir) = flags.get("state-dir") {
        attach_state_dir(&mut server, dir, out)?;
    }
    let _report = server
        .begin_round(&requests, &mut rng)
        .map_err(|e| e.to_string())?;
    // Exercise the full client exchange so fl.* telemetry is live: each
    // requested entry is downloaded and a gradient is pushed back.
    for &id in &requests {
        let served = server.serve(id, &mut rng).map_err(|e| e.to_string())?;
        if served.is_some() {
            let gradient = vec![0.1f32; 8];
            server
                .aggregate(&FedAvg, id, &gradient, 1, &mut rng)
                .map_err(|e| e.to_string())?;
        }
    }
    let mut mode = FedAvg;
    let done = server
        .end_round(&mut mode, 1.0, &mut rng)
        .map_err(|e| e.to_string())?;
    writeln!(out, "Round over {} entries at eps = {epsilon}:", entries)?;
    writeln!(
        out,
        "  K = {} requests, k_union = {}, k = {} accesses",
        done.k_requests, done.k_union, done.k_accesses
    )?;
    writeln!(
        out,
        "  dummies = {}, lost = {}, EO accesses = {}",
        done.dummies, done.lost, done.eo_accesses
    )?;
    writeln!(
        out,
        "  SSD: {} pages read, {} pages written",
        done.ssd.pages_read, done.ssd.pages_written
    )?;
    let phases = done.phases;
    writeln!(
        out,
        "  phases: union {:.3} ms, fetch {:.3} ms, serve {:.3} ms, \
         aggregate {:.3} ms, write {:.3} ms (round {:.3} ms)",
        phases.union_ns as f64 / 1e6,
        phases.fetch_ns as f64 / 1e6,
        phases.serve_ns as f64 / 1e6,
        phases.aggregate_ns as f64 / 1e6,
        phases.write_ns as f64 / 1e6,
        phases.round_ns as f64 / 1e6,
    )?;
    write_metrics(flags, &server.registry().snapshot(), out)
}

/// Runs the `fedora-net` front end over a live pipeline server until a
/// client sends the protocol `Shutdown` request, then drains to the last
/// committed round and reports the engine outcome. With `--state-dir`
/// every committed round is journaled, so killing the process mid-round
/// loses at most the open (uncommitted) round.
fn cmd_serve(flags: &Flags, out: &mut dyn Write) -> CmdResult {
    let listen = flags
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let (mut server, _rng) = live_server(flags)?;
    if let Some(dir) = flags.get("state-dir") {
        attach_state_dir(&mut server, dir, out)?;
    }
    let seed = u64_flag(flags, "seed", 42)?;
    let config = NetConfig {
        queue_depth: u64_flag(flags, "queue-depth", 128)? as usize,
        max_connections: u64_flag(flags, "max-connections", 64)? as usize,
        ..NetConfig::default()
    };
    let handle = NetServer::spawn(server, seed ^ 0x5EED, listen, config)
        .map_err(|e| format!("bind {listen}: {e}"))?;
    // CI and scripts wait for this exact line to learn the bound port.
    // Nobody can learn it if the line cannot be written, so stop.
    if let Err(e) = writeln!(out, "listening on {}", handle.addr()).and_then(|()| out.flush()) {
        handle.shutdown_and_join();
        return Err(e.into());
    }
    let registry = handle.registry().clone();
    let outcome = handle.join();
    writeln!(out, "serve loop finished: {outcome:?}")?;
    write_metrics(flags, &registry.snapshot(), out)
}

fn cmd_help(_flags: &Flags, out: &mut dyn Write) -> CmdResult {
    out.write_all(USAGE.as_bytes())?;
    Ok(())
}

fn run(args: &[String], out: &mut dyn Write) -> CmdResult {
    let Some((name, rest)) = args.split_first() else {
        return cmd_help(&Flags::new(), out);
    };
    let (cmd, accepted) =
        command(name).ok_or_else(|| format!("unknown command '{name}'\n\n{USAGE}"))?;
    let flags = parse_flags(name, accepted, rest)?;
    cmd(&flags, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    match run(&args, &mut out).and_then(|()| out.flush().map_err(CliError::Stdout)) {
        Ok(()) => {}
        // The reader is gone (`| head`, a closed pipe): nobody is left to
        // tell, and nothing went wrong on this side.
        Err(CliError::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
