//! `fedora-cli` — command-line front end for the FEDORA models and the
//! live simulated pipeline.
//!
//! ```text
//! fedora-cli lifetime --table small --updates 100000 --epsilon 1.0
//! fedora-cli latency  --table medium --updates 100000 --epsilon 1.0
//! fedora-cli round    --entries 4096 --requests 7,19,7,42 --epsilon 1.0
//! fedora-cli attack   --epsilon 1.0 --trials 20000
//! fedora-cli serve    --listen 127.0.0.1:7878 --entries 1024 --state-dir state
//! ```
//!
//! The binary lives in `fedora-net` (not the core crate) so `serve` can
//! front the TCP serving stack without a dependency cycle.

use std::collections::HashMap;

use fedora::adversary::{count_attack, dp_success_bound};
use fedora::analytic::{fedora_round, lifetime_months, path_oram_plus_round};
use fedora::config::WatchConfig;
use fedora::config::{FedoraConfig, ParallelismConfig, PrivacyConfig, TableSpec};
use fedora::latency::LatencyModel;
use fedora::server::FedoraServer;
use fedora_fdp::{FdpMechanism, YShape};
use fedora_fl::modes::FedAvg;
use fedora_net::{NetClient, NetConfig, NetServer, Request, Response, ScrapeFormat};
use fedora_telemetry::{Registry, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
fedora-cli — FEDORA system models and live pipeline

USAGE:
    fedora-cli <command> [--key value]...

COMMANDS:
    lifetime   SSD lifetime of FEDORA vs Path ORAM+ (analytic)
               --table small|medium|large  --updates N  --epsilon E
    latency    per-round latency overhead (analytic)
               --table small|medium|large  --updates N  --epsilon E
    round      run one live round on the simulated pipeline
               --entries N  --requests a,b,c,...  --epsilon E
               --threads N (worker threads for bulk path crypto;
               default 1 — thread count never changes results)
               --state-dir DIR (durable mode: restore any prior
               checkpointed state, journal + checkpoint the round)
    checkpoint write a fresh checkpoint (controller state plus the
               device pages changed since the previous one)
               --state-dir DIR  --entries N  --epsilon E
    restore    recover from a state dir and report what was restored
               --state-dir DIR  --entries N  --epsilon E
    attack     optimal access-count distinguisher vs the DP bound
               --epsilon E  --trials N
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
               --watch-empirical-every N (refresh the live empirical-eps
               estimate every N committed rounds; 0 = off)
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

Every command also accepts --metrics-out PATH to write a telemetry
snapshot (counters, gauges, histogram percentiles, event journal),
--metrics-format json|prom to pick its serialization (single-line
JSON by default; audit-only series are redacted in every format), and
--trace-out PATH to capture causal spans as Chrome trace-event JSON
(open in https://ui.perfetto.dev). For `round` these reflect the live
pipeline's full registry; the analytic commands export their computed
figures as gauges.
";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
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
fn registry_for(flags: &HashMap<String, String>) -> Registry {
    let registry = Registry::new();
    if flags.contains_key("trace-out") {
        registry.set_tracing(true);
    }
    registry
}

/// Writes `snapshot` when `--metrics-out PATH` was given (in the
/// `--metrics-format` serialization, JSON by default), and as Chrome
/// trace-event JSON when `--trace-out PATH` was given.
fn write_metrics(flags: &HashMap<String, String>, snapshot: &Snapshot) -> Result<(), String> {
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
                return Err(format!(
                    "--metrics-format: unknown format '{other}' (json|prom)"
                ))
            }
        }
        .map_err(|e| format!("--metrics-out {path}: {e}"))?;
        println!("  metrics written to {path} ({format})");
    }
    if let Some(path) = flags.get("trace-out") {
        snapshot
            .write_chrome_trace(std::path::Path::new(path))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        println!("  trace written to {path} (load in https://ui.perfetto.dev)");
    }
    Ok(())
}

fn table_spec(flags: &HashMap<String, String>) -> Result<TableSpec, String> {
    match flags.get("table").map(String::as_str).unwrap_or("small") {
        "small" => Ok(TableSpec::small()),
        "medium" => Ok(TableSpec::medium()),
        "large" => Ok(TableSpec::large()),
        other => Err(format!("unknown table '{other}' (small|medium|large)")),
    }
}

fn f64_flag(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) if v == "inf" => Ok(f64::INFINITY),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
    }
}

fn u64_flag(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer '{v}'")),
    }
}

/// Attaches `server` to `--state-dir`: recovers when checkpointed state
/// already exists there, otherwise initialises a fresh durable store
/// (device image, baseline checkpoint, empty journal). Returns the
/// restored committed round count (0 when starting fresh).
fn attach_state_dir(server: &mut FedoraServer, dir: &str) -> Result<u64, String> {
    let path = std::path::Path::new(dir);
    let existing = fedora::durable::list_checkpoints(path).map_err(|e| e.to_string())?;
    if existing.is_empty() {
        server.enable_durability(path).map_err(|e| e.to_string())?;
        println!("  state dir {dir}: initialised (no prior checkpoint)");
        Ok(0)
    } else {
        let rounds = server.recover(path).map_err(|e| e.to_string())?;
        println!(
            "  state dir {dir}: restored to committed round {rounds} \
             (eps spent = {:.3})",
            server.accountant().total_epsilon()
        );
        Ok(rounds)
    }
}

/// Builds the live pipeline server the durable subcommands operate on.
/// Geometry and privacy must match the run that wrote the checkpoint.
fn live_server(
    flags: &HashMap<String, String>,
    k_hint: usize,
) -> Result<(FedoraServer, StdRng), String> {
    let entries = u64_flag(flags, "entries", 4096)?;
    let epsilon = f64_flag(flags, "epsilon", 1.0)?;
    let threads = u64_flag(flags, "threads", 1)?.max(1) as usize;
    let mut rng = StdRng::seed_from_u64(u64_flag(flags, "seed", 42)?);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(entries), k_hint.max(16));
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
    // Independent of the alarm sampler: the refresher only needs the
    // field, so `--watch-empirical-every` works with `--watch-every 0`.
    config.watch.empirical_every_rounds = u64_flag(
        flags,
        "watch-empirical-every",
        config.watch.empirical_every_rounds,
    )?;
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
fn cmd_watch(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags.get("addr").ok_or("watch needs --addr HOST:PORT")?;
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match client
        .call(&Request::Watch)
        .map_err(|e| format!("watch {addr}: {e}"))?
    {
        Response::WatchOk { report: Some(r) } => {
            println!("Watch report at round {}:", r.round);
            println!(
                "  window: {} rounds, p99 {:.3} ms, {} requests, shed {} ppm",
                r.window_rounds,
                r.round_p99_ns as f64 / 1e6,
                r.requests,
                r.shed_ppm
            );
            println!(
                "  privacy: eps total {:.3}, empirical eps_hat {:.4} \
                 over {} pairs (budget {:.4})",
                r.total_epsilon, r.eps_hat, r.eps_samples, r.eps_budget
            );
            if r.alarms.is_empty() {
                println!("  alarms: none");
            } else {
                println!("  alarms: {}", r.alarms.join(", "));
            }
            println!("  sampler overhead: {:.3} ms", r.overhead_ns as f64 / 1e6);
            Ok(())
        }
        Response::WatchOk { report: None } => {
            println!("watch plane has not sampled yet (enable with serve --watch-every N)");
            Ok(())
        }
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

/// Fetches a live server's telemetry snapshot over the `scrape` verb and
/// prints it verbatim (Prometheus text by default). Chunked bodies are
/// reassembled inside [`NetClient::scrape`], so piping the output to a
/// file always yields one complete document.
fn cmd_scrape(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags.get("addr").ok_or("scrape needs --addr HOST:PORT")?;
    let format = match flags.get("format").map(String::as_str).unwrap_or("prom") {
        "prom" | "prometheus" => ScrapeFormat::Prom,
        "json" => ScrapeFormat::Json,
        other => return Err(format!("--format: unknown format '{other}' (prom|json)")),
    };
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let body = client
        .scrape(format)
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    Ok(())
}

/// Streams a live server's journal events from `--cursor` and prints one
/// line per event plus a trailing `next cursor:` line scripts resume
/// from. A non-zero dropped delta between polls means the server's ring
/// evicted events this tail never saw (raise serve --journal-capacity).
fn cmd_tail(flags: &HashMap<String, String>) -> Result<(), String> {
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
        println!("{:>8}  {}  {}", event.seq, event.name, fields.join(" "));
    }
    println!(
        "next cursor: {next_cursor} ({} events, {dropped} dropped)",
        events.len()
    );
    Ok(())
}

fn cmd_checkpoint(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = flags
        .get("state-dir")
        .ok_or("checkpoint needs --state-dir DIR")?;
    let (mut server, _rng) = live_server(flags, 16)?;
    let rounds = attach_state_dir(&mut server, dir)?;
    let stats = server.checkpoint().map_err(|e| e.to_string())?;
    println!(
        "  checkpoint generation {} written: {} bytes of controller state \
         + {} redo bytes in {:.3} ms (committed rounds = {rounds})",
        stats.generation,
        stats.bytes,
        stats.redo_bytes,
        stats.ns as f64 / 1e6
    );
    write_metrics(flags, &server.registry().snapshot())
}

fn cmd_restore(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = flags
        .get("state-dir")
        .ok_or("restore needs --state-dir DIR")?;
    let (mut server, _rng) = live_server(flags, 16)?;
    let path = std::path::Path::new(dir.as_str());
    let rounds = server.recover(path).map_err(|e| e.to_string())?;
    let generations = fedora::durable::list_checkpoints(path).map_err(|e| e.to_string())?;
    println!("Restored from {dir}:");
    println!("  committed rounds: {rounds}");
    println!(
        "  eps spent: {:.3} over {} accounted rounds",
        server.accountant().total_epsilon(),
        server.accountant().rounds()
    );
    println!("  checkpoint generations on disk: {generations:?}");
    if let Some(report) = server.last_committed_report() {
        println!(
            "  last committed round: K = {}, k_union = {}, k = {}, dummies = {}",
            report.k_requests, report.k_union, report.k_accesses, report.dummies
        );
    }
    write_metrics(flags, &server.registry().snapshot())
}

fn effective_k(k_requests: u64, epsilon: f64) -> u64 {
    // A quick workload-free estimate: a typical hide-val duplicate rate of
    // ~50% unique; ε only perturbs around it.
    if epsilon == 0.0 {
        k_requests
    } else {
        k_requests / 2
    }
}

fn cmd_lifetime(flags: &HashMap<String, String>) -> Result<(), String> {
    let table = table_spec(flags)?;
    let updates = u64_flag(flags, "updates", 100_000)?;
    let epsilon = f64_flag(flags, "epsilon", 1.0)?;
    let geo = table.geometry();
    let a = FedoraConfig::tuned_eviction_period(&geo);
    let profile = fedora_storage::SsdProfile::pm9a1_like();

    let base = path_oram_plus_round(&geo, updates, 4096);
    let fed = fedora_round(&geo, effective_k(updates, epsilon), a, 4096);
    let base_life = lifetime_months(&profile, &geo, &base, 120.0);
    let fed_life = lifetime_months(&profile, &geo, &fed, 120.0);
    println!(
        "{} table, {updates} updates/round, eps = {epsilon}:",
        table.name
    );
    println!(
        "  ORAM on SSD: {:.1} GB (Z = {}, A = {a})",
        geo.tree_bytes(4096) as f64 / 1e9,
        geo.z()
    );
    println!("  Path ORAM+ lifetime: {base_life:.2} months");
    println!(
        "  FEDORA lifetime:     {fed_life:.2} months  ({:.0}x)",
        fed_life / base_life
    );
    let registry = registry_for(flags);
    registry
        .gauge("model.lifetime.path_oram_plus_months")
        .set(base_life);
    registry.gauge("model.lifetime.fedora_months").set(fed_life);
    registry.gauge("model.lifetime.epsilon").set(epsilon);
    write_metrics(flags, &registry.snapshot())
}

fn cmd_latency(flags: &HashMap<String, String>) -> Result<(), String> {
    let table = table_spec(flags)?;
    let updates = u64_flag(flags, "updates", 100_000)?;
    let epsilon = f64_flag(flags, "epsilon", 1.0)?;
    let config = FedoraConfig::paper_tuned(table, updates as usize);
    let model = LatencyModel::default();
    let scans = fedora_oblivious::union::requests_scan_cost(updates as usize, 16 * 1024);

    let base_counts = path_oram_plus_round(&config.geometry, updates, 4096);
    let fed_counts = fedora_round(
        &config.geometry,
        effective_k(updates, epsilon),
        config.raw.eviction_period,
        4096,
    );
    let base = model.analytic_round_latency(&config, &base_counts, updates, 0, true);
    let fed = model.analytic_round_latency(&config, &fed_counts, updates, scans, true);
    println!(
        "{} table, {updates} updates/round, eps = {epsilon}:",
        table.name
    );
    println!(
        "  Path ORAM+: {:.2} s added per round ({:.1}% of a 2-min round)",
        base.total_s(),
        base.overhead_fraction() * 100.0
    );
    println!(
        "  FEDORA:     {:.2} s added per round ({:.1}%)  [{:.1}x better]",
        fed.total_s(),
        fed.overhead_fraction() * 100.0,
        base.total_s() / fed.total_s()
    );
    println!(
        "  FEDORA breakdown: SSD {:.2} s, DRAM {:.2} s, controller {:.2} s, eviction {:.2} s",
        fed.ssd_ns / 1e9,
        fed.dram_ns / 1e9,
        fed.controller_ns / 1e9,
        fed.eviction_ns / 1e9
    );
    let registry = registry_for(flags);
    registry
        .gauge("model.latency.path_oram_plus_s")
        .set(base.total_s());
    registry.gauge("model.latency.fedora_s").set(fed.total_s());
    registry
        .gauge("model.latency.fedora_overhead_fraction")
        .set(fed.overhead_fraction());
    registry.gauge("model.latency.epsilon").set(epsilon);
    write_metrics(flags, &registry.snapshot())
}

fn cmd_round(flags: &HashMap<String, String>) -> Result<(), String> {
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
    if let Some(&bad) = requests.iter().find(|&&r| r >= entries) {
        return Err(format!("request {bad} outside table of {entries} entries"));
    }

    let threads = u64_flag(flags, "threads", 1)?.max(1) as usize;
    let mut rng = StdRng::seed_from_u64(u64_flag(flags, "seed", 42)?);
    let mut config = FedoraConfig::for_testing(TableSpec::tiny(entries), requests.len().max(16));
    config.parallelism = ParallelismConfig::with_threads(threads);
    config.privacy = if epsilon == 0.0 {
        PrivacyConfig::perfect()
    } else if epsilon.is_infinite() {
        PrivacyConfig::none()
    } else {
        PrivacyConfig::with_epsilon(epsilon)
    };
    let mut server =
        FedoraServer::with_telemetry(config, |_| vec![0u8; 32], registry_for(flags), &mut rng);
    if let Some(dir) = flags.get("state-dir") {
        attach_state_dir(&mut server, dir)?;
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
    println!("Round over {} entries at eps = {epsilon}:", entries);
    println!(
        "  K = {} requests, k_union = {}, k = {} accesses",
        done.k_requests, done.k_union, done.k_accesses
    );
    println!(
        "  dummies = {}, lost = {}, EO accesses = {}",
        done.dummies, done.lost, done.eo_accesses
    );
    println!(
        "  SSD: {} pages read, {} pages written",
        done.ssd.pages_read, done.ssd.pages_written
    );
    let phases = done.phases;
    println!(
        "  phases: union {:.3} ms, fetch {:.3} ms, serve {:.3} ms, \
         aggregate {:.3} ms, write {:.3} ms (round {:.3} ms)",
        phases.union_ns as f64 / 1e6,
        phases.fetch_ns as f64 / 1e6,
        phases.serve_ns as f64 / 1e6,
        phases.aggregate_ns as f64 / 1e6,
        phases.write_ns as f64 / 1e6,
        phases.round_ns as f64 / 1e6,
    );
    write_metrics(flags, &server.registry().snapshot())
}

/// Runs the `fedora-net` front end over a live pipeline server until a
/// client sends the protocol `Shutdown` request, then drains to the last
/// committed round and reports the engine outcome. With `--state-dir`
/// every committed round is journaled, so killing the process mid-round
/// loses at most the open (uncommitted) round.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let listen = flags
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let (mut server, _rng) = live_server(flags, 64)?;
    if let Some(dir) = flags.get("state-dir") {
        attach_state_dir(&mut server, dir)?;
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
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let registry = handle.registry().clone();
    let outcome = handle.join();
    println!("serve loop finished: {outcome:?}");
    write_metrics(flags, &registry.snapshot())
}

fn cmd_attack(flags: &HashMap<String, String>) -> Result<(), String> {
    let epsilon = f64_flag(flags, "epsilon", 1.0)?;
    let trials = u64_flag(flags, "trials", 20_000)? as u32;
    let mech = if epsilon.is_infinite() {
        FdpMechanism::no_privacy()
    } else {
        FdpMechanism::new(epsilon, YShape::Uniform).map_err(|e| e.to_string())?
    };
    let mut rng = StdRng::seed_from_u64(u64_flag(flags, "seed", 7)?);
    let out = count_attack(&mech, 30, 100, trials, &mut rng);
    println!("Optimal access-count distinguisher at eps = {epsilon} ({trials} trials):");
    println!("  success rate: {:.2}%", out.success_rate * 100.0);
    println!("  DP bound:     {:.2}%", dp_success_bound(epsilon) * 100.0);
    let registry = registry_for(flags);
    registry.gauge("attack.success_rate").set(out.success_rate);
    registry
        .gauge("attack.dp_bound")
        .set(dp_success_bound(epsilon));
    registry.gauge("attack.epsilon").set(epsilon);
    write_metrics(flags, &registry.snapshot())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        None => {
            print!("{USAGE}");
            return;
        }
        Some((c, r)) => (c.as_str(), r),
    };
    let result = parse_flags(rest).and_then(|flags| match cmd {
        "lifetime" => cmd_lifetime(&flags),
        "latency" => cmd_latency(&flags),
        "round" => cmd_round(&flags),
        "checkpoint" => cmd_checkpoint(&flags),
        "restore" => cmd_restore(&flags),
        "attack" => cmd_attack(&flags),
        "serve" => cmd_serve(&flags),
        "watch" => cmd_watch(&flags),
        "scrape" => cmd_scrape(&flags),
        "tail" => cmd_tail(&flags),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    });
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
