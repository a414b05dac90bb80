//! Open-loop load generator for the `fedora-net` serving front end.
//!
//! ```text
//! openloop_load [--addr HOST:PORT] [--rate HZ] [--requests N]
//!               [--connections N] [--entries-per-request N] [--poisson]
//!               [--seed N] [--timeout-secs N] [--shutdown-after]
//!               [--entries N] [--queue-depth N]
//!               [--scrape prom|json] [--scrape-out PATH]
//!               [--metrics-out PATH] [--metrics-format json|prom]
//!               [--trace-out PATH]
//! ```
//!
//! Without `--addr` the binary spawns its own loopback front end (table
//! size `--entries`, bounded job queue `--queue-depth`) and tears it down
//! afterwards, folding the server-side `net.*` and `round.phase.*` series
//! into the exported snapshot. With `--addr` it drives an external
//! `fedora-cli serve` process, retrying the first connection for a few
//! seconds so it can be started concurrently (as the CI smoke job does);
//! `--shutdown-after` then sends the admin shutdown so the server drains
//! and exits.
//!
//! `--scrape prom|json` exercises the ops plane *while the data plane is
//! under load*: a dedicated connection polls the wire `scrape` verb every
//! 250 ms for the whole run (chunked bodies reassembled client-side) and
//! reports poll count, bytes, and per-scrape latency afterwards —
//! evidence that ops polling rides the reader threads without stalling
//! rounds. `--scrape-out PATH` writes the final scraped body verbatim.
//!
//! Response latency is measured from each request's *scheduled* arrival
//! (open-loop; queueing included — see `fedora_bench::netload`) and
//! reported as p50/p95/p99 plus the shed rate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedora::{FedoraConfig, FedoraServer, TableSpec};
use fedora_bench::outopts::take_flag;
use fedora_bench::{netload, NetLoadSpec, OutputOpts};
use fedora_net::{NetClient, NetConfig, NetServer, ScrapeFormat};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The value of `name` parsed as `T`, or `None` when absent; a missing
/// or malformed value exits 2.
fn flag<T: std::str::FromStr>(args: &mut Vec<String>, name: &str) -> Option<T> {
    take_flag(args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// What the concurrent ops poller saw over a run: successful scrapes,
/// total body bytes, and the slowest single scrape.
struct ScrapeStats {
    polls: u64,
    bytes: u64,
    max_ns: u64,
    last_body: String,
}

/// Polls the wire `scrape` verb on its own connection until `stop` is
/// raised, then performs one final scrape so the returned body reflects
/// end-of-run state. Failures end the loop (the server is shutting down).
fn scrape_poller(addr: &str, format: ScrapeFormat, stop: &AtomicBool) -> ScrapeStats {
    let mut stats = ScrapeStats {
        polls: 0,
        bytes: 0,
        max_ns: 0,
        last_body: String::new(),
    };
    let Ok(mut client) = NetClient::connect(addr) else {
        return stats;
    };
    let mut done = false;
    while !done {
        done = stop.load(Ordering::SeqCst);
        let started = Instant::now();
        match client.scrape(format) {
            Ok(body) => {
                stats.polls += 1;
                stats.bytes += body.len() as u64;
                stats.max_ns = stats.max_ns.max(started.elapsed().as_nanos() as u64);
                stats.last_body = body;
            }
            Err(_) => break,
        }
        if !done {
            std::thread::sleep(Duration::from_millis(250));
        }
    }
    stats
}

/// Waits for the server to accept connections (the CI smoke job starts
/// `fedora-cli serve` concurrently).
fn await_server(addr: &str, patience: Duration) -> Result<(), String> {
    let deadline = Instant::now() + patience;
    loop {
        match NetClient::connect(addr) {
            Ok(_probe) => return Ok(()),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("server at {addr} not reachable: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

fn main() {
    let (opts, mut args) = OutputOpts::from_env();
    let addr_flag: Option<String> = flag(&mut args, "--addr");
    let shutdown_after = args.iter().any(|a| a == "--shutdown-after");
    args.retain(|a| a != "--shutdown-after");
    let poisson = args.iter().any(|a| a == "--poisson");
    args.retain(|a| a != "--poisson");
    let spec = NetLoadSpec {
        rate_hz: flag(&mut args, "--rate").unwrap_or(200.0),
        requests: flag(&mut args, "--requests").unwrap_or(200),
        connections: flag(&mut args, "--connections").unwrap_or(4),
        entries_per_request: flag(&mut args, "--entries-per-request").unwrap_or(4),
        table_entries: flag(&mut args, "--entries").unwrap_or(1024),
        dim: 8, // TableSpec::tiny entry_bytes / 4, the serve-side layout
        poisson,
        seed: flag(&mut args, "--seed").unwrap_or(7),
        timeout: Duration::from_secs(flag(&mut args, "--timeout-secs").unwrap_or(30)),
    };
    let queue_depth = flag(&mut args, "--queue-depth").unwrap_or(128);
    let scrape_format = flag::<String>(&mut args, "--scrape").map(|f| match f.as_str() {
        "prom" | "prometheus" => ScrapeFormat::Prom,
        "json" => ScrapeFormat::Json,
        other => {
            eprintln!("error: --scrape got unknown format '{other}' (prom|json)");
            std::process::exit(2);
        }
    });
    let scrape_out: Option<String> = flag(&mut args, "--scrape-out");
    if scrape_out.is_some() && scrape_format.is_none() {
        eprintln!("error: --scrape-out needs --scrape prom|json");
        std::process::exit(2);
    }
    if !args.is_empty() {
        eprintln!("error: unrecognized arguments: {args:?}");
        std::process::exit(2);
    }

    println!("== open-loop load ==");
    println!(
        "  {} arrivals at {:.0} req/s ({}), {} connections, {} entries/request",
        spec.requests,
        spec.rate_hz,
        if spec.poisson {
            "Poisson"
        } else {
            "fixed-rate"
        },
        spec.connections,
        spec.entries_per_request,
    );

    // One registry for the run; the loopback server (when spawned) shares
    // it, so its server-side net.* and round.phase.* series land in the
    // same exported snapshot as the client-side latency columns.
    let registry = opts.registry();

    // Self-spawned loopback front end unless --addr points elsewhere.
    let mut loopback = None;
    let addr = match addr_flag {
        Some(addr) => {
            if let Err(msg) = await_server(&addr, Duration::from_secs(10)) {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
            addr
        }
        None => {
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let config = FedoraConfig::for_testing(TableSpec::tiny(spec.table_entries), 64);
            let server =
                FedoraServer::with_telemetry(config, |_| vec![0u8; 32], registry.clone(), &mut rng);
            let net_config = NetConfig {
                queue_depth,
                ..NetConfig::default()
            };
            let handle = NetServer::spawn(server, spec.seed ^ 0x5EED, "127.0.0.1:0", net_config)
                .unwrap_or_else(|e| {
                    eprintln!("error: spawn loopback server: {e}");
                    std::process::exit(1);
                });
            let addr = handle.addr().to_string();
            println!("  loopback front end on {addr}");
            loopback = Some(handle);
            addr
        }
    };

    // Concurrent ops poller: scrapes on its own connection while the
    // load below saturates the data plane.
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_thread = scrape_format.map(|format| {
        let addr = addr.clone();
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || scrape_poller(&addr, format, &stop))
    });

    let report = match netload::run(&addr, &spec, &registry) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };

    if let Some(handle) = scrape_thread {
        scrape_stop.store(true, Ordering::SeqCst);
        match handle.join() {
            Ok(stats) => {
                println!("== concurrent scrape poller ==");
                println!(
                    "  {} polls, {} body bytes, slowest scrape {:.3} ms",
                    stats.polls,
                    stats.bytes,
                    stats.max_ns as f64 / 1e6
                );
                if let Some(path) = &scrape_out {
                    if let Err(e) = std::fs::write(path, &stats.last_body) {
                        eprintln!("error: --scrape-out {path}: {e}");
                        std::process::exit(1);
                    }
                    println!("  final scrape written to {path}");
                }
                if stats.polls == 0 {
                    eprintln!("error: --scrape requested but no scrape succeeded");
                    std::process::exit(1);
                }
            }
            Err(_) => eprintln!("warning: scrape poller panicked"),
        }
    }

    if shutdown_after {
        match NetClient::connect(&addr) {
            Ok(mut admin) => match admin.call(&fedora_net::Request::Shutdown) {
                Ok(_) => println!("  sent shutdown; server draining"),
                Err(e) => eprintln!("warning: shutdown request failed: {e}"),
            },
            Err(e) => eprintln!("warning: could not reconnect for shutdown: {e}"),
        }
    }

    if let Some(handle) = loopback {
        let outcome = handle.shutdown_and_join();
        println!("  loopback front end stopped: {outcome:?}");
    }
    let snapshot = registry.snapshot();

    let lat = &report.latency;
    println!("== response latency (ns, from scheduled arrival) ==");
    println!(
        "  count {:6}  p50 {:>12}  p95 {:>12}  p99 {:>12}  max {:>12}",
        lat.count, lat.p50, lat.p95, lat.p99, lat.max
    );
    println!(
        "  sent {}  ok {}  overloaded {}  rejected {}  errors {}  shed-rate {:.4}",
        report.sent,
        report.ok,
        report.overloaded,
        report.rejected,
        report.errors,
        report.shed_rate()
    );

    opts.write_or_die(&snapshot);

    if report.ok == 0 && report.sent > 0 {
        eprintln!("error: no request succeeded");
        std::process::exit(1);
    }
}
