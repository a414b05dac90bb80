//! Live-server integration tests for the `fedora-net` front end:
//! adversarial framing against a running listener, graceful drain under
//! durability, and crash-mid-round recovery semantics.
//!
//! Every test binds to `127.0.0.1:0` so runs never collide.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use fedora::config::{FedoraConfig, TableSpec};
use fedora::durable::CrashPoint;
use fedora::server::FedoraServer;
use fedora_fl::wire;
use fedora_net::{
    read_frame, write_frame, EngineOutcome, NetClient, NetConfig, NetServer, Request, Response,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ENTRIES: u64 = 256;
const DIM: usize = 8; // TableSpec::tiny entry_bytes / 4

fn test_server(seed: u64) -> (FedoraServer, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = FedoraConfig::for_testing(TableSpec::tiny(ENTRIES), 64);
    let server = FedoraServer::new(config, |_| vec![0u8; 32], &mut rng);
    (server, rng)
}

fn spawn(server: FedoraServer, seed: u64) -> fedora_net::NetHandle {
    NetServer::spawn(server, seed, "127.0.0.1:0", NetConfig::default()).unwrap()
}

fn temp_state_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fedora-net-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn train_request(client: u32, entries: &[u64]) -> Request {
    let updates = entries
        .iter()
        .map(|_| wire::quantize(&[0.25f32; DIM]))
        .collect();
    Request::Train {
        client,
        entries: entries.to_vec(),
        updates,
        trace: None,
    }
}

/// One committed round through the wire, returning the round number.
fn train_once(client: &mut NetClient, id: u32, entries: &[u64]) -> u64 {
    match client.call(&train_request(id, entries)).unwrap() {
        Response::TrainOk { round, rows } => {
            assert_eq!(rows.len(), entries.len());
            round
        }
        other => panic!("expected TrainOk, got {other:?}"),
    }
}

#[test]
fn hello_train_health_round_trip() {
    let (server, _rng) = test_server(11);
    let handle = spawn(server, 11);
    let mut client = NetClient::connect(&handle.addr().to_string()).unwrap();

    let id = match client.call(&Request::Hello).unwrap() {
        Response::Welcome { client } => client,
        other => panic!("expected Welcome, got {other:?}"),
    };
    let round = train_once(&mut client, id, &[3, 17, 3, 99]);
    assert!(round >= 1);

    match client.call(&Request::Health).unwrap() {
        Response::HealthOk {
            committed_rounds,
            round_active,
            total_epsilon,
            shed_requests,
            shed_connections,
        } => {
            assert!(committed_rounds >= 1);
            assert!(
                !round_active,
                "health between batches must see no open round"
            );
            assert!(
                total_epsilon > 0.0,
                "a committed round must have spent ε, got {total_epsilon}"
            );
            assert_eq!((shed_requests, shed_connections), (0, 0));
        }
        other => panic!("expected HealthOk, got {other:?}"),
    }
    assert!(matches!(
        handle.shutdown_and_join(),
        EngineOutcome::Drained { .. }
    ));
}

/// A frame whose length header exceeds the server's cap draws a typed
/// `frame` error reply and a closed session — and the listener keeps
/// serving other clients afterwards (no wedged worker).
#[test]
fn oversized_frame_gets_error_reply_and_close_without_wedging_server() {
    let (server, _rng) = test_server(13);
    let handle = spawn(server, 13);
    let addr = handle.addr().to_string();

    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Header claims 2 MiB (cap is 1 MiB); no payload follows.
    raw.write_all(&(2u32 << 20).to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let reply = read_frame(&mut raw, 1 << 20).unwrap().expect("error reply");
    let text = String::from_utf8(reply).unwrap();
    assert!(
        text.contains("\"error\"") && text.contains("frame"),
        "{text}"
    );
    // Session is closed: next read sees clean EOF.
    assert!(read_frame(&mut raw, 1 << 20).unwrap().is_none());

    // The server is still healthy for a well-behaved client.
    let mut client = NetClient::connect(&addr).unwrap();
    train_once(&mut client, 1, &[5, 6]);
    assert_eq!(
        handle.registry().snapshot().counter("net.errors.frame"),
        Some(1)
    );
    handle.shutdown_and_join();
}

/// Zero-length frames and non-JSON payloads each draw a typed error and
/// a closed session; a mid-frame disconnect counts as a framing
/// violation too (the peer broke its length promise). None of them
/// disturb concurrently connected well-behaved clients.
#[test]
fn garbage_and_truncated_frames_close_cleanly() {
    let (server, _rng) = test_server(17);
    let handle = spawn(server, 17);
    let addr = handle.addr().to_string();

    // A well-behaved session opened *before* the abuse, checked after.
    let mut bystander = NetClient::connect(&addr).unwrap();

    // Zero-length frame → frame error.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&0u32.to_le_bytes()).unwrap();
    let reply = read_frame(&mut raw, 1 << 20).unwrap().expect("error reply");
    assert!(String::from_utf8(reply).unwrap().contains("frame"));
    assert!(read_frame(&mut raw, 1 << 20).unwrap().is_none());

    // Well-framed garbage JSON → proto error.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut raw, b"this is not json", 1 << 20).unwrap();
    let reply = read_frame(&mut raw, 1 << 20).unwrap().expect("error reply");
    assert!(String::from_utf8(reply).unwrap().contains("proto"));
    assert!(read_frame(&mut raw, 1 << 20).unwrap().is_none());

    // Mid-frame connection drop: header promises 100 bytes, send 3, hang up.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&100u32.to_le_bytes()).unwrap();
    raw.write_all(b"abc").unwrap();
    drop(raw);

    // The bystander still gets full service.
    train_once(&mut bystander, 1, &[9, 10, 11]);
    // The mid-frame drop is detected on its reader thread; poll rather
    // than racing it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = handle.registry().snapshot();
        if snapshot.counter("net.errors.frame") == Some(2) {
            assert_eq!(snapshot.counter("net.errors.proto"), Some(1));
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "frame-error counter stuck at {:?}",
            snapshot.counter("net.errors.frame")
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(matches!(
        handle.shutdown_and_join(),
        EngineOutcome::Drained { .. }
    ));
}

/// Graceful shutdown under durability: the drain boundary and the
/// journal commit boundary coincide, so a fresh server recovering from
/// the state dir lands exactly on the drained round count.
#[test]
fn graceful_shutdown_drains_to_committed_round() {
    let dir = temp_state_dir("drain");
    let (mut server, _rng) = test_server(19);
    server.enable_durability(&dir).unwrap();
    let handle = spawn(server, 19);
    let mut client = NetClient::connect(&handle.addr().to_string()).unwrap();

    for i in 0..3u64 {
        train_once(&mut client, 1, &[i * 7 % ENTRIES, (i * 13 + 1) % ENTRIES]);
    }
    // Protocol shutdown (what `openloop_load --shutdown-after` sends).
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    let committed = match handle.join() {
        EngineOutcome::Drained { committed_rounds } => committed_rounds,
        other => panic!("expected Drained, got {other:?}"),
    };
    assert_eq!(committed, 3);

    let (mut recovered, _rng) = test_server(19);
    assert_eq!(recovered.recover(&dir).unwrap(), committed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the serve loop mid-round (armed crash point inside the write
/// phase): the engine reports `Crashed`, the doomed batch gets no reply,
/// and recovery lands on the last *committed* round — the torn round is
/// never counted as a commit.
#[test]
fn crash_mid_round_recovers_to_last_commit_without_torn_sessions() {
    let dir = temp_state_dir("crash");
    let (mut server, _rng) = test_server(23);
    server.enable_durability(&dir).unwrap();
    let handle = spawn(server, 23);
    let addr = handle.addr().to_string();

    // Commit two clean rounds first.
    let mut client = NetClient::connect(&addr).unwrap();
    train_once(&mut client, 1, &[4, 40]);
    train_once(&mut client, 1, &[5, 50]);

    // Arm a crash for the *next* round: there is no wire surface for
    // fault injection (by design), so this test reaches the engine
    // through a pre-armed server instead.
    drop(client);
    handle.shutdown_and_join();

    let (mut server, _rng) = test_server(23);
    let committed_before = server.recover(&dir).unwrap();
    assert_eq!(committed_before, 2);
    server.arm_crash_point(CrashPoint::MidEvictionWrite);
    let handle = spawn(server, 29);
    let addr = handle.addr().to_string();

    // The engine dies inside this round's write phase: no reply ever
    // arrives; the connection is closed when the handle is torn down.
    let (mut tx, _rx) = NetClient::connect(&addr).unwrap().into_split().unwrap();
    tx.send(&train_request(7, &[6, 60])).unwrap();
    match handle.join() {
        EngineOutcome::Crashed { detail } => {
            assert!(detail.contains("MidEvictionWrite"), "{detail}")
        }
        other => panic!("expected Crashed, got {other:?}"),
    }

    // Recovery: the torn round was never committed.
    let (mut recovered, _rng) = test_server(23);
    assert_eq!(recovered.recover(&dir).unwrap(), committed_before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overload sheds with explicit `Overloaded` replies (bounded queue),
/// never silent drops: every request gets exactly one terminal answer.
#[test]
fn overload_sheds_with_explicit_replies() {
    let (server, _rng) = test_server(31);
    let config = NetConfig {
        queue_depth: 1,
        ..NetConfig::default()
    };
    let handle = NetServer::spawn(server, 31, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr().to_string();

    let (mut tx, mut rx) = NetClient::connect(&addr).unwrap().into_split().unwrap();
    let n = 32u32;
    for i in 0..n {
        tx.send(&train_request(i, &[u64::from(i) % ENTRIES]))
            .unwrap();
    }
    let mut ok = 0u32;
    let mut shed = 0u32;
    for _ in 0..n {
        match rx.recv().unwrap().1 {
            Response::TrainOk { .. } => ok += 1,
            Response::Overloaded => shed += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(ok + shed, n, "every request answered exactly once");
    assert!(ok >= 1, "the queue admits at least one request");
    let counted = handle
        .registry()
        .snapshot()
        .counter("net.shed.requests")
        .unwrap_or(0);
    assert_eq!(counted, u64::from(shed));
    handle.shutdown_and_join();
}
