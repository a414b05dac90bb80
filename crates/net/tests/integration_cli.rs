//! `fedora-cli` driven as a process: every subcommand builds its server
//! with one buffer capacity, so a state dir that one of them wrote opens
//! under every other; a flag the command does not take is refused; and a
//! stdout that closes or fills ends the command without a panic.

use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fedora-cli"))
        .args(args)
        .output()
        .expect("spawn fedora-cli")
}

/// The stdout of a run that must succeed.
fn stdout_of(args: &[&str]) -> String {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fedora-cli {args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn restore_and_round_open_the_state_dir_of_a_large_round() {
    let dir = std::env::temp_dir().join(format!("fedora-cli-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.to_str().unwrap();
    let ids: Vec<String> = (0..35u64).map(|i| (i * 13 % 512).to_string()).collect();
    let ids = ids.join(",");

    let large = [
        "round",
        "--entries",
        "512",
        "--requests",
        &ids,
        "--state-dir",
        state,
    ];
    let first = stdout_of(&large);
    assert!(first.contains("K = 35 requests"), "{first}");
    let restored = stdout_of(&["restore", "--state-dir", state, "--entries", "512"]);
    assert!(restored.contains("committed rounds: 1"), "{restored}");
    let resumed = stdout_of(&["round", "--entries", "512", "--state-dir", state]);
    assert!(
        resumed.contains("restored to committed round 1"),
        "{resumed}"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // More ids than the buffer holds are refused before any work.
    let ids: Vec<String> = (0..65u64).map(|i| i.to_string()).collect();
    let out = cli(&["round", "--entries", "512", "--requests", &ids.join(",")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success() && stderr.contains("at most 64"),
        "{stderr}"
    );
}

/// Waits up to `deadline` for `child` to exit; kills it and returns
/// `None` if it is still running then.
fn wait_or_kill(mut child: Child, deadline: Duration) -> Option<Output> {
    let started = Instant::now();
    while started.elapsed() < deadline {
        if child.try_wait().expect("poll fedora-cli").is_some() {
            return Some(child.wait_with_output().expect("collect fedora-cli"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

#[test]
fn unknown_flags_are_refused_before_any_work() {
    let out = cli(&["round", "--entries", "512", "--epsilonn", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a mistyped flag ran the round");
    assert!(
        stderr.contains("unknown flag --epsilonn for round"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no round output expected");

    // A refused flag stops `serve` before it binds, so it exits rather
    // than serving until shutdown.
    let child = Command::new(env!("CARGO_BIN_EXE_fedora-cli"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--watch-empirical-every",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fedora-cli serve");
    let out = wait_or_kill(child, Duration::from_secs(30)).expect("serve did not exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stdout}");
    assert!(!stdout.contains("listening on"), "{stdout}");
    assert!(
        stderr.contains("unknown flag --watch-empirical-every for serve"),
        "{stderr}"
    );
}

#[test]
fn closed_stdout_ends_a_command_quietly() {
    // The read end closes before the child starts, so its first line
    // already meets a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fedora-cli"))
        .args(["round", "--entries", "512"])
        .stdout(writer)
        .output()
        .expect("spawn fedora-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn full_stdout_is_an_error_not_a_panic() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_fedora-cli"))
        .args(["round", "--entries", "512"])
        .stdout(full)
        .output()
        .expect("spawn fedora-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: stdout:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
