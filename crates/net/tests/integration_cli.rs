//! `fedora-cli` driven as a process: every subcommand builds its server
//! with one buffer capacity, so a state dir that one of them wrote opens
//! under every other.

use std::process::{Command, Output};

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
