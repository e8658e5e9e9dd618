//! Pins the reproduced paper results: all seven experiment binaries must
//! print exactly what is committed under `results/`. The simulator is
//! deterministic, so any difference is a change to the model or the
//! protocol, never noise.

use std::path::Path;
use std::process::Command;

fn assert_golden(name: &str, exe: &str) {
    let out = Command::new(exe)
        .env_remove("AMBER_TRACE_DIR")
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.txt"));
    let want =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        out.stdout == want,
        "{name} no longer prints results/{name}.txt; it printed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn table1_matches_committed_result() {
    assert_golden("table1", env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn ablate_lock_matches_committed_result() {
    assert_golden("ablate_lock", env!("CARGO_BIN_EXE_ablate_lock"));
}

#[test]
fn ablate_granularity_matches_committed_result() {
    assert_golden(
        "ablate_granularity",
        env!("CARGO_BIN_EXE_ablate_granularity"),
    );
}

#[test]
fn forwarding_matches_committed_result() {
    assert_golden("forwarding", env!("CARGO_BIN_EXE_forwarding"));
}

#[test]
fn sor_vs_dsm_matches_committed_result() {
    assert_golden("sor_vs_dsm", env!("CARGO_BIN_EXE_sor_vs_dsm"));
}

#[test]
fn fig2_matches_committed_result() {
    assert_golden("fig2", env!("CARGO_BIN_EXE_fig2"));
}

#[test]
fn fig3_matches_committed_result() {
    assert_golden("fig3", env!("CARGO_BIN_EXE_fig3"));
}
