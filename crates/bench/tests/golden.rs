//! Pins the reproduced paper results: the fast experiment binaries must
//! print exactly what is committed under `results/`. The simulator is
//! deterministic, so any difference is a change to the model or the
//! protocol, never noise. CI's `bench` job makes the same comparison for
//! all seven binaries, including the slow `sor_vs_dsm`, `fig2` and `fig3`.

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
