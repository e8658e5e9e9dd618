//! Invoke throughput on the real engine, self-checking.
//!
//! Measures wall-clock ops/sec of the kernel hot paths on `RealEngine` and
//! prints one table per family:
//!
//! * local invoke with the traffic advisor off and on (at 1/2/4/8 nodes,
//!   each side the median of five rounds alternated with the other's, so
//!   neither a disturbed round nor CPU frequency drift biases one side);
//! * skewed traffic at 2/4/8 nodes, static vs. adaptive placement;
//! * read-mostly immutable traffic at 2/4/8 nodes with demand replication
//!   off, static vs. advisor-replicated.
//!
//! It then runs [`failed_check`] on the points it measured: the advisor
//! must cost next to nothing where it cannot help and beat the same run
//! without it where it can. A failed check is named on stderr and the exit
//! status is 1. Nothing is written to disk; the tables are the record.
//!
//! `AMBER_THROUGHPUT_ITERS` sets the least a local-invoke worker runs per
//! timed round (default 20000; the advisor scenarios run half, floored at
//! 2000). Every timed phase also has a floor in time — a round of the
//! throughput-ratio pair lasts four advisor ticks, a phase that reads the
//! advisor's effect twenty — so the smoke count shortens nothing the
//! checks depend on.

use amber_bench::throughput::{
    alternating_medians, failed_check, run_local_invoke, run_read_hot_invoke, run_skewed_invoke,
    Point, NODE_COUNTS,
};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn row(p: &Point) -> Vec<String> {
    vec![
        p.scenario.to_string(),
        p.nodes.to_string(),
        p.ops.to_string(),
        format!("{:.1} ms", p.elapsed.as_secs_f64() * 1e3),
        format!("{:.0}", p.ops_per_sec()),
        p.forward_hops.to_string(),
        p.thread_migrations.to_string(),
        p.remote_invokes.to_string(),
    ]
}

const COLUMNS: [&str; 8] = [
    "scenario",
    "nodes",
    "ops",
    "elapsed",
    "ops/sec",
    "fwd hops",
    "migrations",
    "remote",
];

/// Measures `variant(n, false)` then `variant(n, true)` back to back at 2,
/// 4 and 8 nodes.
fn paired(variant: impl Fn(usize, bool) -> Point) -> Vec<Point> {
    [2usize, 4, 8]
        .into_iter()
        .flat_map(|n| [variant(n, false), variant(n, true)])
        .collect()
}

fn main() {
    let iters = env_u64("AMBER_THROUGHPUT_ITERS", 20_000);
    let skew_iters = (iters / 2).max(2_000);

    let mut points: Vec<Point> = Vec::new();
    let mut section = |title: &str, measured: Vec<Point>| {
        amber_bench::print_table(
            title,
            &COLUMNS,
            &measured.iter().map(row).collect::<Vec<_>>(),
        );
        points.extend(measured);
    };

    section(
        "Advisor overhead: local invoke, advisor off/on",
        NODE_COUNTS
            .into_iter()
            .flat_map(|n| alternating_medians(|on| run_local_invoke(n, iters, on)))
            .collect(),
    );
    section(
        "Adaptive placement: skewed traffic, advisor off/on",
        paired(|n, on| run_skewed_invoke(n, skew_iters, on)),
    );
    section(
        "Replica placement: read-mostly immutables, advisor off/on",
        paired(|n, on| run_read_hot_invoke(n, skew_iters, on)),
    );

    if let Some(failed) = failed_check(&points) {
        eprintln!("throughput: FAIL: {failed}");
        std::process::exit(1);
    }
    println!("throughput: all checks pass");
}
