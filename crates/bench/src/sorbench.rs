//! Figures 2 and 3: SOR speedup experiments.
//!
//! Figure 2 sweeps node x processor configurations on the paper's 122 x 842
//! grid (8 sections, or 6 for the 3- and 6-node runs), including the two
//! 8Nx4P points that differ only in communication/computation overlap.
//! Figure 3 fixes 4Nx4P and sweeps the problem size.
//!
//! Speedup is measured exactly as in the paper: parallel time relative to a
//! sequential implementation with no runtime overhead.

use amber_apps::sor::{run_amber_sor, sor_sequential_time, SorParams, SorResult};

/// One point of a speedup figure.
#[derive(Clone, Debug)]
pub struct SorPoint {
    /// Configuration label, e.g. `4Nx2P`.
    pub label: String,
    /// Total processors used.
    pub processors: usize,
    /// Grid points.
    pub points: usize,
    /// Measured speedup vs. the sequential baseline.
    pub speedup: f64,
    /// Parallel efficiency (speedup / processors).
    pub efficiency: f64,
    /// The raw run.
    pub result: SorResult,
}

/// Runs one configuration and computes its speedup.
pub fn run_point(label: &str, p: SorParams) -> SorPoint {
    let result = run_amber_sor(p);
    let seq = sor_sequential_time(&p, result.iterations);
    let speedup = seq.as_secs_f64() / result.elapsed.as_secs_f64();
    let processors = p.nodes * p.procs;
    SorPoint {
        label: label.to_string(),
        processors,
        points: p.rows * p.cols,
        speedup,
        efficiency: speedup / processors as f64,
        result,
    }
}

/// The Figure 2 configuration sweep `(nodes, procs, overlap)`.
pub fn fig2_configs() -> Vec<(usize, usize, bool)> {
    vec![
        (1, 1, true),
        (1, 2, true),
        (1, 4, true),
        (2, 1, true),
        (2, 2, true),
        (2, 4, true),
        (3, 2, true),
        (4, 1, true),
        (4, 2, true),
        (4, 4, true),
        (6, 4, true),
        (8, 2, true),
        (8, 4, true),
        (8, 4, false), // the no-overlap ablation point
    ]
}

/// Runs the whole Figure 2 sweep. `iters` overrides the per-run iteration
/// count (lower = faster regeneration, same steady-state speedups).
pub fn run_fig2(iters: usize) -> Vec<SorPoint> {
    fig2_configs()
        .into_iter()
        .map(|(n, pr, overlap)| {
            let mut p = SorParams::fig2(n, pr, overlap);
            p.max_iters = iters;
            let label = format!("{n}Nx{pr}P{}", if overlap { "" } else { " (no overlap)" });
            run_point(&label, p)
        })
        .collect()
}

/// The Figure 3 problem-size sweep at 4Nx4P: grid heights chosen so the
/// total points span roughly 5k .. 400k, with the paper's 122x842 ("X")
/// included.
pub fn fig3_sizes() -> Vec<(usize, usize)> {
    vec![
        (10, 512),
        (20, 512),
        (30, 842),
        (61, 842),
        (122, 842), // the paper's X point
        (244, 842),
        (366, 842),
        (488, 842),
    ]
}

/// Runs the Figure 3 sweep.
pub fn run_fig3(iters: usize) -> Vec<SorPoint> {
    fig3_sizes()
        .into_iter()
        .map(|(rows, cols)| {
            let mut p = SorParams::fig2(4, 4, true);
            p.rows = rows;
            p.cols = cols;
            p.max_iters = iters;
            let label = format!("{}x{} ({} pts)", rows, cols, rows * cols);
            run_point(&label, p)
        })
        .collect()
}

/// Formats points as table rows.
pub fn rows(points: &[SorPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|pt| {
            vec![
                pt.label.clone(),
                pt.processors.to_string(),
                pt.points.to_string(),
                format!("{:.2}", pt.speedup),
                format!("{:.0}%", pt.efficiency * 100.0),
                format!("{:.1}s", pt.result.elapsed.as_secs_f64()),
                pt.result.msgs.to_string(),
                format!("{:.1}MB", pt.result.bytes as f64 / 1e6),
            ]
        })
        .collect()
}

/// Header matching [`rows`].
pub fn header() -> Vec<&'static str> {
    vec![
        "config", "procs", "points", "speedup", "eff", "time", "msgs", "bytes",
    ]
}

/// The points' schedule digests, for [`crate::print_digests`].
pub fn digests(points: &[SorPoint]) -> impl Iterator<Item = (&str, Option<u64>)> {
    points
        .iter()
        .map(|pt| (pt.label.as_str(), pt.result.digest))
}
