//! `sor_sim`: the paper's own application, Red/Black SOR on the simulated
//! Firefly network, at 4N×4P, 8N×4P and 8N×4P without overlap.
//!
//! It drives `apps`, `sync`, `core` and `engine::sim` together. Compute
//! dominates, so runtime-path work should not move its wall rate, while any
//! protocol or cost change moves its virtual time, and with it the paper's
//! headline speedup.

use std::time::Instant;

use amber_apps::sor::{run_amber_sor, sor_sequential, sor_sequential_time, SorParams};

use super::{RoundCfg, RoundOut};
use crate::rng::Rng;
#[cfg(test)]
use crate::rng::SeqHash;
use crate::trace::Recorder;

/// The paper's grid is 122 × 842; the seed picks a width within 0.5 % of
/// that, and the plate's boundary temperature.
const ROWS: usize = 122;
const COLS: u64 = 842;
const COLS_JITTER: u64 = 4;
/// Iterations per configuration: enough that start-up is a small share of
/// the virtual time, and few enough that a round takes about a second.
const ITERS: usize = 10;

const CONFIGS: [(&str, usize, usize, bool); 3] = [
    ("sor_4n4p", 4, 4, true),
    ("sor_8n4p", 8, 4, true),
    ("sor_8n4p_no_overlap", 8, 4, false),
];

fn generate(seed: u64) -> [SorParams; 3] {
    let mut rng = Rng::new(seed, 0);
    let cols = (COLS - COLS_JITTER + rng.below(2 * COLS_JITTER + 1)) as usize;
    let top_temp = 50.0 + rng.below(1000) as f64 / 10.0;
    CONFIGS.map(|(_, nodes, procs, overlap)| SorParams {
        rows: ROWS,
        cols,
        max_iters: ITERS,
        top_temp,
        ..SorParams::fig2(nodes, procs, overlap)
    })
}

#[cfg(test)]
pub fn inputs_hash(seed: u64) -> SeqHash {
    let mut h = SeqHash::new();
    for p in generate(seed) {
        h.push(p.cols as u64);
        h.push(p.top_temp.to_bits());
        h.push((p.nodes * 16 + p.procs * 2 + usize::from(p.overlap)) as u64);
    }
    h
}

pub fn run(cfg: RoundCfg) -> RoundOut {
    let params = generate(cfg.seed);
    let updates_per_run = ((ROWS - 2) * (params[0].cols - 2) * ITERS) as u64;
    let mut out = RoundOut {
        ops: updates_per_run * params.len() as u64,
        ..RoundOut::default()
    };
    // The expected grid: the plain sequential solver. All three
    // configurations solve the same plate, so one reference serves them.
    let (seq_iters, seq_checksum, _) = sor_sequential(&params[0]);
    let seq_time = sor_sequential_time(&params[0], ITERS);

    let t0 = Instant::now();
    out.setup_s = t0.duration_since(cfg.started).as_secs_f64();
    let mut rec = Recorder::new(cfg.trace, t0, 0, params.len());
    let results: Vec<_> = params
        .iter()
        .zip(CONFIGS)
        .enumerate()
        .map(|(i, (p, (name, ..)))| rec.timed(name, i as u32, || run_amber_sor(*p)))
        .collect();
    out.wall_s = t0.elapsed().as_secs_f64();
    out.spans = rec.into_spans();

    for (r, (name, ..)) in results.iter().zip(CONFIGS) {
        // Bit for bit: the parallel program updates in the sequential order.
        let same = r.checksum.to_bits() == seq_checksum.to_bits() && r.iterations == seq_iters;
        out.check(same, updates_per_run, || {
            format!(
                "{name}: checksum {} after {} iterations, sequential {seq_checksum} after {seq_iters}",
                r.checksum, r.iterations
            )
        });
    }

    let [r4, r8, r8_no_overlap] = [results[0], results[1], results[2]];
    let speedup = |elapsed: amber_core::SimTime| seq_time.as_secs_f64() / elapsed.as_secs_f64();
    // The headline configuration carries the workload's virtual time.
    out.virtual_ms = r8.elapsed.as_ms_f64();
    out.layer = vec![
        ("apps.sor.iterations", r8.iterations as f64),
        ("apps.sor.msgs", r8.msgs as f64),
        ("apps.sor.bytes", r8.bytes as f64),
        ("apps.sor.speedup_4n4p", speedup(r4.elapsed)),
        ("apps.sor.speedup_8n4p", speedup(r8.elapsed)),
        (
            "apps.sor.overlap_gain",
            r8_no_overlap.elapsed.as_secs_f64() / r8.elapsed.as_secs_f64(),
        ),
        (
            "engine.msgs",
            results.iter().map(|r| r.msgs).sum::<u64>() as f64,
        ),
        (
            "engine.bytes",
            results.iter().map(|r| r.bytes).sum::<u64>() as f64,
        ),
    ];
    out
}
