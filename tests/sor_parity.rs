//! SOR correctness sweep: the distributed solver must match the sequential
//! baseline bit for bit across partitionings, cluster shapes and both
//! overlap modes.

use amber_apps::sor::{run_amber_sor, sor_sequential, SorParams};
use proptest::prelude::*;

fn params(
    rows: usize,
    cols: usize,
    nodes: usize,
    procs: usize,
    sections: usize,
    overlap: bool,
    iters: usize,
) -> SorParams {
    let mut p = SorParams::small(nodes, procs);
    p.rows = rows;
    p.cols = cols;
    p.sections = sections;
    p.max_iters = iters;
    p.overlap = overlap;
    p
}

proptest! {
    // Each case runs a full simulated cluster; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_sor_is_bitwise_equal_to_sequential(
        rows in 8usize..28,
        cols in 8usize..40,
        nodes in 1usize..4,
        procs in 1usize..3,
        extra_sections in 0usize..3,
        overlap in proptest::bool::ANY,
        iters in 1usize..6,
    ) {
        let sections = (nodes + extra_sections).min(rows / 2).max(1);
        let p = params(rows, cols, nodes, procs, sections, overlap, iters);
        let (_, seq_sum, seq_delta) = sor_sequential(&p);
        let par = run_amber_sor(p);
        prop_assert_eq!(par.iterations, iters);
        prop_assert!(
            (par.checksum - seq_sum).abs() < 1e-9,
            "checksum mismatch: {} vs {} (p = {:?})",
            par.checksum, seq_sum, p
        );
        prop_assert!(
            (par.max_delta - seq_delta).abs() < 1e-12,
            "residual mismatch: {} vs {}",
            par.max_delta, seq_delta
        );
    }
}

#[test]
fn the_case_proptest_once_shrank_to_is_bitwise_equal() {
    // Recorded by proptest as a failing case of the sweep above (rows 16,
    // cols 8, nodes 3, procs 1, extra_sections 1 so 4 sections, overlap
    // on, iters 3), kept here by name: the proptest stand-in replays no
    // saved seeds.
    let p = params(16, 8, 3, 1, 4, true, 3);
    let (_, seq_sum, seq_delta) = sor_sequential(&p);
    let par = run_amber_sor(p);
    assert_eq!(par.iterations, 3);
    assert!(
        (par.checksum - seq_sum).abs() < 1e-9,
        "{} vs {seq_sum}",
        par.checksum
    );
    assert!(
        (par.max_delta - seq_delta).abs() < 1e-12,
        "{} vs {seq_delta}",
        par.max_delta
    );
}

#[test]
fn single_row_sections_work() {
    // Degenerate partitions: 12 rows in 6 sections of two, and 10 rows in 8
    // sections, six of them one row each (Fig. 3's 10x512 point at 4Nx4P).
    // A one-row section's row reads the ghost rows on both sides, so it
    // must wait for both exchanges, not only the top one.
    for p in [
        params(12, 16, 2, 1, 6, true, 4),
        params(10, 32, 4, 4, 8, true, 3),
        params(10, 32, 4, 4, 8, false, 3),
    ] {
        let (_, seq_sum, seq_delta) = sor_sequential(&p);
        let par = run_amber_sor(p);
        assert_eq!(
            (par.checksum.to_bits(), par.max_delta.to_bits()),
            (seq_sum.to_bits(), seq_delta.to_bits()),
            "{} vs {seq_sum} ({p:?})",
            par.checksum
        );
    }
}

#[test]
fn more_workers_than_rows_work() {
    // Workers with empty stripes still participate in the barriers.
    let mut p = params(10, 16, 2, 4, 2, true, 3);
    p.procs = 4; // 8 workers over sections of ~5 rows
    let (_, seq_sum, _) = sor_sequential(&p);
    let par = run_amber_sor(p);
    assert!((par.checksum - seq_sum).abs() < 1e-9);
}

#[test]
fn convergence_agrees_with_sequential_iteration_count() {
    let mut p = params(16, 24, 2, 2, 4, true, 500);
    p.epsilon = 1e-4;
    let (seq_iters, _, _) = sor_sequential(&p);
    let par = run_amber_sor(p);
    // The decision lag may add up to CONV_LAG extra iterations.
    assert!(
        par.iterations >= seq_iters && par.iterations <= seq_iters + 2,
        "parallel stopped at {} vs sequential {}",
        par.iterations,
        seq_iters
    );
    assert!(par.max_delta < 1e-4);
}
