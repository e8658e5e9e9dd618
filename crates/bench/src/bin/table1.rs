//! Regenerates Table 1: latency of Amber operations.

use amber_bench::ops::{measure_table1, paper_table1};

fn main() {
    let (measured, digest) = measure_table1();
    let paper = paper_table1();
    amber_bench::print_table(
        "Table 1: Latency of Amber Operations (ms)",
        &["operation", "paper", "measured", "ratio"],
        &measured.rows(&paper),
    );
    amber_bench::print_digests([("table1", digest)]);
}
