//! Section 4.1 ablation: distributed lock contention, Amber lock object
//! (function shipping) vs DSM lock variable (page shuttling).

use amber_bench::ablate;

fn main() {
    // Two phase lengths: the clustered Amber workers pay a fixed migration
    // cost however long the phase runs, while the DSM lock page keeps
    // moving — the asymmetry section 4.1 predicts.
    let mut digests = Vec::new();
    for rounds in [10usize, 40] {
        let mut rows = Vec::new();
        for nodes in [2usize, 4, 8] {
            for row in [
                ablate::lock_amber(nodes, rounds),
                ablate::lock_dsm(nodes, rounds),
            ] {
                rows.push(row.cells());
                digests.push((format!("{} ({rounds} rounds)", row.label), row.digest));
            }
        }
        amber_bench::print_table(
            &format!("Ablation 4.1: lock contention ({rounds} critical sections per node)"),
            &["scheme", "time", "msgs", "bytes", "finish spread"],
            &rows,
        );
    }
    amber_bench::print_digests(digests);
}
