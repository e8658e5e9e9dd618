//! Regenerates Figure 3: SOR speedup vs problem size at 4Nx4P.

use amber_bench::sorbench;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let points = sorbench::run_fig3(iters);
    amber_bench::print_table(
        &format!("Figure 3: SOR speedup vs problem size at 4Nx4P ({iters} iterations)"),
        &sorbench::header(),
        &sorbench::rows(&points),
    );
    amber_bench::print_digests(sorbench::digests(&points));
}
