//! Regenerates Figure 2: SOR speedup vs node x processor configuration
//! (122 x 842 grid), including the overlap / no-overlap 8Nx4P pair.

use amber_bench::sorbench;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let points = sorbench::run_fig2(iters);
    amber_bench::print_table(
        &format!("Figure 2: measured speedup, Red/Black SOR 122x842 ({iters} iterations)"),
        &sorbench::header(),
        &sorbench::rows(&points),
    );
    amber_bench::print_digests(sorbench::digests(&points));
}
