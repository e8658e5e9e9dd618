//! The comparison the paper's section 6 leaves open: the same Red/Black
//! SOR through Amber's object space and through a page-based DSM, on the
//! same simulated cluster, with identical numerics (checksums must agree).

use amber_apps::sor::{run_amber_sor, sor_sequential_time, SorParams};
use amber_apps::sor_dsm::run_dsm_sor;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let (mut rows, mut digests) = (Vec::new(), Vec::new());
    for (nodes, procs) in [(2usize, 4usize), (4, 4), (8, 4)] {
        let mut p = SorParams::fig2(nodes, procs, true);
        p.max_iters = iters;
        let amber = run_amber_sor(p);
        let dsm = run_dsm_sor(p);
        assert!(
            (amber.checksum - dsm.checksum).abs() < 1e-6,
            "numerics diverged"
        );
        let seq = sor_sequential_time(&p, iters).as_secs_f64();
        for (name, r) in [("amber", &amber), ("dsm", &dsm)] {
            let label = format!("{nodes}Nx{procs}P {name}");
            digests.push((label.clone(), r.digest));
            rows.push(vec![
                label,
                format!("{:.2}", seq / r.elapsed.as_secs_f64()),
                format!("{:.1}s", r.elapsed.as_secs_f64()),
                r.msgs.to_string(),
                format!("{:.1}MB", r.bytes as f64 / 1e6),
            ]);
        }
    }
    amber_bench::print_table(
        &format!("SOR 122x842, objects vs pages ({iters} iterations)"),
        &["config", "speedup", "time", "msgs", "bytes"],
        &rows,
    );
    println!("(checksums agree across all versions)");
    amber_bench::print_digests(digests);
}
