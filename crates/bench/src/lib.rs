//! Prints the paper: Table 1, Figures 2 and 3, the section-4 ablations and
//! the forwarding experiments, all on the simulator's virtual clock.
//!
//! Each binary in `src/bin/` prints one of them, byte for byte the file of
//! the same name under `results/`; this library holds the shared experiment
//! runners so the binaries stay thin and the golden test can assert on the
//! same numbers the binaries print. After its tables a binary prints the
//! schedule digest of every simulated cluster it ran ([`print_digests`]),
//! so the golden test pins the order each number came from as well.
//! Wall-clock numbers are measured by `benchmark/`, not here.

#![warn(missing_docs)]

pub mod ablate;
pub mod ops;
pub mod sorbench;

/// Prints a header followed by aligned rows (simple fixed-width table).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len()));
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints one `digest <label> <hex>` line per simulated cluster, with the
/// label's runs of whitespace collapsed to one space.
pub fn print_digests<S: AsRef<str>>(digests: impl IntoIterator<Item = (S, Option<u64>)>) {
    for (label, digest) in digests {
        let label = label
            .as_ref()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        let digest = digest.expect("a simulated cluster has a schedule digest");
        println!("digest {label} {digest:016x}");
    }
}
