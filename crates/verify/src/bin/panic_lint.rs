//! CI gate for panic-free protocol edges.
//!
//! Scans `crates/{core,engine,placement}/src` for `unwrap()`/`expect()`/
//! `panic!`/bare `assert!` occurrences (outside comments, strings, and
//! `#[cfg(test)]` modules) and fails — exit code 1, listing file and line
//! numbers — when any file's count differs from the budget committed in
//! `crates/verify/panic_allowlist.txt`: above it is a new panic edge, below
//! it (or a row for a file that is gone) is slack a later change could
//! refill unseen. Run with `--update` to regenerate the allowlist after a
//! deliberate change.

use std::fs;
use std::process::ExitCode;

use amber_verify::panic_scan;

fn main() -> ExitCode {
    let update = std::env::args().any(|a| a == "--update");
    let root = panic_scan::repo_root();
    let counts = match panic_scan::scan_repo(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("panic_lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let allowlist_path = root.join(panic_scan::ALLOWLIST);
    if update {
        let rendered = panic_scan::render_allowlist(&counts);
        if let Err(e) = fs::write(&allowlist_path, rendered) {
            eprintln!(
                "panic_lint: failed to write {}: {e}",
                allowlist_path.display()
            );
            return ExitCode::FAILURE;
        }
        println!("panic_lint: wrote {}", allowlist_path.display());
        return ExitCode::SUCCESS;
    }
    let budgets = match fs::read_to_string(&allowlist_path) {
        Ok(text) => panic_scan::parse_allowlist(&text),
        Err(e) => {
            eprintln!(
                "panic_lint: cannot read {}: {e} (run with --update to create it)",
                allowlist_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let mismatches = panic_scan::check(&counts, &budgets);
    if mismatches.is_empty() {
        let files = counts.len();
        println!("panic_lint: OK ({files} files with allowlisted panic edges, every budget exact)");
        return ExitCode::SUCCESS;
    }
    for m in &mismatches {
        let found = m.lines.len();
        if found > m.allowed {
            eprintln!(
                "panic_lint: {}: {found} `{}` occurrences (allowlisted: {}) at lines {:?}",
                m.path, m.token, m.allowed, m.lines
            );
        } else if root.join(&m.path).exists() {
            eprintln!(
                "panic_lint: {}: stale budget, {} `{}` allowlisted but only {found} found",
                m.path, m.allowed, m.token
            );
        } else {
            eprintln!(
                "panic_lint: {}: stale row, the file no longer exists (`{}` budget {})",
                m.path, m.token, m.allowed
            );
        }
    }
    eprintln!(
        "panic_lint: {} (file, token) budgets off; remove the new panic edge, or \
         regenerate the allowlist with `cargo run -p amber-verify --bin panic_lint -- --update`",
        mismatches.len()
    );
    ExitCode::FAILURE
}
