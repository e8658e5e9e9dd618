//! Static source pass: counts panic-prone constructs (`unwrap()`,
//! `expect()`, `panic!`, bare `assert!`) in the protocol crates and diffs
//! the counts against a committed allowlist.
//!
//! This is a lexical scanner, not a parser: it masks comments, string and
//! char literals, and `#[cfg(test)]` modules, then looks for the tokens in
//! what remains. `debug_assert!` deliberately does not count (the preceding
//! character of a bare `assert!` must not be an identifier character).
//!
//! The `panic_lint` binary wraps this module for CI: it fails when any
//! file's count differs from its allowlisted budget. New panic edges in
//! `core`/`engine`/`placement` must either be removed or consciously added
//! to `crates/verify/panic_allowlist.txt`, and a removed edge (or file)
//! lowers the budget in the same change, so no slack is left for a later
//! change to refill unseen.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The tokens the scanner counts, with the textual needle for each.
pub const TOKENS: [&str; 4] = [".unwrap(", ".expect(", "panic!(", "assert!("];

/// Source roots scanned, relative to the repo root.
pub const SCAN_ROOTS: [&str; 3] = [
    "crates/core/src",
    "crates/engine/src",
    "crates/placement/src",
];

/// Location of the allowlist, relative to the repo root.
pub const ALLOWLIST: &str = "crates/verify/panic_allowlist.txt";

/// Per-file, per-token occurrence counts keyed by repo-relative path.
pub type Counts = BTreeMap<String, BTreeMap<&'static str, Vec<usize>>>;

/// Replaces comments, string/char literals, and `#[cfg(test)]` modules with
/// spaces (newlines preserved so line numbers survive).
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = bytes.to_vec();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                blank(&mut out, start, i);
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                i += 2;
                let mut depth = 1;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        i += 2;
                    } else if bytes[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i.min(bytes.len()));
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                // r"...", r#"..."#, br"...", b"..." — find the hash count,
                // then the matching close quote.
                let start = i;
                let mut j = i + 1;
                if bytes[i] == b'b' && j < bytes.len() && bytes[j] == b'r' {
                    j += 1;
                }
                let mut hashes = 0;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                // j now at the opening quote
                j += 1;
                loop {
                    if j >= bytes.len() {
                        break;
                    }
                    if bytes[j] == b'"' {
                        let mut k = j + 1;
                        let mut h = 0;
                        while k < bytes.len() && bytes[k] == b'#' && h < hashes {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            j = k;
                            break;
                        }
                    }
                    if hashes == 0 && bytes[j] == b'\\' {
                        j += 1; // only plain b"..." has escapes
                    }
                    j += 1;
                }
                blank(&mut out, start, j.min(bytes.len()));
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime: a lifetime is '<ident> with no
                // closing quote right after.
                if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    let start = i;
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i = (i + 1).min(bytes.len());
                    blank(&mut out, start, i);
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    blank(&mut out, i, i + 3);
                    i += 3;
                } else {
                    i += 1; // lifetime; leave as-is
                }
                continue;
            }
            _ => i += 1,
        }
        if bytes.get(i).is_none() {
            break;
        }
    }
    let mut masked = String::from_utf8(out).expect("masking preserves utf8 structure");
    masked = mask_cfg_test_mods(&masked);
    masked
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // Avoid treating an identifier ending in r/b as a literal prefix.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i + 1;
    if bytes[i] == b'b' && j < bytes.len() && bytes[j] == b'r' {
        j += 1;
    } else if bytes[i] == b'b' {
        // b"..." byte string
        return j < bytes.len() && bytes[j] == b'"';
    }
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

/// Blanks `#[cfg(test)] mod ... { ... }` ranges (test modules are allowed
/// to panic freely).
fn mask_cfg_test_mods(src: &str) -> String {
    let mut out = src.as_bytes().to_vec();
    let needle = b"#[cfg(test)]";
    let bytes = src.as_bytes();
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] != needle.as_slice() {
            i += 1;
            continue;
        }
        // Find the first `{` after the attribute and blank through its
        // matching `}`.
        let mut j = i + needle.len();
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] == b';' {
            i = j;
            continue;
        }
        let mut depth = 0usize;
        let start = i;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        for b in &mut out[start..j] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        i = j;
    }
    String::from_utf8(out).expect("masking preserves utf8 structure")
}

/// Scans one already-masked source string, returning per-token 1-based line
/// numbers of each hit.
pub fn scan_masked(masked: &str) -> BTreeMap<&'static str, Vec<usize>> {
    let mut hits: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
    let bytes = masked.as_bytes();
    for token in TOKENS {
        let tb = token.as_bytes();
        let mut from = 0;
        while let Some(pos) = find(bytes, tb, from) {
            from = pos + 1;
            // Bare-macro tokens must not be preceded by an identifier char,
            // so `debug_assert!(` and `prop_assert!(` don't count.
            if !token.starts_with('.') && pos > 0 {
                let prev = bytes[pos - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let line = 1 + bytes[..pos].iter().filter(|b| **b == b'\n').count();
            hits.entry(token).or_default().push(line);
        }
    }
    hits.retain(|_, v| !v.is_empty());
    hits
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (from..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

/// Walks the scan roots under `repo_root` and returns counts for every
/// `.rs` file (test modules masked out; `tests/` directories skipped).
pub fn scan_repo(repo_root: &Path) -> std::io::Result<Counts> {
    let mut counts = Counts::new();
    for root in SCAN_ROOTS {
        let dir = repo_root.join(root);
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for entry in fs::read_dir(&d)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                    continue;
                }
                // Whole test files are out of scope, like `#[cfg(test)]`
                // modules: asserting and unwrapping in tests is the idiom.
                if path.file_name().and_then(|n| n.to_str()) == Some("tests.rs") {
                    continue;
                }
                let src = fs::read_to_string(&path)?;
                let hits = scan_masked(&mask_source(&src));
                if hits.is_empty() {
                    continue;
                }
                let rel = path
                    .strip_prefix(repo_root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                counts.insert(rel, hits);
            }
        }
    }
    Ok(counts)
}

/// Renders counts in the allowlist format: `path<TAB>token<TAB>count`, one
/// line per (file, token), sorted.
pub fn render_allowlist(counts: &Counts) -> String {
    let mut out = String::from(
        "# Panic-edge allowlist: path<TAB>token<TAB>budget. Regenerate with\n\
         # `cargo run -p amber-verify --bin panic_lint -- --update`.\n",
    );
    for (path, hits) in counts {
        for (token, lines) in hits {
            let _ = writeln!(out, "{path}\t{token}\t{}", lines.len());
        }
    }
    out
}

/// Parses the allowlist format back into budgets.
pub fn parse_allowlist(text: &str) -> BTreeMap<(String, String), usize> {
    let mut budgets = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(path), Some(token), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if let Ok(count) = count.parse::<usize>() {
            budgets.insert((path.to_string(), token.to_string()), count);
        }
    }
    budgets
}

/// One finding: a (file, token) whose count differs from its budget.
#[derive(Debug)]
pub struct Mismatch {
    /// Repo-relative path.
    pub path: String,
    /// The token whose count is off.
    pub token: String,
    /// The allowlisted count.
    pub allowed: usize,
    /// Line numbers of every occurrence found: more than `allowed` is an
    /// overage, fewer is slack (none at all when the file lost its last
    /// occurrence or no longer exists).
    pub lines: Vec<usize>,
}

/// Compares fresh counts against allowlist budgets; any (file, token) whose
/// count is not exactly its budget (missing entries have budget 0, missing
/// counts are 0) is a mismatch.
pub fn check(counts: &Counts, budgets: &BTreeMap<(String, String), usize>) -> Vec<Mismatch> {
    let mut keys: BTreeSet<(String, String)> = budgets.keys().cloned().collect();
    for (path, hits) in counts {
        keys.extend(
            hits.keys()
                .map(|token| (path.clone(), (*token).to_string())),
        );
    }
    keys.into_iter()
        .filter_map(|key| {
            let allowed = budgets.get(&key).copied().unwrap_or(0);
            let (path, token) = key;
            let lines = counts
                .get(&path)
                .and_then(|hits| hits.get(token.as_str()))
                .cloned()
                .unwrap_or_default();
            (lines.len() != allowed).then_some(Mismatch {
                path,
                token,
                allowed,
                lines,
            })
        })
        .collect()
}

/// Locates the repo root: `AMBER_REPO_ROOT` if set, else two levels up from
/// this crate's manifest directory.
pub fn repo_root() -> PathBuf {
    if let Ok(root) = std::env::var("AMBER_REPO_ROOT") {
        return PathBuf::from(root);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = r#"
// a panic!( in a comment
let s = "panic!(";
let c = '"';
x.unwrap();
"#;
        let hits = scan_masked(&mask_source(src));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[".unwrap("], vec![5]);
    }

    #[test]
    fn debug_assert_does_not_count() {
        let src = "debug_assert!(x);\nassert!(y);\n";
        let hits = scan_masked(&mask_source(src));
        assert_eq!(hits["assert!("], vec![2]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn cfg_test_mods_are_masked() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let hits = scan_masked(&mask_source(src));
        assert_eq!(hits[".unwrap("], vec![1]);
    }

    #[test]
    fn raw_strings_are_masked() {
        let src = "let s = r#\"panic!( over\nlines\"#;\nz.expect(\"msg\");\n";
        let hits = scan_masked(&mask_source(src));
        assert_eq!(hits[".expect("], vec![3]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn allowlist_roundtrip_and_check() {
        let mut counts = Counts::new();
        counts.insert(
            "crates/core/src/kernel.rs".into(),
            BTreeMap::from([("panic!(", vec![10usize, 20])]),
        );
        let rendered = render_allowlist(&counts);
        let budgets = parse_allowlist(&rendered);
        assert!(check(&counts, &budgets).is_empty());
        let none = parse_allowlist("");
        let over = check(&counts, &none);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].lines, vec![10, 20]);
        assert_eq!(over[0].allowed, 0);
    }

    #[test]
    fn a_budget_above_the_count_is_reported() {
        let mut counts = Counts::new();
        counts.insert(
            "crates/core/src/kernel.rs".into(),
            BTreeMap::from([("panic!(", vec![10usize])]),
        );
        let budgets = parse_allowlist("crates/core/src/kernel.rs\tpanic!(\t2\n");
        let slack = check(&counts, &budgets);
        assert_eq!(slack.len(), 1);
        assert_eq!(slack[0].allowed, 2);
        assert_eq!(slack[0].lines, vec![10]);
    }

    #[test]
    fn a_row_for_a_file_no_longer_counted_is_reported() {
        let mut counts = Counts::new();
        counts.insert(
            "crates/core/src/kernel.rs".into(),
            BTreeMap::from([("panic!(", vec![10usize])]),
        );
        let budgets = parse_allowlist(
            "crates/core/src/kernel.rs\tpanic!(\t1\n\
             crates/core/src/kernel.rs\t.expect(\t1\n\
             crates/core/src/gone.rs\t.expect(\t2\n",
        );
        let stale = check(&counts, &budgets);
        let rows: Vec<_> = stale
            .iter()
            .map(|m| (m.path.as_str(), m.token.as_str(), m.allowed, m.lines.len()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("crates/core/src/gone.rs", ".expect(", 2, 0),
                ("crates/core/src/kernel.rs", ".expect(", 1, 0),
            ]
        );
    }
}
