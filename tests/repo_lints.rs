//! Repo-level lint gates over the workspace's library source code.
//!
//! Four gates, all scanning non-test library code only (test modules,
//! `tests/`, benches and examples are exempt):
//!
//! 1. **No panicking or printing library code** — anywhere in the
//!    workspace: failures must surface as error values (or a deliberate
//!    `unreachable!` with a proof in the message), and all user-visible
//!    output goes through the structured report types, never stdout.
//! 2. **No direct synchronization imports** — every lock, atomic and
//!    thread primitive comes from the `pascalr-sync` facade, so that
//!    `RUSTFLAGS="--cfg loom"` swaps the whole workspace onto the vendored
//!    loom model checker.  A direct `std::sync` or `parking_lot` import
//!    outside `crates/sync` (the facade itself) and `vendor/` would escape
//!    the model checker's schedule and silently weaken the model suite,
//!    so it fails CI.
//! 3. **No direct `std::time::Instant`** — wall-clock reads come from
//!    `pascalr_obs::clock` (the only crate allowed to touch `Instant`),
//!    which is mockable in tests and inert under `--cfg loom`.
//! 4. **No direct `std::fs`** — all file I/O goes through the
//!    [`pascalr_storage::StorageFs`] seam (the only crate allowed to
//!    touch the real filesystem), so crash tests can swap in `MemFs`
//!    fault injection and every durability path stays testable.
//!
//! Both gates are self-testing: a seeded violation file must be flagged,
//! which proves the scanner bites before we trust a clean report.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Tokens banned from non-test library code everywhere in the workspace.
const BANNED_PANICS: [&str; 4] = [".unwrap()", ".expect(", "dbg!(", "println!("];

/// Tokens banned outside the `pascalr-sync` facade: synchronization must
/// go through the facade so `--cfg loom` can swap the backend.
const BANNED_SYNC: [&str; 2] = ["std::sync", "parking_lot"];

/// Tokens banned outside `crates/obs`: timing goes through
/// `pascalr_obs::clock` so tests can freeze/advance it and `--cfg loom`
/// builds stay deterministic.
const BANNED_TIME: [&str; 1] = ["std::time::Instant"];

/// Tokens banned outside `crates/storage`: file I/O goes through the
/// `StorageFs` seam so durability code is crash-testable on `MemFs`.
const BANNED_FS: [&str; 1] = ["std::fs"];

/// Crates whose `src/` trees are scanned (every workspace library crate;
/// `src` is the root facade crate).
const LIB_CRATES: [&str; 14] = [
    "crates/analysis",
    "crates/calculus",
    "crates/catalog",
    "crates/core",
    "crates/exec",
    "crates/obs",
    "crates/optimizer",
    "crates/parser",
    "crates/planner",
    "crates/relation",
    "crates/storage",
    "crates/sync",
    "crates/workload",
    ".",
];

/// A single banned-token occurrence.
struct Violation {
    file: PathBuf,
    line: usize,
    token: &'static str,
    text: String,
}

/// Net brace depth contributed by one line.  Naive (ignores braces inside
/// string literals), which is fine for this codebase and errs on the side of
/// scanning *more* lines if it ever miscounts inside a test module.
fn brace_delta(line: &str) -> i64 {
    let mut delta = 0;
    for ch in line.chars() {
        match ch {
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// Scans one source file for `tokens`, skipping comment lines and
/// `#[cfg(test)]` modules.
fn scan_file(path: &Path, tokens: &[&'static str], violations: &mut Vec<Violation>) {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => panic!("cannot read {}: {e}", path.display()),
    };
    scan_source(path, &src, tokens, violations);
}

/// Token scan over in-memory source (separated out so the self-tests can
/// feed synthetic files through the exact production scanner).
fn scan_source(path: &Path, src: &str, tokens: &[&'static str], violations: &mut Vec<Violation>) {
    let mut in_test_mod = false;
    let mut test_depth: i64 = 0;
    let mut pending_cfg_test = false;
    for (idx, line) in src.lines().enumerate() {
        if in_test_mod {
            test_depth += brace_delta(line);
            if test_depth <= 0 {
                in_test_mod = false;
            }
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            if trimmed.starts_with("#[") {
                continue; // further attributes between the cfg and the item
            }
            pending_cfg_test = false;
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                let delta = brace_delta(line);
                if delta > 0 {
                    in_test_mod = true;
                    test_depth = delta;
                }
                // `#[cfg(test)] mod tests;` (out-of-line) needs no skipping:
                // the module lives in its own file under a tests/ path.
                continue;
            }
            // The cfg guarded a non-module item (fn, use, ...): treat the
            // single following item conservatively by still checking it —
            // gated crates keep test-only items inside `mod tests`.
        }
        if trimmed.starts_with("//") {
            continue;
        }
        for token in tokens {
            if line.contains(token) {
                violations.push(Violation {
                    file: path.to_path_buf(),
                    line: idx + 1,
                    token,
                    text: trimmed.to_string(),
                });
            }
        }
    }
}

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => panic!("cannot list {}: {e}", dir.display()),
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// Runs `tokens` over the `src/` tree of every crate in `crates`, and
/// panics with a per-site report when anything is flagged.
fn run_gate(crates: &[&str], tokens: &[&'static str], advice: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    for krate in crates {
        let src = root.join(krate).join("src");
        assert!(src.is_dir(), "missing gated source tree {}", src.display());
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        assert!(!files.is_empty(), "no sources under {}", src.display());
        for file in files {
            scan_file(&file, tokens, &mut violations);
        }
    }
    if !violations.is_empty() {
        let mut msg = format!("banned tokens in non-test library code ({advice}):\n");
        for v in &violations {
            let rel = v.file.strip_prefix(root).unwrap_or(&v.file);
            let _ = writeln!(
                msg,
                "  {}:{}: `{}` in `{}`",
                rel.display(),
                v.line,
                v.token,
                v.text
            );
        }
        panic!("{msg}");
    }
}

#[test]
fn no_panicking_or_printing_library_code_workspace_wide() {
    run_gate(
        &LIB_CRATES,
        &BANNED_PANICS,
        "return an error or use unreachable!/debug_assert with justification instead",
    );
}

#[test]
fn all_synchronization_goes_through_the_pascalr_sync_facade() {
    let gated: Vec<&str> = LIB_CRATES
        .iter()
        .copied()
        .filter(|krate| *krate != "crates/sync")
        .collect();
    run_gate(
        &gated,
        &BANNED_SYNC,
        "import locks/atomics/threads from pascalr_sync so --cfg loom can model-check them",
    );
}

#[test]
fn all_wall_clock_reads_go_through_the_obs_clock() {
    let gated: Vec<&str> = LIB_CRATES
        .iter()
        .copied()
        .filter(|krate| *krate != "crates/obs")
        .collect();
    run_gate(
        &gated,
        &BANNED_TIME,
        "read the clock via pascalr_obs::clock (mockable, inert under --cfg loom)",
    );
}

#[test]
fn all_file_io_goes_through_the_storage_fs_seam() {
    let gated: Vec<&str> = LIB_CRATES
        .iter()
        .copied()
        .filter(|krate| *krate != "crates/storage")
        .collect();
    run_gate(
        &gated,
        &BANNED_FS,
        "do file I/O through the pascalr_storage StorageFs seam (crash-testable via MemFs)",
    );
}

#[test]
fn the_fs_gate_catches_violations() {
    // Self-check: a live import and a fully qualified call are flagged;
    // comments, test modules and the storage seam's own types are not.
    let sample = r#"
use std::fs::File;
use pascalr_storage::StorageFs;

fn live(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}
// std::fs::write in a comment does not count
#[cfg(test)]
mod tests {
    fn exempt() {
        let _ = std::fs::read("x");
    }
}
"#;
    let mut violations = Vec::new();
    scan_source(Path::new("io.rs"), sample, &BANNED_FS, &mut violations);
    let flagged: Vec<usize> = violations.iter().map(|v| v.line).collect();
    assert_eq!(
        flagged,
        [2, 6],
        "exactly the import and the live read are flagged"
    );
}

#[test]
fn the_time_gate_catches_violations() {
    // Self-check: a live `Instant` read is flagged; `Duration` uses,
    // comments and test modules are not.
    let sample = r#"
use std::time::Instant;

fn live() -> std::time::Duration {
    let start = std::time::Instant::now();
    start.elapsed()
}
// std::time::Instant in a comment does not count
#[cfg(test)]
mod tests {
    fn exempt() {
        let _ = std::time::Instant::now();
    }
}
"#;
    let mut violations = Vec::new();
    scan_source(Path::new("timed.rs"), sample, &BANNED_TIME, &mut violations);
    let flagged: Vec<usize> = violations.iter().map(|v| v.line).collect();
    assert_eq!(
        flagged,
        [2, 5],
        "exactly the import and the live read are flagged"
    );
}

#[test]
fn the_panic_gate_catches_violations() {
    // Self-check: a synthetic source with each banned token in live code is
    // flagged, while the same tokens under `#[cfg(test)]` or comments pass.
    let sample = r#"
fn live() {
    let x = Some(1).unwrap();
    let y = Some(2).expect("y");
    dbg!(x);
    println!("{y}");
}
// let z = Some(3).unwrap(); — a comment does not count
#[cfg(test)]
mod tests {
    fn exempt() {
        let z = Some(3).unwrap();
        println!("{z}");
    }
}
"#;
    let mut violations = Vec::new();
    scan_source(
        Path::new("sample.rs"),
        sample,
        &BANNED_PANICS,
        &mut violations,
    );
    let tokens: Vec<&str> = violations.iter().map(|v| v.token).collect();
    assert_eq!(tokens, [".unwrap()", ".expect(", "dbg!(", "println!("]);
    assert!(violations.iter().all(|v| v.line < 8), "{tokens:?}");
}

#[test]
fn the_sync_facade_gate_catches_violations() {
    // Self-check with a seeded direct import of each banned backend: the
    // `use` lines and a fully qualified path must all be flagged; the
    // facade import and commented/test occurrences must not.
    let sample = r#"
use std::sync::Arc;
use parking_lot::Mutex;
use pascalr_sync::RwLock;

fn live() {
    let _flag = std::sync::atomic::AtomicBool::new(false);
}
// std::sync::Mutex in a comment does not count
#[cfg(test)]
mod tests {
    use std::sync::mpsc; // test code is exempt
}
"#;
    let mut violations = Vec::new();
    scan_source(
        Path::new("seeded.rs"),
        sample,
        &BANNED_SYNC,
        &mut violations,
    );
    let flagged: Vec<(usize, &str)> = violations.iter().map(|v| (v.line, v.token)).collect();
    assert_eq!(
        flagged,
        [(2, "std::sync"), (3, "parking_lot"), (7, "std::sync")],
        "exactly the seeded live imports are flagged"
    );
}
