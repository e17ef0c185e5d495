//! Source-level guard: every sync primitive in `hstreams-core` must come
//! through the `crate::sync` facade, which swaps in `loom`'s model-checked
//! types under `cfg(loom)`. A direct `std::sync::atomic` or `parking_lot`
//! use anywhere else would silently escape the loom models — the code
//! would still compile and pass, but its interleavings would never be
//! explored. This test greps the crate's sources and fails on any bypass.
//!
//! Allowed exceptions:
//! * `src/sync.rs` — the facade itself re-exports the real primitives.
//! * `std::sync::Mutex` and the `std::sync::atomic` enable flag in
//!   `src/lockorder.rs` — observer infrastructure documented as
//!   deliberately *not* part of the protocol under verification (it is
//!   compiled into every build and must not add schedule points to the
//!   models).
//!
//! A second pattern list keeps per-thread id state out of `src/events.rs`;
//! the last three tests keep the crate at one build (no cargo feature, no
//! feature-conditional code anywhere in the workspace's crates) and the
//! lock-order witness inside the classed locks of `sync.rs`.

use std::path::Path;

/// Patterns that mean "bypassed the shim". `std::sync::Mutex`/`RwLock`/
/// `Condvar` are intentionally not on the list: the facade maps those to
/// `parking_lot`, so a std lock is an odd choice but not a model-soundness
/// hole, and lockorder.rs uses one on purpose.
const FORBIDDEN: &[&str] = &["std::sync::atomic", "parking_lot"];

/// Patterns that mean "`events.rs` grew per-thread id state again". Event
/// ids come from one counter; amortising it per thread was measured, bought
/// nothing, and cost exact `len()` and ascending per-stream ids (DESIGN.md
/// §13) — re-measure at ≥ 4 source threads before bringing it back.
const EVENTS_FORBIDDEN: &[&str] = &["thread_local!"];

#[test]
fn core_uses_the_sync_facade_exclusively() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    collect_rs(&src, &mut files);
    assert!(
        files.iter().any(|p| p.ends_with("sync.rs")),
        "source scan found no sync.rs — wrong directory?"
    );
    files.retain(|p| p.file_name().is_none_or(|n| n != "sync.rs"));
    // lockorder.rs's enable flag is a std atomic on purpose (see above).
    let (lockorder, rest): (Vec<_>, Vec<_>) =
        files.into_iter().partition(|p| p.ends_with("lockorder.rs"));
    let mut violations = scan(&rest, FORBIDDEN);
    violations.extend(scan(&lockorder, &["parking_lot"]));
    assert!(
        violations.is_empty(),
        "sync primitives must come through crate::sync (loom swaps it out \
         under cfg(loom); direct uses escape the models):\n{}",
        violations.join("\n")
    );
}

#[test]
fn event_ids_come_from_one_counter() {
    let events = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/events.rs");
    let violations = scan(&[events], EVENTS_FORBIDDEN);
    assert!(
        violations.is_empty(),
        "events.rs must not keep per-thread id state:\n{}",
        violations.join("\n")
    );
}

/// A cargo feature is a second build of the crate: the tests would check
/// one and the benchmark measure the other (before PR 24 they did).
#[test]
fn the_workspace_crates_have_one_build() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates).expect("readable crates dir") {
        let krate = krate.expect("readable dir entry").path();
        for sub in ["src", "tests"] {
            if krate.join(sub).is_dir() {
                collect_rs(&krate.join(sub), &mut files);
            }
        }
    }
    assert!(files.len() > 100, "source scan found {}", files.len());
    // Spelled in two halves so that this file does not match itself.
    let patterns = [concat!("cfg(", "feature"), concat!("cfg(not(", "feature")];
    let violations = scan(&files, &patterns);
    assert!(
        violations.is_empty(),
        "no code may compile under a cargo feature:\n{}",
        violations.join("\n")
    );
}

#[test]
fn core_declares_no_cargo_feature() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let violations = scan(&[manifest], &["[features]"]);
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// A class is witnessed by its lock (`ClassedMutex` / `ClassedRwLock`), not
/// by a call somebody remembered to place beside the acquisition.
#[test]
fn only_the_classed_locks_call_the_witness() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    collect_rs(&src, &mut files);
    files.retain(|p| {
        p.file_name()
            .is_none_or(|n| n != "sync.rs" && n != "lockorder.rs")
    });
    let violations = scan(&files, &["lockorder::acquiring(", "with_class("]);
    assert!(
        violations.is_empty(),
        "declare the lock with its class instead:\n{}",
        violations.join("\n")
    );
}

/// Every line of `files` containing one of `patterns`, as `file:line: …`.
fn scan(files: &[std::path::PathBuf], patterns: &[&str]) -> Vec<String> {
    let mut violations = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        for (lineno, line) in text.lines().enumerate() {
            for pat in patterns {
                if line.contains(pat) {
                    violations.push(format!(
                        "{}:{}: `{pat}`: {}",
                        path.display(),
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    violations
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable src dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
