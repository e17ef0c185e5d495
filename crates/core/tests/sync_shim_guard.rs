//! Source-level guard: every sync primitive in `hstreams-core` must come
//! through the `crate::sync` facade, which swaps in `loom`'s model-checked
//! types under `cfg(loom)`. A direct `std::sync::atomic` or `parking_lot`
//! use anywhere else would silently escape the loom models — the code
//! would still compile and pass, but its interleavings would never be
//! explored. This test greps the crate's sources and fails on any bypass.
//!
//! Allowed exceptions:
//! * `src/sync.rs` — the facade itself re-exports the real primitives.
//! * `std::sync::Mutex` in `src/lockorder.rs` — observer infrastructure
//!   documented as deliberately *not* part of the protocol under
//!   verification (it must not add schedule points to the models). The
//!   atomic it uses still comes from `crate::sync`.
//!
//! A second pattern list keeps per-thread id state out of `src/events.rs`.

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
    let violations = scan(&files, FORBIDDEN);
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
