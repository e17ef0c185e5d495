//! Source-level guard: a file on the `hs_coi::sync` facade takes every
//! lock, condvar, atomic, thread, yield and clock it uses from
//! `crate::sync`, which `tests/loom_pool.rs` swaps for loom's. A direct use
//! would still compile and pass, but the models would run it as an
//! unexplored (or, for a clock, nondeterministic) black box.

use std::path::{Path, PathBuf};

/// The files `tests/loom_pool.rs` mounts by `#[path]`.
const ON_FACADE: &[&str] = &["workers.rs"];

/// What a file on the facade must not name directly.
const FORBIDDEN: &[&str] = &["parking_lot", "std::sync::atomic", "std::thread", "Instant"];

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn the_mounted_files_use_the_sync_facade_exclusively() {
    let mut violations = Vec::new();
    for file in ON_FACADE {
        let path = root().join("src").join(file);
        for (lineno, line) in read(&path).lines().enumerate() {
            for pat in FORBIDDEN {
                if line.contains(pat) {
                    violations.push(format!(
                        "src/{file}:{}: `{pat}`: {}",
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
        assert!(
            read(&root().join("tests/loom_pool.rs")).contains(&format!("\"../src/{file}\"")),
            "tests/loom_pool.rs no longer mounts src/{file}"
        );
    }
    assert!(
        violations.is_empty(),
        "take these through crate::sync (loom_pool.rs maps it to loom):\n{}",
        violations.join("\n")
    );
}
