//! Source-level guard on the size of the public API: the sorted names of
//! the `pub fn`s inside `impl HStreams` blocks under `src/` are pinned, so
//! a new method — or a second spelling of an existing one — is a
//! deliberate edit of `PINNED` (and of DESIGN.md's API inventory), never a
//! side effect. A second test keeps the methods the end-to-end benchmark
//! in `benchmark/` calls: that crate is frozen, and a rename would break
//! its build.

use std::path::{Path, PathBuf};

/// Every `pub fn` of `HStreams`, sorted.
const PINNED: &[&str] = &[
    "app_dgemm",
    "app_init",
    "app_memcpy",
    "app_memset",
    "buffer_create",
    "buffer_destroy",
    "buffer_instantiate",
    "buffer_len",
    "buffer_read_f64",
    "buffer_write_f64",
    "chaos",
    "chaos_install",
    "charge_source_secs",
    "compact_now",
    "degraded_cards",
    "domains",
    "durability_opts",
    "enqueue_compute",
    "enqueue_cross_wait",
    "enqueue_event_wait",
    "enqueue_many",
    "enqueue_many_opts",
    "enqueue_marker",
    "enqueue_xfer",
    "event_wait",
    "event_wait_any",
    "init",
    "init_remote",
    "init_with_ordering",
    "metrics",
    "mode",
    "now_secs",
    "obs",
    "obs_enable",
    "platform",
    "readmit_remote",
    "recover",
    "register",
    "stats",
    "stream_create",
    "stream_domain",
    "stream_synchronize",
    "take_obs_records",
    "thread_synchronize",
    "wal_checkpoint",
    "wal_stats",
    "xfer_to_sink",
    "xfer_to_source",
];

/// The `HStreams` methods `benchmark/src` calls.
const BENCHMARK_CALLS: &[&str] = &[
    "app_init",
    "buffer_create",
    "buffer_instantiate",
    "buffer_read_f64",
    "buffer_write_f64",
    "domains",
    "durability_opts",
    "enqueue_compute",
    "enqueue_many",
    "enqueue_xfer",
    "event_wait",
    "init",
    "init_remote",
    "metrics",
    "obs_enable",
    "register",
    "stream_domain",
    "stream_synchronize",
    "take_obs_records",
    "thread_synchronize",
    "wal_stats",
    "xfer_to_sink",
    "xfer_to_source",
];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read src dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The names of the `pub fn`s declared inside `impl HStreams` blocks (an
/// `impl HStreams` line opens a block, the next `}` in column 0 closes
/// it; methods sit at one indent), sorted, and how many blocks there are.
fn public_methods() -> (Vec<String>, usize) {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    collect_rs(&src, &mut files);
    let (mut names, mut blocks) = (Vec::new(), 0);
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let mut inside = false;
        for line in text.lines() {
            if line.starts_with("impl HStreams ") {
                inside = true;
                blocks += 1;
            } else if inside && line.starts_with('}') {
                inside = false;
            } else if let Some(rest) = line.strip_prefix("    pub fn ").filter(|_| inside) {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                names.push(name);
            }
        }
    }
    names.sort();
    (names, blocks)
}

#[test]
fn hstreams_public_methods_are_pinned() {
    let (names, blocks) = public_methods();
    assert!(
        blocks >= 2,
        "source scan found {blocks} impl blocks — wrong directory?"
    );
    let pinned: Vec<String> = PINNED.iter().map(|s| s.to_string()).collect();
    let added: Vec<&String> = names.iter().filter(|n| !pinned.contains(n)).collect();
    let removed: Vec<&String> = pinned.iter().filter(|n| !names.contains(n)).collect();
    assert!(
        added.is_empty() && removed.is_empty() && names.len() == PINNED.len(),
        "HStreams' public methods moved: added {added:?}, removed {removed:?} \
         ({} now, {} pinned). A new method or a second spelling of an old \
         one is a deliberate edit of PINNED and of DESIGN.md's API inventory.",
        names.len(),
        PINNED.len()
    );
}

#[test]
fn the_benchmark_calls_are_public() {
    let (names, _) = public_methods();
    let missing: Vec<&&str> = BENCHMARK_CALLS
        .iter()
        .filter(|m| !names.iter().any(|n| n == *m))
        .collect();
    assert!(
        missing.is_empty(),
        "benchmark/ calls {missing:?}, which HStreams no longer has"
    );
}
