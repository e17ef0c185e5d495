//! Source-level guard on the size of the public API: the sorted names of
//! the `pub fn`s inside `impl HStreams` blocks under `src/` are pinned, so
//! a new method — or a second spelling of an existing one — is a
//! deliberate edit of `PINNED` (and of DESIGN.md's API inventory), never a
//! side effect. The hidden `testing` module's functions are pinned the
//! same way, so the test back door cannot grow into a second API. Two more
//! tests keep what the end-to-end benchmark in
//! `benchmark/` reads: the methods it calls (that crate is frozen, and a
//! rename would break its build) and the `metrics()` rows its ledger
//! copies (a missing row would read as 0 there, silently).

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, CostHint, CpuMask, DomainId, ExecMode, HStreams, Operand, TaskCtx,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every `pub fn` of `HStreams`, sorted.
const PINNED: &[&str] = &[
    "app_init",
    "buffer_create",
    "buffer_destroy",
    "buffer_instantiate",
    "buffer_read_f64",
    "buffer_write_f64",
    "chaos_install",
    "charge_source_secs",
    "domains",
    "durability_opts",
    "enqueue_compute",
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
    "obs_enable",
    "platform",
    "readmit_remote",
    "recover",
    "register",
    "stream_create",
    "stream_domain",
    "stream_synchronize",
    "take_obs_records",
    "thread_synchronize",
    "wal_stats",
    "xfer_to_sink",
    "xfer_to_source",
];

/// Every `pub` item of `hstreams_core::testing` (`src/testing.rs`), all of
/// them functions.
const TESTING_PINNED: &[&str] = &["compact_now", "wal_checkpoint"];

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

/// The `metrics()` rows `benchmark/src` reads from a traced thread-mode run
/// on one in-process card with durability on (`link.c1.*`, read only on a
/// remote card, is covered by `tests/remote_transport.rs`).
const BENCHMARK_METRICS: &[&str] = &[
    "events.reserved",
    "events.live",
    "events.id_block.mints",
    "frontend.stream_lock.contended",
    "deps.redundant",
    "wal.appended_bytes",
    "wal.records",
    "wal.flushes",
    "wal.fsync_us",
    "dma.c1.h2d.bytes",
    "dma.c1.h2d.ops",
    "dma.c1.h2d.utilization",
    "dma.c1.d2h.bytes",
    "dma.c1.d2h.ops",
    "dma.c1.d2h.utilization",
    "wg.regions",
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
fn the_testing_hooks_are_pinned() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/testing.rs");
    let text = std::fs::read_to_string(&path).expect("read src/testing.rs");
    let items: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("pub"))
        .map(|l| {
            let name = l
                .strip_prefix("pub fn ")
                .unwrap_or_else(|| panic!("hstreams_core::testing holds functions only: {l:?}"));
            name.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or_default()
        })
        .collect();
    assert_eq!(
        items, TESTING_PINNED,
        "hstreams_core::testing moved: a new hook is a deliberate edit of \
         TESTING_PINNED, and a hook a product path needs belongs on HStreams"
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

#[test]
fn the_benchmark_metrics_are_emitted() {
    let root = std::env::temp_dir().join(format!("hs-api-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.durability_opts(&root, true, 25).expect("durability on");
    hs.obs_enable(true);
    hs.register(
        "inc",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x += 1.0;
            }
        }),
    );
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(2))
        .expect("stream");
    let b = hs.buffer_create(8 * 64, BufProps::default());
    hs.buffer_instantiate(b, DomainId(1)).expect("inst");
    hs.buffer_write_f64(b, 0, &[1.0; 64]).expect("init");
    hs.xfer_to_sink(s, b, 0..8 * 64).expect("h2d");
    hs.enqueue_compute(
        s,
        "inc",
        Bytes::new(),
        &[Operand::f64s(b, 0, 64, Access::InOut)],
        CostHint::trivial(),
    )
    .expect("compute");
    let done = hs.xfer_to_source(s, b, 0..8 * 64).expect("d2h");
    hs.event_wait(done).expect("wait");
    let rows = hs.metrics().rows();
    let _ = hs.take_obs_records();
    drop(hs);
    let _ = std::fs::remove_dir_all(&root);
    let missing: Vec<&&str> = BENCHMARK_METRICS
        .iter()
        .filter(|m| !rows.iter().any(|(n, _)| n == *m))
        .collect();
    assert!(
        missing.is_empty(),
        "benchmark/ reads {missing:?}, which metrics() no longer emits: {rows:?}"
    );
}
