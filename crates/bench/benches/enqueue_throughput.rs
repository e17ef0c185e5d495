//! Source-endpoint throughput: how many actions per second the front-end
//! can enqueue, single-threaded and from N concurrent source threads
//! driving disjoint streams, one action per call (`config: "single"`) and
//! 64 per `enqueue_many` call (`config: "batch"`) — one enqueue path, two
//! call shapes.
//!
//! Writes `BENCH_enqueue.json` at the workspace root. Every row carries
//! `host_cores`, the revision measured and, next to the rate, contention
//! evidence: `frontend.stream_lock.contended`, `deps.redundant`, and
//! `allocs_per_action` — heap allocations on every thread of the process
//! per enqueued action, counted (by a counting global allocator) over a
//! second, untimed pass of the same drive — and `worker_wakes_per_action` /
//! `worker_parks_per_action`, the worker pool's `workers.wakes` and
//! `workers.parks` over the timed pass per action. The `pre_pr` rows are
//! the parent commit measured with its own copy of this file.
//! A row with more source threads than the host has cores is omitted, with
//! the reason printed: it would measure the scheduler. The `wal_on` row
//! repeats the single-thread drive with durable logging enabled and gates
//! the append overhead (<10% on full-length runs; `overhead_us` is the same
//! measurement in microseconds per action, recorded beside it).
//!
//! Env knobs:
//! * `HS_BENCH_SMOKE=1` shrinks the run for CI;
//! * `HS_BENCH_CHECK=1` compares the measured single-thread rate against
//!   the committed artifact and fails loudly on a >20% regression, and
//!   fails when `allocs_per_action` of either single-thread row exceeds the
//!   committed count (a count, so it gates on any runner);
//! * `HS_BENCH_SCALE_GATE=1` enforces the scaling acceptance gate:
//!   aggregate throughput non-decreasing from 1→2 source threads when the
//!   host has ≥2 cores; on a 1-core runner the gate is skipped with a
//!   notice.

// Shared with `crates/core/tests/alloc_budget.rs`, which also uses the
// per-thread split and the free counts.
#[allow(dead_code)]
#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use hs_bench::{f, git_rev, write_bench_json, JsonRecord, Table};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BatchAction, BufProps, CostHint, CpuMask, DomainId, ExecMode, HStreams, Operand,
    OrderingMode, StreamId,
};
use std::sync::Arc;

#[global_allocator]
static ALLOC: counting_alloc::Counting = counting_alloc::Counting;

const STREAMS_PER_THREAD: usize = 2;
const BUFS_PER_STREAM: usize = 8;
const SYNC_EVERY: usize = 512;
const BATCH: usize = 64;

fn runtime(ordering: OrderingMode) -> HStreams {
    let hs = HStreams::init_with_ordering(
        PlatformCfg::hetero(Device::Hsw, 1),
        ExecMode::Threads,
        ordering,
    );
    hs.register("nop", Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {}));
    hs
}

struct Lane {
    stream: StreamId,
    bufs: Vec<hstreams_core::BufferId>,
}

fn make_lanes(hs: &HStreams, n: usize) -> Vec<Lane> {
    (0..n)
        .map(|_| {
            let stream = hs
                .stream_create(DomainId::HOST, CpuMask::first(1))
                .expect("stream");
            let bufs = (0..BUFS_PER_STREAM)
                .map(|_| hs.buffer_create(4096, BufProps::default()))
                .collect();
            Lane { stream, bufs }
        })
        .collect()
}

/// Enqueue `actions` trivial computes on the lane's stream, operands
/// rotating over its buffers (realistic dependence-window work), syncing
/// every `SYNC_EVERY` to bound the pending window.
fn drive(hs: &HStreams, lane: &Lane, actions: usize) {
    for i in 0..actions {
        let buf = lane.bufs[i % BUFS_PER_STREAM];
        hs.enqueue_compute(
            lane.stream,
            "nop",
            Bytes::new(),
            &[Operand::new(buf, 0..4096, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("enqueue");
        if (i + 1) % SYNC_EVERY == 0 {
            hs.stream_synchronize(lane.stream).expect("sync");
        }
    }
    hs.stream_synchronize(lane.stream).expect("sync");
}

/// Like [`drive`], but through `enqueue_many` in chunks of [`BATCH`]: one
/// window lock, one executor hand-off, one publish pass per chunk.
fn drive_batched(hs: &HStreams, lane: &Lane, actions: usize) {
    let mut chunk: Vec<BatchAction> = Vec::with_capacity(BATCH);
    for i in 0..actions {
        let buf = lane.bufs[i % BUFS_PER_STREAM];
        chunk.push(BatchAction::Compute {
            func: "nop".into(),
            args: Bytes::new(),
            operands: vec![Operand::new(buf, 0..4096, Access::InOut)],
            cost: CostHint::trivial(),
        });
        let boundary = (i + 1) % SYNC_EVERY == 0;
        if chunk.len() == BATCH || boundary {
            hs.enqueue_many(lane.stream, std::mem::take(&mut chunk))
                .expect("batch");
        }
        if boundary {
            hs.stream_synchronize(lane.stream).expect("sync");
        }
    }
    if !chunk.is_empty() {
        hs.enqueue_many(lane.stream, chunk).expect("batch");
    }
    hs.stream_synchronize(lane.stream).expect("sync");
}

/// Contention evidence for one measurement, pulled from the runtime's
/// metrics after the run (counters cover the runtime's whole lifetime,
/// warmup included — the ratios are what matter).
#[derive(Clone, Copy)]
struct Evidence {
    lock_contended: f64,
    deps_redundant: f64,
    /// Heap allocations per action, summed over every thread.
    allocs_per_action: f64,
    /// Worker-pool notifies per action over the timed pass.
    wakes_per_action: f64,
    /// Worker parks per action over the timed pass.
    parks_per_action: f64,
    wal_flushes: f64,
    wal_fsyncs: f64,
    wal_fsync_batched: f64,
}

/// The `metrics()` rows named `keys`, 0 for a row that is absent.
fn rows<const N: usize>(hs: &HStreams, keys: [&str; N]) -> [f64; N] {
    let rows = hs.metrics().rows();
    keys.map(|key| {
        rows.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    })
}

const WORKER_ROWS: [&str; 2] = ["workers.wakes", "workers.parks"];

fn evidence(hs: &HStreams, allocs_per_action: f64, workers_per_action: [f64; 2]) -> Evidence {
    let [lock_contended, deps_redundant] =
        rows(hs, ["frontend.stream_lock.contended", "deps.redundant"]);
    let wal = hs.wal_stats();
    Evidence {
        lock_contended,
        deps_redundant,
        allocs_per_action,
        wakes_per_action: workers_per_action[0],
        parks_per_action: workers_per_action[1],
        wal_flushes: wal.as_ref().map_or(0.0, |s| s.flushes as f64),
        wal_fsyncs: wal.as_ref().map_or(0.0, |s| s.fsyncs as f64),
        wal_fsync_batched: wal.as_ref().map_or(0.0, |s| s.fsync_batched as f64),
    }
}

/// Durability flavor for one measurement: page-cache only (`fsync:
/// false`, the `wal_on` row) or media-durable with a group-commit window
/// (the `wal_fsync` row).
struct WalCfg<'a> {
    root: &'a std::path::Path,
    fsync: bool,
    batch_ms: u64,
}

/// One measurement: `threads` source threads, each driving its own lanes
/// on one shared runtime. Returns (aggregate actions/sec, evidence).
fn measure(
    threads: usize,
    actions_per_thread: usize,
    ordering: OrderingMode,
    batched: bool,
    wal: Option<WalCfg>,
) -> (f64, Evidence) {
    let hs = runtime(ordering);
    if let Some(w) = &wal {
        if w.fsync {
            hs.durability_opts(w.root, true, w.batch_ms)
                .expect("durability on");
        } else {
            hs.durability_opts(w.root, false, 0).expect("durability on");
        }
    }
    let lanes: Vec<Vec<Lane>> = (0..threads)
        .map(|_| make_lanes(&hs, STREAMS_PER_THREAD))
        .collect();
    let go = if batched { drive_batched } else { drive };
    // Warm the sink pipelines so spawn cost stays out of the measurement.
    for tl in &lanes {
        for lane in tl {
            go(&hs, lane, SYNC_EVERY.min(actions_per_thread));
        }
    }
    let total = threads * actions_per_thread;
    let pass = || {
        if threads == 1 {
            let per_lane = actions_per_thread / STREAMS_PER_THREAD;
            for lane in &lanes[0] {
                go(&hs, lane, per_lane);
            }
        } else {
            std::thread::scope(|scope| {
                for tl in &lanes {
                    let hs = hs.clone();
                    scope.spawn(move || {
                        let per_lane = actions_per_thread / STREAMS_PER_THREAD;
                        for lane in tl {
                            go(&hs, lane, per_lane);
                        }
                    });
                }
            });
        }
    };
    let workers_before = rows(&hs, WORKER_ROWS);
    let start = std::time::Instant::now();
    pass();
    let rate = total as f64 / start.elapsed().as_secs_f64();
    let workers_after = rows(&hs, WORKER_ROWS);
    let workers = std::array::from_fn(|i| (workers_after[i] - workers_before[i]) / total as f64);
    // Counted apart from the timed pass: the counters are shared atomics.
    let (driver, others) = counting_alloc::counted(pass);
    let allocs = (driver.allocs + others.allocs) as f64 / total as f64;
    (rate, evidence(&hs, allocs, workers))
}

/// The `name` of an out-of-order row driven by `threads` source threads.
fn row_name(threads: usize) -> String {
    if threads == 1 {
        "single_thread".to_string()
    } else {
        format!("threads_{threads}")
    }
}

fn ordering_tag(o: OrderingMode) -> &'static str {
    match o {
        OrderingMode::OutOfOrder => "ooo",
        OrderingMode::StrictFifo => "fifo",
    }
}

/// The parent commit, measured with its own copy of this file (the same
/// drive) on the host that recorded the committed artifact — the medians
/// of ten runs alternated with the change's: (config, source threads,
/// actions/s, allocations per action, redundant dependence probes) of its
/// out-of-order rows.
const PRE_PR_REV: &str = "b1bab83";
const PRE_PR_CORES: f64 = 2.0;
const PRE_PR: [(&str, usize, f64, f64, f64); 4] = [
    ("single", 1, 368_500.0, 4.132, 112_900.0),
    ("single", 2, 393_600.0, 4.071, 34_150.0),
    ("batch", 1, 572_100.0, 5.142, 13_280.0),
    ("batch", 2, 567_200.0, 5.142, 3_440.0),
];

/// Parse `"key": value` out of our own hand-written bench JSON (the
/// workspace has no serde_json; the format is fixed by write_bench_json).
fn json_value(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = row.find(&pat)? + pat.len();
    let rest = &row[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_enqueue.json");

/// The committed row of the current code for `config`'s single-thread,
/// out-of-order drive.
fn committed_row<'a>(committed: &'a str, config: &str) -> &'a str {
    let tag = format!("\"config\": \"{config}\"");
    committed
        .lines()
        .find(|l| {
            l.contains("\"name\": \"single_thread\"")
                && l.contains("\"ordering\": \"ooo\"")
                && l.contains(&tag)
        })
        .unwrap_or_else(|| panic!("committed BENCH_enqueue.json has a single_thread {config} row"))
}

/// `HS_BENCH_CHECK`: the single-enqueue rate against the committed one, and
/// both single-thread rows' allocation counts against theirs.
fn check_regression(measured: f64, allocs: &[(&str, f64)]) {
    let committed = std::fs::read_to_string(ARTIFACT)
        .expect("HS_BENCH_CHECK: committed BENCH_enqueue.json must exist");
    let row = committed_row(&committed, "single");
    let reference = json_value(row, "actions_per_sec").expect("row has actions_per_sec");
    // The committed artifact comes from a full-length run; a smoke run is
    // both shorter (warmup is a larger share) and noisier, so it gets a
    // deeper floor — it still catches order-of-magnitude regressions
    // without flaking on jitter.
    let frac = if std::env::var("HS_BENCH_SMOKE").is_ok() {
        0.5
    } else {
        0.8
    };
    let floor = frac * reference;
    println!(
        "regression check: measured {measured:.0} vs committed {reference:.0} (floor {floor:.0})"
    );
    assert!(
        measured >= floor,
        "single-thread enqueue throughput regressed below {frac:.0}x of the committed \
         rate: {measured:.0} < {floor:.0} actions/sec"
    );
    for &(config, measured) in allocs {
        let row = committed_row(&committed, config);
        let reference = json_value(row, "allocs_per_action").expect("row has allocs_per_action");
        // What an action allocates is a count and repeats on any runner; the
        // slack covers what is amortised (channel blocks, list regrowth) and
        // so moves a little with timing and run length. One more block per
        // action is four times it.
        let cap = reference + ALLOC_SLACK;
        println!(
            "allocation check ({config}): {measured:.3} per action vs committed \
             {reference:.3} (cap {cap:.3})"
        );
        assert!(
            measured <= cap,
            "{config}: {measured:.3} heap allocations per action, committed {reference:.3}"
        );
    }
}

/// Headroom of the allocation gate, in allocations per action.
const ALLOC_SLACK: f64 = 0.25;

/// The concurrency-smoke scaling gate (CI): with ≥2 host cores, aggregate
/// throughput must be non-decreasing from 1→2 source threads; on a 1-core
/// runner parallel sources can only interleave, so the gate is skipped
/// with a notice.
fn scale_gate(cores: usize, rate_1t: f64, rate_2t: Option<f64>) {
    if cores >= 2 {
        let r2 = rate_2t.expect("scale gate needs the 2-thread measurement");
        // 5% measurement-noise allowance on "non-decreasing".
        let floor = 0.95 * rate_1t;
        println!("scale gate: 1T {rate_1t:.0} -> 2T {r2:.0} actions/s (floor {floor:.0})");
        assert!(
            r2 >= floor,
            "aggregate enqueue throughput decreased from 1 to 2 source threads: \
             {r2:.0} < {floor:.0} actions/s"
        );
    } else {
        println!("NOTICE: scale gate skipped — 1-core runner cannot scale source threads");
    }
}

fn main() {
    let smoke = std::env::var("HS_BENCH_SMOKE").is_ok();
    let check = std::env::var("HS_BENCH_CHECK").is_ok();
    let gate = std::env::var("HS_BENCH_SCALE_GATE").is_ok();
    let actions = if smoke { 8 * 1024 } else { 64 * 1024 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = git_rev();

    let mut records = Vec::new();
    let mut table = Table::new(vec![
        "threads",
        "config",
        "ordering",
        "actions/s",
        "vs 1T",
        "contended",
        "allocs/act",
        "wakes/act",
    ]);

    let mut single = 0.0;
    let mut single_allocs = Vec::new();
    let mut single_fifo = 0.0;
    let mut rate_2t = None;
    for (config, batched) in [("single", false), ("batch", true)] {
        for ordering in [OrderingMode::OutOfOrder, OrderingMode::StrictFifo] {
            // FIFO ordering only matters single-threaded (the fifo/ooo gap
            // row); the scaling story is out-of-order.
            let thread_counts: &[usize] = if ordering == OrderingMode::OutOfOrder {
                &[1, 2, 4, 8]
            } else if batched {
                continue;
            } else {
                &[1]
            };
            let mut base = 0.0;
            for &t in thread_counts {
                if smoke && t > 2 {
                    continue;
                }
                if t > cores {
                    println!(
                        "omitted: threads_{t} ({config}) — {t} source threads on a \
                         {cores}-core host would measure the scheduler, not the front-end"
                    );
                    continue;
                }
                let (rate, ev) = measure(t, actions / t.min(4), ordering, batched, None);
                if t == 1 {
                    base = rate;
                    if ordering == OrderingMode::OutOfOrder {
                        single_allocs.push((config, ev.allocs_per_action));
                    }
                    if ordering == OrderingMode::OutOfOrder && !batched {
                        single = rate;
                    }
                    if ordering == OrderingMode::StrictFifo && !batched {
                        single_fifo = rate;
                    }
                }
                if t == 2 && ordering == OrderingMode::OutOfOrder && !batched {
                    rate_2t = Some(rate);
                }
                table.row(vec![
                    format!("{t}"),
                    config.to_string(),
                    ordering_tag(ordering).to_string(),
                    f(rate),
                    format!("{:.2}x", rate / base),
                    format!("{:.0}", ev.lock_contended),
                    format!("{:.2}", ev.allocs_per_action),
                    format!("{:.3}", ev.wakes_per_action),
                ]);
                let name = row_name(t);
                records.push(
                    JsonRecord::new(format!("{name}_{config}"), actions, 0.0)
                        .with_name(name)
                        .with_source_threads(t)
                        .with_ordering(ordering_tag(ordering))
                        .with_config(config)
                        .with_git_rev(rev.clone())
                        .with_metrics(vec![
                            ("actions_per_sec".to_string(), rate),
                            ("host_cores".to_string(), cores as f64),
                            ("stream_lock_contended".to_string(), ev.lock_contended),
                            ("deps_redundant".to_string(), ev.deps_redundant),
                            ("allocs_per_action".to_string(), ev.allocs_per_action),
                            ("worker_wakes_per_action".to_string(), ev.wakes_per_action),
                            ("worker_parks_per_action".to_string(), ev.parks_per_action),
                        ]),
                );
            }
        }
    }
    // The fifo-vs-ooo gap row: strict FIFO skips dependence analysis, so a
    // small edge is structural — but ooo must stay well under the pre-PR
    // ~1.3x gap, which was avoidable index-scan work (since pruned: the
    // two paths now measure equal up to noise). The bound leaves headroom
    // for single-run jitter on small hosts (±10% run-to-run on a 1-core
    // box) while still catching a systematic regression. (Asserted with the
    // other gates, once the artifact is written.)
    let mut fifo_gap = None;
    if single > 0.0 && single_fifo > 0.0 {
        let gap = single_fifo / single;
        fifo_gap = Some(gap);
        records.push(
            JsonRecord::new("fifo_ooo_gap", actions, 0.0)
                .with_source_threads(1)
                .with_config("single")
                .with_git_rev(rev.clone())
                .with_metrics(vec![
                    ("gap".to_string(), gap),
                    ("host_cores".to_string(), cores as f64),
                ]),
        );
        println!("\nfifo/ooo single-thread gap: {gap:.3}x (bound 1.25x)");
    }
    // Durable append overhead: the same single-thread single/ooo drive
    // with the WAL on — every enqueue appends its record, every sync
    // flushes to the page cache. ROADMAP acceptance: <10% off the
    // in-memory rate (relative within this run, so no committed artifact
    // is needed). Measured as *interleaved pairs*, taking the minimum
    // per-pair overhead: shared small hosts jitter ±15% run to run, so any
    // single comparison is noise-dominated — but a structural regression
    // slows every durable run, so it survives the minimum, while a noise
    // burst that lands on one pair does not. The first durable run also
    // pays one-time costs (segment creation, allocator warmup) that later
    // runs don't, which the minimum likewise discounts. Five pairs, not
    // three: measured per-pair overhead on an otherwise-idle 1-core host
    // spans 0–22% (page-cache and scheduler jitter hits the two runs of a
    // pair unequally), so a 3-pair minimum still flakes.
    let wal_root = std::env::temp_dir().join(format!("hs-bench-wal-{}", std::process::id()));
    let mut wal_rate = f64::MIN;
    let mut wal_base = f64::MIN;
    let mut overhead = f64::MAX;
    let mut overhead_us = f64::MAX;
    let mut wal_ev = None;
    for _ in 0..5 {
        let (b, _) = measure(1, actions, OrderingMode::OutOfOrder, false, None);
        let _ = std::fs::remove_dir_all(&wal_root);
        let (w, ev) = measure(
            1,
            actions,
            OrderingMode::OutOfOrder,
            false,
            Some(WalCfg {
                root: &wal_root,
                fsync: false,
                batch_ms: 0,
            }),
        );
        let _ = std::fs::remove_dir_all(&wal_root);
        if std::env::var("HS_BENCH_DEBUG").is_ok() {
            eprintln!(
                "wal_on pair: base {b:.0} wal {w:.0} overhead {:.1}%",
                (b / w - 1.0) * 100.0
            );
        }
        overhead = overhead.min(b / w - 1.0);
        overhead_us = overhead_us.min((1.0 / w - 1.0 / b) * 1e6);
        wal_base = wal_base.max(b);
        if w > wal_rate {
            wal_rate = w;
            wal_ev = Some(ev);
        }
    }
    let wal_ev = wal_ev.expect("three durable pairs ran");
    table.row(vec![
        "1".to_string(),
        "wal_on".to_string(),
        "ooo".to_string(),
        f(wal_rate),
        format!("{:.2}x", wal_rate / wal_base),
        format!("{:.0}", wal_ev.lock_contended),
        format!("{:.2}", wal_ev.allocs_per_action),
        format!("{:.3}", wal_ev.wakes_per_action),
    ]);
    records.push(
        JsonRecord::new("wal_on", actions, 0.0)
            .with_name("wal_on")
            .with_source_threads(1)
            .with_ordering("ooo")
            .with_config("wal_on")
            .with_git_rev(rev.clone())
            .with_metrics(vec![
                ("actions_per_sec".to_string(), wal_rate),
                ("overhead_frac".to_string(), overhead),
                ("overhead_us".to_string(), overhead_us),
                ("host_cores".to_string(), cores as f64),
                ("allocs_per_action".to_string(), wal_ev.allocs_per_action),
                (
                    "worker_wakes_per_action".to_string(),
                    wal_ev.wakes_per_action,
                ),
                (
                    "worker_parks_per_action".to_string(),
                    wal_ev.parks_per_action,
                ),
            ]),
    );
    println!(
        "wal append overhead: {overhead_us:.2} us per action, {:.1}% off the in-memory rate \
         (min of 5 pairs)",
        overhead * 100.0
    );
    // Media durability with group-commit: the same drive with fsync on and
    // a 25 ms batch window. The gate here is structural, not a latency
    // cap (fsync cost varies wildly across filesystems): the window must
    // actually defer syscalls — some flushes batched, and far fewer
    // fsyncs than flushes — or group-commit isn't working.
    let mut fsync_rate = f64::MIN;
    let mut fsync_overhead = f64::MAX;
    let mut fsync_ev = None;
    for _ in 0..3 {
        let (b, _) = measure(1, actions, OrderingMode::OutOfOrder, false, None);
        let _ = std::fs::remove_dir_all(&wal_root);
        let (w, ev) = measure(
            1,
            actions,
            OrderingMode::OutOfOrder,
            false,
            Some(WalCfg {
                root: &wal_root,
                fsync: true,
                batch_ms: 25,
            }),
        );
        let _ = std::fs::remove_dir_all(&wal_root);
        fsync_overhead = fsync_overhead.min(b / w - 1.0);
        if w > fsync_rate {
            fsync_rate = w;
            fsync_ev = Some(ev);
        }
    }
    let fsync_ev = fsync_ev.expect("three fsync pairs ran");
    table.row(vec![
        "1".to_string(),
        "wal_fsync".to_string(),
        "ooo".to_string(),
        f(fsync_rate),
        format!("{:.2}x", fsync_rate / wal_base),
        format!("{:.0}", fsync_ev.lock_contended),
        format!("{:.2}", fsync_ev.allocs_per_action),
        format!("{:.3}", fsync_ev.wakes_per_action),
    ]);
    records.push(
        JsonRecord::new("wal_fsync", actions, 0.0)
            .with_name("wal_fsync")
            .with_source_threads(1)
            .with_ordering("ooo")
            .with_config("wal_fsync")
            .with_git_rev(rev.clone())
            .with_metrics(vec![
                ("actions_per_sec".to_string(), fsync_rate),
                ("overhead_frac".to_string(), fsync_overhead),
                ("batch_ms".to_string(), 25.0),
                ("wal_flushes".to_string(), fsync_ev.wal_flushes),
                ("wal_fsyncs".to_string(), fsync_ev.wal_fsyncs),
                ("wal_fsync_batched".to_string(), fsync_ev.wal_fsync_batched),
                ("host_cores".to_string(), cores as f64),
            ]),
    );
    println!(
        "wal fsync (25ms group-commit): {:.1}% off in-memory; {} flushes -> {} fsyncs \
         ({} deferred)",
        fsync_overhead * 100.0,
        fsync_ev.wal_flushes,
        fsync_ev.wal_fsyncs,
        fsync_ev.wal_fsync_batched
    );
    assert!(
        fsync_ev.wal_fsync_batched > 0.0,
        "group-commit window never deferred an fsync: {} flushes, {} fsyncs",
        fsync_ev.wal_flushes,
        fsync_ev.wal_fsyncs
    );
    assert!(
        fsync_ev.wal_fsyncs < fsync_ev.wal_flushes,
        "group-commit must issue fewer fsyncs than flushes: {} fsyncs vs {} flushes",
        fsync_ev.wal_fsyncs,
        fsync_ev.wal_flushes
    );

    for (config, threads, rate, allocs, redundant) in PRE_PR {
        let name = row_name(threads);
        records.push(
            JsonRecord::new(format!("{name}_{config}_pre_pr"), actions, 0.0)
                .with_name(name)
                .with_source_threads(threads)
                .with_ordering("ooo")
                .with_config(format!("pre_pr/{config}"))
                .with_git_rev(PRE_PR_REV)
                .with_metrics(vec![
                    ("actions_per_sec".to_string(), rate),
                    ("host_cores".to_string(), PRE_PR_CORES),
                    ("deps_redundant".to_string(), redundant),
                    ("allocs_per_action".to_string(), allocs),
                ]),
        );
        table.row(vec![
            format!("{threads} ({PRE_PR_REV})"),
            format!("pre_pr/{config}"),
            "ooo".to_string(),
            f(rate),
            "-".to_string(),
            "-".to_string(),
            format!("{allocs:.2}"),
            "-".to_string(),
        ]);
    }
    table.print("enqueue throughput (thread executor, host streams)");
    if gate {
        scale_gate(cores, single, rate_2t);
    }
    if !check && !smoke {
        // Recorded before the gates below: a row that fails its gate is
        // still the measurement of record, and a run is not picked for the
        // record by having passed them.
        write_bench_json(ARTIFACT, &records);
    }
    if let Some(gap) = fifo_gap {
        assert!(
            gap <= 1.25,
            "single-thread fifo ({single_fifo:.0}/s) outpaces ooo ({single:.0}/s) by \
             {gap:.2}x — the ooo dependence-analysis path has regressed"
        );
    }
    if check || !smoke {
        // Full-length runs (run_benches.sh) and explicit check runs both
        // enforce the durable-append budget.
        let cap = if smoke { 0.30 } else { 0.10 };
        println!(
            "wal overhead gate: {:.1}% (cap {:.0}%)",
            overhead * 100.0,
            cap * 100.0
        );
        assert!(
            overhead <= cap,
            "durable WAL append costs {:.1}% of single-thread enqueue throughput in \
             every measured pair (cap {:.0}%): best {wal_rate:.0} vs {wal_base:.0} actions/sec",
            overhead * 100.0,
            cap * 100.0
        );
    }
    if check {
        check_regression(single, &single_allocs);
    }
}
