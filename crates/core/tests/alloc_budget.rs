//! The §III front-end cost, counted instead of timed: heap allocations per
//! action on a `smallact`-shaped drive, and where the blocks are freed.
//!
//! An action's life is one record (DESIGN.md §13, "An action's life in
//! memory"): the enqueuing thread allocates it, the sink and DMA threads
//! borrow it, and the retire/compaction sweeps free it back on an enqueuing
//! thread. Nothing else about an action touches the heap: its footprint and
//! operand windows are inline, its function is an interned name, and on a
//! durable run its WAL record is encoded into buffers the source thread and
//! the writer reuse. So the budgets are (a) at most 1.2 allocations per
//! action summed over every thread (1.02 as built: the record, a batch's
//! result list, now and then a producer's spilled dependents list; 2.5
//! when the footprint and the name were allocations of their own, 15.3
//! before actions had one record), (b) a batched action no dearer than a
//! single one past its batch's result list, (c) between
//! checkpoints, exactly the same blocks on a durable runtime as on an
//! in-memory one, and (d) executor threads free only what they allocated —
//! a block that crosses threads to die drags its malloc arena's cache lines
//! across cores with it, which is what the per-action overhead was made of.
//!
//! One `#[test]` on purpose: the counters are process-global and libtest
//! runs a file's tests on parallel threads.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BatchAction, BufProps, BufferId, CostHint, DomainId, ExecMode, HStreams, Operand,
    StreamId, TaskCtx,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

#[global_allocator]
static ALLOC: counting_alloc::Counting = counting_alloc::Counting;

const STREAMS: usize = 2; // per domain
const BUFS_PER_STREAM: usize = 8;
const BUF_F64S: usize = 512; // 4 KiB
const BUF_BYTES: usize = BUF_F64S * 8;
const BATCH: usize = 64;
/// Actions between two synchronisations of every stream.
const SYNC_EVERY: usize = 2_048;
const KERNEL: &str = "budget_kernel";
const GATE: &str = "budget_gate";

/// `dst = dst/2 + c (+ src/4)`: order-dependent, like the benchmark's.
fn apply(dst: &mut [f64], src: Option<&[f64]>, c: f64) {
    for (i, d) in dst.iter_mut().enumerate() {
        *d = *d * 0.5 + src.map_or(0.0, |s| s[i] * 0.25) + c;
    }
}

fn kernel(ctx: &mut TaskCtx) {
    let c = f64::from_le_bytes(ctx.args()[..8].try_into().expect("8 argument bytes"));
    if ctx.num_bufs() == 2 {
        let (src, dst) = ctx.buf_f64_pair_mut(0, 1);
        apply(dst, Some(src), c);
    } else {
        apply(ctx.buf_f64_mut(0), None, c);
    }
}

/// One task, with everything the enqueue call needs built beforehand: the
/// budget is the runtime's, not the driver's.
struct Task {
    stream: usize,
    dst: usize,
    src: Option<usize>,
    c: f64,
    args: Bytes,
    operands: Vec<Operand>,
}

impl Task {
    fn on_card(&self) -> bool {
        self.stream >= STREAMS
    }

    fn actions(&self) -> usize {
        if self.on_card() {
            3
        } else {
            1
        }
    }
}

struct Rig {
    hs: HStreams,
    streams: Vec<StreamId>,
    bufs: Vec<Vec<BufferId>>,
    /// A stream's gate operands: all of its buffers, written.
    gates: Vec<Vec<Operand>>,
    card: DomainId,
}

/// The runtime, streams and resident buffers; with `durable`, every action
/// is logged to a WAL under that root (no fault plan: no replay mirror).
fn rig(durable: Option<&Path>) -> Rig {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    if let Some(root) = durable {
        hs.durability_opts(root, false, 0).expect("durable log");
    }
    hs.register(KERNEL, Arc::new(kernel));
    hs.register(GATE, Arc::new(gate));
    let card = hs.domains()[1].id;
    let streams = hs
        .app_init(&[(DomainId::HOST, STREAMS), (card, STREAMS)])
        .expect("streams");
    let mut bufs = Vec::new();
    for (i, s) in streams.iter().enumerate() {
        let mut row = Vec::new();
        for b in 0..BUFS_PER_STREAM {
            let id = hs.buffer_create(BUF_BYTES, BufProps::default());
            let init = vec![(i * BUFS_PER_STREAM + b) as f64; BUF_F64S];
            hs.buffer_write_f64(id, 0, &init).expect("fill");
            if i >= STREAMS {
                hs.buffer_instantiate(id, card).expect("instantiate");
                hs.xfer_to_sink(*s, id, 0..BUF_BYTES).expect("resident");
            }
            row.push(id);
        }
        bufs.push(row);
    }
    hs.thread_synchronize().expect("fixtures settle");
    let gates = bufs
        .iter()
        .map(|row| {
            row.iter()
                .map(|b| Operand::f64s(*b, 0, BUF_F64S, Access::InOut))
                .collect()
        })
        .collect();
    Rig {
        hs,
        streams,
        bufs,
        gates,
        card,
    }
}

/// Tasks round-robin over the four streams until `actions` are planned
/// (xorshift draws: which buffer, whether a second one is read, the constant).
fn plan(rig: &Rig, actions: usize, mut seed: u64) -> Vec<Task> {
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut tasks = Vec::new();
    let mut planned = 0;
    while planned < actions {
        let stream = tasks.len() % (2 * STREAMS);
        let dst = (next() % BUFS_PER_STREAM as u64) as usize;
        let src = (next() % 2 == 0).then(|| {
            (dst + 1 + (next() % (BUFS_PER_STREAM as u64 - 1)) as usize) % BUFS_PER_STREAM
        });
        let c = (next() % 1000) as f64 / 1000.0;
        let row = &rig.bufs[stream];
        let operands = src
            .map(|s| Operand::f64s(row[s], 0, BUF_F64S, Access::In))
            .into_iter()
            .chain([Operand::f64s(row[dst], 0, BUF_F64S, Access::InOut)])
            .collect();
        let t = Task {
            stream,
            dst,
            src,
            c,
            args: Bytes::copy_from_slice(&c.to_le_bytes()),
            operands,
        };
        planned += t.actions();
        tasks.push(t);
    }
    tasks
}

/// The drive, one call at a time.
enum Step {
    /// Enqueue task `i` one call per action.
    Single(usize),
    /// One `enqueue_many` call on a stream.
    Batch(usize, Vec<BatchAction>),
    /// Hold a stream until [`Step::Open`] opens this generation.
    Gate(usize, u64),
    Open(u64),
    Sync(usize),
}

/// The last gate generation handed out; gates of a generation wait until
/// [`OPENED`] reaches it.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static OPENED: (Mutex<u64>, Condvar) = (Mutex::new(0), Condvar::new());

/// The gate kernel: returns once its generation is opened.
fn gate(ctx: &mut TaskCtx) {
    let generation = u64::from_le_bytes(ctx.args()[..8].try_into().expect("8 argument bytes"));
    let (opened, cv) = &OPENED;
    let mut now = opened.lock().expect("gate lock");
    while *now < generation {
        now = cv.wait(now).expect("gate lock");
    }
}

/// Lay the whole drive out beforehand: single calls up to task
/// `batched_from`, batches of [`BATCH`] from there on, every stream
/// synchronised each [`SYNC_EVERY`] actions. `gated` puts a gate at the
/// head of every stream for each of those stretches, written over all of
/// the stream's buffers so every action of the stretch orders after it, and
/// opens them once the stretch is enqueued: nothing completes while a
/// stretch is enqueued, so each action finds the same pending window
/// whatever the threads' timing and however it is enqueued.
fn script(rig: &Rig, tasks: &[Task], batched_from: usize, gated: bool) -> Vec<Step> {
    let n = rig.streams.len();
    let mut steps = Vec::new();
    let mut pending: Vec<Vec<BatchAction>> = (0..n).map(|_| Vec::new()).collect();
    let mut since_sync = 0;
    let mut generation = None;
    let flush = |steps: &mut Vec<Step>, pending: &mut Vec<Vec<BatchAction>>, s: usize| {
        if !pending[s].is_empty() {
            let batch = std::mem::replace(&mut pending[s], Vec::with_capacity(BATCH));
            steps.push(Step::Batch(s, batch));
        }
    };
    let close = |steps: &mut Vec<Step>, pending: &mut Vec<Vec<BatchAction>>, g: Option<u64>| {
        for s in 0..n {
            flush(steps, pending, s);
        }
        steps.extend(g.map(Step::Open));
    };
    for (i, t) in tasks.iter().enumerate() {
        let s = t.stream;
        if gated && generation.is_none() {
            let g = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
            steps.extend((0..n).map(|s| Step::Gate(s, g)));
            generation = Some(g);
        }
        if i < batched_from {
            steps.push(Step::Single(i));
        } else {
            let xfer = |from, to| BatchAction::Xfer {
                buf: rig.bufs[s][t.dst],
                range: 0..BUF_BYTES,
                from,
                to,
            };
            let compute = BatchAction::Compute {
                func: KERNEL.to_string(),
                args: t.args.clone(),
                operands: t.operands.clone(),
                cost: CostHint::trivial(),
            };
            let actions = if t.on_card() {
                vec![
                    xfer(DomainId::HOST, rig.card),
                    compute,
                    xfer(rig.card, DomainId::HOST),
                ]
            } else {
                vec![compute]
            };
            for a in actions {
                pending[s].push(a);
                if pending[s].len() == BATCH {
                    flush(&mut steps, &mut pending, s);
                }
            }
        }
        since_sync += t.actions();
        if since_sync >= SYNC_EVERY {
            since_sync = 0;
            close(&mut steps, &mut pending, generation.take());
            steps.extend((0..n).map(Step::Sync));
        }
    }
    close(&mut steps, &mut pending, generation.take());
    steps
}

fn drive(rig: &Rig, tasks: &[Task], steps: Vec<Step>) {
    let hs = &rig.hs;
    for step in steps {
        match step {
            Step::Single(i) => {
                let t = &tasks[i];
                let (sid, dst) = (rig.streams[t.stream], rig.bufs[t.stream][t.dst]);
                if t.on_card() {
                    hs.enqueue_xfer(sid, dst, 0..BUF_BYTES, DomainId::HOST, rig.card)
                        .expect("h2d");
                }
                hs.enqueue_compute(
                    sid,
                    KERNEL,
                    t.args.clone(),
                    &t.operands,
                    CostHint::trivial(),
                )
                .expect("compute");
                if t.on_card() {
                    hs.enqueue_xfer(sid, dst, 0..BUF_BYTES, rig.card, DomainId::HOST)
                        .expect("d2h");
                }
            }
            Step::Batch(s, batch) => {
                hs.enqueue_many(rig.streams[s], batch).expect("batch");
            }
            Step::Gate(s, generation) => {
                hs.enqueue_compute(
                    rig.streams[s],
                    GATE,
                    Bytes::copy_from_slice(&generation.to_le_bytes()),
                    &rig.gates[s],
                    CostHint::trivial(),
                )
                .expect("gate");
            }
            Step::Open(generation) => {
                let (opened, cv) = &OPENED;
                *opened.lock().expect("gate lock") = generation;
                cv.notify_all();
            }
            Step::Sync(s) => hs.stream_synchronize(rig.streams[s]).expect("sync"),
        }
    }
    hs.thread_synchronize().expect("drive settles");
}

/// What one leg of the drive cost the allocator.
struct Leg {
    /// Per action, half the tasks one call per action and half in batches.
    mixed: f64,
    /// Blocks of the cheapest of [`REPEATS`] gated drives of every task one
    /// call per action, then of every task in batches.
    single: u64,
    batched: u64,
    /// The all-batched drive's `enqueue_many` calls: each returns its
    /// events in one list.
    batches: u64,
}

/// How many times each shape is driven, gated, for [`Leg::single`] and
/// [`Leg::batched`]. The gates fix every pending window, but what runs once
/// a stretch opens is still timing: in about one batched drive in thirty a
/// high-water list (a worker queue, the executor's in-flight list) grows
/// one block more. Such blocks only ever add, so the cheapest drive of a
/// few is the cost of the actions themselves.
const REPEATS: usize = 4;

/// Warm `rig` up, count its drives, and check that they computed what the
/// sequential oracle computes.
fn measure(rig: &Rig, leg: &str) -> Leg {
    // Warm-up: the event table's first segment, channel blocks, window
    // buckets, the scratch lists and the allocator's own per-thread caches
    // exist before anything is counted — in every shape of drive.
    let warm = plan(rig, 2_048, 7);
    let shapes = [(warm.len() / 2, false), (warm.len(), true), (0, true)];
    for (batched_from, gated) in shapes {
        let steps = script(rig, &warm, batched_from, gated);
        drive(rig, &warm, steps);
    }

    let tasks = plan(rig, 8_192, 11);
    let planned: usize = tasks.iter().map(Task::actions).sum();
    // The sink pipelines, the DMA workers and the timer wheel are the
    // "other" threads: the executors.
    let count = |batched_from: usize, gated: bool| {
        let steps = script(rig, &tasks, batched_from, gated);
        counting_alloc::counted(|| drive(rig, &tasks, steps))
    };
    let (driver, executors) = count(tasks.len() / 2, false);
    let mut drives = 1;

    let per = |n: u64| n as f64 / planned as f64;
    let mixed = per(driver.allocs + executors.allocs);
    let drift = per(executors.frees.abs_diff(executors.allocs));
    println!(
        "alloc_budget[{leg}]: {planned} actions; allocations/action {mixed:.2} \
         (driver {:.2}, executors {:.2}); frees/action driver {:.2}, executors {:.2}; \
         executor |frees - allocs|/action {drift:.3}",
        per(driver.allocs),
        per(executors.allocs),
        per(driver.frees),
        per(executors.frees),
    );
    assert!(
        drift <= 0.5,
        "{leg}: executor threads freed {} blocks but allocated {}: {drift:.3} per action \
         cross threads to die (budget 0.5)",
        executors.frees,
        executors.allocs
    );

    // A drive starts just after a checkpoint and logs less than the
    // megabyte the next one waits for, so none falls inside a durable
    // drive: a checkpoint snapshots every buffer once per megabyte of log,
    // not once per action, and its blocks are counted here on their own.
    // (In memory it is the compaction sweep alone.)
    let mut checkpoint = 0;
    let mut cheapest = |batched_from: usize| {
        (0..REPEATS)
            .map(|_| {
                let (d, e) =
                    counting_alloc::counted(|| hstreams_core::testing::wal_checkpoint(&rig.hs));
                checkpoint = d.allocs + e.allocs;
                drives += 1;
                let (d, e) = count(batched_from, true);
                d.allocs + e.allocs
            })
            .min()
            .expect("REPEATS > 0")
    };
    let single = cheapest(tasks.len());
    let batched = cheapest(0);
    let batches = script(rig, &tasks, 0, true)
        .iter()
        .filter(|step| matches!(step, Step::Batch(..)))
        .count() as u64;
    println!(
        "alloc_budget[{leg}]: cheapest of {REPEATS} gated drives: single {single} blocks, \
         batched {batched} ({batches} of them the batches' result lists), \
         {planned} actions; a checkpoint {checkpoint} blocks"
    );

    // The drive did what it says: every action ran, and ran in FIFO-equivalent
    // order (streams own their buffers, so per-stream order fixes the result).
    let mut expect: Vec<Vec<Vec<f64>>> = (0..2 * STREAMS)
        .map(|i| {
            (0..BUFS_PER_STREAM)
                .map(|b| vec![(i * BUFS_PER_STREAM + b) as f64; BUF_F64S])
                .collect()
        })
        .collect();
    for t in warm
        .iter()
        .cycle()
        .take(shapes.len() * warm.len())
        .chain(tasks.iter().cycle().take(drives * tasks.len()))
    {
        let row = &mut expect[t.stream];
        let src = t.src.map(|s| row[s].clone());
        apply(&mut row[t.dst], src.as_deref(), t.c);
    }
    let mut got = vec![0.0; BUF_F64S];
    for (row, want) in rig.bufs.iter().zip(&expect) {
        for (buf, want) in row.iter().zip(want) {
            rig.hs
                .buffer_read_f64(*buf, 0, &mut got)
                .expect("read back");
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "{leg}: buffer {buf:?} differs from the sequential oracle"
            );
        }
    }
    Leg {
        mixed,
        single,
        batched,
        batches,
    }
}

#[test]
fn an_actions_life_is_a_handful_of_allocations_freed_where_they_were_made() {
    counting_alloc::mark_driver();
    let memory = measure(&rig(None), "memory");
    let root = std::env::temp_dir().join(format!("hs-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let durable = measure(&rig(Some(&root)), "durable");
    let _ = std::fs::remove_dir_all(&root);

    for (leg, l) in [("memory", &memory), ("durable", &durable)] {
        assert!(
            l.mixed <= 1.2,
            "{leg}: {:.2} allocations per action over all threads (budget 1.2)",
            l.mixed
        );
        // One enqueue path: the same tasks one call per action, then all in
        // batches. A batch pays for its lists once, so an action in one
        // costs the allocator no more than an action enqueued alone. The
        // list `enqueue_many` returns its events in is the caller's, one
        // per call, counted exactly and left out.
        assert!(
            l.batched - l.batches <= l.single,
            "{leg}: {} blocks for the batched drive past its {} result lists, \
             {} for the single one",
            l.batched - l.batches,
            l.batches,
            l.single
        );
    }
    // The WAL record is encoded from the built action into buffers the
    // source thread and the writer reuse, so logging an action costs the
    // allocator nothing: between checkpoints a durable drive makes exactly
    // the blocks an in-memory one does.
    assert_eq!(
        (durable.single, durable.batched),
        (memory.single, memory.batched),
        "blocks of the (single, batched) drives: durable, in memory"
    );
}
