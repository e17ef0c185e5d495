//! The §III front-end cost, counted instead of timed: heap allocations per
//! action on a `smallact`-shaped drive, and where the blocks are freed.
//!
//! An action's life is one record (DESIGN.md §13, "An action's life in
//! memory"): the enqueuing thread allocates it, the sink and DMA threads
//! borrow it, and the retire/compaction sweeps free it back on an enqueuing
//! thread. So the budgets are (a) a handful of allocations per action summed
//! over every thread, and (b) executor threads free only what they
//! allocated — a block that crosses threads to die drags its malloc arena's
//! cache lines across cores with it, which is what the per-action overhead
//! was made of.
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
use std::sync::Arc;

#[global_allocator]
static ALLOC: counting_alloc::Counting = counting_alloc::Counting;

const STREAMS: usize = 2; // per domain
const BUFS_PER_STREAM: usize = 8;
const BUF_F64S: usize = 512; // 4 KiB
const BUF_BYTES: usize = BUF_F64S * 8;
const BATCH: usize = 64;
const SYNC_EVERY: usize = 512;
const KERNEL: &str = "budget_kernel";

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
    card: DomainId,
}

fn rig() -> Rig {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.register(KERNEL, Arc::new(kernel));
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
    Rig {
        hs,
        streams,
        bufs,
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

/// The batched half's `enqueue_many` arguments, per flush, in drive order.
enum Step {
    /// Enqueue task `i` one call per action.
    Single(usize),
    Batch(usize, Vec<BatchAction>),
    Sync(usize),
}

/// Lay the whole drive out beforehand: single calls up to task
/// `batched_from`, batches of [`BATCH`] from there on, a stream synchronise
/// every [`SYNC_EVERY`] actions.
fn script(rig: &Rig, tasks: &[Task], batched_from: usize) -> Vec<Step> {
    let n = rig.streams.len();
    let mut steps = Vec::new();
    let mut pending: Vec<Vec<BatchAction>> = (0..n).map(|_| Vec::new()).collect();
    let mut since_sync = vec![0usize; n];
    let flush = |steps: &mut Vec<Step>, pending: &mut Vec<Vec<BatchAction>>, s: usize| {
        if !pending[s].is_empty() {
            let batch = std::mem::replace(&mut pending[s], Vec::with_capacity(BATCH));
            steps.push(Step::Batch(s, batch));
        }
    };
    for (i, t) in tasks.iter().enumerate() {
        let s = t.stream;
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
        since_sync[s] += t.actions();
        if since_sync[s] >= SYNC_EVERY {
            since_sync[s] = 0;
            flush(&mut steps, &mut pending, s);
            steps.push(Step::Sync(s));
        }
    }
    for s in 0..n {
        flush(&mut steps, &mut pending, s);
    }
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
            Step::Sync(s) => hs.stream_synchronize(rig.streams[s]).expect("sync"),
        }
    }
    hs.thread_synchronize().expect("drive settles");
}

#[test]
fn an_actions_life_is_a_handful_of_allocations_freed_where_they_were_made() {
    counting_alloc::mark_driver();
    let rig = rig();
    // Warm-up: the event table's first segment, channel blocks, window buckets and
    // the allocator's own per-thread caches exist before anything is counted.
    let warm = plan(&rig, 2_048, 7);
    let steps = script(&rig, &warm, warm.len() / 2);
    drive(&rig, &warm, steps);

    let tasks = plan(&rig, 8_192, 11);
    let planned: usize = tasks.iter().map(Task::actions).sum();
    // The sink pipelines, the DMA workers and the timer wheel are the
    // "other" threads: the executors.
    let count = |batched_from: usize| {
        let steps = script(&rig, &tasks, batched_from);
        counting_alloc::counted(|| drive(&rig, &tasks, steps))
    };
    let (driver, executors) = count(tasks.len() / 2);

    let per = |n: u64| n as f64 / planned as f64;
    let total = per(driver.allocs + executors.allocs);
    let drift = per(executors.frees.abs_diff(executors.allocs));
    println!(
        "alloc_budget: {planned} actions; allocations/action {total:.2} \
         (driver {:.2}, executors {:.2}); frees/action driver {:.2}, executors {:.2}; \
         executor |frees - allocs|/action {drift:.3}",
        per(driver.allocs),
        per(executors.allocs),
        per(driver.frees),
        per(executors.frees),
    );
    // 2.6 as built (footprint, name, record; batches amortise the rest);
    // 15.3 before actions had one record.
    assert!(
        total <= 4.0,
        "{total:.2} allocations per action over all threads (budget 4)"
    );
    assert!(
        drift <= 0.5,
        "executor threads freed {} blocks but allocated {}: {drift:.3} per action cross \
         threads to die (budget 0.5)",
        executors.frees,
        executors.allocs
    );

    // One enqueue path: the same tasks one call per action, then all in
    // batches. A batch pays for its lists once, so an action in one costs
    // the allocator no more than an action enqueued alone.
    let all = |(driver, executors): (counting_alloc::Counts, counting_alloc::Counts)| {
        per(driver.allocs + executors.allocs)
    };
    let (single, batched) = (all(count(tasks.len())), all(count(0)));
    println!("alloc_budget: allocations/action single {single:.2}, batched {batched:.2}");
    assert!(
        batched <= single,
        "{batched:.2} allocations per batched action, {single:.2} per single one"
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
        .chain(tasks.iter().cycle().take(3 * tasks.len()))
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
                "buffer {buf:?} differs from the sequential oracle"
            );
        }
    }
}
