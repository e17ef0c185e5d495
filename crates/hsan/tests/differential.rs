//! Differential property: N source threads enqueueing concurrently through
//! clones of one `HStreams` handle must be *hsan-equivalent* to the same
//! programs replayed serially — the per-stream projection of the recorded
//! trace is identical (same actions, same footprints, same within-stream
//! wait edges), and the analyzer finds both traces clean. Run on both
//! executors.
//!
//! This is the correctness contract of the concurrent front-end: source
//! threads may interleave arbitrarily in the global trace, but each
//! stream's program order — the thing the paper's FIFO semantic is stated
//! in terms of — is exactly what its source thread enqueued. The programs
//! order actions both ways the runtime offers: event-wait sync actions and
//! `ActionOpts::after` edges on normal actions (one call per action, or a
//! run of them in one batch), so the edges hsan draws from the records are
//! checked against what the runtime enforced.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, ActionKind, ActionOpts, BatchAction, BufProps, BufferId, CostHint, CpuMask, DomainId,
    Event, ExecMode, HStreams, Operand, StreamId, TaskCtx,
};
use std::sync::Arc;

const NTHREADS: usize = 4;
const OPS_PER_THREAD: usize = 120;
const BUFS_PER_THREAD: usize = 3;
const BUF_LEN: usize = 4096;

/// One generated front-end call. `buf`/`prev` index into the thread's own
/// buffers / previously produced events, so the program is runtime-independent.
#[derive(Clone, Copy)]
enum Op {
    Compute {
        buf: usize,
        chunk: usize,
        access: Access,
    },
    Marker,
    WaitPrev {
        back: usize,
    },
    /// A compute ordered after op `target`'s action by an `after` edge.
    /// The generator emits these in runs sharing one target, which the
    /// batched interpretation enqueues as one call.
    After {
        target: usize,
        buf: usize,
        chunk: usize,
        access: Access,
    },
}

/// Tiny deterministic LCG (same constants as glibc's) — the property must
/// not depend on an RNG crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn gen_program(seed: u64) -> Vec<Op> {
    let mut rng = Lcg(seed);
    let mut prog = Vec::with_capacity(OPS_PER_THREAD);
    while prog.len() < OPS_PER_THREAD {
        let i = prog.len();
        let back = |rng: &mut Lcg| (rng.next() as usize % i.min(8)).max(1);
        let operand = |rng: &mut Lcg, r: u64| {
            let (buf, chunk) = (
                rng.next() as usize % BUFS_PER_THREAD,
                1 + rng.next() as usize % 4,
            );
            let access = match r % 3 {
                0 => Access::In,
                1 => Access::Out,
                _ => Access::InOut,
            };
            (buf, chunk, access)
        };
        match rng.next() % 10 {
            0 => prog.push(Op::Marker),
            1 if i > 0 => prog.push(Op::WaitPrev {
                back: back(&mut rng),
            }),
            2 if i > 0 => {
                let target = i - back(&mut rng);
                let run = (1 + rng.next() as usize % 3).min(OPS_PER_THREAD - i);
                for _ in 0..run {
                    let r = rng.next();
                    let (buf, chunk, access) = operand(&mut rng, r);
                    prog.push(Op::After {
                        target,
                        buf,
                        chunk,
                        access,
                    });
                }
            }
            r => {
                let (buf, chunk, access) = operand(&mut rng, r);
                prog.push(Op::Compute { buf, chunk, access });
            }
        }
    }
    prog
}

fn runtime(mode: ExecMode) -> HStreams {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), mode);
    hs.register("mix", Arc::new(|_ctx: &mut TaskCtx| {}));
    hs
}

/// Enqueue `prog` into `stream`, tracking produced events for WaitPrev.
fn interpret(hs: &HStreams, stream: StreamId, bufs: &[BufferId], prog: &[Op]) {
    let mut produced: Vec<Event> = Vec::with_capacity(prog.len());
    for op in prog {
        let ev = match *op {
            Op::Compute { buf, chunk, access } => hs
                .enqueue_compute(
                    stream,
                    "mix",
                    Bytes::new(),
                    &[Operand::new(bufs[buf], 0..chunk * 1024, access)],
                    CostHint::trivial(),
                )
                .expect("compute"),
            Op::Marker => hs.enqueue_marker(stream).expect("marker"),
            Op::WaitPrev { back } => {
                let target = produced[produced.len() - back.min(produced.len())];
                hs.enqueue_event_wait(stream, &[target]).expect("wait")
            }
            Op::After {
                target,
                buf,
                chunk,
                access,
            } => {
                let opts = ActionOpts {
                    after: &[produced[target]],
                    ..ActionOpts::default()
                };
                let action = mix(bufs[buf], chunk, access);
                hs.enqueue_many_opts(stream, vec![action], opts)
                    .expect("after")[0]
            }
        };
        produced.push(ev);
    }
}

/// The `mix` compute of `chunk` KiB of `buf`.
fn mix(buf: BufferId, chunk: usize, access: Access) -> BatchAction {
    BatchAction::Compute {
        func: "mix".into(),
        args: Bytes::new(),
        operands: vec![Operand::new(buf, 0..chunk * 1024, access)],
        cost: CostHint::trivial(),
    }
}

/// Like [`interpret`], but through `enqueue_many`: ops accumulate into
/// batches of at most 16, flushed early before each `WaitPrev` (the
/// awaited event must exist before its batch — batch-internal ids are not
/// knowable by the caller), and a run of `After` ops sharing a target is
/// one `enqueue_many_opts` call carrying the edge. One event per op, in
/// program order, exactly as the one-at-a-time interpretation produces.
fn interpret_batched(hs: &HStreams, stream: StreamId, bufs: &[BufferId], prog: &[Op]) {
    fn flush(
        hs: &HStreams,
        stream: StreamId,
        pending: &mut Vec<BatchAction>,
        produced: &mut Vec<Event>,
    ) {
        if !pending.is_empty() {
            let evs = hs
                .enqueue_many(stream, std::mem::take(pending))
                .expect("batch");
            produced.extend(evs);
        }
    }
    let mut produced: Vec<Event> = Vec::with_capacity(prog.len());
    let mut pending: Vec<BatchAction> = Vec::new();
    let mut i = 0;
    while i < prog.len() {
        match prog[i] {
            Op::Compute { buf, chunk, access } => pending.push(mix(bufs[buf], chunk, access)),
            Op::Marker => pending.push(BatchAction::Marker),
            Op::After { target, .. } => {
                flush(hs, stream, &mut pending, &mut produced);
                let run: Vec<BatchAction> = prog[i..]
                    .iter()
                    .map_while(|op| match *op {
                        Op::After {
                            target: t,
                            buf,
                            chunk,
                            access,
                        } if t == target => Some(mix(bufs[buf], chunk, access)),
                        _ => None,
                    })
                    .collect();
                i += run.len();
                let opts = ActionOpts {
                    after: &[produced[target]],
                    ..ActionOpts::default()
                };
                let evs = hs
                    .enqueue_many_opts(stream, run, opts)
                    .expect("after batch");
                produced.extend(evs);
                continue;
            }
            Op::WaitPrev { back } => {
                flush(hs, stream, &mut pending, &mut produced);
                let target = produced[produced.len() - back.min(produced.len())];
                pending.push(BatchAction::EventWait {
                    events: vec![target],
                });
            }
        }
        if pending.len() >= 16 {
            flush(hs, stream, &mut pending, &mut produced);
        }
        i += 1;
    }
    flush(hs, stream, &mut pending, &mut produced);
}

/// A runtime-independent rendering of one stream's recorded program: the
/// action's kind + label + footprint, with wait edges rewritten from global
/// event ids to (stream, within-stream index) — the only form comparable
/// across runs whose global enqueue interleavings differ.
fn stream_projections(trace: &hsan::ActionTrace) -> Vec<Vec<String>> {
    let mut index_of: std::collections::HashMap<u64, (u32, usize)> = Default::default();
    let mut per_stream: Vec<Vec<String>> = vec![Vec::new(); trace.streams as usize];
    for a in trace.actions() {
        let idx = per_stream[a.stream as usize].len();
        index_of.insert(a.event, (a.stream, idx));
        let waits: Vec<(u32, usize)> = a
            .waits
            .iter()
            .map(|w| *index_of.get(w).expect("wait targets a recorded action"))
            .collect();
        per_stream[a.stream as usize].push(format!(
            "{:?} {} {:?} waits={:?}",
            a.kind, a.label, a.footprint, waits
        ));
    }
    per_stream
}

/// How the generated programs are driven through the runtime.
#[derive(Clone, Copy, PartialEq)]
enum Style {
    /// N source threads, one `enqueue_*` call per op.
    Concurrent,
    /// Main thread, one `enqueue_*` call per op.
    Serial,
    /// N source threads, ops chunked through `enqueue_many`.
    Batched,
}

/// Run the generated programs and return the recorded trace.
fn run(mode: ExecMode, style: Style) -> hsan::ActionTrace {
    let hs = runtime(mode);
    // Streams and buffers are created on the main thread, in a fixed order,
    // *before* recording starts: both runs then see identical ids.
    let lanes: Vec<(StreamId, Vec<BufferId>)> = (0..NTHREADS)
        .map(|_| {
            let s = hs
                .stream_create(DomainId::HOST, CpuMask::first(1))
                .expect("stream");
            let bufs = (0..BUFS_PER_THREAD)
                .map(|_| hs.buffer_create(BUF_LEN, BufProps::default()))
                .collect();
            (s, bufs)
        })
        .collect();
    let progs: Vec<Vec<Op>> = (0..NTHREADS)
        .map(|t| gen_program(0xC0FFEE + t as u64))
        .collect();
    hs.obs_enable(true);
    match style {
        Style::Concurrent | Style::Batched => {
            std::thread::scope(|scope| {
                for (t, (s, bufs)) in lanes.iter().enumerate() {
                    let hs = hs.clone();
                    let prog = &progs[t];
                    scope.spawn(move || match style {
                        Style::Batched => interpret_batched(&hs, *s, bufs, prog),
                        _ => interpret(&hs, *s, bufs, prog),
                    });
                }
            });
        }
        Style::Serial => {
            for (t, (s, bufs)) in lanes.iter().enumerate() {
                interpret(&hs, *s, bufs, &progs[t]);
            }
        }
    }
    hs.thread_synchronize().expect("sync");
    hsan::ActionTrace::from_records(&hs, &hs.take_obs_records())
}

#[test]
fn concurrent_enqueue_is_hsan_equivalent_to_serial_replay() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let concurrent = run(mode, Style::Concurrent);
        let serial = run(mode, Style::Serial);
        assert_eq!(
            concurrent.actions().count(),
            NTHREADS * OPS_PER_THREAD,
            "no enqueue lost ({mode:?})"
        );
        let proj_c = stream_projections(&concurrent);
        let proj_s = stream_projections(&serial);
        assert_eq!(
            proj_c, proj_s,
            "per-stream projections must be interleaving-independent ({mode:?})"
        );
        let rep_c = hsan::check(&concurrent);
        let rep_s = hsan::check(&serial);
        assert!(rep_c.is_clean(), "{mode:?} concurrent: {rep_c}");
        assert!(rep_s.is_clean(), "{mode:?} serial: {rep_s}");
    }
}

/// Batched enqueues (N concurrent source threads chunking through
/// `enqueue_many`) are hsan-equivalent to the serial one-at-a-time replay:
/// identical per-stream projections, and the analyzer finds the batched
/// trace clean. This is the trace-level half of the batch==singles
/// differential (the data-level half lives in the core crate).
#[test]
fn batched_enqueue_is_hsan_equivalent_to_serial_replay() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let batched = run(mode, Style::Batched);
        let serial = run(mode, Style::Serial);
        assert_eq!(
            batched.actions().count(),
            NTHREADS * OPS_PER_THREAD,
            "no batched enqueue lost ({mode:?})"
        );
        let proj_b = stream_projections(&batched);
        let proj_s = stream_projections(&serial);
        assert_eq!(
            proj_b, proj_s,
            "batched per-stream projections must match singles ({mode:?})"
        );
        let rep = hsan::check(&batched);
        assert!(rep.is_clean(), "{mode:?} batched: {rep}");
    }
}

/// The global trace of every run is itself a valid program order: every
/// wait names a lower event id, recorded before its waiter (an id is
/// reserved before anyone can wait on it, and the fold orders actions by
/// id). `hsan`'s happens-before graph rests on this: it fills causal
/// history in trace order and reads a forward wait as dangling.
#[test]
fn concurrent_trace_wait_edges_point_backwards() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        for style in [Style::Concurrent, Style::Serial, Style::Batched] {
            let trace = run(mode, style);
            let mut seen = std::collections::HashSet::new();
            let (mut waits, mut edges) = (0, 0);
            for a in trace.actions() {
                for w in &a.waits {
                    assert!(
                        *w < a.event && seen.contains(w),
                        "event {} waits on {w}, not recorded before it ({mode:?})",
                        a.event
                    );
                    waits += 1;
                    edges += usize::from(a.kind == ActionKind::Normal);
                }
                seen.insert(a.event);
            }
            assert!(waits > 0, "the programs wait across actions ({mode:?})");
            assert!(edges > 0, "the programs carry `after` edges ({mode:?})");
        }
    }
}
