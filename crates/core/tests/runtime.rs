#![allow(clippy::needless_range_loop)]
//! Behavioural tests of the hStreams runtime: out-of-order execution under
//! FIFO semantics, cross-stream events, poisoning, host-as-target aliasing,
//! and the central property test — any schedule the runtime picks must
//! produce the same observable state as sequential in-order execution.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, ActionOpts, BatchAction, BufProps, CostHint, CpuMask, DomainId, ExecMode, HStreams,
    HsError, Operand, OrderingMode, TaskCtx,
};
use proptest::prelude::*;
use std::sync::Arc;

fn real_runtime(cards: usize) -> HStreams {
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, cards), ExecMode::Threads);
    register_tasks(&mut hs);
    hs
}

fn register_tasks(hs: &mut HStreams) {
    // x[i] += k for the operand range; k is carried in args.
    hs.register(
        "axpyk",
        Arc::new(|ctx: &mut TaskCtx| {
            let k = f64::from_le_bytes(ctx.args()[..8].try_into().expect("8-byte arg"));
            for x in ctx.buf_f64_mut(0) {
                *x += k;
            }
        }),
    );
    // dst = src element-wise (same length operands).
    hs.register(
        "copy_op",
        Arc::new(|ctx: &mut TaskCtx| {
            let (src, dst) = ctx.buf_f64_pair_mut(0, 1);
            dst.copy_from_slice(src);
        }),
    );
    // x[i] *= 2 with an artificial delay (for ordering tests).
    hs.register(
        "slow_double",
        Arc::new(|ctx: &mut TaskCtx| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            for x in ctx.buf_f64_mut(0) {
                *x *= 2.0;
            }
        }),
    );
}

fn k_args(k: f64) -> Bytes {
    Bytes::copy_from_slice(&k.to_le_bytes())
}

#[test]
fn fifo_semantics_raw_chain_on_one_stream() {
    let hs = real_runtime(1);
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(2)).expect("stream");
    let buf = hs.buffer_create(8 * 8, BufProps::default());
    hs.buffer_instantiate(buf, card).expect("instantiate");
    hs.buffer_write_f64(buf, 0, &[1.0; 8]).expect("write");
    hs.xfer_to_sink(s, buf, 0..64).expect("h2d");
    // Three dependent updates on the same range must apply in order.
    for k in [1.0, 10.0, 100.0] {
        hs.enqueue_compute(
            s,
            "axpyk",
            k_args(k),
            &[Operand::f64s(buf, 0, 8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("compute");
    }
    hs.xfer_to_source(s, buf, 0..64).expect("d2h");
    hs.stream_synchronize(s).expect("sync");
    let mut out = [0.0; 8];
    hs.buffer_read_f64(buf, 0, &mut out).expect("read");
    assert_eq!(out, [112.0; 8]);
}

#[test]
fn independent_actions_in_one_stream_may_overlap() {
    // Two slow computes on disjoint ranges of one buffer in ONE stream…
    // a serial pipeline would run them back to back; but hStreams may also
    // dispatch them concurrently if they land in different streams. Within a
    // single stream the sink is serial, so here we check *transfer* overtaking:
    // a transfer for an independent buffer completes while a slow compute
    // still runs (the paper's §II example).
    let hs = real_runtime(1);
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(2)).expect("stream");
    let a = hs.buffer_create(8 * 8, BufProps::default());
    let b = hs.buffer_create(8 * 8, BufProps::default());
    for buf in [a, b] {
        hs.buffer_instantiate(buf, card).expect("instantiate");
    }
    hs.buffer_write_f64(a, 0, &[1.0; 8]).expect("write a");
    hs.buffer_write_f64(b, 0, &[5.0; 8]).expect("write b");
    hs.xfer_to_sink(s, a, 0..64).expect("h2d a");
    let _slow = hs
        .enqueue_compute(
            s,
            "slow_double",
            Bytes::new(),
            &[Operand::f64s(a, 0, 8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("slow compute");
    // Independent transfer of b enqueued *after* the slow compute.
    let t0 = std::time::Instant::now();
    let xfer_b = hs.xfer_to_sink(s, b, 0..64).expect("h2d b");
    hs.event_wait(xfer_b).expect("transfer completes");
    // The independent transfer completed well before the 20 ms compute —
    // out-of-order completion under FIFO semantics.
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(15),
        "transfer should overtake the slow compute"
    );
    hs.xfer_to_source(s, a, 0..64).expect("d2h a");
    hs.thread_synchronize().expect("sync");
    let mut out = [0.0; 8];
    hs.buffer_read_f64(a, 0, &mut out).expect("read");
    assert_eq!(out, [2.0; 8]);
}

#[test]
fn cross_stream_requires_explicit_event() {
    let hs = real_runtime(1);
    let card = DomainId(1);
    let s1 = hs.stream_create(card, CpuMask::range(0, 2)).expect("s1");
    let s2 = hs.stream_create(card, CpuMask::range(2, 2)).expect("s2");
    let buf = hs.buffer_create(8 * 8, BufProps::default());
    hs.buffer_instantiate(buf, card).expect("instantiate");
    hs.buffer_write_f64(buf, 0, &[0.0; 8]).expect("write");
    hs.xfer_to_sink(s1, buf, 0..64).expect("h2d");
    let e1 = hs
        .enqueue_compute(
            s1,
            "axpyk",
            k_args(3.0),
            &[Operand::f64s(buf, 0, 8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("s1 compute");
    // s2 must wait on s1's event explicitly, then double.
    hs.enqueue_event_wait(s2, &[e1]).expect("event wait");
    hs.enqueue_compute(
        s2,
        "slow_double",
        Bytes::new(),
        &[Operand::f64s(buf, 0, 8, Access::InOut)],
        CostHint::trivial(),
    )
    .expect("s2 compute");
    hs.thread_synchronize().expect("sync");
    hs.xfer_to_source(s2, buf, 0..64).expect("d2h");
    hs.thread_synchronize().expect("sync");
    let mut out = [0.0; 8];
    hs.buffer_read_f64(buf, 0, &mut out).expect("read");
    assert_eq!(out, [6.0; 8], "(0+3)*2 via explicit cross-stream ordering");
}

#[test]
fn host_as_target_stream_elides_transfers() {
    let hs = real_runtime(1);
    let host = DomainId::HOST;
    let s = hs.stream_create(host, CpuMask::first(4)).expect("stream");
    let buf = hs.buffer_create(8 * 4, BufProps::default());
    hs.buffer_write_f64(buf, 0, &[1.0, 2.0, 3.0, 4.0])
        .expect("write");
    // "Transfers to the host in host-as-target streams are optimized away."
    hs.xfer_to_sink(s, buf, 0..32).expect("elided");
    hs.enqueue_compute(
        s,
        "axpyk",
        k_args(1.0),
        &[Operand::f64s(buf, 0, 4, Access::InOut)],
        CostHint::trivial(),
    )
    .expect("compute");
    hs.xfer_to_source(s, buf, 0..32).expect("elided");
    hs.stream_synchronize(s).expect("sync");
    assert_eq!(hs.metrics().extra["actions.transfer_elided"], 2.0);
    let mut out = [0.0; 4];
    hs.buffer_read_f64(buf, 0, &mut out).expect("read");
    assert_eq!(out, [2.0, 3.0, 4.0, 5.0]);
}

#[test]
fn failed_task_poisons_dependents() {
    let hs = real_runtime(1);
    hs.register(
        "explode",
        Arc::new(|_ctx: &mut TaskCtx| panic!("injected failure")),
    );
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
    let buf = hs.buffer_create(64, BufProps::default());
    hs.buffer_instantiate(buf, card).expect("instantiate");
    let bad = hs
        .enqueue_compute(
            s,
            "explode",
            Bytes::new(),
            &[Operand::f64s(buf, 0, 8, Access::Out)],
            CostHint::trivial(),
        )
        .expect("enqueue");
    // Dependent (overlapping operand) action.
    let dependent = hs
        .enqueue_compute(
            s,
            "axpyk",
            k_args(1.0),
            &[Operand::f64s(buf, 0, 8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("enqueue");
    let e = hs.event_wait(bad).expect_err("task failed");
    assert!(
        matches!(e, HsError::ActionFailed(_)) && e.to_string().contains("injected"),
        "{e}"
    );
    let e2 = hs.event_wait(dependent).expect_err("dependent poisoned");
    assert!(
        matches!(e2, HsError::ActionFailed(_)) && e2.to_string().contains("dependency failed"),
        "{e2}"
    );
}

#[test]
fn card_to_card_transfer_is_rejected() {
    let hs = real_runtime(2);
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    let buf = hs.buffer_create(64, BufProps::default());
    hs.buffer_instantiate(buf, DomainId(1)).expect("inst 1");
    hs.buffer_instantiate(buf, DomainId(2)).expect("inst 2");
    let err = hs
        .enqueue_xfer(s, buf, 0..64, DomainId(1), DomainId(2))
        .expect_err("card-card rejected");
    assert_eq!(err, HsError::CardToCard);
}

#[test]
fn uninstantiated_buffer_is_rejected() {
    let hs = real_runtime(1);
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    let buf = hs.buffer_create(64, BufProps::default());
    let err = hs
        .xfer_to_sink(s, buf, 0..64)
        .expect_err("not instantiated");
    assert!(matches!(err, HsError::NotInstantiated(_, _)));
    let err2 = hs
        .enqueue_compute(
            s,
            "axpyk",
            k_args(0.0),
            &[Operand::f64s(buf, 0, 8, Access::In)],
            CostHint::trivial(),
        )
        .expect_err("not instantiated");
    assert!(matches!(err2, HsError::NotInstantiated(_, _)));
}

#[test]
fn read_only_buffer_rejects_writes() {
    let hs = real_runtime(1);
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    let buf = hs.buffer_create(
        64,
        BufProps {
            read_only: true,
            ..BufProps::default()
        },
    );
    hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
    let err = hs
        .enqueue_compute(
            s,
            "axpyk",
            k_args(0.0),
            &[Operand::f64s(buf, 0, 8, Access::Out)],
            CostHint::trivial(),
        )
        .expect_err("read-only");
    assert!(matches!(err, HsError::InvalidArg(_)));
}

#[test]
fn event_wait_any_returns_an_early_finisher() {
    let hs = real_runtime(1);
    let card = DomainId(1);
    let s1 = hs.stream_create(card, CpuMask::range(0, 1)).expect("s1");
    let s2 = hs.stream_create(card, CpuMask::range(1, 1)).expect("s2");
    let a = hs.buffer_create(64, BufProps::default());
    let b = hs.buffer_create(64, BufProps::default());
    hs.buffer_instantiate(a, card).expect("inst");
    hs.buffer_instantiate(b, card).expect("inst");
    let slow = hs
        .enqueue_compute(
            s1,
            "slow_double",
            Bytes::new(),
            &[Operand::f64s(a, 0, 8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("slow");
    let fast = hs
        .enqueue_compute(
            s2,
            "axpyk",
            k_args(1.0),
            &[Operand::f64s(b, 0, 8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("fast");
    let idx = hs.event_wait_any(&[slow, fast]).expect("one finishes");
    assert_eq!(idx, 1, "the fast compute finishes first");
    hs.thread_synchronize().expect("sync");
}

/// A producer on stream `a` held on a host-controlled gate; on stream `b`,
/// an action ordered after the producer by an [`ActionOpts::after`] edge,
/// then an independent action (disjoint buffer). The edge gates its own
/// action only: under `OutOfOrder` the independent action runs while the
/// gate is still shut, under `StrictFifo` it keeps its place behind the
/// edge-carrying one. Returns (did the independent action run before the
/// gate opened, the order `b`'s actions ran in).
fn edge_then_independent(ordering: OrderingMode) -> (bool, Vec<char>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};
    let gate = Arc::new(AtomicBool::new(false));
    let ran = Arc::new(Mutex::new(Vec::new()));
    let hs = HStreams::init_with_ordering(
        PlatformCfg::hetero(Device::Hsw, 1),
        ExecMode::Threads,
        ordering,
    );
    let held = gate.clone();
    hs.register(
        "hold",
        Arc::new(move |_ctx: &mut TaskCtx| {
            // Bounded, so a run that never opens the gate still ends.
            let t0 = Instant::now();
            while !held.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }),
    );
    let log = ran.clone();
    hs.register(
        "note",
        Arc::new(move |ctx: &mut TaskCtx| log.lock().unwrap().push(ctx.args()[0] as char)),
    );
    let a = hs
        .stream_create(DomainId::HOST, CpuMask::first(1))
        .expect("a");
    let b = hs
        .stream_create(DomainId::HOST, CpuMask::first(1))
        .expect("b");
    let [p, x, y] = [0; 3].map(|_| hs.buffer_create(64, BufProps::default()));
    let compute = |func: &str, tag: &[u8], buf| BatchAction::Compute {
        func: func.into(),
        args: Bytes::copy_from_slice(tag),
        operands: vec![Operand::f64s(buf, 0, 8, Access::InOut)],
        cost: CostHint::trivial(),
    };
    let producer = hs
        .enqueue_many(a, vec![compute("hold", b"P", p)])
        .expect("producer")[0];
    let opts = ActionOpts {
        after: &[producer],
        ..ActionOpts::default()
    };
    hs.enqueue_many_opts(b, vec![compute("note", b"E", x)], opts)
        .expect("edge-carrying action");
    let independent = hs
        .enqueue_many(b, vec![compute("note", b"I", y)])
        .expect("independent action")[0];
    // Out of order the independent action runs with the gate shut: give it
    // up to 5 s. Strict FIFO must not run it: 100 ms shows nothing overtook.
    let patience = match ordering {
        OrderingMode::OutOfOrder => Duration::from_secs(5),
        OrderingMode::StrictFifo => Duration::from_millis(100),
    };
    let t0 = Instant::now();
    let early = loop {
        if ran.lock().unwrap().contains(&'I') {
            break true;
        }
        if t0.elapsed() > patience {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    gate.store(true, Ordering::Release);
    hs.event_wait(independent).expect("independent completes");
    hs.thread_synchronize().expect("sync");
    let order = ran.lock().unwrap().clone();
    (early, order)
}

#[test]
fn an_edge_gates_only_its_own_action() {
    let (early, order) = edge_then_independent(OrderingMode::OutOfOrder);
    assert!(
        early,
        "out of order: the independent action waited for the gate ({order:?})"
    );
    assert_eq!(order, ['I', 'E']);
    let (early, order) = edge_then_independent(OrderingMode::StrictFifo);
    assert!(
        !early,
        "strict FIFO: the independent action overtook the edge"
    );
    assert_eq!(order, ['E', 'I']);
}

/// Tracing observes the program, it does not change it: an edge on an
/// event that has already completed enqueues the same actions with
/// lifecycle records off and on.
#[test]
fn tracing_does_not_change_the_program() {
    let counts = |traced: bool| {
        let hs = real_runtime(1);
        hs.obs_enable(traced);
        let s1 = hs
            .stream_create(DomainId::HOST, CpuMask::first(1))
            .expect("s1");
        let s2 = hs
            .stream_create(DomainId::HOST, CpuMask::first(1))
            .expect("s2");
        let (x, y) = (
            hs.buffer_create(64, BufProps::default()),
            hs.buffer_create(64, BufProps::default()),
        );
        let axpy = |buf| BatchAction::Compute {
            func: "axpyk".into(),
            args: k_args(1.0),
            operands: vec![Operand::f64s(buf, 0, 8, Access::InOut)],
            cost: CostHint::trivial(),
        };
        let done = hs.enqueue_many(s1, vec![axpy(x)]).expect("producer")[0];
        hs.event_wait(done).expect("producer completes");
        let opts = ActionOpts {
            after: &[done],
            ..ActionOpts::default()
        };
        hs.enqueue_many_opts(s2, vec![axpy(y)], opts)
            .expect("edge on a completed event");
        hs.thread_synchronize().expect("sync");
        let rows = hs.metrics().extra.into_iter();
        rows.filter(|(name, _)| name.starts_with("actions."))
            .collect::<Vec<_>>()
    };
    let (plain, traced) = (counts(false), counts(true));
    assert!(!plain.is_empty());
    assert_eq!(plain, traced, "obs on enqueued another program");
}

#[test]
fn api_stats_count_calls() {
    let hs = real_runtime(1);
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    let buf = hs.buffer_create(64, BufProps::default());
    hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
    hs.xfer_to_sink(s, buf, 0..64).expect("xfer");
    hs.stream_synchronize(s).expect("sync");
    let st = hs.metrics().extra;
    assert_eq!(st["api.stream_create"], 1.0);
    assert_eq!(st["api.enqueue_xfer"], 1.0);
    assert!(st["api.unique"] >= 4.0);
    assert_eq!(st["actions.transfer"], 1.0);
}

/// The matmul (n=256, tile=64) tile set — A, B and C, sixteen 32 KiB tiles
/// each — on the host and on a card: the pools register what the tiles hold,
/// not a 2 MB chunk per tile (which would be 64x).
#[test]
fn pooled_buffers_register_what_they_hold() {
    const TILE_BYTES: usize = 64 * 64 * 8;
    let hs = real_runtime(1);
    let registered = |hs: &HStreams| hs.metrics().extra["pool.registered_bytes"];
    let before = registered(&hs);
    let tiles: Vec<_> = (0..3 * 16)
        .map(|_| hs.buffer_create(TILE_BYTES, BufProps::default()))
        .collect();
    for &t in &tiles {
        hs.buffer_instantiate(t, DomainId(1)).expect("inst");
    }
    let data = (2 * tiles.len() * TILE_BYTES) as f64;
    let grown = registered(&hs) - before;
    assert!(
        grown >= data && grown <= 1.1 * data,
        "{grown} bytes registered for {data} bytes of tiles"
    );
    // Destroyed buffers leave their windows on the free lists, still
    // registered, and the next tile set takes them from there.
    for t in tiles {
        hs.buffer_destroy(t).expect("destroy");
    }
    assert_eq!(registered(&hs) - before, grown);
    let again = hs.buffer_create(TILE_BYTES, BufProps::default());
    hs.buffer_instantiate(again, DomainId(1)).expect("inst");
    assert_eq!(registered(&hs) - before, grown);
}

// ---------------------------------------------------------------------------
// The FIFO-equivalence property: whatever overlap the runtime finds, the
// observable result equals sequential in-order interpretation.
// ---------------------------------------------------------------------------

const NBUF: usize = 2;
const NELEM: usize = 16;

#[derive(Clone, Debug)]
enum Act {
    /// Transfer buf[lo..hi] host->card (h2d) or card->host, via stream s.
    Xfer {
        s: u8,
        buf: u8,
        lo: u8,
        hi: u8,
        h2d: bool,
    },
    /// axpyk on buf[lo..hi] in stream s's domain copy.
    Add {
        s: u8,
        buf: u8,
        lo: u8,
        hi: u8,
        k: i8,
    },
    /// copy buf_src[lo..hi] -> buf_dst[lo..hi] in stream s's domain.
    Copy {
        s: u8,
        src: u8,
        dst: u8,
        lo: u8,
        hi: u8,
    },
}

fn act_strategy() -> impl Strategy<Value = Act> {
    let rng = (0u8..3, 0u8..NBUF as u8, 0u8..NELEM as u8, 1u8..6u8);
    prop_oneof![
        (rng.clone(), any::<bool>()).prop_map(|((s, buf, lo, len), h2d)| Act::Xfer {
            s,
            buf,
            lo,
            hi: (lo + len).min(NELEM as u8),
            h2d,
        }),
        (rng.clone(), -4i8..5i8).prop_map(|((s, buf, lo, len), k)| Act::Add {
            s,
            buf,
            lo,
            hi: (lo + len).min(NELEM as u8),
            k,
        }),
        (rng, 0u8..NBUF as u8).prop_map(|((s, src, lo, len), dst)| Act::Copy {
            s,
            src,
            dst,
            lo,
            hi: (lo + len).min(NELEM as u8),
        }),
    ]
}

/// Sequential reference interpreter: domain-indexed copies, actions applied
/// in enqueue order.
fn interpret(acts: &[Act], stream_domains: &[usize]) -> Vec<Vec<Vec<f64>>> {
    // copies[domain][buf][elem]
    let mut copies = vec![vec![vec![0.0f64; NELEM]; NBUF]; 2];
    for (b, buf) in copies[0].iter_mut().enumerate() {
        for (i, x) in buf.iter_mut().enumerate() {
            *x = (b * NELEM + i) as f64;
        }
    }
    for a in acts {
        match a {
            Act::Xfer {
                buf, lo, hi, h2d, ..
            } => {
                let (from, to) = if *h2d { (0, 1) } else { (1, 0) };
                for i in *lo as usize..*hi as usize {
                    copies[to][*buf as usize][i] = copies[from][*buf as usize][i];
                }
            }
            Act::Add { s, buf, lo, hi, k } => {
                let d = stream_domains[*s as usize];
                for i in *lo as usize..*hi as usize {
                    copies[d][*buf as usize][i] += *k as f64;
                }
            }
            Act::Copy {
                s,
                src,
                dst,
                lo,
                hi,
            } => {
                let d = stream_domains[*s as usize];
                for i in *lo as usize..*hi as usize {
                    copies[d][*dst as usize][i] = copies[d][*src as usize][i];
                }
            }
        }
    }
    copies
}

fn run_real(acts: &[Act], stream_domains: &[usize]) -> Vec<Vec<Vec<f64>>> {
    let mut hs = real_runtime(1);
    hs.register(
        "copy2",
        Arc::new(|ctx: &mut TaskCtx| {
            let (src, dst) = ctx.buf_f64_pair_mut(0, 1);
            dst.copy_from_slice(src);
        }),
    );
    let mut streams = Vec::new();
    for (i, d) in stream_domains.iter().enumerate() {
        streams.push(
            hs.stream_create(DomainId(*d), CpuMask::range(i as u32 * 2, 2))
                .expect("stream"),
        );
    }
    let bufs: Vec<_> = (0..NBUF)
        .map(|b| {
            let id = hs.buffer_create(NELEM * 8, BufProps::default());
            hs.buffer_instantiate(id, DomainId(1)).expect("inst");
            let init: Vec<f64> = (0..NELEM).map(|i| (b * NELEM + i) as f64).collect();
            hs.buffer_write_f64(id, 0, &init).expect("init");
            id
        })
        .collect();
    // Different streams imply no ordering, so for a deterministic reference
    // every action explicitly waits on all events previously enqueued in
    // *other* streams. *Within* one stream we rely on FIFO semantics
    // alone — that is where the runtime's out-of-order freedom lives, and
    // exactly what must stay observably sequential.
    let mut by_stream: Vec<Vec<hstreams_core::Event>> = vec![Vec::new(); streams.len()];
    let chain = |hs: &mut HStreams, by_stream: &[Vec<hstreams_core::Event>], s: u8| {
        let others: Vec<hstreams_core::Event> = by_stream
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != s as usize)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        if !others.is_empty() {
            hs.enqueue_event_wait(streams[s as usize], &others)
                .expect("chain");
        }
    };
    for a in acts {
        let ev = match a {
            Act::Xfer {
                s,
                buf,
                lo,
                hi,
                h2d,
            } => {
                if lo >= hi {
                    continue;
                }
                let range = *lo as usize * 8..*hi as usize * 8;
                chain(&mut hs, &by_stream, *s);
                let (from, to) = if *h2d {
                    (DomainId::HOST, DomainId(1))
                } else {
                    (DomainId(1), DomainId::HOST)
                };
                hs.enqueue_xfer(streams[*s as usize], bufs[*buf as usize], range, from, to)
                    .expect("xfer")
            }
            Act::Add { s, buf, lo, hi, k } => {
                if lo >= hi {
                    continue;
                }
                chain(&mut hs, &by_stream, *s);
                hs.enqueue_compute(
                    streams[*s as usize],
                    "axpyk",
                    k_args(*k as f64),
                    &[Operand::f64s(
                        bufs[*buf as usize],
                        *lo as usize,
                        (*hi - *lo) as usize,
                        Access::InOut,
                    )],
                    CostHint::trivial(),
                )
                .expect("add")
            }
            Act::Copy {
                s,
                src,
                dst,
                lo,
                hi,
            } => {
                if lo >= hi || src == dst {
                    continue;
                }
                chain(&mut hs, &by_stream, *s);
                hs.enqueue_compute(
                    streams[*s as usize],
                    "copy2",
                    Bytes::new(),
                    &[
                        Operand::f64s(
                            bufs[*src as usize],
                            *lo as usize,
                            (*hi - *lo) as usize,
                            Access::In,
                        ),
                        Operand::f64s(
                            bufs[*dst as usize],
                            *lo as usize,
                            (*hi - *lo) as usize,
                            Access::Out,
                        ),
                    ],
                    CostHint::trivial(),
                )
                .expect("copy")
            }
        };
        let s = match a {
            Act::Xfer { s, .. } | Act::Add { s, .. } | Act::Copy { s, .. } => *s,
        };
        by_stream[s as usize].push(ev);
    }
    hs.thread_synchronize().expect("sync");
    // Observe host copies.
    let mut copies = vec![vec![vec![0.0f64; NELEM]; NBUF]; 2];
    for (b, id) in bufs.iter().enumerate() {
        hs.buffer_read_f64(*id, 0, &mut copies[0][b])
            .expect("read host");
    }
    // Observe card copies by transferring them back on a fresh stream.
    let probe = hs
        .stream_create(DomainId(1), CpuMask::range(20, 1))
        .expect("probe stream");
    for id in &bufs {
        hs.xfer_to_source(probe, *id, 0..NELEM * 8)
            .expect("probe d2h");
    }
    hs.stream_synchronize(probe).expect("probe sync");
    for (b, id) in bufs.iter().enumerate() {
        hs.buffer_read_f64(*id, 0, &mut copies[1][b])
            .expect("read card");
    }
    copies
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Whatever overlap/out-of-order execution the runtime finds, results
    /// must equal the sequential interpretation (the FIFO semantic).
    #[test]
    fn ooo_execution_matches_sequential_semantics(
        acts in proptest::collection::vec(act_strategy(), 1..25),
    ) {
        // Streams 0,1 on the card; stream 2 host-as-target.
        let stream_domains = vec![1usize, 1, 0];
        let expect = interpret(&acts, &stream_domains);
        let got = run_real(&acts, &stream_domains);
        // Compare host copies and card copies for every buffer.
        for d in 0..2 {
            for b in 0..NBUF {
                prop_assert_eq!(
                    &got[d][b], &expect[d][b],
                    "domain {} buffer {} mismatch", d, b
                );
            }
        }
    }
}
