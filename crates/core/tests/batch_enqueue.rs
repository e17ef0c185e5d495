//! Differential testing of `enqueue_many`: a batch must be semantically
//! identical to the same actions enqueued one at a time — same dependence
//! graph, same final data, same counters, same recorded trace — on both
//! executors, for every way of splitting the action sequence into batches.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BatchAction, BufProps, BufferId, CostHint, CpuMask, DomainId, Event, ExecMode,
    FaultPlan, HStreams, HsError, Operand, StreamId, TaskCtx,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const N: usize = 4; // f64 lanes per buffer

/// One source-level action of the differential workload, interpretable
/// either as a single enqueue or as a [`BatchAction`].
#[derive(Clone, Debug)]
enum Op {
    /// addk on the card instantiation.
    AddK(f64),
    /// Host → card transfer of the whole buffer.
    H2d,
    /// Card → host transfer of the whole buffer.
    D2h,
    /// Full intra-stream fence.
    Marker,
    /// Wait on a pre-workload root event.
    WaitRoot,
}

struct Rig {
    hs: HStreams,
    s: StreamId,
    b: BufferId,
    root: Event,
}

fn rig(mode: ExecMode) -> Rig {
    rig_with(mode, |_| {})
}

/// [`rig`], with `setup` run on the fresh runtime before anything is
/// enqueued (durability can only be switched on then).
fn rig_with(mode: ExecMode, setup: impl FnOnce(&HStreams)) -> Rig {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), mode);
    setup(&hs);
    hs.register(
        "addk",
        Arc::new(|ctx: &mut TaskCtx| {
            let k = f64::from_le_bytes(ctx.args()[..8].try_into().expect("arg"));
            for x in ctx.buf_f64_mut(0) {
                *x += k;
            }
        }),
    );
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(2))
        .expect("stream");
    let b = hs.buffer_create(8 * N, BufProps::default());
    hs.buffer_instantiate(b, DomainId(1)).expect("inst");
    hs.buffer_write_f64(b, 0, &[1.0; N]).expect("init");
    // A pre-batch event for `WaitRoot` to target (batch event-waits must
    // reference events that exist before the batch).
    let root = hs.xfer_to_sink(s, b, 0..8 * N).expect("root");
    Rig { hs, s, b, root }
}

fn op_to_batch(rig: &Rig, op: &Op) -> BatchAction {
    match op {
        Op::AddK(k) => BatchAction::Compute {
            func: "addk".into(),
            args: Bytes::copy_from_slice(&k.to_le_bytes()),
            operands: vec![Operand::f64s(rig.b, 0, N, Access::InOut)],
            cost: CostHint::trivial(),
        },
        Op::H2d => BatchAction::Xfer {
            buf: rig.b,
            range: 0..8 * N,
            from: DomainId::HOST,
            to: DomainId(1),
        },
        Op::D2h => BatchAction::Xfer {
            buf: rig.b,
            range: 0..8 * N,
            from: DomainId(1),
            to: DomainId::HOST,
        },
        Op::Marker => BatchAction::Marker,
        Op::WaitRoot => BatchAction::EventWait {
            events: vec![rig.root],
        },
    }
}

fn run_single(rig: &Rig, op: &Op) -> Event {
    match op {
        Op::AddK(k) => rig
            .hs
            .enqueue_compute(
                rig.s,
                "addk",
                Bytes::copy_from_slice(&k.to_le_bytes()),
                &[Operand::f64s(rig.b, 0, N, Access::InOut)],
                CostHint::trivial(),
            )
            .expect("compute"),
        Op::H2d => rig
            .hs
            .enqueue_xfer(rig.s, rig.b, 0..8 * N, DomainId::HOST, DomainId(1))
            .expect("h2d"),
        Op::D2h => rig
            .hs
            .enqueue_xfer(rig.s, rig.b, 0..8 * N, DomainId(1), DomainId::HOST)
            .expect("d2h"),
        Op::Marker => rig.hs.enqueue_marker(rig.s).expect("marker"),
        Op::WaitRoot => rig.hs.enqueue_event_wait(rig.s, &[rig.root]).expect("wait"),
    }
}

/// What a drive leaves behind: (host data, computes, transfers, syncs).
type Outcome = ([f64; N], u64, u64, u64);

/// Drive `ops` through `rig`, batched into chunks of the given sizes
/// (an empty `splits` means one enqueue per op), then synchronize and
/// return (host data, computes, transfers, syncs).
fn drive(rig: &Rig, ops: &[Op], splits: Option<&[usize]>) -> Outcome {
    enqueue_ops(rig, ops, splits);
    settle(rig)
}

fn enqueue_ops(rig: &Rig, ops: &[Op], splits: Option<&[usize]>) {
    match splits {
        None => {
            for op in ops {
                run_single(rig, op);
            }
        }
        Some(sizes) => {
            let mut rest = ops;
            for &sz in sizes {
                let take = sz.min(rest.len());
                let (chunk, tail) = rest.split_at(take);
                let batch: Vec<BatchAction> = chunk.iter().map(|o| op_to_batch(rig, o)).collect();
                let evs = rig.hs.enqueue_many(rig.s, batch).expect("batch");
                assert_eq!(evs.len(), take, "one event per batch action");
                rest = tail;
            }
            assert!(rest.is_empty(), "splits must cover all ops");
        }
    }
}

fn settle(rig: &Rig) -> Outcome {
    rig.hs.thread_synchronize().expect("sync");
    // Sim mode has no real data movement; the read returns the host
    // shadow, which both variants treat identically.
    let mut out = [0.0; N];
    rig.hs.buffer_read_f64(rig.b, 0, &mut out).expect("read");
    let st = rig.hs.stats();
    (out, st.computes(), st.transfers(), st.syncs())
}

/// One WAL record as read back from disk: (stream, event, payload — the
/// retry policy, the dependence list and the op in source terms).
type WalRecord = (u32, u64, Vec<u8>);

/// [`drive`] with the recovery log on — a fault plan armed, the durable log
/// on, or both — returning what the log held: its entry count, and with
/// durability the records on disk. Everything is enqueued behind a compute
/// that does not finish until the whole sequence is in (`WaitRoot` waits on
/// it too, and the rig's own transfer has settled before it), so no action
/// retires while the window is being analyzed and the logged dependences
/// depend on the sequence alone, not on timing.
fn drive_logged(
    ops: &[Op],
    splits: Option<&[usize]>,
    chaos: bool,
    durable: bool,
) -> (Outcome, f64, Vec<WalRecord>) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "hs-batch-log-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut run_dir = None;
    let mut rig = rig_with(ExecMode::Threads, |hs| {
        if chaos {
            hs.chaos_install(FaultPlan::new(1));
        }
        if durable {
            let run = hs.durability_opts(&root, false, 0).expect("durability on");
            run_dir = Some(root.join(format!("run-{run:016x}")));
        }
    });
    rig.hs.thread_synchronize().expect("root settles");
    let open = Arc::new(AtomicBool::new(false));
    let gate = open.clone();
    rig.hs.register(
        "gate",
        Arc::new(move |_: &mut TaskCtx| {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }),
    );
    rig.root = rig
        .hs
        .enqueue_compute(
            rig.s,
            "gate",
            Bytes::new(),
            &[Operand::f64s(rig.b, 0, N, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("gate");
    enqueue_ops(&rig, ops, splits);
    let entries = rig.hs.metrics().extra["frontend.recovery.entries"];
    open.store(true, Ordering::Release);
    let result = settle(&rig);
    let records = run_dir.map_or(Vec::new(), |dir| {
        let scan = hs_wal::recover_dir(&dir).expect("scan the run");
        assert!(scan.torn.is_empty(), "{:?}", scan.torn);
        scan.records
            .into_iter()
            .map(|r| (r.partition, r.ev, r.payload))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&root);
    (result, entries, records)
}

/// The canonical pipeline: h2d → compute* → d2h, repeated. Batch (one
/// chunk) and singles must agree on data and counters, on both executors.
#[test]
fn batch_equals_singles_pipeline() {
    let ops = vec![
        Op::H2d,
        Op::AddK(1.0),
        Op::AddK(2.0),
        Op::D2h,
        Op::H2d,
        Op::AddK(4.0),
        Op::D2h,
    ];
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let single = drive(&rig(mode), &ops, None);
        let batched = drive(&rig(mode), &ops, Some(&[ops.len()]));
        assert_eq!(single, batched, "{mode:?}");
        if mode == ExecMode::Threads {
            // 1 (init) + 1+2+4 = 8 per lane.
            assert_eq!(single.0, [8.0; N]);
        }
    }
}

/// Sync kinds inside a batch: markers fence, event-waits target pre-batch
/// events; intra-batch dependences (compute after h2d after the marker)
/// resolve without round-tripping the event table.
#[test]
fn batch_equals_singles_with_sync_kinds() {
    let ops = vec![
        Op::WaitRoot,
        Op::H2d,
        Op::Marker,
        Op::AddK(3.0),
        Op::Marker,
        Op::D2h,
        Op::WaitRoot,
    ];
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let single = drive(&rig(mode), &ops, None);
        let batched = drive(&rig(mode), &ops, Some(&[ops.len()]));
        assert_eq!(single, batched, "{mode:?}");
    }
}

/// An invalid item anywhere in the batch enqueues *nothing* — the world
/// state (event count, action counters from the executor's perspective)
/// is as if the call never happened.
#[test]
fn batch_is_all_or_nothing() {
    let r = rig(ExecMode::Threads);
    r.hs.thread_synchronize().expect("root settles");
    let before = r.hs.stats().total_calls();
    let bogus = BufferId(9999);
    let batch = vec![
        op_to_batch(&r, &Op::AddK(1.0)),
        BatchAction::Xfer {
            buf: bogus,
            range: 0..8,
            from: DomainId::HOST,
            to: DomainId(1),
        },
    ];
    let err = r.hs.enqueue_many(r.s, batch).expect_err("bogus buffer");
    assert!(matches!(err, HsError::UnknownBuffer(_)), "{err:?}");
    let _ = before;
    r.hs.thread_synchronize().expect("sync");
    let mut out = [0.0; N];
    r.hs.buffer_read_f64(r.b, 0, &mut out).expect("read");
    assert_eq!(out, [1.0; N], "no partial batch executed");
}

/// A batch that fails reserves no event id: its event-waits are checked
/// before the first id is minted, so a failed batch leaves no
/// reserved-but-never-published slot for the retirement watermark to
/// stall on. 10k failing batches, each two valid items ahead of a bogus
/// event-wait: `events.reserved` does not move, and no lifecycle record
/// (what hsan reads as "enqueued"), no action count and no buffer write
/// names an item of a failed batch.
#[test]
fn failed_batches_reserve_no_event_ids() {
    let r = rig(ExecMode::Threads);
    r.hs.thread_synchronize().expect("root settles");
    r.hs.obs_enable(true);
    let counts = |hs: &HStreams| {
        let st = hs.stats();
        (st.computes(), st.transfers(), st.syncs())
    };
    let counts0 = counts(&r.hs);
    let reserved0 = r.hs.metrics().extra["events.reserved"];
    for i in 0..10_000u64 {
        let batch = vec![
            op_to_batch(&r, &Op::AddK(1.0)),
            op_to_batch(&r, &Op::H2d),
            BatchAction::EventWait {
                events: vec![Event(u64::MAX - i)],
            },
        ];
        let err = r.hs.enqueue_many(r.s, batch).expect_err("bogus wait");
        assert!(matches!(err, HsError::UnknownEvent(_)), "{err:?}");
    }
    assert_eq!(
        r.hs.metrics().extra["events.reserved"],
        reserved0,
        "failed batches reserved event ids"
    );
    let records = r.hs.take_obs_records();
    assert!(
        records.is_empty(),
        "failed batches left {} lifecycle records",
        records.len()
    );
    assert_eq!(
        counts(&r.hs),
        counts0,
        "failed batches bumped the action counters"
    );
    r.hs.thread_synchronize().expect("sync");
    let mut out = [0.0; N];
    r.hs.buffer_read_f64(r.b, 0, &mut out).expect("read");
    assert_eq!(out, [1.0; N], "no item of a failed batch may run");
}

/// The empty batch is a no-op returning no events.
#[test]
fn empty_batch_is_noop() {
    let r = rig(ExecMode::Threads);
    let evs = r.hs.enqueue_many(r.s, Vec::new()).expect("empty");
    assert!(evs.is_empty());
}

/// Batch event-waits reject unknown events like the single-action API.
#[test]
fn batch_event_wait_validates_ids() {
    let r = rig(ExecMode::Threads);
    let err =
        r.hs.enqueue_many(
            r.s,
            vec![BatchAction::EventWait {
                events: vec![Event(u64::MAX)],
            }],
        )
        .expect_err("unknown event");
    assert!(matches!(err, HsError::UnknownEvent(_)), "{err:?}");
}

/// With lifecycle records on, a batch folds into exactly the trace the
/// equivalent singles fold into — same ids, same kinds, footprints and
/// wait edges.
#[test]
fn batch_trace_matches_singles_trace() {
    let ops = vec![Op::H2d, Op::AddK(2.0), Op::Marker, Op::D2h, Op::WaitRoot];
    let project = |rig: &Rig, splits: Option<&[usize]>| {
        rig.hs.obs_enable(true);
        match splits {
            None => {
                for op in &ops {
                    run_single(rig, op);
                }
            }
            Some(sizes) => {
                let mut rest = &ops[..];
                for &sz in sizes {
                    let (chunk, tail) = rest.split_at(sz.min(rest.len()));
                    let batch: Vec<BatchAction> =
                        chunk.iter().map(|o| op_to_batch(rig, o)).collect();
                    rig.hs.enqueue_many(rig.s, batch).expect("batch");
                    rest = tail;
                }
            }
        }
        rig.hs.thread_synchronize().expect("sync");
        let trace = hstreams_core::ActionTrace::from_records(&rig.hs, &rig.hs.take_obs_records());
        trace
            .actions()
            .map(|a| {
                (
                    a.event,
                    a.stream,
                    a.kind,
                    a.footprint.clone(),
                    a.waits.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let single = project(&rig(mode), None);
        let batched = project(&rig(mode), Some(&[2, 3]));
        assert_eq!(single, batched, "{mode:?}");
        assert_eq!(single.len(), ops.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any op sequence, split into batches at any boundaries, produces the
    /// same data and counters as one-at-a-time enqueues (thread executor:
    /// real data flows through the card window and back) — and, with the
    /// recovery log on, the same log: entry for entry, the same event,
    /// stream, dependences and op.
    #[test]
    fn random_batch_splits_match_singles(
        ops in proptest::collection::vec(
            prop_oneof![
                (1u32..5).prop_map(|k| Op::AddK(k as f64)),
                Just(Op::H2d),
                Just(Op::D2h),
                Just(Op::Marker),
                Just(Op::WaitRoot),
            ],
            1..24,
        ),
        seed in 0u64..u64::MAX,
    ) {
        // Derive chunk sizes from the seed: 1..=5 per chunk until covered.
        let mut sizes = Vec::new();
        let (mut left, mut x) = (ops.len(), seed);
        while left > 0 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let sz = (1 + (x >> 33) % 5) as usize;
            sizes.push(sz.min(left));
            left -= sz.min(left);
        }
        let single = drive(&rig(ExecMode::Threads), &ops, None);
        let batched = drive(&rig(ExecMode::Threads), &ops, Some(&sizes));
        prop_assert_eq!(single, batched);
        for (chaos, durable) in [(true, false), (false, true), (true, true)] {
            let single = drive_logged(&ops, None, chaos, durable);
            let batched = drive_logged(&ops, Some(&sizes), chaos, durable);
            // The gate, the root transfer before it, and every op — in
            // memory only while a plan is armed: a durable-only run keeps
            // no replay mirror.
            let mirrored = if chaos { ops.len() + 2 } else { 0 };
            prop_assert_eq!(single.1, mirrored as f64);
            prop_assert_eq!(single.2.len(), if durable { ops.len() + 2 } else { 0 });
            prop_assert_eq!(single, batched, "chaos {}, durable {}", chaos, durable);
        }
    }
}
