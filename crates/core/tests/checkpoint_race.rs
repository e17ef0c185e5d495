//! A checkpoint taken while another source thread enqueues. A checkpoint
//! needs a quiesce point — every reserved event retired — but enqueues on
//! other source threads are not stopped while it copies the buffers. An
//! action reserved and run in that window lands in the snapshot, and its
//! record sits at the checkpoint's watermark, so recovery would replay it on
//! top: a non-idempotent kernel applied twice.
//!
//! Two durable source threads on host streams, each bumping its own buffer
//! and waiting; one of them checkpoints after every round, behind a
//! ballast buffer that makes each snapshot long. Every trial is crashed —
//! the runtime dropped with its run directory left behind — and recovered in
//! a fresh runtime, and each buffer must hold exactly what the sequential
//! program computes: its initial value plus the rounds its thread ran.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, BufferId, CostHint, CpuMask, DomainId, ExecMode, HStreams, Operand, StreamId,
    TaskCtx,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const TRIALS: usize = 12;
/// Rounds of the thread that does not checkpoint.
const ROUNDS: usize = 3_000;
const N: usize = 64;
/// Copied first by every snapshot (created first), so the other thread's
/// rounds have time to run while it is.
const BALLAST_BYTES: usize = 1 << 20;

fn runtime() -> HStreams {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.register(
        "bump",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x += 1.0;
            }
        }),
    );
    hs
}

/// What the crashed process and the recovering one both run: the ballast,
/// then one stream and one buffer per source thread, buffer `i` holding `i`.
fn init(hs: &HStreams) -> Vec<(StreamId, BufferId)> {
    hs.buffer_create(BALLAST_BYTES, BufProps::default());
    (0..2)
        .map(|i| {
            let s = hs
                .stream_create(DomainId::HOST, CpuMask::first(1))
                .expect("stream");
            let b = hs.buffer_create(N * 8, BufProps::default());
            hs.buffer_write_f64(b, 0, &[i as f64; N]).expect("input");
            (s, b)
        })
        .collect()
}

fn bump(hs: &HStreams, (s, b): (StreamId, BufferId)) {
    let op = [Operand::f64s(b, 0, N, Access::InOut)];
    let ev = hs
        .enqueue_compute(s, "bump", Bytes::new(), &op, CostHint::trivial())
        .expect("enqueue");
    hs.event_wait(ev).expect("bump");
}

fn read(hs: &HStreams, b: BufferId) -> Vec<f64> {
    let mut out = vec![0.0; N];
    hs.buffer_read_f64(b, 0, &mut out).expect("read");
    out
}

#[test]
fn a_checkpoint_never_takes_in_an_action_it_also_replays() {
    for trial in 0..TRIALS {
        let root =
            std::env::temp_dir().join(format!("hs-checkpoint-race-{}-{trial}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let hs = runtime();
        hs.durability_opts(&root, false, 0).expect("durable log");
        let pairs = init(&hs);
        let done = AtomicBool::new(false);
        let checkpointer_rounds = std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    bump(&hs, pairs[1]);
                }
                done.store(true, Ordering::Release);
            });
            let mut rounds = 0;
            while !done.load(Ordering::Acquire) {
                bump(&hs, pairs[0]);
                hs.wal_checkpoint();
                rounds += 1;
            }
            rounds
        });
        hs.thread_synchronize().expect("settle");
        let oracle = [checkpointer_rounds as f64, 1.0 + ROUNDS as f64];
        for (i, want) in oracle.iter().enumerate() {
            assert_eq!(read(&hs, pairs[i].1), [*want; N], "trial {trial}: live run");
        }
        drop(hs);

        let hs = runtime();
        let pairs = init(&hs);
        let report = hs.recover(&root).expect("recover");
        hs.thread_synchronize().expect("replay settles");
        for (i, want) in oracle.iter().enumerate() {
            assert_eq!(
                read(&hs, pairs[i].1),
                [*want; N],
                "trial {trial}: buffer {i} after recovery ({report:?})"
            );
        }
        drop(hs);
        let _ = std::fs::remove_dir_all(&root);
    }
}
