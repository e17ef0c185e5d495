//! Durable action log: survive process death and recover to a fault-free
//! state. These tests model the crash in-process — the runtime is dropped
//! with its WAL run directory left behind, exactly what `kill -9` leaves
//! on disk (appends are flushed to the page cache at every wait entry) —
//! and a second runtime recovers from it. The real-kill version lives in
//! `examples/crash_recovery.rs`, which CI runs with an actual `SIGKILL`.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, BufferId, CostHint, CpuMask, DomainId, Event, ExecMode, FaultKind, FaultPlan,
    FaultSite, HStreams, HsError, Operand, StreamId, TaskCtx,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[path = "support/mutate.rs"]
mod mutate;
use mutate::mutate;

const N: usize = 64;

/// The domains degraded to the host, by index.
fn degraded(hs: &HStreams) -> Vec<usize> {
    hs.domains()
        .iter()
        .filter(|d| d.degraded)
        .map(|d| d.id.0)
        .collect()
}

fn tmp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "hs-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A runtime with the test kernels registered: `bump` adds 1.0 to every
/// element of its operand, `double` doubles it — the two do not commute, so
/// the order they ran in shows in the data.
fn runtime(mode: ExecMode) -> HStreams {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), mode);
    hs.register(
        "bump",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x += 1.0;
            }
        }),
    );
    hs.register(
        "double",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x *= 2.0;
            }
        }),
    );
    hs
}

/// The deterministic init both the original and the restarted process run:
/// two streams on the card, one buffer instantiated there, input written.
fn init_workload(hs: &HStreams) -> (StreamId, StreamId, BufferId) {
    let card = DomainId(1);
    let s0 = hs.stream_create(card, CpuMask::first(1)).expect("s0");
    let s1 = hs.stream_create(card, CpuMask::first(1)).expect("s1");
    let buf = hs.buffer_create(N * 8, BufProps::labeled("data"));
    hs.buffer_instantiate(buf, card).expect("instantiate");
    let input: Vec<f64> = (0..N).map(|i| i as f64).collect();
    hs.buffer_write_f64(buf, 0, &input).expect("write input");
    (s0, s1, buf)
}

/// One round on stream `s`: h2d → `func` → d2h; returns the d2h's event.
fn round(hs: &HStreams, s: StreamId, buf: BufferId, func: &str) -> Event {
    let card = DomainId(1);
    hs.enqueue_xfer(s, buf, 0..N * 8, DomainId::HOST, card)
        .expect("h2d");
    hs.enqueue_compute(
        s,
        func,
        Bytes::new(),
        &[Operand::f64s(buf, 0, N, Access::InOut)],
        CostHint::trivial(),
    )
    .expect("compute");
    hs.enqueue_xfer(s, buf, 0..N * 8, card, DomainId::HOST)
        .expect("d2h")
}

/// `rounds` of h2d → bump → d2h, alternating streams, with a cross-stream
/// event wait each round so recovery exercises `Sync` dependence mapping.
fn enqueue_rounds(hs: &HStreams, s0: StreamId, s1: StreamId, buf: BufferId, rounds: usize) {
    let mut last = None;
    for i in 0..rounds {
        let s = if i % 2 == 0 { s0 } else { s1 };
        if let Some(prev) = last {
            hs.enqueue_event_wait(s, &[prev]).expect("cross wait");
        }
        last = Some(round(hs, s, buf, "bump"));
    }
}

/// Init *without* rewriting the input: buffer state must come entirely
/// from the checkpoint overlay (plus replay) — used by the checkpoint
/// recovery tests.
fn init_no_input(hs: &HStreams) -> BufferId {
    let card = DomainId(1);
    hs.stream_create(card, CpuMask::first(1)).expect("s0");
    hs.stream_create(card, CpuMask::first(1)).expect("s1");
    let buf = hs.buffer_create(N * 8, BufProps::labeled("data"));
    hs.buffer_instantiate(buf, card).expect("instantiate");
    buf
}

fn read_result(hs: &HStreams, buf: BufferId) -> Vec<f64> {
    let mut out = vec![0.0; N];
    hs.buffer_read_f64(buf, 0, &mut out).expect("read");
    out
}

/// The reference: same workload, no durability, no crash.
fn fault_free(mode: ExecMode, rounds: usize) -> Vec<f64> {
    let hs = runtime(mode);
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf, rounds);
    hs.thread_synchronize().expect("sync");
    read_result(&hs, buf)
}

fn run_count(root: &Path) -> usize {
    std::fs::read_dir(root)
        .map(|rd| {
            rd.filter(|e| {
                e.as_ref()
                    .is_ok_and(|e| e.file_name().to_string_lossy().starts_with("run-"))
            })
            .count()
        })
        .unwrap_or(0)
}

/// Acceptance: a durable run that dies after its waits flushed recovers —
/// on a fresh runtime with the same init — to the fault-free result, on
/// both executors.
#[test]
fn crash_and_recover_matches_fault_free_on_both_executors() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let root = tmp_root("crash");
        let reference = fault_free(mode, 6);
        {
            let hs = runtime(mode);
            hs.durability_opts(&root, false, 0).expect("durability on");
            let (s0, s1, buf) = init_workload(&hs);
            enqueue_rounds(&hs, s0, s1, buf, 6);
            // One wait is enough to flush every append so far; the process
            // then "dies" (drop) with no checkpoint and no clean shutdown.
            hs.thread_synchronize().expect("sync");
            assert!(
                hs.wal_stats().expect("stats").records > 0,
                "durable run must have logged records"
            );
        }
        assert_eq!(run_count(&root), 1, "crashed run dir left behind");

        let hs = runtime(mode);
        let (_s0, _s1, buf) = init_workload(&hs);
        let report = hs.recover(&root).expect("recover");
        assert!(report.records > 0, "found the crashed run's records");
        assert_eq!(
            report.replayed, report.records,
            "every record replays: {report:?}"
        );
        assert_eq!(report.skipped, 0, "{report:?}");
        hs.thread_synchronize().expect("post-recover sync");
        assert_eq!(
            read_result(&hs, buf),
            reference,
            "mode {mode:?}: recovered result must be bit-identical"
        );
        // The crashed generation was consumed; the new one is durable.
        assert_eq!(run_count(&root), 1, "old run deleted, new run live");
        assert!(hs.wal_stats().is_some(), "recovered runtime is durable");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Recovery replays one action per logged record: a cross-stream
/// dependence becomes an `after` edge of the replayed action, never a sync
/// action of its own, so the recovered program counts exactly the actions
/// the crashed one enqueued (its own event waits included), on both
/// executors.
#[test]
fn a_recovered_program_enqueues_the_actions_it_logged() {
    let actions = |hs: &HStreams| -> Vec<(String, f64)> {
        let rows = hs.metrics().extra.into_iter();
        rows.filter(|(name, _)| name.starts_with("actions."))
            .collect()
    };
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let root = tmp_root("counts");
        let logged = {
            let hs = runtime(mode);
            hs.durability_opts(&root, false, 0).expect("durability on");
            let (s0, s1, buf) = init_workload(&hs);
            enqueue_rounds(&hs, s0, s1, buf, 6);
            hs.thread_synchronize().expect("sync");
            actions(&hs)
        };
        let hs = runtime(mode);
        init_workload(&hs);
        let report = hs.recover(&root).expect("recover");
        hs.thread_synchronize().expect("post-recover sync");
        assert_eq!(report.replayed, report.records, "{report:?}");
        assert_eq!(actions(&hs), logged, "mode {mode:?}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A checkpoint at a quiesce point truncates the log; recovery overlays the
/// snapshot (card windows included) and replays only post-checkpoint
/// records — without re-running the pre-checkpoint work.
#[test]
fn checkpoint_truncates_and_recovery_overlays() {
    let root = tmp_root("ckpt");
    let reference = fault_free(ExecMode::Threads, 8);
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 5);
        hs.thread_synchronize().expect("sync");
        let before = hs.wal_stats().expect("stats").records;
        hstreams_core::testing::wal_checkpoint(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 3);
        hs.thread_synchronize().expect("sync 2");
        assert!(before > 0);
    }
    let hs = runtime(ExecMode::Threads);
    // Deliberately do NOT rewrite the input: the checkpoint overlay must
    // restore the first five rounds' state on its own.
    let buf = init_no_input(&hs);
    let report = hs.recover(&root).expect("recover");
    assert!(
        report.checkpoint_watermark.is_some(),
        "checkpoint found: {report:?}"
    );
    assert!(report.records > 0, "post-checkpoint records: {report:?}");
    assert_eq!(report.replayed, report.records, "{report:?}");
    hs.thread_synchronize().expect("post-recover sync");
    assert_eq!(
        read_result(&hs, buf),
        reference,
        "checkpoint overlay + tail replay must equal the fault-free run"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ------------------------------------------------ torn tail: a consistent cut

fn rng_next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Buffers of a generated program; each has a host and a card copy.
const BUFS: usize = 3;
/// Streams of a generated program: two on the card, the last on the host.
const STREAMS: usize = 3;

#[derive(Clone, Copy, Debug)]
enum Op {
    H2d,
    D2h,
    Bump,
    Double,
}

/// One action of a generated program: `op` on half `half` (0 = the whole
/// buffer, 1 = low half, 2 = high half) of buffer `buf`, in stream `stream`.
#[derive(Clone, Copy, Debug)]
struct Step {
    stream: usize,
    buf: usize,
    half: usize,
    op: Op,
    /// Order this step after conflicting work of other streams by waiting
    /// on the host (which the log does not see) instead of enqueuing an
    /// event wait (which it does).
    host_sync: bool,
}

impl Step {
    fn elems(&self) -> std::ops::Range<usize> {
        [0..N, 0..N / 2, N / 2..N][self.half].clone()
    }

    /// Does the step run against the card's copy?
    fn on_card(&self) -> bool {
        self.stream < STREAMS - 1
    }
}

/// What the log holds for one enqueue of a generated program.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Wait,
    Act(Step),
}

fn program(seed: u64, len: usize) -> Vec<Step> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            let stream = (rng_next(&mut s) % STREAMS as u64) as usize;
            // The host stream computes; card streams also move data.
            let ops: &[Op] = if stream == STREAMS - 1 {
                &[Op::Bump, Op::Double]
            } else {
                &[Op::H2d, Op::Bump, Op::Double, Op::D2h]
            };
            Step {
                stream,
                buf: (rng_next(&mut s) % BUFS as u64) as usize,
                half: (rng_next(&mut s) % 3) as usize,
                op: ops[(rng_next(&mut s) % ops.len() as u64) as usize],
                host_sync: rng_next(&mut s) & 1 == 0,
            }
        })
        .collect()
}

/// The init both lives of a generated program run: its streams, and its
/// buffers on the card with buffer `b` holding `b·100 + i`.
fn init_program(hs: &HStreams) -> (Vec<StreamId>, Vec<BufferId>) {
    let card = DomainId(1);
    let streams = (0..STREAMS)
        .map(|i| {
            let dom = if i < STREAMS - 1 {
                card
            } else {
                DomainId::HOST
            };
            hs.stream_create(dom, CpuMask::first(1)).expect("stream")
        })
        .collect();
    let bufs = (0..BUFS)
        .map(|b| {
            let buf = hs.buffer_create(N * 8, BufProps::labeled("data"));
            hs.buffer_instantiate(buf, card).expect("instantiate");
            hs.buffer_write_f64(buf, 0, &initial(b)).expect("write");
            buf
        })
        .collect();
    (streams, bufs)
}

fn initial(b: usize) -> Vec<f64> {
    (0..N).map(|i| (b * 100 + i) as f64).collect()
}

/// Enqueue `steps` as a correctly synchronized program and return what it
/// logged, in order. Every (buffer, copy, half) keeps the last action that
/// touched it; a step is ordered after those of its own locations — by the
/// runtime inside its stream, across streams by an event wait or by the
/// host waiting for the other stream, as the step says.
fn drive(hs: &HStreams, streams: &[StreamId], bufs: &[BufferId], steps: &[Step]) -> Vec<Entry> {
    let card = DomainId(1);
    // Per buffer, per copy (host, card), per half: the event, and its stream.
    type Toucher = Option<(Event, usize)>;
    let mut last: [[[Toucher; 2]; 2]; BUFS] = Default::default();
    let mut entries = Vec::new();
    for st in steps {
        let s = streams[st.stream];
        let halves: &[usize] = [&[0, 1][..], &[0], &[1]][st.half];
        let copies: &[usize] = match st.op {
            Op::H2d | Op::D2h => &[0, 1],
            _ if st.on_card() => &[1],
            _ => &[0],
        };
        let mut waits = Vec::new();
        for &c in copies {
            for &h in halves {
                if let Some((ev, other)) = last[st.buf][c][h].filter(|(_, o)| *o != st.stream) {
                    if st.host_sync {
                        hs.stream_synchronize(streams[other]).expect("host wait");
                    } else {
                        waits.push(ev);
                    }
                }
            }
        }
        if !waits.is_empty() {
            hs.enqueue_event_wait(s, &waits).expect("event wait");
            entries.push(Entry::Wait);
        }
        let (buf, elems) = (bufs[st.buf], st.elems());
        let bytes = elems.start * 8..elems.end * 8;
        let ev = match st.op {
            Op::H2d => hs.enqueue_xfer(s, buf, bytes, DomainId::HOST, card),
            Op::D2h => hs.enqueue_xfer(s, buf, bytes, card, DomainId::HOST),
            Op::Bump | Op::Double => hs.enqueue_compute(
                s,
                if matches!(st.op, Op::Bump) {
                    "bump"
                } else {
                    "double"
                },
                Bytes::new(),
                &[Operand::f64s(buf, elems.start, elems.len(), Access::InOut)],
                CostHint::trivial(),
            ),
        }
        .expect("enqueue");
        entries.push(Entry::Act(*st));
        for &c in copies {
            for &h in halves {
                last[st.buf][c][h] = Some((ev, st.stream));
            }
        }
    }
    entries
}

/// The sequential reference: `entries` one at a time on plain vectors (the
/// card's copies start zeroed, as its windows do). Returns the host copies.
fn oracle(entries: &[Entry]) -> Vec<Vec<f64>> {
    let mut host: Vec<Vec<f64>> = (0..BUFS).map(initial).collect();
    let mut card = vec![vec![0.0; N]; BUFS];
    for e in entries {
        let Entry::Act(st) = e else { continue };
        let (b, r) = (st.buf, st.elems());
        match st.op {
            Op::H2d => card[b][r.clone()].copy_from_slice(&host[b][r]),
            Op::D2h => host[b][r.clone()].copy_from_slice(&card[b][r]),
            Op::Bump | Op::Double => {
                let copy = if st.on_card() { &mut card } else { &mut host };
                for x in &mut copy[b][r] {
                    *x = if matches!(st.op, Op::Bump) {
                        *x + 1.0
                    } else {
                        *x * 2.0
                    };
                }
            }
        }
    }
    host
}

/// Recover `root` on a fresh runtime and require a consistent cut: nothing
/// skipped, nothing noted, and the buffers hold exactly what running the
/// recovered prefix of `entries` one action at a time leaves.
fn recover_consistent_cut(root: &Path, entries: &[Entry]) -> hstreams_core::RecoveryReport {
    let hs = runtime(ExecMode::Threads);
    let (_streams, bufs) = init_program(&hs);
    let report = hs.recover(root).expect("recover");
    assert_eq!(report.skipped, 0, "{report:?}");
    assert_eq!(report.replayed, report.records, "{report:?}");
    assert!(
        report.remarks.is_empty(),
        "recovery had nothing to remark on: {report:?}"
    );
    assert_eq!(
        hs.metrics().extra["wal.broken"],
        0.0,
        "the re-log into the new run kept durability"
    );
    hs.thread_synchronize().expect("post-recover sync");
    let prefix = &entries[..report.records as usize];
    for (b, expect) in oracle(prefix).iter().enumerate() {
        assert_eq!(
            &read_result(&hs, bufs[b]),
            expect,
            "buffer {b} after the first {} of {entries:#?}",
            prefix.len()
        );
    }
    report
}

/// A torn write costs exactly the torn tail, and what is left is a
/// *consistent cut*: a prefix of the logged sequence — so closed under
/// every dependence, including the ones only the host's waiting made — that
/// recovers to the state of running that prefix sequentially. First the
/// injected fault (a flush mid-run chops the action partition mid-record;
/// everything appended after the tear is lost with it), then generated
/// programs, shortest first, their action partition chopped at seeded byte
/// offsets.
#[test]
fn torn_tail_recovers_longest_prefix() {
    let root = tmp_root("torn");
    let steps = program(0x9e37_79b9_7f4a_7c15, 24);
    let (entries, logged) = {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        hs.chaos_install(
            FaultPlan::new(7).with_trigger(FaultSite::Wal { nth: 1 }, FaultKind::Torn),
        )
        .expect("fault plan");
        let (streams, bufs) = init_program(&hs);
        let entries = drive(&hs, &streams, &bufs, &steps);
        // The first real flush — a host wait inside the program, or this
        // one — fires the torn-write fault.
        hs.thread_synchronize().expect("sync");
        (entries, hs.wal_stats().expect("stats").records)
    };
    assert_eq!(entries.len() as u64, logged);
    let report = recover_consistent_cut(&root, &entries);
    assert!(
        !report.torn.is_empty(),
        "torn tail must be reported: {report:?}"
    );
    assert!(
        u64::from(report.records) < logged,
        "the torn record is lost: {report:?} vs {logged} logged"
    );
    let _ = std::fs::remove_dir_all(&root);

    let mut seed = 0x2545_f491_4f6c_dd1du64;
    for len in [1, 2, 4, 8, 16, 32].into_iter().flat_map(|n| [n; 2]) {
        let steps = program(rng_next(&mut seed), len);
        let entries = {
            let hs = runtime(ExecMode::Threads);
            hs.durability_opts(&root, false, 0).expect("durability on");
            let (streams, bufs) = init_program(&hs);
            let entries = drive(&hs, &streams, &bufs, &steps);
            hs.thread_synchronize().expect("sync");
            for (b, expect) in oracle(&entries).iter().enumerate() {
                assert_eq!(
                    &read_result(&hs, bufs[b]),
                    expect,
                    "the run itself: {steps:#?}"
                );
            }
            entries
        };
        // The run directory holds one segment: the action partition's.
        let run = std::fs::read_dir(&root).unwrap().next().unwrap().unwrap();
        let seg = std::fs::read_dir(run.path())
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        let data = std::fs::read(seg.path()).expect("segment");
        let _ = std::fs::remove_dir_all(&root);
        let mut cuts: Vec<usize> = (0..6)
            .map(|_| (rng_next(&mut seed) % (data.len() as u64 + 1)) as usize)
            .chain([data.len()])
            .collect();
        cuts.sort_unstable();
        let mut recovered = 0;
        for cut in cuts {
            let dir = root.join(run.file_name());
            std::fs::create_dir_all(&dir).expect("run dir");
            std::fs::write(dir.join(seg.file_name()), &data[..cut]).expect("chopped segment");
            let report = recover_consistent_cut(&root, &entries);
            assert!(
                report.records >= recovered,
                "a longer file never recovers less: {report:?} at byte {cut}"
            );
            recovered = report.records;
            let _ = std::fs::remove_dir_all(&root);
        }
        assert_eq!(
            recovered as usize,
            entries.len(),
            "the whole file, the whole log"
        );
    }
}

/// An injected WAL I/O failure breaks durability but never the run: the
/// workload completes, the loss is noted, and later flushes are no-ops.
#[test]
fn wal_io_fault_degrades_to_in_memory() {
    let root = tmp_root("io");
    let hs = runtime(ExecMode::Threads);
    hs.durability_opts(&root, false, 0).expect("durability on");
    let chaos = hs
        .chaos_install(FaultPlan::new(7).with_trigger(FaultSite::Wal { nth: 1 }, FaultKind::Io))
        .expect("fault plan");
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf, 4);
    hs.thread_synchronize()
        .expect("the run itself must succeed");
    let expected: Vec<f64> = (0..N).map(|i| i as f64 + 4.0).collect();
    assert_eq!(read_result(&hs, buf), expected);
    assert_eq!(hs.metrics().extra["wal.broken"], 1.0, "loss flagged");
    let log = chaos.injected_log();
    assert!(
        log.iter().any(|l| l.contains("io@wal#1")),
        "io fault injected: {log:?}"
    );
    assert!(
        log.iter().any(|l| l.contains("durability lost")),
        "loss noted: {log:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Two crashes back to back: recovery re-logs into a fresh generation, so
/// a second crash (even mid-recovery-output) recovers from the newest
/// complete generation with nothing double-applied.
#[test]
fn double_crash_recovers_twice() {
    let root = tmp_root("double");
    let reference = fault_free(ExecMode::Threads, 4);
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 4);
        hs.thread_synchronize().expect("sync");
    }
    {
        let hs = runtime(ExecMode::Threads);
        let (_s0, _s1, _buf) = init_workload(&hs);
        let report = hs.recover(&root).expect("first recover");
        assert_eq!(report.replayed, report.records);
        hs.thread_synchronize().expect("sync");
        // Crash again without a checkpoint: the replayed actions were
        // re-logged into the new generation.
    }
    let hs = runtime(ExecMode::Threads);
    let (_s0, _s1, buf) = init_workload(&hs);
    let report = hs.recover(&root).expect("second recover");
    assert_eq!(report.replayed, report.records, "{report:?}");
    hs.thread_synchronize().expect("sync");
    assert_eq!(read_result(&hs, buf), reference);
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint whose state lives only in the blob (its log records were
/// retired) must survive TWO crashes: the first recovery persists the
/// overlaid checkpoint into its fresh generation *before* deleting the
/// source run, so a second kill — landing before the new generation's own
/// first throttled checkpoint — still finds the pre-watermark buffer
/// state on disk instead of replaying the tail against init-state buffers.
#[test]
fn checkpoint_survives_double_crash() {
    let root = tmp_root("ckpt-double");
    let reference = fault_free(ExecMode::Threads, 8);
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 5);
        hs.thread_synchronize().expect("sync");
        hstreams_core::testing::wal_checkpoint(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 3);
        hs.thread_synchronize().expect("sync 2");
        // Crash 1: rounds 1–5 exist only in the checkpoint blob.
    }
    {
        let hs = runtime(ExecMode::Threads);
        init_no_input(&hs);
        let report = hs.recover(&root).expect("first recover");
        assert!(report.checkpoint_watermark.is_some(), "{report:?}");
        assert_eq!(report.replayed, report.records, "{report:?}");
        hs.thread_synchronize().expect("sync");
        // Crash 2: the workload is too small for the new generation's
        // throttled checkpoint to have fired on its own.
    }
    let hs = runtime(ExecMode::Threads);
    let buf = init_no_input(&hs);
    let report = hs.recover(&root).expect("second recover");
    assert!(
        report.checkpoint_watermark.is_some(),
        "the first recovery must have persisted the checkpoint into its generation: {report:?}"
    );
    hs.thread_synchronize().expect("sync");
    assert_eq!(
        read_result(&hs, buf),
        reference,
        "double crash with a checkpoint must still be bit-identical"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A root with an existing run on it is `recover()`'s job:
/// `durability_opts()` refuses it rather than minting a newer generation the next recovery
/// would delete as an interrupted-recovery leftover (destroying the
/// genuine new run and replaying stale data).
#[test]
fn durability_refuses_root_with_existing_runs() {
    let root = tmp_root("dirty");
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 1);
        hs.thread_synchronize().expect("sync");
    }
    let hs = runtime(ExecMode::Threads);
    let err = hs
        .durability_opts(&root, false, 0)
        .expect_err("dirty root must be refused");
    assert!(
        format!("{err}").contains("recover"),
        "error should point at recover(): {err}"
    );
    // recover() on that root still works — and leaves a root
    // durability_opts() keeps refusing while a run exists.
    let (_s0, _s1, _buf) = init_workload(&hs);
    hs.recover(&root).expect("recover instead");
    hs.thread_synchronize().expect("sync");
    let _ = std::fs::remove_dir_all(&root);
}

/// The one run directory under `root`.
fn run_dir(root: &Path) -> PathBuf {
    std::fs::read_dir(root)
        .expect("root")
        .map(|e| e.expect("entry").path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("run-"))
        })
        .expect("a run directory")
}

/// A run directory holding a valid segment of another run, copied in under
/// its own first segment's name, is refused rather than replayed: the scan
/// names the other run, which is not the directory's.
#[test]
fn recover_refuses_a_segment_of_another_run() {
    let (root, other) = (tmp_root("own-run"), tmp_root("other-run"));
    for (dir, rounds) in [(&root, 2), (&other, 3)] {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(dir, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, rounds);
        hs.thread_synchronize().expect("sync");
    }
    let first_segment = |dir: &Path| run_dir(dir).join("p00000000-00000000.seg");
    std::fs::copy(first_segment(&other), first_segment(&root)).expect("copy the segment in");
    let hs = runtime(ExecMode::Threads);
    let _ = init_workload(&hs);
    let err = hs
        .recover(&root)
        .expect_err("another run's segment is refused");
    assert!(err.to_string().contains("not its own run"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&other);
}

/// A checkpoint blob that is there but cannot be trusted is refused, not
/// skipped: the records below its watermark were retired, so replaying
/// the tail without it would run against init-state buffers. Refused are
/// another run's valid blob copied in, and a blob that fails its CRC.
#[test]
fn recover_refuses_a_checkpoint_it_cannot_trust() {
    let (root, other) = (tmp_root("own-ckpt"), tmp_root("other-ckpt"));
    for dir in [&root, &other] {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(dir, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 2);
        hs.thread_synchronize().expect("sync");
        hstreams_core::testing::wal_checkpoint(&hs);
    }
    let blob = run_dir(&root).join("checkpoint.blob");
    std::fs::copy(run_dir(&other).join("checkpoint.blob"), &blob).expect("copy the blob in");
    let recover = || {
        let hs = runtime(ExecMode::Threads);
        let _ = init_no_input(&hs);
        hs.recover(&root)
            .expect_err("an untrusted checkpoint is refused")
    };
    let err = recover();
    assert!(err.to_string().contains("not its own run"), "{err}");
    let bytes = std::fs::read(&blob).expect("blob");
    std::fs::write(&blob, &bytes[..bytes.len() - 1]).expect("truncate the blob");
    let err = recover();
    assert!(err.to_string().contains("fails validation"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&other);
}

/// Untrusted bytes: a real run's `checkpoint.blob`, mutated 64 seeded ways,
/// is refused every time — an `ExecFailed` naming the blob, no panic — and
/// nothing of it is overlaid: the restarted runtime's buffer keeps its
/// init state and no new generation is minted.
#[test]
fn recover_refuses_every_seeded_mutation_of_the_checkpoint_blob() {
    let root = tmp_root("blob-mutations");
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 2);
        hs.thread_synchronize().expect("sync");
        hstreams_core::testing::wal_checkpoint(&hs);
    }
    let blob = run_dir(&root).join("checkpoint.blob");
    let good = std::fs::read(&blob).expect("a checkpoint was written");
    for seed in 0..64 {
        let mut bad = good.clone();
        mutate(&mut bad, seed);
        std::fs::write(&blob, &bad).expect("write the mutated blob");
        let hs = runtime(ExecMode::Threads);
        let buf = init_no_input(&hs);
        match hs.recover(&root) {
            Err(HsError::ExecFailed(m)) => {
                assert!(m.contains(&blob.display().to_string()), "seed {seed}: {m}")
            }
            other => panic!("seed {seed}: a mutated blob must be refused, got {other:?}"),
        }
        assert_eq!(read_result(&hs, buf), vec![0.0; N], "seed {seed}: overlaid");
        assert!(hs.wal_stats().is_none(), "seed {seed}: durability enabled");
        assert_eq!(run_count(&root), 1, "seed {seed}: a generation was minted");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A root holding several generations: the crashed run, a newer partial
/// one (what an interrupted recovery leaves) and an entry that is no run at
/// all. The oldest run is authoritative and replays to the fault-free
/// result; the newer run is deleted; the other entry is not touched.
#[test]
fn recover_takes_the_oldest_of_several_generations() {
    let root = tmp_root("generations");
    let reference = fault_free(ExecMode::Threads, 4);
    let run_a = {
        let hs = runtime(ExecMode::Threads);
        let id = hs.durability_opts(&root, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 4);
        hs.thread_synchronize().expect("sync");
        id
    };
    // Name the crashed run's directory before a second `run-` entry exists:
    // `run_dir` takes the first one `read_dir` yields, in no set order.
    let crashed = run_dir(&root);
    let newer = root.join(format!("run-{:016x}", run_a + 1));
    std::fs::create_dir_all(&newer).expect("newer run");
    std::fs::copy(
        crashed.join("p00000000-00000000.seg"),
        newer.join("p00000000-00000000.seg"),
    )
    .expect("a segment in the newer run");
    let other = root.join("not-a-run");
    std::fs::write(&other, b"keep me").expect("non-run entry");

    let hs = runtime(ExecMode::Threads);
    let (_s0, _s1, buf) = init_workload(&hs);
    let report = hs.recover(&root).expect("recover");
    assert_eq!(report.run_id, run_a, "{report:?}");
    assert_eq!(
        (report.replayed, report.skipped),
        (report.records, 0),
        "{report:?}"
    );
    hs.thread_synchronize().expect("post-recover sync");
    assert_eq!(read_result(&hs, buf), reference, "{report:?}");
    assert!(!newer.exists(), "the newer generation is deleted");
    assert_eq!(std::fs::read(&other).expect("kept"), b"keep me");
    assert_eq!(run_count(&root), 1, "only the recovered generation is left");
    let _ = std::fs::remove_dir_all(&root);
}

/// Degradations land on the WAL's meta partition: a restarted process sees
/// the crashed run's failure history in the recovery report.
#[test]
fn prior_card_loss_surfaces_in_recovery_report() {
    let root = tmp_root("prior");
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        hs.chaos_install(
            FaultPlan::new(3)
                .with_trigger(FaultSite::CardOp { card: 1, nth: 2 }, FaultKind::CardDead),
        )
        .expect("fault plan");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 4);
        hs.thread_synchronize().expect("degraded run completes");
        assert_eq!(degraded(&hs), [1], "card 1 degraded");
    }
    let hs = runtime(ExecMode::Threads);
    let (_s0, _s1, _buf) = init_workload(&hs);
    let report = hs.recover(&root).expect("recover");
    assert!(
        report
            .prior_failures
            .iter()
            .any(|c| matches!(c, hstreams_core::FailureCause::CardLost { card: 1 })),
        "prior degradation surfaces: {report:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Durability is an init-time switch: enabling it after the first enqueue
/// is an error, as is recovering on a runtime that already enqueued.
#[test]
fn durability_and_recover_require_a_fresh_runtime() {
    let root = tmp_root("fresh");
    let hs = runtime(ExecMode::Threads);
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf, 1);
    hs.thread_synchronize().expect("sync");
    assert!(
        hs.durability_opts(&root, false, 0).is_err(),
        "late enable must fail"
    );
    assert!(hs.recover(&root).is_err(), "late recover must fail");
    // And recovering an empty root is a clear error, not a silent no-op.
    let fresh = runtime(ExecMode::Threads);
    assert!(fresh.recover(&root).is_err(), "no runs to recover");
    let _ = std::fs::remove_dir_all(&root);
}

/// Three enqueue→sync cycles with a 60 s group-commit window, then the
/// "crash": the run directory the tests below recover from. Each sync
/// flushes fresh bytes, and all but the first flush land inside the window.
fn group_commit_run(tag: &str) -> PathBuf {
    let root = tmp_root(tag);
    let hs = runtime(ExecMode::Threads);
    hs.obs_enable(true);
    hs.durability_opts(&root, true, 60_000).expect("enable");
    let (s0, s1, buf) = init_workload(&hs);
    for _ in 0..3 {
        enqueue_rounds(&hs, s0, s1, buf, 2);
        hs.thread_synchronize().expect("sync");
    }
    let stats = hs.wal_stats().expect("wal on");
    assert!(stats.fsyncs >= 1, "creation-time flush syncs: {stats:?}");
    assert!(
        stats.fsync_batched > 0,
        "wait-entry flushes inside the window must defer: {stats:?}"
    );
    let rows = hs.metrics().rows();
    let batched = rows
        .iter()
        .find(|(k, _)| k == "wal.fsync_batched")
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    assert!(
        batched > 0.0,
        "the metrics row reports the deferral: {rows:?}"
    );
    root
}

/// Group-commit fsync: with a wide batch window, flushes inside the window
/// skip the syscall (counted) and the log still recovers every record —
/// batching trades the media-durability window, never page-cache
/// durability.
#[test]
fn durability_opts_group_commits_fsyncs() {
    let root = group_commit_run("fsync-batch");
    // Every record still lands: recovery replays the full history — three
    // cycles of (h2d, bump, d2h) + (wait, h2d, bump, d2h).
    let hs2 = runtime(ExecMode::Threads);
    init_workload(&hs2);
    let report = hs2.recover(&root).expect("recover");
    hs2.thread_synchronize().expect("post-recover sync");
    assert_eq!(
        (report.records, report.replayed, report.skipped),
        (21, 21, 0),
        "{report:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Thread A (the caller) runs a `bump` round on stream 0 and waits for it;
/// thread B runs a `double` round on stream 1 and synchronizes; then A runs
/// another `bump` round on stream 0. Only the host orders the three rounds
/// (a synchronize, a join). Ids come from one counter, so they cannot
/// contradict that order; log order — the order they were enqueued in —
/// remains the rule recovery uses.
fn two_source_threads(hs: &HStreams, s0: StreamId, s1: StreamId, buf: BufferId) {
    round(hs, s0, buf, "bump");
    hs.stream_synchronize(s0).expect("A's first round");
    std::thread::scope(|t| {
        t.spawn(|| {
            round(hs, s1, buf, "double");
            hs.stream_synchronize(s1).expect("B's round");
        });
    });
    round(hs, s0, buf, "bump");
}

/// Work ordered across streams *only* by the source waiting — nothing the
/// log records — comes back in the order it was enqueued in. Input one: the
/// cycles of `group_commit_run`, separated by a `thread_synchronize`, so
/// cycle k+1's first h2d (stream 0) conflicts with cycle k's last round
/// (stream 1) with no event between them. Input two: `two_source_threads`.
/// Until the log became one sequence (one WAL partition per stream before
/// it), recovery lost a bump on input one about one run in four.
#[test]
fn recovery_keeps_cycles_ordered_only_by_a_host_synchronize() {
    let root = group_commit_run("host-sync-order");
    let expect = fault_free(ExecMode::Threads, 6);
    let hs2 = runtime(ExecMode::Threads);
    let (_s0, _s1, buf2) = init_workload(&hs2);
    let report = hs2.recover(&root).expect("recover");
    hs2.thread_synchronize().expect("post-recover sync");
    assert_eq!(read_result(&hs2, buf2), expect, "{report:?}");
    let _ = std::fs::remove_dir_all(&root);

    let root = tmp_root("two-sources");
    let expect: Vec<f64> = (0..N).map(|i| (i as f64 + 1.0) * 2.0 + 1.0).collect();
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        two_source_threads(&hs, s0, s1, buf);
        hs.thread_synchronize().expect("sync");
        assert_eq!(read_result(&hs, buf), expect, "the run itself");
    }
    let hs2 = runtime(ExecMode::Threads);
    let (_s0, _s1, buf2) = init_workload(&hs2);
    let report = hs2.recover(&root).expect("recover");
    assert_eq!((report.records, report.skipped), (9, 0), "{report:?}");
    hs2.thread_synchronize().expect("post-recover sync");
    assert_eq!(read_result(&hs2, buf2), expect, "{report:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// batch_ms = 0 keeps the old contract: every syncing flush issues its own
/// fsync, nothing is ever deferred.
#[test]
fn durability_opts_zero_window_syncs_every_flush() {
    let root = tmp_root("fsync-now");
    let hs = runtime(ExecMode::Threads);
    hs.durability_opts(&root, true, 0).expect("enable");
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf, 3);
    hs.thread_synchronize().expect("sync");
    let stats = hs.wal_stats().expect("wal on");
    assert_eq!(stats.fsync_batched, 0, "no window, no deferral: {stats:?}");
    assert!(stats.fsyncs >= stats.flushes.min(1), "{stats:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// FNV-1a over bytes, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The record stream a sim-mode durable run leaves on disk — partition,
/// event id and payload of every record, in order — is pinned: the writer
/// may change how it frames and buffers, never what lands. Sim mode makes
/// the enqueue-time dependences, and so the payloads, independent of timing.
#[test]
fn wal_record_stream_is_pinned() {
    const PINNED_RECORDS: usize = 23;
    const PINNED_DIGEST: u64 = 0xb362_12d5_ac0e_0fab;
    let root = tmp_root("pinned-stream");
    {
        let hs = runtime(ExecMode::Sim);
        hs.durability_opts(&root, false, 0).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 6);
        hs.thread_synchronize().expect("sync");
    }
    let records = hs_wal::recover_dir(&run_dir(&root)).expect("scan").records;
    let digest = records.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        let h = fnv1a(h, &r.partition.to_le_bytes());
        let h = fnv1a(h, &r.ev.to_le_bytes());
        let h = fnv1a(h, &(r.payload.len() as u64).to_le_bytes());
        fnv1a(h, &r.payload)
    });
    assert_eq!(
        (records.len(), digest),
        (PINNED_RECORDS, PINNED_DIGEST),
        "record stream changed: {} records, digest {digest:#018x}",
        records.len()
    );
    let _ = std::fs::remove_dir_all(&root);
}
