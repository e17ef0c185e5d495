//! Regression tests through the per-action record (`exec::thread::ActionRun`):
//! retry, deadline, poisoning, card loss and recorded completion order all
//! run on one completion path — the sink reports an attempt to the record,
//! which settles, retries or fails, and releases its dependents in place.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, ActionOpts, BatchAction, BufProps, BufferId, CostHint, CpuMask, DomainId, Event,
    ExecMode, FailureCause, FaultKind, FaultPlan, FaultSite, HStreams, HsError, Operand,
    RetryPolicy, StreamId, TaskCtx,
};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const N: usize = 16;
const CARD: DomainId = DomainId(1);

/// The domains degraded to the host, by index.
fn degraded(hs: &HStreams) -> Vec<usize> {
    hs.domains()
        .iter()
        .filter(|d| d.degraded)
        .map(|d| d.id.0)
        .collect()
}

/// A thread-mode runtime with `bump` (+1 on operand 0), `set` (operand 0 :=
/// the 8 argument bytes), `noop`, `boom` (panics) and `hold`, which parks
/// its sink thread until the returned sender is used or dropped — the tests'
/// way of keeping later actions *queued*.
fn runtime() -> (HStreams, Sender<()>) {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.register(
        "bump",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x += 1.0;
            }
        }),
    );
    hs.register(
        "set",
        Arc::new(|ctx: &mut TaskCtx| {
            let v = f64::from_le_bytes(ctx.args()[..8].try_into().expect("8 argument bytes"));
            ctx.buf_f64_mut(0).fill(v);
        }),
    );
    hs.register("noop", Arc::new(|_ctx: &mut TaskCtx| {}));
    hs.register("boom", Arc::new(|_ctx: &mut TaskCtx| panic!("kaput")));
    let (release, held) = channel::<()>();
    let held = Mutex::new(held);
    hs.register(
        "hold",
        Arc::new(move |_ctx: &mut TaskCtx| {
            let _ = held.lock().expect("hold gate").recv();
        }),
    );
    (hs, release)
}

fn card_stream(hs: &HStreams) -> StreamId {
    hs.stream_create(CARD, CpuMask::first(1)).expect("stream")
}

fn card_buffer(hs: &HStreams) -> BufferId {
    let buf = hs.buffer_create(N * 8, BufProps::default());
    hs.buffer_instantiate(buf, CARD).expect("instantiate");
    hs.buffer_write_f64(buf, 0, &[0.0; N]).expect("init");
    buf
}

fn compute(
    hs: &HStreams,
    s: StreamId,
    func: &str,
    buf: Option<BufferId>,
    opts: ActionOpts,
) -> Event {
    let operands: Vec<Operand> = buf
        .map(|b| Operand::f64s(b, 0, N, Access::InOut))
        .into_iter()
        .collect();
    let action = BatchAction::Compute {
        func: func.to_string(),
        args: Bytes::new(),
        operands,
        cost: CostHint::trivial(),
    };
    hs.enqueue_many_opts(s, vec![action], opts)
        .expect("enqueue")[0]
}

fn read(hs: &HStreams, buf: BufferId) -> Vec<f64> {
    let mut out = vec![0.0; N];
    hs.buffer_read_f64(buf, 0, &mut out).expect("read");
    out
}

fn root_of(e: HsError) -> FailureCause {
    match e {
        HsError::ActionFailed(c) => c.root().clone(),
        other => panic!("expected a failed action, got {other}"),
    }
}

/// A transient fault on the first attempt is absorbed by the record: the
/// action's event settles once, as a success, and a dependent registered
/// while the attempt was still failing-and-retrying runs after it.
#[test]
fn transient_fault_is_retried_and_dependents_never_see_it() {
    let (hs, _release) = runtime();
    let chaos = hs
        .chaos_install(FaultPlan::new(3).with_trigger(
            FaultSite::Compute { stream: 0, nth: 1 },
            FaultKind::Transient,
        ))
        .expect("fault plan");
    let (s, other) = (card_stream(&hs), card_stream(&hs));
    let buf = card_buffer(&hs);
    hs.xfer_to_sink(s, buf, 0..N * 8).expect("h2d");
    let retried = compute(
        &hs,
        s,
        "bump",
        Some(buf),
        ActionOpts {
            deadline: None,
            // A long first backoff: the dependents below register while the
            // retry is still parked on the timer wheel.
            retry: Some(RetryPolicy {
                max_attempts: 3,
                base_backoff_us: 50_000,
                multiplier: 1.0,
                jitter: 0.0,
            }),
            ..ActionOpts::default()
        },
    );
    let after = hs.enqueue_event_wait(other, &[retried]).expect("wait");
    let back = hs.xfer_to_source(s, buf, 0..N * 8).expect("d2h");
    hs.event_wait(after).expect("dependent of a retried action");
    hs.event_wait(retried).expect("second attempt succeeds");
    hs.event_wait(back)
        .expect("operand dependent runs after it");
    assert_eq!(read(&hs, buf), vec![1.0; N], "bumped exactly once");
    assert_eq!(chaos.injected_log().len(), 1, "one injected fault");
}

/// A deadline that expires while the attempt sits in the sink's queue fails
/// the action then and there; the attempt's late result changes nothing.
#[test]
fn deadline_beats_a_queued_attempt() {
    let (hs, release) = runtime();
    let (s, other) = (card_stream(&hs), card_stream(&hs));
    let hold = compute(&hs, s, "hold", None, ActionOpts::default());
    let deadline = Duration::from_millis(40);
    let late = compute(
        &hs,
        s,
        "noop",
        None, // no operands: independent of `hold`, so dispatched behind it
        ActionOpts {
            deadline: Some(deadline),
            retry: None,
            ..ActionOpts::default()
        },
    );
    let dependent = hs.enqueue_event_wait(other, &[late]).expect("dependent");
    let cause = root_of(hs.event_wait(late).expect_err("deadline fires first"));
    assert_eq!(
        cause,
        FailureCause::Timeout {
            deadline_ns: deadline.as_nanos() as u64
        }
    );
    release.send(()).expect("sink is parked in hold");
    hs.event_wait(hold).expect("hold completes");
    // The queued attempt has run by now (same sink, FIFO) and reported
    // success to a record that had already settled.
    let drained = compute(&hs, s, "noop", None, ActionOpts::default());
    hs.event_wait(drained).expect("sink drained");
    assert!(matches!(
        root_of(hs.event_wait(late).expect_err("verdict stands")),
        FailureCause::Timeout { .. }
    ));
    assert!(matches!(
        root_of(hs.event_wait(dependent).expect_err("poisoned")),
        FailureCause::Timeout { .. }
    ));
}

/// Poison reaches a dependent that registered on the producer before it
/// failed (walked from the failing sink thread) and one that arrives after
/// (resolved inline at enqueue).
#[test]
fn poison_reaches_dependents_registered_before_and_after_the_failure() {
    let (hs, release) = runtime();
    let (s, other) = (card_stream(&hs), card_stream(&hs));
    let hold = compute(&hs, s, "hold", None, ActionOpts::default());
    let bad = compute(&hs, s, "boom", None, ActionOpts::default());
    // `boom` is queued behind `hold`: still pending when `before` registers.
    let before = hs.enqueue_event_wait(other, &[bad]).expect("before");
    release.send(()).expect("sink is parked in hold");
    hs.event_wait(hold).expect("hold");
    let cause = root_of(hs.event_wait(bad).expect_err("boom panics"));
    assert!(
        matches!(&cause, FailureCause::SinkPanic(m) if m.contains("kaput")),
        "{cause}"
    );
    let after = hs.enqueue_event_wait(other, &[bad]).expect("after");
    for dependent in [before, after] {
        let err = hs.event_wait(dependent).expect_err("poisoned");
        assert!(
            matches!(&err, HsError::ActionFailed(FailureCause::Poisoned { .. })),
            "{err}"
        );
        assert_eq!(root_of(err), cause);
    }
}

/// The card dies in the middle of a dependence chain: every event of the
/// chain — the failed tail and whatever the replay re-ran on the host —
/// resolves as a success through its original handle, in the original
/// order (each round overwrites the buffer, so the last round's value
/// stands however much of the chain was replayed).
#[test]
fn card_loss_mid_chain_replays_in_order_behind_the_same_events() {
    const ROUNDS: usize = 6;
    for dies_at in [5, 8, 9] {
        let (hs, _release) = runtime();
        hs.chaos_install(FaultPlan::new(9).with_trigger(
            FaultSite::CardOp {
                card: 1,
                nth: dies_at,
            },
            FaultKind::CardDead,
        ))
        .expect("fault plan");
        let s = card_stream(&hs);
        let buf = card_buffer(&hs);
        let mut events = Vec::new();
        for round in 1..=ROUNDS {
            events.push(hs.xfer_to_sink(s, buf, 0..N * 8).expect("h2d"));
            let value = Bytes::copy_from_slice(&(round as f64).to_le_bytes());
            let ops = [Operand::f64s(buf, 0, N, Access::Out)];
            let set = hs.enqueue_compute(s, "set", value, &ops, CostHint::trivial());
            events.push(set.expect("set"));
            events.push(hs.xfer_to_source(s, buf, 0..N * 8).expect("d2h"));
        }
        hs.thread_synchronize()
            .expect("degradation completes the chain");
        assert_eq!(degraded(&hs), [1], "card op {dies_at}");
        for ev in events {
            hs.event_wait(ev)
                .unwrap_or_else(|e| panic!("card op {dies_at}: {ev:?} after replay: {e}"));
        }
        assert_eq!(
            read(&hs, buf),
            vec![ROUNDS as f64; N],
            "card died at its op {dies_at}"
        );
    }
}

/// The same chain with an in-place *accumulate*: wherever the card dies,
/// every round's `bump` reaches the host copy exactly once — one that
/// succeeded on the card but never came home is re-run although it had
/// retired before its consumer was enqueued, and one whose d2h had landed is
/// not run again. A host-side wait and a compaction half way make the
/// early rounds' events retire and prune what the log may prune.
#[test]
fn card_loss_mid_accumulate_chain_applies_every_update_once() {
    const ROUNDS: usize = 6;
    for dies_at in 1..=3 * ROUNDS as u64 {
        for sync_half_way in [false, true] {
            let (hs, _release) = runtime();
            hs.chaos_install(FaultPlan::new(9).with_trigger(
                FaultSite::CardOp {
                    card: 1,
                    nth: dies_at,
                },
                FaultKind::CardDead,
            ))
            .expect("fault plan");
            let s = card_stream(&hs);
            let buf = card_buffer(&hs);
            for round in 1..=ROUNDS {
                hs.xfer_to_sink(s, buf, 0..N * 8).expect("h2d");
                compute(&hs, s, "bump", Some(buf), ActionOpts::default());
                hs.xfer_to_source(s, buf, 0..N * 8).expect("d2h");
                if sync_half_way && round == ROUNDS / 2 {
                    hs.stream_synchronize(s).expect("first half");
                    hstreams_core::testing::compact_now(&hs);
                }
            }
            hs.thread_synchronize()
                .expect("degradation completes the chain");
            assert_eq!(degraded(&hs), [1], "card op {dies_at}");
            assert_eq!(
                read(&hs, buf),
                vec![ROUNDS as f64; N],
                "card died at its op {dies_at} (sync half way: {sync_half_way})"
            );
        }
    }
}

/// Re-arming a plan replaces what is injected, not what the runtime has
/// recorded: a `bump` whose result is still only on the card stays in the
/// replay mirror across the re-arm, so losing the card afterwards re-runs it
/// on the host and the buffer reads the one update.
#[test]
fn rearming_a_plan_keeps_the_replay_mirror() {
    let (hs, _release) = runtime();
    hs.chaos_install(FaultPlan::new(1)).expect("fault plan");
    let s = card_stream(&hs);
    let buf = card_buffer(&hs);
    hs.xfer_to_sink(s, buf, 0..N * 8).expect("h2d");
    compute(&hs, s, "bump", Some(buf), ActionOpts::default());
    hs.stream_synchronize(s).expect("card work done");
    hs.chaos_install(
        FaultPlan::new(2).with_trigger(FaultSite::CardOp { card: 1, nth: 1 }, FaultKind::CardDead),
    )
    .expect("fault plan");
    hs.xfer_to_source(s, buf, 0..N * 8).expect("d2h");
    hs.thread_synchronize()
        .expect("degradation completes the d2h");
    assert_eq!(degraded(&hs), [1]);
    assert_eq!(read(&hs, buf), vec![1.0; N], "the card's bump was replayed");
}

/// On a runtime whose cards are all in-process, the replay mirror starts
/// with the first plan, so that plan is refused once an action has been
/// enqueued. Accepted, it killed card 1 at the d2h: the `bump` below was in
/// no mirror, the card degraded with nothing to replay, the sync returned
/// Ok and the host read 0.0 where 1.0 is due.
#[test]
fn a_first_plan_after_card_work_is_refused() {
    let (hs, _release) = runtime();
    let s = card_stream(&hs);
    let buf = card_buffer(&hs);
    hs.xfer_to_sink(s, buf, 0..N * 8).expect("h2d");
    compute(&hs, s, "bump", Some(buf), ActionOpts::default());
    hs.stream_synchronize(s).expect("card work done");
    let plan =
        FaultPlan::new(2).with_trigger(FaultSite::CardOp { card: 1, nth: 1 }, FaultKind::CardDead);
    let armed = hs.chaos_install(plan);
    assert!(
        matches!(armed, Err(HsError::InvalidArg(_))),
        "a first plan after enqueues must be refused"
    );
    hs.xfer_to_source(s, buf, 0..N * 8).expect("d2h");
    hs.thread_synchronize().expect("no card was lost");
    assert!(degraded(&hs).is_empty());
    assert_eq!(
        read(&hs, buf),
        vec![1.0; N],
        "the card's bump reached the host"
    );
}

/// Card liveness is the runtime's state: a second plan revives no card
/// that the first one killed.
#[test]
fn rearming_a_plan_keeps_a_dead_card_dead() {
    let (hs, _release) = runtime();
    hs.chaos_install(
        FaultPlan::new(1).with_trigger(FaultSite::CardOp { card: 1, nth: 1 }, FaultKind::CardDead),
    )
    .expect("fault plan");
    let s = card_stream(&hs);
    let buf = card_buffer(&hs);
    hs.xfer_to_sink(s, buf, 0..N * 8).expect("h2d");
    hs.stream_synchronize(s)
        .expect("degradation completes the h2d");
    let dead = |hs: &HStreams| hs.metrics().extra["chaos.dead_cards"];
    assert_eq!(dead(&hs), 1.0);
    hs.chaos_install(FaultPlan::new(2)).expect("fault plan");
    assert_eq!(dead(&hs), 1.0, "the re-arm revived no card");
    assert_eq!(degraded(&hs), [1]);
}

/// With lifecycle records on, the fold orders a producer's completion
/// before those of dependents that dispatch and complete inside its
/// completion walk — on the single and on the batched enqueue path.
#[test]
fn recorded_completion_order_puts_producers_before_their_dependents() {
    use hstreams_core::BatchAction;
    let (hs, release) = runtime();
    let (s, other) = (card_stream(&hs), card_stream(&hs));
    hs.obs_enable(true);
    // Everything below waits, directly or not, on `hold`: its completion
    // walk releases the whole graph from the sink thread.
    let hold = compute(&hs, s, "hold", None, ActionOpts::default());
    let single = hs.enqueue_event_wait(other, &[hold]).expect("single wait");
    let batch = hs
        .enqueue_many(
            other,
            vec![
                BatchAction::EventWait {
                    events: vec![single],
                },
                BatchAction::Marker,
                BatchAction::Marker,
            ],
        )
        .expect("batch");
    release.send(()).expect("sink is parked in hold");
    hs.thread_synchronize().expect("sync");
    let trace = hstreams_core::ActionTrace::from_records(&hs, &hs.take_obs_records());
    let position = |ev: Event| {
        trace
            .completions
            .iter()
            .position(|(id, _)| *id == ev.0)
            .unwrap_or_else(|| panic!("{ev:?} completed unrecorded"))
    };
    let chain = [hold, single, batch[0], batch[1], batch[2]];
    for pair in chain.windows(2) {
        assert!(
            position(pair[0]) < position(pair[1]),
            "{:?} logged after its dependent {:?}: {:?}",
            pair[0],
            pair[1],
            trace.completions
        );
    }
}

/// A card-loss drain, written out by hand: an event's completion is keyed
/// by its first `Completed` phase. Events 0 → 1 are a producer and its
/// dependent whose first lifecycles failed in the opposite order when the
/// card died, then were replayed in order. Events 2 → 3 completed, then
/// the replay re-ran producer 2 because a replayed reader needed its
/// result: the re-run must not move 2 behind 3.
#[test]
fn completions_are_keyed_by_the_first_completed_lifecycle() {
    use hs_obs::{ActionMeta, ObsKind, ObsPhase, ObsRecord};
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    let enqueued = |action: u64, event: u64| ObsRecord::Enqueued {
        action,
        t_ns: 0,
        meta: ActionMeta {
            stream: 0,
            event,
            kind: ObsKind::Compute,
            order: hstreams_core::ActionKind::Normal,
            card: None,
            h2d: false,
            bytes: 0,
            footprint: Vec::new(),
            waits: Vec::new(),
            label: format!("a{action}"),
        },
    };
    let phase = |action: u64, phase: ObsPhase, t_ns: u64| ObsRecord::Phase {
        action,
        phase,
        t_ns,
    };
    let records = [
        enqueued(0, 0),
        enqueued(1, 1),
        phase(1, ObsPhase::Failed, 10),
        phase(0, ObsPhase::Failed, 20),
        enqueued(2, 0),
        phase(2, ObsPhase::Completed, 30),
        enqueued(3, 1),
        phase(3, ObsPhase::Completed, 40),
        enqueued(4, 2),
        phase(4, ObsPhase::Completed, 50),
        enqueued(5, 3),
        phase(5, ObsPhase::Completed, 60),
        enqueued(6, 2),
        phase(6, ObsPhase::Completed, 70),
    ];
    let trace = hstreams_core::ActionTrace::from_records(&hs, &records);
    assert_eq!(trace.completions, vec![(0, 30), (1, 40), (2, 50), (3, 60)]);
}

/// One lifecycle per action, in both modes: a compute whose first two
/// attempts draw transient faults stamps `DepsResolved` once, at its first
/// dispatch, and `Dispatched` once per attempt, after the chaos consult
/// that decides the attempt — then the sink runs the third attempt.
#[test]
fn a_retried_compute_has_one_lifecycle_in_both_modes() {
    use hs_obs::{ObsPhase, ObsRecord};
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), mode);
        hs.register("noop", Arc::new(|_ctx: &mut TaskCtx| {}));
        hs.obs_enable(true);
        hs.chaos_install(FaultPlan {
            retry: RetryPolicy::standard(3),
            ..FaultPlan::new(3)
                .with_trigger(
                    FaultSite::Compute { stream: 0, nth: 1 },
                    FaultKind::Transient,
                )
                .with_trigger(
                    FaultSite::Compute { stream: 0, nth: 2 },
                    FaultKind::Transient,
                )
        })
        .expect("fault plan");
        let s = hs
            .stream_create(DomainId::HOST, CpuMask::first(1))
            .expect("stream");
        let ev = compute(&hs, s, "noop", None, ActionOpts::default());
        hs.event_wait(ev)
            .unwrap_or_else(|e| panic!("third attempt succeeds ({mode:?}): {e}"));
        let phases: Vec<ObsPhase> = hs
            .take_obs_records()
            .into_iter()
            .filter_map(|r| match r {
                ObsRecord::Phase { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        use ObsPhase::*;
        assert_eq!(
            phases,
            [
                DepsResolved,
                Dispatched,
                RetryScheduled,
                Dispatched,
                RetryScheduled,
                Dispatched,
                SinkStart,
                Completed
            ],
            "{mode:?}"
        );
    }
}
