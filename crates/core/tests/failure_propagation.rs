//! Failure-propagation suite: a failed action must poison every transitive
//! dependent — through chains and fan-in joins — on both executors, and a
//! runtime dropped with work still in flight must shut down cleanly.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hs_obs::ObsAction;
use hstreams_core::exec::{ActionSpec, Executor, SubmitOpts};
use hstreams_core::{
    Access, BufProps, ChaosHub, CostHint, CpuMask, DomainId, ExecMode, FailureCause, HStreams,
    HsError, Operand, TaskCtx,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn real_runtime() -> HStreams {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.register(
        "explode",
        Arc::new(|_ctx: &mut TaskCtx| panic!("injected failure")),
    );
    hs.register(
        "incr",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x += 1.0;
            }
        }),
    );
    hs.register(
        "slow",
        Arc::new(|_ctx: &mut TaskCtx| std::thread::sleep(Duration::from_millis(100))),
    );
    hs
}

fn poisoned(e: &HsError) -> bool {
    matches!(e, HsError::ActionFailed(FailureCause::Poisoned { .. }))
        && e.to_string().contains("dependency failed")
}

#[test]
fn thread_failure_poisons_whole_chain() {
    let hs = real_runtime();
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
    // Three dependents chained on the same range: each must inherit the
    // failure from its predecessor, not just the direct dependent.
    let chain: Vec<_> = (0..3)
        .map(|_| {
            hs.enqueue_compute(
                s,
                "incr",
                Bytes::new(),
                &[Operand::f64s(buf, 0, 8, Access::InOut)],
                CostHint::trivial(),
            )
            .expect("enqueue")
        })
        .collect();
    let root = hs.event_wait(bad).expect_err("root failed");
    assert!(
        matches!(root, HsError::ActionFailed(FailureCause::SinkPanic(_)))
            && root.to_string().contains("injected"),
        "{root}"
    );
    for ev in chain {
        let e = hs.event_wait(ev).expect_err("chained dependent poisoned");
        assert!(poisoned(&e), "{e}");
    }
}

#[test]
fn thread_failure_poisons_fan_in_join() {
    let hs = real_runtime();
    let card = DomainId(1);
    let s1 = hs.stream_create(card, CpuMask::first(1)).expect("s1");
    let s2 = hs.stream_create(card, CpuMask::first(1)).expect("s2");
    let a = hs.buffer_create(64, BufProps::default());
    let b = hs.buffer_create(64, BufProps::default());
    for buf in [a, b] {
        hs.buffer_instantiate(buf, card).expect("instantiate");
    }
    let bad = hs
        .enqueue_compute(
            s1,
            "explode",
            Bytes::new(),
            &[Operand::f64s(a, 0, 8, Access::Out)],
            CostHint::trivial(),
        )
        .expect("enqueue bad");
    let good = hs
        .enqueue_compute(
            s2,
            "incr",
            Bytes::new(),
            &[Operand::f64s(b, 0, 8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("enqueue good");
    hs.event_wait(good).expect("good branch unaffected");
    // Fan-in: an event-wait joining both branches must poison, even though
    // one input succeeded.
    let join = hs
        .enqueue_event_wait(s2, &[bad, good])
        .expect("enqueue join");
    let e = hs.event_wait(join).expect_err("join poisoned");
    assert!(poisoned(&e), "{e}");
}

#[test]
fn sim_failure_poisons_chain_and_fan_in() {
    let ex = Executor::connect(
        &PlatformCfg::hetero(Device::Knc, 1),
        ExecMode::Sim,
        ChaosHub::default(),
        &[],
    )
    .expect("an in-process executor");
    ex.add_stream(1, CpuMask::first(1));
    let opts = SubmitOpts::default();
    // Failure origin: a malformed compute.
    let bad = ex.submit(
        ActionSpec::Compute {
            stream_idx: 42,
            device: Device::Knc,
            cores: 1,
            func: "ghost".into(),
            args: Bytes::new(),
            bufs: Default::default(),
            cost: CostHint::trivial(),
            label: "ghost@sim".into(),
        },
        &[],
        ObsAction::disabled(),
        opts,
    );
    // Chain: bad -> n1 -> n2.
    let n1 = ex.submit(
        ActionSpec::Noop,
        std::slice::from_ref(&bad),
        ObsAction::disabled(),
        opts,
    );
    let n2 = ex.submit(
        ActionSpec::Noop,
        std::slice::from_ref(&n1),
        ObsAction::disabled(),
        opts,
    );
    // Fan-in: one good input, one poisoned.
    let good = ex.submit(ActionSpec::Noop, &[], ObsAction::disabled(), opts);
    let join = ex.submit(
        ActionSpec::Noop,
        &[good.clone(), n2.clone()],
        ObsAction::disabled(),
        opts,
    );
    ex.wait(&good).expect("good branch unaffected");
    for tok in [n1, n2, join] {
        let err = ex.wait(&tok).expect_err("dependent poisoned");
        assert!(err.to_string().contains("dependency failed"), "{err}");
        assert!(tok.is_complete(), "poisoned tokens still complete");
    }
    // wait_any over an all-failed set must surface the failure, not spin.
    let lone = ex.submit(
        ActionSpec::Noop,
        std::slice::from_ref(&bad),
        ObsAction::disabled(),
        opts,
    );
    let err = ex.wait_any(&[lone]).expect_err("failed member surfaces");
    assert!(err.to_string().contains("dependency failed"), "{err}");
}

/// Regression: `event_wait_any` over a set whose members ALL fail must
/// return the first member's failure cause — not a generic error, and not
/// spin forever hoping for a success that cannot come.
#[test]
fn wait_any_over_all_failed_set_returns_first_cause() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), mode);
        hs.register("noop", Arc::new(|_ctx: &mut TaskCtx| {}));
        // A non-retryable injected fault on the stream's first compute is
        // the one failure origin that behaves identically on both
        // executors.
        hs.chaos_install(hstreams_core::FaultPlan::new(7).with_trigger(
            hstreams_core::FaultSite::Compute { stream: 0, nth: 1 },
            hstreams_core::FaultKind::Fatal,
        ))
        .expect("fault plan");
        let card = DomainId(1);
        let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
        let bad = hs
            .enqueue_compute(s, "noop", Bytes::new(), &[], CostHint::trivial())
            .expect("enqueue");
        // Two dependents poisoned by the same root; the set {dep1, dep2} is
        // then all-failed.
        let dep1 = hs.enqueue_event_wait(s, &[bad]).expect("dep1");
        let dep2 = hs.enqueue_event_wait(s, &[bad]).expect("dep2");
        let _ = hs.event_wait(bad); // settle the root
        let err = hs
            .event_wait_any(&[dep1, dep2])
            .expect_err("all-failed set must error");
        let HsError::ActionFailed(cause) = &err else {
            panic!("expected structured failure, got {err:?} ({mode:?})");
        };
        assert!(
            matches!(cause, FailureCause::Poisoned { .. }),
            "first member's cause is poisoning, got {cause:?} ({mode:?})"
        );
    }
}

#[test]
fn drop_with_unsynchronized_work_does_not_panic_or_hang() {
    let h = std::thread::spawn(|| {
        let hs = real_runtime();
        let card = DomainId(1);
        let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
        let buf = hs.buffer_create(64, BufProps::default());
        hs.buffer_instantiate(buf, card).expect("instantiate");
        hs.xfer_to_sink(s, buf, 0..64).expect("h2d");
        for _ in 0..4 {
            hs.enqueue_compute(s, "slow", Bytes::new(), &[], CostHint::trivial())
                .expect("enqueue");
        }
        hs.xfer_to_source(s, buf, 0..64).expect("d2h");
        // No synchronize: the runtime drops with the whole pipeline pending.
        drop(hs);
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while !h.is_finished() {
        assert!(
            Instant::now() < deadline,
            "drop with pending actions hung (shutdown regression)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    h.join().expect("drop panicked");
}
