//! Regression tests for executor error paths and shutdown behaviour.
//!
//! Pre-fix, the thread executor (a) hung in `Drop` when dispatch callbacks
//! still held DMA channel senders, (b) panicked on whichever thread ran a
//! dispatch callback for a malformed spec (bad stream index, real transfer
//! without a card) or for a transfer dispatched after shutdown, (c) paced
//! every card with the *first* card's link, and (d) stamped its elapsed-time
//! baseline at construction instead of at first submit. Each test here fails
//! against that code.

use bytes::Bytes;
use hs_coi::CoiEvent;
use hs_fabric::NodeId;
use hs_machine::{Device, PlatformCfg};
use hs_obs::ObsAction;
use hstreams_core::exec::{ActionSpec, Executor, RealXfer, SubmitOpts};
use hstreams_core::{CostHint, CpuMask, ExecMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f` on its own thread and panic if it does not finish in `secs` —
/// catches the pre-fix shutdown hang without wedging the whole suite.
fn with_timeout<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let h = std::thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !h.is_finished() {
        assert!(
            Instant::now() < deadline,
            "timed out after {secs}s: executor shutdown hang regression"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    h.join().expect("test body panicked");
}

fn thread_exec(cards: usize) -> Executor {
    let ex = Executor::new(&PlatformCfg::hetero(Device::Hsw, cards), ExecMode::Threads);
    ex.add_stream(0, CpuMask::first(1));
    ex.add_stream(1, CpuMask::first(1));
    ex
}

fn compute_spec(stream_idx: usize, func: &str) -> ActionSpec {
    ActionSpec::Compute {
        stream_idx,
        device: Device::Hsw,
        cores: 1,
        func: func.into(),
        args: Bytes::new(),
        bufs: Default::default(),
        cost: CostHint::trivial(),
        label: format!("{func}@test"),
    }
}

#[test]
fn drop_with_pending_actions_completes_instead_of_hanging() {
    with_timeout(10, || {
        let ex = thread_exec(1);
        ex.coi().expect("thread mode").register(
            "slow",
            Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {
                std::thread::sleep(Duration::from_millis(200));
            }),
        );
        let fabric = ex.coi().expect("thread mode").fabric().clone();
        let src = fabric.register(NodeId(0), 64);
        let dst = fabric.register(NodeId(1), 64);
        let compute = ex.submit(
            compute_spec(1, "slow"),
            &[],
            ObsAction::disabled(),
            SubmitOpts::default(),
        );
        // The transfer's dispatch callback holds DMA sender clones while the
        // compute runs — exactly the state that wedged the old shutdown.
        let xfer = ex.submit(
            ActionSpec::Transfer {
                card_domain: Some(1),
                h2d: true,
                bytes: 64,
                real: Some(RealXfer {
                    src: (src, 0),
                    dst: (dst, 0),
                }),
                label: "xfer:test".into(),
            },
            std::slice::from_ref(&compute),
            ObsAction::disabled(),
            SubmitOpts::default(),
        );
        drop(ex); // must drain both actions, then join workers
        assert!(compute.wait().is_ok(), "compute should finish during drain");
        assert!(xfer.wait().is_ok(), "transfer should finish during drain");
    });
}

#[test]
fn late_dispatch_after_drop_fails_the_action_instead_of_panicking() {
    with_timeout(20, || {
        let ex = thread_exec(1);
        let fabric = ex.coi().expect("thread mode").fabric().clone();
        let src = fabric.register(NodeId(0), 64);
        let dst = fabric.register(NodeId(1), 64);
        // A dependence only this test can resolve: the transfer stays
        // pending through the drain budget and dispatches after teardown.
        let gate = CoiEvent::new();
        let xfer = ex.submit(
            ActionSpec::Transfer {
                card_domain: Some(1),
                h2d: true,
                bytes: 64,
                real: Some(RealXfer {
                    src: (src, 0),
                    dst: (dst, 0),
                }),
                label: "xfer:late".into(),
            },
            std::slice::from_ref(&gate),
            ObsAction::disabled(),
            SubmitOpts::default(),
        );
        drop(ex); // drain budget expires; DMA channels close
        gate.signal(); // dispatch now runs into a closed channel
        let err = xfer.wait().expect_err("late dispatch must fail the event");
        assert!(
            err.to_string().contains("shut down"),
            "unexpected error: {err}"
        );
    });
}

/// Enqueueing behind a slow sink is linear: the in-flight list is swept only
/// when it has doubled, so n submits that cannot complete probe O(n) entries
/// in total. (It used to be swept on every submit past 64 in flight:
/// n²/2 = 2·10⁸ probes of other cores' cache lines here.)
#[test]
fn submits_behind_a_gate_probe_the_in_flight_list_linearly() {
    const N: u64 = 20_000;
    let ex = thread_exec(1);
    let gate = CoiEvent::new();
    let deps = [gate.clone()];
    let events: Vec<CoiEvent> = (0..N)
        .map(|_| {
            ex.submit(
                ActionSpec::Noop,
                &deps,
                ObsAction::disabled(),
                SubmitOpts::default(),
            )
        })
        .collect();
    let probes = ex.sweep_probes();
    assert!(
        probes <= 2 * N,
        "{probes} completion probes for {N} gated submits"
    );
    assert!(events.iter().all(|e| !e.is_complete()));
    gate.signal();
    CoiEvent::wait_all(&events).expect("the gate releases every action");
}

/// Dropping the executor releases the runtime even with timers pending: a
/// deadline far in the future on a finished action, and a retry parked in
/// its backoff. (The timer queue once kept both records, hence their
/// dispatch context, hence the queue itself — a cycle that leaked the
/// `CoiRuntime` with its windows, sockets and DMA channels.)
#[test]
fn pending_timers_do_not_keep_the_runtime_alive_past_drop() {
    use hs_chaos::{FaultKind, FaultPlan, FaultSite, RetryPolicy};
    with_timeout(20, || {
        let ex = thread_exec(1);
        let coi = ex.coi().expect("thread mode").clone();
        ex.chaos().arm(
            FaultPlan::new(7)
                .with_trigger(
                    FaultSite::Compute { stream: 0, nth: 1 },
                    FaultKind::Transient,
                )
                .with_auto_degrade(false),
        );
        let done = ex.submit(
            ActionSpec::Noop,
            &[],
            ObsAction::disabled(),
            SubmitOpts {
                deadline_ns: Some(60_000_000_000),
                ..SubmitOpts::default()
            },
        );
        done.wait()
            .expect("noop completes long before its deadline");
        let retrying = ex.submit(
            compute_spec(0, "nosuch"),
            &[],
            ObsAction::disabled(),
            SubmitOpts {
                deadline_ns: None,
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff_us: 60_000_000,
                    multiplier: 1.0,
                    jitter: 0.0,
                },
            },
        );
        drop(ex); // drain budget runs out on the parked retry
        assert!(!retrying.is_complete(), "still in its backoff");
        drop((done, retrying));
        assert_eq!(Arc::strong_count(&coi), 1, "the runtime leaked");
    });
}

/// A finished producer does not pin the actions that waited on it: once the
/// in-flight list has swept it, a held event keeps one record alive, however
/// long the chain behind it — and letting go of it frees one record, not the
/// chain recursively.
#[test]
fn a_held_head_event_does_not_pin_the_chain_behind_it() {
    const N: usize = 100_000;
    let ex = thread_exec(1);
    ex.coi()
        .expect("thread mode")
        .register("nop", Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {}));
    let gate = CoiEvent::new();
    let submit = |dep: &CoiEvent| {
        ex.submit(
            compute_spec(0, "nop"),
            std::slice::from_ref(dep),
            ObsAction::disabled(),
            SubmitOpts::default(),
        )
    };
    // Every link registers on a pending producer: enqueue-ahead.
    let head = submit(&gate);
    let mut tail = head.clone();
    for _ in 1..N {
        tail = submit(&tail);
    }
    gate.signal();
    tail.wait().expect("chain completes");
    drop((gate, tail));
    drop(ex); // sweeps what finished; `head` alone outlives it
    std::thread::Builder::new()
        .stack_size(64 << 10)
        .spawn(move || drop(head))
        .expect("spawning a small-stack thread")
        .join()
        .expect("dropping the head event must not recurse down the chain");
}

#[test]
fn malformed_compute_fails_fast_path_without_panicking() {
    let ex = thread_exec(1);
    let ev = ex.submit(
        compute_spec(99, "nosuch"),
        &[],
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    let err = ev.wait().expect_err("bad stream index must fail");
    assert!(
        err.to_string().contains("malformed compute"),
        "unexpected error: {err}"
    );
}

#[test]
fn malformed_compute_fails_via_pending_dependence_path() {
    let ex = thread_exec(1);
    let gate = CoiEvent::new();
    let ev = ex.submit(
        compute_spec(99, "nosuch"),
        std::slice::from_ref(&gate),
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    assert!(!ev.is_complete());
    gate.signal(); // dispatch runs on this thread via the countdown callback
    let err = ev.wait().expect_err("bad stream index must fail");
    assert!(
        err.to_string().contains("malformed compute"),
        "unexpected error: {err}"
    );
}

#[test]
fn real_transfer_without_card_domain_fails_not_panics() {
    let ex = thread_exec(1);
    let fabric = ex.coi().expect("thread mode").fabric().clone();
    let src = fabric.register(NodeId(0), 64);
    let dst = fabric.register(NodeId(1), 64);
    let ev = ex.submit(
        ActionSpec::Transfer {
            card_domain: None, // malformed: a real transfer must name a card
            h2d: true,
            bytes: 64,
            real: Some(RealXfer {
                src: (src, 0),
                dst: (dst, 0),
            }),
            label: "xfer:nocard".into(),
        },
        &[],
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    let err = ev.wait().expect_err("transfer without a card must fail");
    assert!(
        err.to_string().contains("without a card domain"),
        "unexpected error: {err}"
    );
}

#[test]
fn transfer_to_out_of_range_card_fails_not_panics() {
    let ex = thread_exec(1);
    let fabric = ex.coi().expect("thread mode").fabric().clone();
    let src = fabric.register(NodeId(0), 64);
    let dst = fabric.register(NodeId(1), 64);
    let ev = ex.submit(
        ActionSpec::Transfer {
            card_domain: Some(5), // only 1 card exists
            h2d: true,
            bytes: 64,
            real: Some(RealXfer {
                src: (src, 0),
                dst: (dst, 0),
            }),
            label: "xfer:oob".into(),
        },
        &[],
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    let err = ev.wait().expect_err("out-of-range card must fail");
    assert!(
        err.to_string().contains("out of range"),
        "unexpected error: {err}"
    );
}

#[test]
fn each_card_paces_to_its_own_link() {
    // A PCIe card (6.5 GB/s) plus a fabric-attached remote node (3 GB/s):
    // their pacers must differ. Pre-fix, every card got card 1's link.
    let platform = PlatformCfg::hetero(Device::Hsw, 1).with_remote_node(Device::Hsw);
    let ex = Executor::new(&platform, ExecMode::ThreadsPaced);
    let fabric = ex.coi().expect("thread mode").fabric();
    let mb = 1 << 20;
    let t1 = fabric.engine(NodeId(1), true).pacer().target(mb, true);
    let t2 = fabric.engine(NodeId(2), true).pacer().target(mb, true);
    assert!(
        t2 > t1,
        "remote node must pace slower than the PCIe card: {t1:?} vs {t2:?}"
    );
}

#[test]
fn elapsed_baseline_is_first_submit_not_construction() {
    let ex = thread_exec(1);
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(
        ex.now_secs(),
        0.0,
        "no submit yet: elapsed must be exactly zero"
    );
    let ev = ex.submit(
        ActionSpec::Noop,
        &[],
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    ev.wait().expect("noop completes");
    let elapsed = ex.now_secs();
    assert!(
        elapsed < 0.05,
        "baseline must be the first submit, not new(): {elapsed}s"
    );
}

#[test]
fn sim_malformed_compute_fails_wait() {
    let ex = Executor::new(&PlatformCfg::hetero(Device::Knc, 1), ExecMode::Sim);
    ex.add_stream(1, CpuMask::first(1));
    let tok = ex.submit(
        compute_spec(7, "ghost"),
        &[],
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    let err = ex.wait(&tok).expect_err("bad stream index must fail");
    assert!(
        err.to_string().contains("malformed compute 'ghost'"),
        "the message names the function: {err}"
    );
    assert!(tok.is_complete(), "poisoned token still completes");
}

#[test]
fn sim_transfer_to_out_of_range_card_fails_wait() {
    let ex = Executor::new(&PlatformCfg::hetero(Device::Knc, 1), ExecMode::Sim);
    ex.add_stream(1, CpuMask::first(1));
    let tok = ex.submit(
        ActionSpec::Transfer {
            card_domain: Some(9),
            h2d: true,
            bytes: 1024,
            real: None,
            label: "xfer:oob".into(),
        },
        &[],
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    let err = ex.wait(&tok).expect_err("out-of-range card must fail");
    assert!(
        err.to_string().contains("out of range"),
        "unexpected error: {err}"
    );
}
