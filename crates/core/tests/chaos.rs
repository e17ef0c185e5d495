//! Chaos-layer integration: deterministic fault injection, retry/backoff,
//! action deadlines, and card-loss degradation at the `HStreams` API level,
//! on both executors.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, ActionOpts, BatchAction, BufProps, CostHint, CpuMask, DomainId, ExecMode, FailureCause,
    FaultKind, FaultPlan, FaultSite, HStreams, HsError, Operand, RetryPolicy, StreamId, TaskCtx,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        "slow",
        Arc::new(|_ctx: &mut TaskCtx| std::thread::sleep(Duration::from_millis(400))),
    );
    hs.register("noop", Arc::new(|_ctx: &mut TaskCtx| {}));
    hs
}

/// A small pipelined workload: h2d → compute → d2h per round, two streams.
/// Returns Ok(()) when the final synchronize succeeds.
fn pipelined_workload(hs: &mut HStreams, rounds: usize) -> Result<(), HsError> {
    let card = DomainId(1);
    // The two halves of the card, 30 cores wide each.
    let s0 = hs.stream_create(card, CpuMask::range(0, 30))?;
    let s1 = hs.stream_create(card, CpuMask::range(30, 30))?;
    let buf = hs.buffer_create(1024, BufProps::default());
    hs.buffer_instantiate(buf, card)?;
    for i in 0..rounds {
        let s = if i % 2 == 0 { s0 } else { s1 };
        hs.enqueue_xfer(s, buf, 0..1024, DomainId::HOST, card)?;
        hs.enqueue_compute(
            s,
            "bump",
            Bytes::new(),
            &[Operand::f64s(buf, 0, 128, Access::InOut)],
            CostHint::trivial(),
        )?;
        hs.enqueue_xfer(s, buf, 0..1024, card, DomainId::HOST)?;
    }
    hs.thread_synchronize()
}

/// Acceptance: the same seed must produce the same injected sites, causes,
/// and retry counts across two runs, in both executor modes. The injected
/// log records one line per injection (site + cause), so sorted-log
/// equality covers sites, causes, and per-site retry multiplicity;
/// independent sites may *interleave* differently across threaded runs,
/// hence the sort.
#[test]
fn same_seed_injects_identically_across_runs() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let run = |seed: u64| {
            let mut hs = runtime(mode);
            hs.chaos_install(
                FaultPlan::new(seed)
                    .with_dma_fault_rate(0.25)
                    .with_compute_fault_rate(0.25)
                    .with_retry(RetryPolicy::standard(8)),
            );
            pipelined_workload(&mut hs, 10).expect("transient-only faults + budget must succeed");
            let mut log = hs.chaos().injected_log();
            log.sort();
            (log, hs.degraded_cards().to_vec())
        };
        let (log_a, deg_a) = run(42);
        let (log_b, deg_b) = run(42);
        assert!(
            !log_a.is_empty(),
            "plan with 25% fault rates must inject something ({mode:?})"
        );
        assert_eq!(log_a, log_b, "same seed, same injections ({mode:?})");
        assert_eq!(deg_a, deg_b);
        // A different seed draws a different fault pattern (not a hard
        // guarantee for any single pair, but (0.25, 40+ sites) makes a
        // collision astronomically unlikely).
        let (log_c, _) = run(43);
        assert_ne!(log_a, log_c, "different seed, different draws ({mode:?})");
    }
}

/// Acceptance: an action that outlives its deadline fails with
/// [`FailureCause::Timeout`] within 2× the deadline — no silent hang — and
/// its dependents are poisoned.
#[test]
fn deadline_expiry_fails_within_twice_the_deadline_and_poisons() {
    let hs = runtime(ExecMode::Threads);
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
    let deadline = Duration::from_millis(150);
    let t0 = Instant::now();
    let slow = hs
        .enqueue_many_opts(
            s,
            vec![BatchAction::Compute {
                func: "slow".into(), // sleeps 400 ms, far past the deadline
                args: Bytes::new(),
                operands: Vec::new(),
                cost: CostHint::trivial(),
            }],
            ActionOpts {
                deadline: Some(deadline),
                retry: None,
            },
        )
        .expect("enqueue")[0];
    let dependent = hs.enqueue_event_wait(s, &[slow]).expect("dependent");
    let err = hs.event_wait(slow).expect_err("deadline must fail it");
    let waited = t0.elapsed();
    assert!(
        matches!(
            err,
            HsError::ActionFailed(FailureCause::Timeout { deadline_ns })
                if deadline_ns == deadline.as_nanos() as u64
        ),
        "{err}"
    );
    assert!(
        waited < 2 * deadline,
        "failure must surface within 2x the deadline, took {waited:?}"
    );
    let err = hs.event_wait(dependent).expect_err("dependent poisoned");
    match &err {
        HsError::ActionFailed(c @ FailureCause::Poisoned { .. }) => {
            assert!(
                matches!(c.root(), FailureCause::Timeout { .. }),
                "poison root is the timeout: {c}"
            );
        }
        other => panic!("expected poisoning, got {other}"),
    }
}

/// Sim mode compares *virtual* time against the deadline: a compute whose
/// modeled duration exceeds the deadline fails, instantly in wall time.
#[test]
fn sim_deadline_is_virtual_time() {
    let hs = runtime(ExecMode::Sim);
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
    let t0 = Instant::now();
    // ~1 TFLOP of DGEMM: several virtual seconds on one core.
    let ev = hs
        .enqueue_many_opts(
            s,
            vec![BatchAction::Compute {
                func: "bump".into(),
                args: Bytes::new(),
                operands: Vec::new(),
                cost: CostHint::new(hs_machine::KernelKind::Dgemm, 1e12, 512),
            }],
            ActionOpts {
                deadline: Some(Duration::from_millis(5)),
                retry: None,
            },
        )
        .expect("enqueue")[0];
    let err = hs.event_wait(ev).expect_err("virtual deadline expires");
    assert!(
        matches!(err, HsError::ActionFailed(FailureCause::Timeout { .. })),
        "{err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "virtual-time deadline must not consume wall time"
    );
}

/// Retries are bounded: a *permanent* injected fault is not retried past
/// the budget, and surfaces as the injected cause.
#[test]
fn fatal_injection_is_not_retried() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let hs = runtime(mode);
        hs.chaos_install(
            FaultPlan::new(1)
                .with_trigger(FaultSite::Compute { stream: 0, nth: 1 }, FaultKind::Fatal)
                .with_retry(RetryPolicy::standard(8))
                .with_auto_degrade(false),
        );
        let card = DomainId(1);
        let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
        let ev = hs
            .enqueue_compute(s, "bump", Bytes::new(), &[], CostHint::trivial())
            .expect("enqueue");
        let err = hs.event_wait(ev).expect_err("fatal injection fails");
        match &err {
            HsError::ActionFailed(FailureCause::Injected { transient, .. }) => {
                assert!(!transient, "fatal injection must not be transient");
            }
            other => panic!("expected injected cause, got {other} ({mode:?})"),
        }
        assert_eq!(
            hs.chaos().injected_log().len(),
            1,
            "exactly one injection: no retries of a permanent fault ({mode:?})"
        );
    }
}

/// Card-loss degradation at the core level: after a CardDead trigger, the
/// card's streams remap to the host, the workload completes, and the
/// runtime records the degradation.
#[test]
fn card_loss_degrades_to_host_and_workload_completes() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let mut hs = runtime(mode);
        hs.obs_enable(true);
        hs.chaos_install(
            FaultPlan::new(5)
                .with_trigger(FaultSite::CardOp { card: 1, nth: 4 }, FaultKind::CardDead),
        );
        pipelined_workload(&mut hs, 8).expect("degradation must let the workload complete");
        assert_eq!(hs.degraded_cards(), &[1], "card 1 degraded ({mode:?})");
        assert!(hs.chaos().is_card_dead(1));
        if mode == ExecMode::Threads {
            // The remapped streams keep their logical width (a 30-core
            // share of the lost card) but get the host's lanes for it, not
            // a 30-thread pool each.
            let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            let m = hs.metrics();
            for stream in 0..2 {
                assert_eq!(m.gauges[&format!("stream.{stream}.width")].current, 30);
                let lanes = m.gauges[&format!("stream.{stream}.lanes")].current;
                assert!(
                    (1..=host_cores as i64).contains(&lanes),
                    "stream {stream}: {lanes} lanes on {host_cores} cores"
                );
            }
            assert!(m.extra["wg.lanes"] <= (2 * host_cores) as f64);
        }
        // The remapped streams keep working for post-degradation enqueues.
        let s = StreamId(0);
        let ev = hs
            .enqueue_compute(s, "noop", Bytes::new(), &[], CostHint::trivial())
            .expect("enqueue after degradation");
        hs.event_wait(ev).expect("runs on the host now");
        // So do transfers that still name the lost card: its copy of a
        // buffer is the host's now, so they alias away like the replayed
        // ones instead of failing with `NotInstantiated`.
        let (card, elided) = (DomainId(1), hs.stats().transfers_elided());
        let buf = hs.buffer_create(64, BufProps::default());
        hs.buffer_write_f64(buf, 0, &[1.0; 8]).expect("fill");
        hs.enqueue_xfer(s, buf, 0..64, DomainId::HOST, card)
            .expect("h2d to the lost card");
        hs.enqueue_compute(
            s,
            "bump",
            Bytes::new(),
            &[Operand::f64s(buf, 0, 8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("compute on the remapped stream");
        hs.enqueue_xfer(s, buf, 0..64, card, DomainId::HOST)
            .expect("d2h from the lost card");
        hs.stream_synchronize(s).expect("settles on the host");
        assert_eq!(hs.stats().transfers_elided(), elided + 2, "{mode:?}");
        if mode == ExecMode::Threads {
            let mut out = [0.0; 8];
            hs.buffer_read_f64(buf, 0, &mut out).expect("read back");
            assert_eq!(out, [2.0; 8]);
        }
        // A card that was never lost is still a card: nothing to alias.
        assert!(matches!(
            hs.enqueue_xfer(s, buf, 0..64, DomainId::HOST, DomainId(7)),
            Err(HsError::UnknownDomain(_))
        ));
    }
}
