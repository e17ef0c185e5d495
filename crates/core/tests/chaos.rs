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

/// The domains degraded to the host, by index.
fn degraded(hs: &HStreams) -> Vec<usize> {
    hs.domains()
        .iter()
        .filter(|d| d.degraded)
        .map(|d| d.id.0)
        .collect()
}

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
            let chaos = hs
                .chaos_install(FaultPlan {
                    dma_fault_rate: 0.25,
                    compute_fault_rate: 0.25,
                    retry: RetryPolicy::standard(8),
                    ..FaultPlan::new(seed)
                })
                .expect("fault plan");
            pipelined_workload(&mut hs, 10).expect("transient-only faults + budget must succeed");
            let mut log = chaos.injected_log();
            log.sort();
            (log, degraded(&hs))
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
                ..ActionOpts::default()
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
                ..ActionOpts::default()
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
        let chaos = hs
            .chaos_install(FaultPlan {
                retry: RetryPolicy::standard(8),
                ..FaultPlan::new(1)
                    .with_trigger(FaultSite::Compute { stream: 0, nth: 1 }, FaultKind::Fatal)
            })
            .expect("fault plan");
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
            chaos.injected_log().len(),
            1,
            "exactly one injection: no retries of a permanent fault ({mode:?})"
        );
    }
}

/// An injected sink panic fails the action as its panicking run function
/// would, with the same cause in both executors: a dependent on the same
/// stream fails poisoned by it, an independent action on another stream
/// completes, and the log names the site.
#[test]
fn injected_sink_panic_fails_the_action_and_poisons_its_dependent() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let hs = runtime(mode);
        let chaos = hs
            .chaos_install(FaultPlan::new(1).with_trigger(
                FaultSite::Compute { stream: 0, nth: 1 },
                FaultKind::SinkPanic,
            ))
            .expect("fault plan");
        let card = DomainId(1);
        let s0 = hs
            .stream_create(card, CpuMask::range(0, 30))
            .expect("stream");
        let s1 = hs
            .stream_create(card, CpuMask::range(30, 30))
            .expect("stream");
        let [a, b] = [0, 1].map(|_| {
            let buf = hs.buffer_create(1024, BufProps::default());
            hs.buffer_instantiate(buf, card).expect("instantiate");
            buf
        });
        let bump = |s, buf| {
            let op = Operand::f64s(buf, 0, 128, Access::InOut);
            hs.enqueue_compute(s, "bump", Bytes::new(), &[op], CostHint::trivial())
                .expect("enqueue")
        };
        let (panicked, dependent, independent) = (bump(s0, a), bump(s0, a), bump(s1, b));
        let cause =
            FailureCause::SinkPanic("chaos: injected sink panic at compute(stream=0)#1".into());
        assert_eq!(
            hs.event_wait(panicked),
            Err(HsError::ActionFailed(cause.clone())),
            "{mode:?}"
        );
        assert_eq!(
            hs.event_wait(dependent),
            Err(HsError::ActionFailed(FailureCause::poisoned_by(cause))),
            "{mode:?}"
        );
        hs.event_wait(independent)
            .unwrap_or_else(|e| panic!("{mode:?}: the other stream's action: {e}"));
        assert_eq!(
            chaos.injected_log(),
            ["sink_panic@compute(stream=0)#1"],
            "{mode:?}"
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
        let chaos = hs
            .chaos_install(
                FaultPlan::new(5)
                    .with_trigger(FaultSite::CardOp { card: 1, nth: 4 }, FaultKind::CardDead),
            )
            .expect("fault plan");
        pipelined_workload(&mut hs, 8).expect("degradation must let the workload complete");
        assert_eq!(degraded(&hs), [1], "card 1 degraded ({mode:?})");
        assert!(chaos.dead_cards().contains(&1));
        if mode == ExecMode::Threads {
            // The remapped streams keep their logical width (a 30-core
            // share of the lost card) but get the host's lanes for it, not
            // a 30-thread pool each.
            let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            let m = hs.metrics();
            for stream in 0..2 {
                assert_eq!(m.extra[&format!("stream.{stream}.width")], 30.0);
                let lanes = m.extra[&format!("stream.{stream}.lanes")];
                assert!(
                    (1.0..=host_cores as f64).contains(&lanes),
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
        let elided = |hs: &HStreams| hs.metrics().extra["actions.transfer_elided"];
        let (card, before) = (DomainId(1), elided(&hs));
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
        assert_eq!(elided(&hs), before + 2.0, "{mode:?}");
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

/// One row of the conformance table: the action's name, its terminal
/// status (`ok` or the failure's tag), the attempts it made (a failed
/// action's `Failure.attempts`, a completed one's `Retry` records + 1, both
/// read off the first lifecycle minted for its event) and the tag of its
/// failure's root — the poison origin of a dependent.
type ConformanceRow = (&'static str, &'static str, u32, &'static str);

/// The scenario behind [`conformance_table_is_the_same_in_both_modes`],
/// run under `mode`. Faults come from triggers at fixed sites, never from
/// rates, and every stream that draws one is owned by one role, so no
/// injection depends on how threads interleave. Card 1's chaos-visible ops
/// are sequenced by the phase waits: the first h2d (faulted, then its
/// retry) is card op #1 and #2, the compute behind it #3, and the compute
/// the card dies under #4.
fn conformance_table(mode: ExecMode) -> Vec<ConformanceRow> {
    let card = DomainId(1);
    let hs = runtime(mode);
    hs.obs_enable(true);
    hs.chaos_install(FaultPlan {
        retry: RetryPolicy::standard(3),
        ..FaultPlan::new(11)
            .with_trigger(
                FaultSite::Dma {
                    card: 1,
                    h2d: Some(true),
                    nth: 1,
                },
                FaultKind::Transient,
            )
            .with_trigger(
                FaultSite::Compute { stream: 1, nth: 1 },
                FaultKind::Transient,
            )
            .with_trigger(
                FaultSite::Compute { stream: 1, nth: 2 },
                FaultKind::Transient,
            )
            .with_trigger(
                FaultSite::Compute { stream: 1, nth: 3 },
                FaultKind::Transient,
            )
            .with_trigger(
                FaultSite::Compute { stream: 2, nth: 1 },
                FaultKind::Transient,
            )
            .with_trigger(
                FaultSite::Compute { stream: 3, nth: 1 },
                FaultKind::SinkPanic,
            )
            .with_trigger(FaultSite::CardOp { card: 1, nth: 4 }, FaultKind::CardDead)
    })
    .expect("fault plan");
    let stream = |d: DomainId| hs.stream_create(d, CpuMask::first(1)).expect("stream");
    let (s_dma, s_exhaust, s_deadline, s_panic, s_kill, s_free) = (
        stream(card),
        stream(DomainId::HOST),
        stream(DomainId::HOST),
        stream(DomainId::HOST),
        stream(card),
        stream(DomainId::HOST),
    );
    let buffer = |on_card: bool| {
        let buf = hs.buffer_create(1024, BufProps::default());
        if on_card {
            hs.buffer_instantiate(buf, card).expect("instantiate");
        }
        buf
    };
    let compute = |s, func: &str, buf, cost, opts| {
        let operands = vec![Operand::f64s(buf, 0, 128, Access::InOut)];
        let action = BatchAction::Compute {
            func: func.into(),
            args: Bytes::new(),
            operands,
            cost,
        };
        hs.enqueue_many_opts(s, vec![action], opts)
            .expect("enqueue")[0]
    };
    let plain = ActionOpts::default();
    let mut events = Vec::new();
    let mut settle = |named: &[(&'static str, hstreams_core::Event)]| {
        for &(name, ev) in named {
            events.push((name, ev, hs.event_wait(ev)));
        }
    };

    // A transient DMA fault that one retry clears, and the compute behind it.
    let a = buffer(true);
    let h2d = hs
        .enqueue_xfer(s_dma, a, 0..1024, DomainId::HOST, card)
        .expect("h2d");
    let behind_h2d = compute(s_dma, "bump", a, CostHint::trivial(), plain);
    settle(&[("dma_retried", h2d), ("after_dma", behind_h2d)]);

    // A transient compute fault on every attempt the budget allows; a
    // deadline that expires during the second attempt of a retried compute
    // (the `slow` sink sleeps 400 ms, the modelled DGEMM runs for virtual
    // seconds); a sink panic; a dependent of each; one independent action.
    let (x, y, z, w) = (buffer(false), buffer(false), buffer(false), buffer(false));
    let exhausted = compute(s_exhaust, "noop", x, CostHint::trivial(), plain);
    let after_exhausted = compute(s_exhaust, "noop", x, CostHint::trivial(), plain);
    let deadline = ActionOpts {
        deadline: Some(Duration::from_millis(200)),
        retry: None,
        ..ActionOpts::default()
    };
    let big = CostHint::new(hs_machine::KernelKind::Dgemm, 1e12, 512);
    let timed_out = compute(s_deadline, "slow", y, big, deadline);
    let after_timeout = compute(s_deadline, "noop", y, CostHint::trivial(), plain);
    let panicked = compute(s_panic, "bump", z, CostHint::trivial(), plain);
    let after_panic = compute(s_panic, "noop", z, CostHint::trivial(), plain);
    let independent = compute(s_free, "bump", w, CostHint::trivial(), plain);
    settle(&[
        ("exhausted", exhausted),
        ("after_exhausted", after_exhausted),
        ("timed_out", timed_out),
        ("after_timeout", after_timeout),
        ("panicked", panicked),
        ("after_panic", after_panic),
        ("independent", independent),
    ]);

    // The card dies under a compute; waiting on it degrades to the host.
    let b = buffer(true);
    let killed = compute(s_kill, "bump", b, CostHint::trivial(), plain);
    let after_kill = hs
        .enqueue_xfer(s_kill, b, 0..1024, card, DomainId::HOST)
        .expect("d2h");
    settle(&[("killed", killed), ("after_kill", after_kill)]);

    assert_eq!(degraded(&hs), [1], "the card died ({mode:?})");

    let records = hs.take_obs_records();
    let mut first = std::collections::HashMap::new();
    for r in &records {
        if let hs_obs::ObsRecord::Enqueued { action, meta, .. } = r {
            first.entry(meta.event).or_insert(*action);
        }
    }
    let attempts = |ev: hstreams_core::Event| {
        let id = first[&ev.0];
        let mut retries = 0;
        for r in &records {
            match r {
                hs_obs::ObsRecord::Failure {
                    action, attempts, ..
                } if *action == id => return *attempts,
                hs_obs::ObsRecord::Retry { action, .. } if *action == id => retries += 1,
                _ => {}
            }
        }
        retries + 1
    };
    events
        .into_iter()
        .map(|(name, ev, result)| match result {
            Ok(()) => (name, "ok", attempts(ev), "-"),
            Err(HsError::ActionFailed(cause)) => {
                (name, cause.tag(), attempts(ev), cause.root().tag())
            }
            Err(other) => panic!("{name} ({mode:?}): {other}"),
        })
        .collect()
}

/// One fault plan, both executors: every action ends with the same status,
/// after the same number of attempts, poisoned by the same origin.
#[test]
fn conformance_table_is_the_same_in_both_modes() {
    let threads = conformance_table(ExecMode::Threads);
    let sim = conformance_table(ExecMode::Sim);
    let differ: Vec<_> = threads
        .iter()
        .zip(&sim)
        .filter(|(t, s)| t != s)
        .map(|(t, s)| format!("threads {t:?} / sim {s:?}"))
        .collect();
    assert!(
        differ.is_empty(),
        "the modes disagree:\n{}\nthread-mode table: {threads:#?}",
        differ.join("\n")
    );
    assert_eq!(threads.len(), sim.len());
}
