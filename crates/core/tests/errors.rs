//! Exhaustive error-path coverage of the public API: every misuse must
//! produce a typed error (never a panic, hang, or silent corruption).
//!
//! The buffer lifetime hazards — use after destroy, out of bounds, a domain
//! the buffer was never instantiated in — are refused at enqueue by both
//! executors. That is why a live hsan trace needs no buffer operations.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, ActionOpts, BatchAction, BufProps, CostHint, CpuMask, DomainId, Endpoint, Event,
    ExecMode, HStreams, HsError, HsResult, Operand, StreamId,
};

fn rt() -> HStreams {
    rt_in(ExecMode::Threads)
}

fn rt_in(mode: ExecMode) -> HStreams {
    HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), mode)
}

const BOTH: [ExecMode; 2] = [ExecMode::Threads, ExecMode::Sim];

/// The error of an enqueue that must fail before it reserves anything: the
/// event table's length and retirement watermark are where they were (an
/// id reserved would show in both).
fn fails_clean(hs: &HStreams, enqueue: impl FnOnce() -> HsResult<Event>) -> HsError {
    let table = || {
        let m = hs.metrics();
        ["reserved", "watermark"].map(|k| m.extra[&format!("events.{k}")])
    };
    let before = table();
    let err = enqueue().expect_err("the enqueue is invalid");
    assert_eq!(table(), before, "a failed enqueue touched the event table");
    err
}

#[test]
fn unknown_stream_everywhere() {
    let hs = rt();
    let buf = hs.buffer_create(64, BufProps::default());
    let ghost = StreamId(42);
    assert!(matches!(
        hs.enqueue_compute(ghost, "f", Bytes::new(), &[], CostHint::trivial()),
        Err(HsError::UnknownStream(_))
    ));
    assert!(matches!(
        hs.enqueue_xfer(ghost, buf, 0..64, DomainId::HOST, DomainId(1)),
        Err(HsError::NotInstantiated(_, _)) | Err(HsError::UnknownStream(_))
    ));
    assert!(matches!(
        hs.stream_synchronize(ghost),
        Err(HsError::UnknownStream(_))
    ));
    assert!(matches!(
        hs.stream_domain(ghost),
        Err(HsError::UnknownStream(_))
    ));
}

#[test]
fn unknown_buffer_everywhere() {
    let hs = rt();
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    let ghost = hstreams_core::BufferId(99);
    assert!(matches!(
        fails_clean(&hs, || hs.enqueue_xfer(
            s,
            ghost,
            0..8,
            DomainId::HOST,
            DomainId(1)
        )),
        HsError::UnknownBuffer(_)
    ));
    assert!(matches!(
        hs.buffer_write_f64(ghost, 0, &[1.0]),
        Err(HsError::UnknownBuffer(_))
    ));
    assert!(matches!(
        hs.buffer_read_f64(ghost, 0, &mut [0.0]),
        Err(HsError::UnknownBuffer(_))
    ));
    assert!(matches!(
        hs.buffer_destroy(ghost),
        Err(HsError::UnknownBuffer(_))
    ));
}

#[test]
fn unknown_domain_and_event() {
    let hs = rt();
    assert!(matches!(
        hs.stream_create(DomainId(7), CpuMask::first(1)),
        Err(HsError::UnknownDomain(_))
    ));
    let buf = hs.buffer_create(8, BufProps::default());
    assert!(matches!(
        hs.buffer_instantiate(buf, DomainId(7)),
        Err(HsError::UnknownDomain(_))
    ));
    assert!(matches!(
        hs.event_wait(Event(1234)),
        Err(HsError::UnknownEvent(_))
    ));
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    assert!(matches!(
        fails_clean(&hs, || hs.enqueue_event_wait(s, &[Event(1234)])),
        HsError::UnknownEvent(_)
    ));
    // One past the newest id: nobody was ever given it, and the table's
    // length says so exactly.
    let first = hs.enqueue_marker(s).expect("marker");
    let next = Event(first.0 + 1);
    assert!(matches!(
        fails_clean(&hs, || hs.enqueue_event_wait(s, &[next])),
        HsError::UnknownEvent(_)
    ));
    // An `after` edge is checked the same way, for the whole call.
    let after = ActionOpts {
        after: &[first, next],
        ..ActionOpts::default()
    };
    let two = || vec![BatchAction::Marker, BatchAction::Marker];
    assert!(matches!(
        fails_clean(&hs, || Ok(hs.enqueue_many_opts(s, two(), after)?[0])),
        HsError::UnknownEvent(e) if e == next
    ));
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = hs.clone();
    let helper = std::thread::spawn(move || tx.send(waiter.event_wait(next)));
    let waited = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("event_wait on an id nobody was given must return, not spin");
    helper.join().expect("helper").expect("sent");
    assert!(
        matches!(waited, Err(HsError::UnknownEvent(_))),
        "{waited:?}"
    );
}

#[test]
fn out_of_bounds_operands_and_ranges() {
    for mode in BOTH {
        let hs = rt_in(mode);
        let s = hs
            .stream_create(DomainId(1), CpuMask::first(1))
            .expect("stream");
        let buf = hs.buffer_create(64, BufProps::default());
        hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
        assert!(matches!(
            fails_clean(&hs, || hs.enqueue_xfer(
                s,
                buf,
                0..65,
                DomainId::HOST,
                DomainId(1)
            )),
            HsError::OutOfBounds { .. }
        ));
        assert!(matches!(
            fails_clean(&hs, || hs.enqueue_compute(
                s,
                "f",
                Bytes::new(),
                &[Operand::new(buf, 60..72, Access::In)],
                CostHint::trivial()
            )),
            HsError::OutOfBounds { .. }
        ));
        assert!(matches!(
            hs.buffer_write_f64(buf, 7, &[1.0, 2.0]),
            Err(HsError::OutOfBounds { .. })
        ));
        let mut out = [0.0; 9];
        assert!(matches!(
            hs.buffer_read_f64(buf, 0, &mut out),
            Err(HsError::OutOfBounds { .. })
        ));
    }
}

/// A compute whose operand fails validation is not an enqueued action: the
/// action count `metrics()` reports as `actions.compute` stays put.
#[test]
fn refused_compute_is_not_counted() {
    for mode in BOTH {
        let hs = rt_in(mode);
        let s = hs
            .stream_create(DomainId(1), CpuMask::first(1))
            .expect("stream");
        let buf = hs.buffer_create(64, BufProps::default());
        hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
        let before = hs.metrics().extra["actions.compute"];
        let err = hs.enqueue_compute(
            s,
            "f",
            Bytes::new(),
            &[Operand::new(buf, 60..72, Access::In)],
            CostHint::trivial(),
        );
        assert!(matches!(err, Err(HsError::OutOfBounds { .. })), "{mode:?}");
        assert_eq!(hs.metrics().extra["actions.compute"], before, "{mode:?}");
    }
}

#[test]
fn never_instantiated_operands_are_refused_in_both_executors() {
    for mode in BOTH {
        let hs = rt_in(mode);
        let card = DomainId(1);
        let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
        // Host-only buffer: a compute on the card stream cannot touch it...
        let buf = hs.buffer_create(64, BufProps::default());
        assert!(matches!(
            fails_clean(&hs, || hs.enqueue_compute(
                s,
                "f",
                Bytes::new(),
                &[Operand::new(buf, 0..64, Access::In)],
                CostHint::trivial()
            )),
            HsError::NotInstantiated(b, d) if b == buf && d == card
        ));
        // ...and a transfer to the card has nowhere to land.
        assert!(matches!(
            fails_clean(&hs, || hs.enqueue_xfer(s, buf, 0..64, DomainId::HOST, card)),
            HsError::NotInstantiated(b, d) if b == buf && d == card
        ));
    }
}

/// `app_init` checks every `(domain, n)` before it creates a stream: zero
/// streams, or more streams than the domain has cores, is `InvalidArg`
/// (not a panic) and leaves the stream table as it was, in both executors
/// — also when an earlier pair of the same call was valid.
#[test]
fn app_init_refuses_a_bad_partition_and_creates_nothing() {
    for mode in BOTH {
        let hs = rt_in(mode);
        let made = hs
            .app_init(&[(DomainId::HOST, 1)])
            .expect("one host stream");
        let card_cores = hs.domains()[1].cores as usize;
        for bad in [
            vec![(DomainId(1), 0)],
            vec![(DomainId(1), card_cores + 1)],
            vec![(DomainId::HOST, 1), (DomainId(1), 0)],
        ] {
            let err = hs.app_init(&bad).expect_err("a bad partition");
            assert!(
                matches!(err, HsError::InvalidArg(_)),
                "{mode:?} {bad:?}: {err}"
            );
        }
        // Nothing was created: the next stream takes the next id.
        let next = hs
            .stream_create(DomainId(1), CpuMask::first(1))
            .expect("stream");
        assert_eq!(next, StreamId(made.len() as u32), "{mode:?}");
    }
}

#[test]
fn init_remote_refuses_bad_card_indices_before_connecting() {
    // No worker listens here: a check that reached the connect would fail
    // as `ExecFailed`, not `InvalidArg`.
    let nowhere = || {
        Endpoint::Uds(
            std::env::temp_dir().join(format!("hs-no-worker-{}.sock", std::process::id())),
        )
    };
    for remotes in [
        vec![(0, nowhere())],
        vec![(2, nowhere())],
        vec![(1, nowhere()), (1, nowhere())],
    ] {
        let indices: Vec<usize> = remotes.iter().map(|(i, _)| *i).collect();
        let init = std::panic::catch_unwind(|| {
            HStreams::init_remote(
                PlatformCfg::hetero(Device::Hsw, 1),
                ExecMode::Threads,
                &remotes,
            )
            .map(drop)
        });
        let Ok(result) = init else {
            panic!("cards {indices:?}: init_remote panicked");
        };
        let err = result.expect_err("a bad card index");
        assert!(
            matches!(err, HsError::InvalidArg(_)),
            "cards {indices:?}: {err}"
        );
    }
}

#[test]
fn empty_mask_and_wait_any_empty() {
    let hs = rt();
    assert!(matches!(
        hs.stream_create(DomainId(1), CpuMask::EMPTY),
        Err(HsError::InvalidArg(_))
    ));
    assert!(matches!(
        hs.event_wait_any(&[]),
        Err(HsError::InvalidArg(_))
    ));
}

#[test]
fn overlapping_operands_within_one_task_are_rejected() {
    let hs = rt();
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    let buf = hs.buffer_create(64, BufProps::default());
    hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
    let err = fails_clean(&hs, || {
        hs.enqueue_compute(
            s,
            "f",
            Bytes::new(),
            &[
                Operand::new(buf, 0..32, Access::In),
                Operand::new(buf, 16..48, Access::Out),
            ],
            CostHint::trivial(),
        )
    });
    assert!(matches!(err, HsError::InvalidArg(_)), "{err}");
    // Overlapping reads are fine.
    assert!(hs
        .enqueue_compute(
            s,
            "f",
            Bytes::new(),
            &[
                Operand::new(buf, 0..32, Access::In),
                Operand::new(buf, 16..48, Access::In),
            ],
            CostHint::trivial(),
        )
        .is_ok());
    // That compute fails at the sink (no function 'f'), which must surface
    // as ExecFailed — drain it.
    let _ = hs.thread_synchronize();
}

#[test]
fn missing_sink_function_fails_event_not_process() {
    let hs = rt();
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    let buf = hs.buffer_create(64, BufProps::default());
    hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
    let ev = hs
        .enqueue_compute(
            s,
            "no_such_kernel",
            Bytes::new(),
            &[Operand::new(buf, 0..8, Access::In)],
            CostHint::trivial(),
        )
        .expect("enqueue succeeds; execution fails");
    let err = hs.event_wait(ev).expect_err("missing function");
    assert!(
        matches!(err, HsError::ActionFailed(_)) && err.to_string().contains("no_such_kernel"),
        "{err}"
    );
    // The stream keeps working afterwards.
    hs.register(
        "ok",
        std::sync::Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {}),
    );
    let ev2 = hs
        .enqueue_compute(
            s,
            "ok",
            Bytes::new(),
            &[Operand::new(buf, 8..16, Access::In)],
            CostHint::trivial(),
        )
        .expect("enqueue");
    hs.event_wait(ev2).expect("stream survives a failed action");
}

#[test]
fn double_instantiate_is_idempotent() {
    let hs = rt();
    let buf = hs.buffer_create(64, BufProps::default());
    hs.buffer_instantiate(buf, DomainId(1)).expect("first");
    hs.buffer_instantiate(buf, DomainId(1))
        .expect("second is a no-op");
}

#[test]
fn destroy_waits_for_inflight_actions() {
    let hs = rt();
    hs.register(
        "slow",
        std::sync::Arc::new(|ctx: &mut hstreams_core::TaskCtx| {
            std::thread::sleep(std::time::Duration::from_millis(25));
            ctx.buf_f64_mut(0)[0] = 1.0;
        }),
    );
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(1))
        .expect("stream");
    let buf = hs.buffer_create(64, BufProps::default());
    hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
    hs.enqueue_compute(
        s,
        "slow",
        Bytes::new(),
        &[Operand::new(buf, 0..64, Access::Out)],
        CostHint::trivial(),
    )
    .expect("enqueue");
    let t0 = std::time::Instant::now();
    hs.buffer_destroy(buf)
        .expect("destroy blocks until the task is done");
    assert!(
        t0.elapsed() >= std::time::Duration::from_millis(20),
        "destroy must wait for the in-flight writer"
    );
}

#[test]
fn use_after_destroy_is_an_error() {
    for mode in BOTH {
        let hs = rt_in(mode);
        let s = hs
            .stream_create(DomainId(1), CpuMask::first(1))
            .expect("stream");
        let buf = hs.buffer_create(64, BufProps::default());
        hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
        hs.buffer_destroy(buf).expect("destroy");
        assert!(matches!(
            fails_clean(&hs, || hs.xfer_to_sink(s, buf, 0..64)),
            HsError::UnknownBuffer(_)
        ));
        assert!(matches!(
            fails_clean(&hs, || hs.enqueue_compute(
                s,
                "f",
                Bytes::new(),
                &[Operand::new(buf, 0..8, Access::In)],
                CostHint::trivial()
            )),
            HsError::UnknownBuffer(_)
        ));
    }
}
