//! Remote domains on a real wire — differential and fault tests.
//!
//! Each test spawns an actual `hs-worker` process (Cargo builds it with
//! this test; `CARGO_BIN_EXE_hs-worker` points at it), connects card
//! domain 1 to it over a Unix socket, and runs the paper's pipelines
//! against the out-of-process card:
//!
//! * matmul and Cholesky must be **bit-identical** to the in-process run
//!   (same kernels, same schedule, different transport ⇒ same bits);
//! * the recorded action traces must be hsan-clean with identical
//!   per-stream projections — the wire must not change what the program
//!   *is*, only where it runs;
//! * the `dma.cN.*` gauges must have byte parity with the local
//!   transport (the model accounts the same traffic; `link.cN.*` reports
//!   the raw framed bytes on top);
//! * a task runs on the remote card from the worker's registry: a function
//!   registered on the host only fails there as an unregistered name fails
//!   in-process;
//! * `kill -9` of the worker is a literal `CardLost` that the runtime
//!   recovers from with no fault plan armed: the card degrades to the
//!   host, mid-Cholesky death replays to the fault-free checksum, runtime
//!   drop stays fast, and the replay mirror that makes this possible stays
//!   bounded.

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_apps::remote::WorkerProc;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::record::ActionTrace;
use hstreams_core::{
    Access, BufProps, CostHint, CpuMask, ExecMode, FailureCause, FaultKind, FaultPlan, FaultSite,
    HStreams, HsError, Operand, TaskCtx,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The domains degraded to the host, by index.
fn degraded(hs: &HStreams) -> Vec<usize> {
    hs.domains()
        .iter()
        .filter(|d| d.degraded)
        .map(|d| d.id.0)
        .collect()
}

fn worker() -> WorkerProc {
    WorkerProc::spawn_with(Path::new(env!("CARGO_BIN_EXE_hs-worker"))).expect("spawn hs-worker")
}

fn local_rt() -> HStreams {
    HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads)
}

fn remote_rt(w: &WorkerProc) -> HStreams {
    HStreams::init_remote(
        PlatformCfg::hetero(Device::Hsw, 1),
        ExecMode::Threads,
        &[(1, w.endpoint())],
    )
    .expect("connect to hs-worker")
}

fn matmul_cfg() -> MatmulConfig {
    let mut c = MatmulConfig::new(24, 6);
    c.streams_per_card = 2;
    c.streams_host = 2;
    c.verify = true;
    c
}

fn chol_cfg() -> CholConfig {
    let mut c = CholConfig::new(24, 6, CholVariant::Hetero);
    c.streams_per_card = 2;
    c.streams_host = 2;
    c.verify = true;
    c
}

/// Per-stream projection of a recorded trace: the sequence of actions each
/// stream saw, in enqueue order. Identical projections mean the transport
/// changed nothing about the program the dependence engine executed.
fn per_stream(t: &ActionTrace) -> BTreeMap<u32, Vec<String>> {
    let mut m: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for a in t.actions() {
        m.entry(a.stream).or_default().push(format!(
            "{:?} {} waits={}",
            a.kind,
            a.label,
            a.waits.len()
        ));
    }
    m
}

fn assert_clean(trace: &ActionTrace, what: &str) {
    let report = hsan::check(trace);
    assert!(
        report.is_clean(),
        "{what}: expected a clean hsan report, got:\n{report}"
    );
}

#[test]
fn matmul_over_the_wire_is_bit_identical_to_local() {
    let mut local = local_rt();
    let lr = matmul::run(&mut local, &matmul_cfg()).expect("local run");
    assert!(lr.max_err.expect("verified") < 1e-10);

    let w = worker();
    let mut hs = remote_rt(&w);
    let rr = matmul::run(&mut hs, &matmul_cfg()).expect("remote run");
    assert!(rr.max_err.expect("verified") < 1e-10);

    assert_eq!(
        lr.checksum.expect("local checksum"),
        rr.checksum.expect("remote checksum"),
        "remote matmul must be bit-identical to the in-process run"
    );
}

#[test]
fn cholesky_over_the_wire_is_bit_identical_hsan_clean_and_same_projection() {
    let mut local = local_rt();
    local.obs_enable(true);
    let lr = cholesky::run(&mut local, &chol_cfg()).expect("local run");
    let lt = ActionTrace::from_records(&local, &local.take_obs_records());
    assert_clean(&lt, "cholesky/local");

    let w = worker();
    let mut hs = remote_rt(&w);
    hs.obs_enable(true);
    let rr = cholesky::run(&mut hs, &chol_cfg()).expect("remote run");
    let rt = ActionTrace::from_records(&hs, &hs.take_obs_records());
    assert_clean(&rt, "cholesky/remote");

    assert!(rr.max_err.expect("verified") < 1e-8);
    assert_eq!(
        lr.checksum.expect("local checksum"),
        rr.checksum.expect("remote checksum"),
        "remote Cholesky must be bit-identical to the in-process run"
    );
    assert_eq!(
        per_stream(&lt),
        per_stream(&rt),
        "per-stream action projections must not depend on the transport"
    );
}

/// The DMA channels count payload traffic identically whether the bytes
/// moved through memcpy or a socket — `dma.cN.*` has byte/op
/// parity across transports, and the wire adds `link.cN.*` on top.
#[test]
fn dma_gauges_have_byte_parity_local_vs_remote() {
    let key = |m: &BTreeMap<String, f64>, k: &str| *m.get(k).unwrap_or(&0.0);
    let run_and_snap = |mut hs: HStreams| {
        matmul::run(&mut hs, &matmul_cfg()).expect("run");
        let snap = hs.metrics();
        snap.extra
    };

    let local = run_and_snap(local_rt());
    let w = worker();
    let remote = run_and_snap(remote_rt(&w));

    for k in [
        "dma.c1.h2d.bytes",
        "dma.c1.d2h.bytes",
        "dma.c1.h2d.ops",
        "dma.c1.d2h.ops",
    ] {
        assert_eq!(
            key(&local, k),
            key(&remote, k),
            "{k}: DMA accounting must not depend on the transport"
        );
        assert!(key(&local, k) > 0.0, "{k}: the workload must move bytes");
    }

    // The local transport has no wire; the remote one must report real
    // framed traffic (headers included, so tx > the h2d payload).
    assert!(!local.contains_key("link.c1.tx_bytes"));
    assert!(key(&remote, "link.c1.tx_bytes") > key(&remote, "dma.c1.h2d.bytes"));
    assert!(key(&remote, "link.c1.rx_bytes") > 0.0);
    assert!(key(&remote, "link.c1.reqs") > 0.0);
}

/// A task function registered through `hs.register` only is in this
/// process's registry, not the worker's: on a remote card it fails as the
/// in-process card fails the same name left unregistered. The card stays
/// healthy, and a function the worker holds runs next on the same stream.
#[test]
fn unknown_function_fails_the_same_on_every_card() {
    const N: usize = 64;
    let run = |mut hs: HStreams, register: bool| {
        hs_apps::kernels::register_all(&mut hs);
        if register {
            hs.register(
                "host_only_scale",
                std::sync::Arc::new(|ctx: &mut TaskCtx| {
                    for y in ctx.buf_f64_mut(0) {
                        *y *= 2.0;
                    }
                }),
            );
        }
        let card = hs.domains()[1].id;
        let s = hs.stream_create(card, CpuMask::first(4)).expect("stream");
        let [x, y] = [0.1f64, 0.7].map(|phase| {
            let buf = hs.buffer_create(N * 8, BufProps::default());
            hs.buffer_instantiate(buf, card).expect("instantiate");
            let data: Vec<f64> = (0..N).map(|i| (i as f64 + phase).sin()).collect();
            hs.buffer_write_f64(buf, 0, &data).expect("host write");
            hs.xfer_to_sink(s, buf, 0..N * 8).expect("h2d");
            buf
        });
        let scale = hs
            .enqueue_compute(
                s,
                "host_only_scale",
                bytes::Bytes::new(),
                &[Operand::f64s(x, 0, N, Access::InOut)],
                CostHint::trivial(),
            )
            .expect("enqueue");
        let err = hs
            .event_wait(scale)
            .expect_err("the sink has no such function");
        let touch = hs_apps::kernels::touch(y, N)
            .enqueue(&hs, s, &[])
            .expect("enqueue");
        hs.event_wait(touch)
            .expect("a function the sink holds runs next");
        assert_eq!(hs.metrics().extra["chaos.dead_cards"], 0.0);
        assert!(degraded(&hs).is_empty());
        err
    };

    let local = run(local_rt(), false);
    let w = worker();
    let remote = run(remote_rt(&w), true);
    assert_eq!(
        local,
        HsError::ActionFailed(FailureCause::Malformed(
            "no run function named 'host_only_scale'".into()
        ))
    );
    assert_eq!(remote, local);
}

/// A `kill -9`'d worker is a *literal* CardLost, and a runtime with a
/// remote card recovers from it with no fault plan armed: the wait that
/// observes the loss degrades card 1 to the host and succeeds. Dropping the
/// runtime with work still outstanding must not burn the drain budget
/// waiting on the corpse.
#[test]
fn worker_kill9_degrades_the_card_and_drop_stays_fast() {
    let mut w = worker();
    let hs = remote_rt(&w);
    let card = hs.domains()[1].id;
    let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
    let b = hs.buffer_create(4096, BufProps::labeled("kill9"));
    hs.buffer_instantiate(b, card).expect("instantiate");
    hs.buffer_write_f64(b, 0, &[1.0; 512]).expect("write");
    hs.xfer_to_sink(s, b, 0..4096).expect("h2d");
    hs.stream_synchronize(s)
        .expect("the wire works before the kill");

    w.kill9();

    hs.xfer_to_sink(s, b, 0..4096)
        .expect("enqueue is still accepted");
    hs.stream_synchronize(s)
        .expect("the loss degrades the card; the wait neither hangs nor fails");
    assert_eq!(degraded(&hs), [1], "the kill degraded card 1");
    assert_eq!(hs.metrics().extra["chaos.dead_cards"], 1.0);

    // More work, then drop without waiting: the drain loop must bail out
    // on the dead card instead of waiting out its 2-second budget per
    // straggler.
    let _ = hs.xfer_to_sink(s, b, 0..4096);
    let t0 = Instant::now();
    drop(hs);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "drop took {took:?}; the drain budget must not be spent on a dead worker"
    );
}

/// A runtime with a remote card keeps the replay mirror with no plan
/// armed, and the amortized compaction keeps it bounded: it holds card
/// work while that work is pending, stays under a ceiling while matmuls of
/// many compaction periods run, and empties at a quiesced sweep.
#[test]
fn remote_mirror_is_bounded_with_no_plan() {
    /// Generous: the compactor runs every 1,024 enqueues and keeps only
    /// what a card loss could still need (peaks of 2–3.5 thousand entries
    /// here, against ~5,500 actions per matmul).
    const CEILING: f64 = 8_192.0;
    let w = worker();
    let mut hs = remote_rt(&w);
    let entries = |hs: &HStreams| hs.metrics().extra["frontend.recovery.entries"];
    let card = hs.domains()[1].id;
    let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
    let b = hs.buffer_create(4096, BufProps::labeled("mirror"));
    hs.buffer_instantiate(b, card).expect("instantiate");
    hs.xfer_to_sink(s, b, 0..4096).expect("h2d");
    assert!(entries(&hs) > 0.0, "pending card work is in the mirror");
    hs.stream_synchronize(s).expect("h2d lands");

    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let (hs, done) = (hs.clone(), done.clone());
        std::thread::spawn(move || {
            let mut peak = 0.0f64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(entries(&hs));
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        })
    };
    let mut cfg = MatmulConfig::new(96, 6);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    for _ in 0..10 {
        let r = matmul::run(&mut hs, &cfg).expect("matmul");
        assert!(r.max_err.expect("verified") < 1e-10);
    }
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let peak = sampler.join().expect("sampler").max(entries(&hs));
    let actions = hs.metrics().extra["events.reserved"];
    assert!(
        actions > 4.0 * CEILING,
        "the matmuls span many compaction periods: {actions} actions"
    );
    assert!(
        peak < CEILING,
        "the mirror prunes replay-dead entries: peak {peak} >= {CEILING}"
    );
    hstreams_core::testing::compact_now(&hs);
    assert_eq!(entries(&hs), 0.0, "a quiesced sweep empties the mirror");
}

/// Acceptance: `kill -9` mid-Cholesky, no fault plan armed. The literal
/// worker death must degrade card 1 to the host and replay to the
/// *fault-free* checksum. The kill delay is
/// halved until the worker demonstrably died before the run finished —
/// all the way to zero, where the kill lands before the first remote op
/// (which still degrades): the run itself is a millisecond or two.
#[test]
fn cholesky_recovers_from_literal_worker_kill9() {
    let mut local = local_rt();
    let reference = cholesky::run(&mut local, &chol_cfg())
        .expect("fault-free local run")
        .checksum
        .expect("verified");
    drop(local);

    let mut kill_after = Duration::from_millis(40);
    let mut saw_degrade = false;
    for attempt in 0..32 {
        let w = worker();
        let mut hs = remote_rt(&w);
        let killer = std::thread::spawn(move || {
            let mut w = w;
            std::thread::sleep(kill_after);
            w.kill9();
            w
        });
        let r = cholesky::run(&mut hs, &chol_cfg()).expect("degraded run completes");
        let _w = killer.join().expect("killer thread");
        assert!(
            r.max_err.expect("verified") < 1e-8,
            "attempt {attempt}: post-kill result must reconstruct A: {:?}",
            r.max_err
        );
        assert_eq!(
            r.checksum.expect("verified"),
            reference,
            "attempt {attempt}: degraded replay must reach the fault-free checksum"
        );
        if degraded(&hs) == [1] {
            saw_degrade = true;
            break;
        }
        // The run outpaced the kill — halve the delay and try again.
        kill_after /= 2;
    }
    assert!(
        saw_degrade,
        "no attempt observed the kill mid-run; card 1 was never degraded"
    );
}

/// SIGTERM is the graceful path: a quiescent worker exits 0 promptly, and
/// the host — which lost nothing, and degrades a lost card with no plan
/// armed — sees no degradation.
#[test]
fn sigterm_quiescent_worker_exits_clean_no_spurious_card_lost() {
    let mut w = worker();
    let hs = remote_rt(&w);
    let card = hs.domains()[1].id;
    let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
    let b = hs.buffer_create(4096, BufProps::labeled("sigterm"));
    hs.buffer_instantiate(b, card).expect("instantiate");
    hs.buffer_write_f64(b, 0, &[2.5; 512]).expect("write");
    hs.xfer_to_sink(s, b, 0..4096).expect("h2d");
    hs.stream_synchronize(s).expect("workload completes");

    w.sigterm();
    let st = w
        .wait_exit(Duration::from_secs(5))
        .expect("SIGTERM must exit the worker");
    assert!(st.success(), "graceful shutdown exits 0, got {st:?}");
    assert!(
        degraded(&hs).is_empty(),
        "a graceful shutdown must not degrade the card"
    );
}

/// SIGTERM mid-Exec: the in-flight request completes, its ack crosses the
/// wire, and only then does the worker exit — the caller sees `Done`, not
/// a dropped connection, and the card is never marked lost.
#[test]
fn sigterm_mid_exec_completes_in_flight_work() {
    use hs_fabric::transport::{ExecReply, ExecRequest, Transport};

    let mut w = worker();
    let chaos = hs_chaos::ChaosHub::default();
    let t = hs_fabric::RemoteDomain::connect(&w.endpoint(), 1, chaos.clone()).expect("connect");
    t.alloc(1, 64).expect("alloc");
    let conn = t.open_exec(1, 1).expect("exec connection");
    let exec = std::thread::spawn(move || {
        let args = 400u32.to_le_bytes();
        conn.exec(&ExecRequest {
            name: "sleep_ms",
            args: &args,
            width: 1,
            bufs: &[(1, 0, 64, true)],
        })
    });
    // Let the Exec reach the worker, then signal while it is running.
    std::thread::sleep(Duration::from_millis(100));
    w.sigterm();
    let reply = exec
        .join()
        .expect("exec thread")
        .expect("in-flight Exec must be served, not dropped");
    assert_eq!(reply, ExecReply::Done);
    let st = w
        .wait_exit(Duration::from_secs(5))
        .expect("worker exits after the drain");
    assert!(st.success(), "graceful shutdown exits 0, got {st:?}");
    assert!(
        chaos.dead_cards().is_empty(),
        "SIGTERM must never masquerade as CardLost"
    );
}

/// A killed worker's replacement is re-admitted: `readmit_remote`
/// reconnects the domain to the fresh process (new socket, same card
/// index), revives the card, clears the degraded set, and subsequent card
/// work crosses the new wire bit-identically to an in-process run.
#[test]
fn restarted_worker_readmits_and_card_work_resumes() {
    let reference = matmul::run(&mut local_rt(), &matmul_cfg())
        .expect("local matmul")
        .checksum
        .expect("verified");

    let mut w = worker();
    let mut hs = remote_rt(&w);
    let card = hs.domains()[1].id;
    let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
    let b = hs.buffer_create(4096, BufProps::labeled("readmit"));
    hs.buffer_instantiate(b, card).expect("instantiate");
    hs.buffer_write_f64(b, 0, &[1.0; 512]).expect("write");
    hs.xfer_to_sink(s, b, 0..4096).expect("h2d");
    hs.stream_synchronize(s)
        .expect("wire works before the kill");

    w.kill9();
    hs.xfer_to_sink(s, b, 0..4096).expect("enqueue accepted");
    // The CardLost degrades the card; the synchronize itself may succeed
    // (the replay already landed the work on the host) or surface the loss.
    let _ = hs.stream_synchronize(s);
    assert_eq!(degraded(&hs), [1], "the loss degraded card 1");

    // Replace the corpse with a fresh worker and re-admit it as card 1.
    let mut w2 = worker();
    hs.readmit_remote(1, &w2.endpoint()).expect("readmit");
    assert!(
        degraded(&hs).is_empty(),
        "readmission clears the degraded set"
    );

    // New card work (fresh streams + instantiations — the restarted worker
    // is empty) must run over the new wire and match the local bits.
    let r = matmul::run(&mut hs, &matmul_cfg()).expect("matmul after readmit");
    assert_eq!(
        r.checksum.expect("verified"),
        reference,
        "post-readmit matmul must be bit-identical to the in-process run"
    );
    assert!(w2.alive(), "the replacement worker served the run");
    let extra = hs.metrics().extra;
    assert!(
        extra.get("link.c1.reqs").copied().unwrap_or(0.0) > 0.0,
        "the readmitted card's link carried traffic"
    );
}

/// The simulated and literal kill paths compose: a plan that *injects*
/// CardDead over the real wire behaves exactly like the in-process one.
#[test]
fn injected_card_death_over_the_wire_degrades_and_recovers() {
    let w = worker();
    let mut hs = remote_rt(&w);
    hs.chaos_install(
        FaultPlan::new(11).with_trigger(FaultSite::CardOp { card: 1, nth: 9 }, FaultKind::CardDead),
    )
    .expect("fault plan");
    let r = matmul::run(&mut hs, &matmul_cfg()).expect("degraded run completes");
    assert_eq!(degraded(&hs), [1]);
    assert!(r.max_err.expect("verified") < 1e-10);
}
