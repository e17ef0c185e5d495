//! Long-run memory boundedness: 100k enqueue/wait cycles must not grow the
//! event table's live window or the recovery log without bound. The
//! amortized compactor (every `COMPACT_EVERY` enqueues) tombstones
//! completed successes and prunes replay-dead recovery entries, so the
//! live footprint stays proportional to the *pending* window, not to the
//! total actions ever enqueued.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, BufferId, CostHint, CpuMask, DomainId, ExecMode, FaultPlan, HStreams,
    HsError, Operand, StreamId, TaskCtx,
};
use std::sync::Arc;

const CYCLES: usize = 100_000;
const SYNC_EVERY: usize = 512;
const SAMPLE_EVERY: usize = 2048;
/// Generous live-window ceiling: the compactor runs every 1024 enqueues,
/// so live events are bounded by roughly one compaction period plus the
/// in-flight pending window — far below this.
const LIVE_CEILING: f64 = 8_192.0;

fn runtime() -> HStreams {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.register("nop", Arc::new(|_ctx: &mut TaskCtx| {}));
    hs
}

fn metric(hs: &HStreams, key: &str) -> f64 {
    hs.metrics()
        .rows()
        .into_iter()
        .find(|(n, _)| n == key)
        .map(|(_, v)| v)
        .unwrap_or(0.0)
}

/// Drive `CYCLES` enqueue/wait cycles on a stream of `domain` — a compute,
/// between an h2d and a d2h when the domain is a card — sampling the
/// live-event gauge and (when chaos is armed) the recovery-log length at
/// quiesce points. Returns (peak live, peak recovery entries).
fn run_cycles(hs: &HStreams, domain: DomainId) -> (f64, f64) {
    let s = hs.stream_create(domain, CpuMask::first(1)).expect("stream");
    let b = hs.buffer_create(4096, BufProps::default());
    hs.buffer_instantiate(b, domain).expect("instantiate");
    let mut peak_live = 0.0f64;
    let mut peak_log = 0.0f64;
    for i in 0..CYCLES {
        if !domain.is_host() {
            hs.xfer_to_sink(s, b, 0..4096).expect("h2d");
        }
        hs.enqueue_compute(
            s,
            "nop",
            Bytes::new(),
            &[Operand::new(b, 0..4096, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("enqueue");
        if !domain.is_host() {
            hs.xfer_to_source(s, b, 0..4096).expect("d2h");
        }
        if (i + 1) % SYNC_EVERY == 0 {
            hs.stream_synchronize(s).expect("sync");
        }
        if (i + 1) % SAMPLE_EVERY == 0 {
            peak_live = peak_live.max(metric(hs, "events.live"));
            peak_log = peak_log.max(metric(hs, "frontend.recovery.entries"));
        }
    }
    hs.stream_synchronize(s).expect("final sync");
    (peak_live, peak_log)
}

#[test]
fn event_table_memory_is_flat_over_100k_cycles() {
    let hs = runtime();
    let (peak_live, _) = run_cycles(&hs, DomainId::HOST);
    assert!(
        peak_live < LIVE_CEILING,
        "live-event window must stay bounded: peak {peak_live} >= {LIVE_CEILING}"
    );
    // A final forced sweep at a quiesce point retires everything: the
    // watermark catches up to the reserved count and no live slots remain.
    hstreams_core::testing::compact_now(&hs);
    let reserved = metric(&hs, "events.reserved");
    let watermark = metric(&hs, "events.watermark");
    let live = metric(&hs, "events.live");
    assert!(reserved >= CYCLES as f64, "all cycles minted events");
    assert_eq!(
        watermark, reserved,
        "watermark reaches the end once everything retired"
    );
    assert_eq!(live, 0.0, "no live slots after a quiesced sweep");
}

/// Same run with a fault plan armed (zero fault rates: the *log*, not the
/// faults, is under test). The recovery log must not retain one entry per
/// action: completed host-only actions are replay-dead and get pruned, and
/// so is card work once its result has come home.
#[test]
fn recovery_log_is_bounded_while_chaos_is_armed() {
    for domain in [DomainId::HOST, DomainId(1)] {
        let hs = runtime();
        hs.chaos_install(FaultPlan::new(7)).expect("fault plan");
        let (peak_live, peak_log) = run_cycles(&hs, domain);
        assert!(
            peak_live < LIVE_CEILING,
            "{domain:?}: live-event window bounded under chaos too: peak {peak_live}"
        );
        assert!(
            peak_log < LIVE_CEILING,
            "{domain:?}: recovery log must prune replay-dead entries: peak {peak_log} >= {LIVE_CEILING}"
        );
        hstreams_core::testing::compact_now(&hs);
        let entries = metric(&hs, "frontend.recovery.entries");
        assert_eq!(
            entries, 0.0,
            "{domain:?}: a quiesced sweep empties the log (every result is on the host)"
        );
    }
}

/// A durable run without a fault plan keeps no replay mirror — nothing
/// could replay it — while every action still reaches the WAL. A plan
/// arrives too late once actions are enqueued (the mirror would miss them)
/// and is refused; a durable run armed before its first enqueue keeps the
/// mirror, and the armed bound above holds there.
#[test]
fn a_durable_run_mirrors_nothing_until_a_plan_is_armed() {
    let tmp = std::env::temp_dir();
    let roots = ["plain", "armed"].map(|run| {
        let root = tmp.join(format!("hs-bounded-durable-{run}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    });
    let durable = |root| {
        let hs = runtime();
        hs.durability_opts(root, false, 0).expect("durable log");
        let s = hs
            .stream_create(DomainId::HOST, CpuMask::first(1))
            .expect("stream");
        let b = hs.buffer_create(64, BufProps::default());
        (hs, s, b)
    };
    let entries = |hs: &HStreams| metric(hs, "frontend.recovery.entries");
    // One compute, read back before any sweep could prune its entry.
    let probe = |(hs, s, b): &(HStreams, StreamId, BufferId)| {
        let op = [Operand::new(*b, 0..64, Access::InOut)];
        hs.enqueue_compute(*s, "nop", Bytes::new(), &op, CostHint::trivial())
            .expect("enqueue");
        let n = entries(hs);
        hs.stream_synchronize(*s).expect("sync");
        n
    };

    let plain = durable(&roots[0]);
    let hs = &plain.0;
    assert_eq!(probe(&plain), 0.0, "no mirror entry for a durable action");
    let (peak_live, peak_log) = run_cycles(hs, DomainId::HOST);
    assert!(
        peak_live < LIVE_CEILING,
        "live-event window: peak {peak_live}"
    );
    assert_eq!(peak_log, 0.0, "no mirror entry at any sample");
    let enqueued = metric(hs, "events.reserved");
    assert_eq!(
        enqueued,
        (1 + CYCLES) as f64,
        "the probe and one compute per cycle"
    );
    assert_eq!(metric(hs, "wal.records"), enqueued, "every action logged");
    assert!(
        matches!(
            hs.chaos_install(FaultPlan::new(7)),
            Err(HsError::InvalidArg(_))
        ),
        "a first plan after enqueues is refused"
    );
    assert_eq!(probe(&plain), 0.0, "a refused plan starts no mirror");

    let armed = durable(&roots[1]);
    let hs = &armed.0;
    hs.chaos_install(FaultPlan::new(7)).expect("fault plan");
    assert_eq!(probe(&armed), 1.0, "arming a plan starts the mirror");
    let (peak_live, peak_log) = run_cycles(hs, DomainId(1));
    assert!(
        peak_live < LIVE_CEILING,
        "armed: live-event window: peak {peak_live}"
    );
    assert!(
        peak_log < LIVE_CEILING,
        "armed: the mirror prunes replay-dead entries: peak {peak_log} >= {LIVE_CEILING}"
    );
    hstreams_core::testing::compact_now(hs);
    assert_eq!(entries(hs), 0.0);
    assert_eq!(
        metric(hs, "wal.records"),
        metric(hs, "events.reserved"),
        "armed: every action still logged"
    );
    drop((plain, armed));
    for root in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}
