//! The per-layer ledger: what the traced pass reports and where each number
//! comes from.
//!
//! Three sources, all outside the program: **P**, a probe ([`crate::probes`]
//! and the spans around `smallact`'s own calls); **S**, a counter the
//! runtime already exposes (`hs.metrics()`, `hs.wal_stats()`), read from
//! each traced repetition's runtime; **T**, sums over the lifecycle stamps
//! `take_obs_records()` hands back. Per-repetition values are reduced by
//! their median, which for an exact count is the count.

use crate::spans::Lifecycle;
use crate::stats::median;
use crate::workload::{Traced, STREAMS};
use hs_obs::ObsKind;
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<String, f64>;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// metric that does not apply to a workload (`wal.*` without a WAL, the
/// `smallact` call timers on an app) is reported as 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.dgemm_gflops_t128", "GFLOP/s"),
    ("linalg.dgemm_gflops_t64", "GFLOP/s"),
    ("linalg.syrk_gflops_t64", "GFLOP/s"),
    ("linalg.trsm_gflops_t64", "GFLOP/s"),
    ("linalg.potrf_gflops_t64", "GFLOP/s"),
    ("linalg.flops_per_rep", "flop"),
    ("coi.pipeline_run_us", "us"),
    ("coi.workgroup_forkjoin_us_w2", "us"),
    ("coi.pool_alloc_us", "us"),
    ("coi.pool_hit_frac", "fraction"),
    ("coi.queue_wait_s", "s"),
    ("coi.sink_busy_s", "s"),
    ("coi.sink_busy_frac", "fraction"),
    ("coi.wg_regions", "count"),
    ("coi.wg_spawned_workers", "count"),
    ("fabric.local.ping_us", "us"),
    ("fabric.local.write_MBps", "MB/s"),
    ("fabric.local.read_MBps", "MB/s"),
    ("fabric.uds.ping_us", "us"),
    ("fabric.uds.write_MBps", "MB/s"),
    ("fabric.uds.read_MBps", "MB/s"),
    ("fabric.tcp.ping_us", "us"),
    ("fabric.tcp.write_MBps", "MB/s"),
    ("fabric.tcp.read_MBps", "MB/s"),
    ("fabric.crc32_MBps", "MB/s"),
    ("fabric.frame_encode_MBps", "MB/s"),
    ("fabric.frame_decode_MBps", "MB/s"),
    ("fabric.h2d_bytes", "bytes"),
    ("fabric.d2h_bytes", "bytes"),
    ("fabric.h2d_ops", "count"),
    ("fabric.d2h_ops", "count"),
    ("fabric.h2d_util", "fraction"),
    ("fabric.d2h_util", "fraction"),
    ("fabric.wire_tx_bytes", "bytes"),
    ("fabric.wire_rx_bytes", "bytes"),
    ("fabric.wire_reqs", "count"),
    ("fabric.wire_bytes_per_rep", "bytes"),
    ("fabric.dma_queue_wait_s", "s"),
    ("fabric.dma_busy_s", "s"),
    ("fabric.xfers", "count"),
    ("fabric.xfers_elided_frac", "fraction"),
    ("core.enqueue_us_single", "us"),
    ("core.enqueue_us_batched", "us"),
    ("core.xfer_enqueue_us", "us"),
    ("core.sync_blocked_s", "s"),
    ("core.enqueue_busy_frac", "fraction"),
    ("core.rtt_us_p50", "us"),
    ("core.rtt_us_p99", "us"),
    ("core.rtt_norm_p50", "x_calib"),
    ("core.deps_redundant", "count"),
    ("core.stream_lock_contended", "count"),
    ("core.id_rmw_per_action", "1/action"),
    ("core.events_live_peak", "count"),
    ("core.deps_wait_s", "s"),
    ("core.dispatch_s", "s"),
    ("core.actions_compute", "count"),
    ("core.actions_xfer", "count"),
    ("core.actions_sync", "count"),
    ("wal.append_us", "us"),
    ("wal.append_MBps", "MB/s"),
    ("wal.fsync_us", "us"),
    ("wal.recover_MBps", "MB/s"),
    ("wal.recover_ok_frac", "fraction"),
    ("wal.appended_bytes", "bytes"),
    ("wal.records", "count"),
    ("wal.flushes", "count"),
    ("wal.fsyncs", "count"),
    ("wal.fsync_batched", "count"),
    ("wal.fsync_s", "s"),
    ("obs.overhead_frac", "fraction"),
    ("obs.records_per_rep", "count"),
    ("sim.pred_over_wall", "ratio"),
    ("sim.replay_s", "s"),
    ("apps.run_s", "s"),
    ("apps.gflops", "GFLOP/s"),
    ("apps.max_err", "abs"),
    ("apps.checksum_stable", "bool"),
    ("host.calib_serial_s", "s"),
    ("host.calib_all_cores_s", "s"),
    ("host.calib_iqr_frac", "fraction"),
    ("host.cores", "count"),
    ("host.noisy", "bool"),
    ("host.rss_growth_mb", "MiB"),
    ("fail_frac", "fraction"),
];

/// Runtime counter → ledger name, for the counters copied through as-is.
const COUNTERS: &[(&str, &str)] = &[
    ("wg.regions", "coi.wg_regions"),
    ("wg.spawned_workers", "coi.wg_spawned_workers"),
    ("dma.c1.h2d.bytes", "fabric.h2d_bytes"),
    ("dma.c1.d2h.bytes", "fabric.d2h_bytes"),
    ("dma.c1.h2d.ops", "fabric.h2d_ops"),
    ("dma.c1.d2h.ops", "fabric.d2h_ops"),
    ("dma.c1.h2d.utilization", "fabric.h2d_util"),
    ("dma.c1.d2h.utilization", "fabric.d2h_util"),
    ("link.c1.tx_bytes", "fabric.wire_tx_bytes"),
    ("link.c1.rx_bytes", "fabric.wire_rx_bytes"),
    ("link.c1.reqs", "fabric.wire_reqs"),
    ("deps.redundant", "core.deps_redundant"),
    (
        "frontend.stream_lock.contended",
        "core.stream_lock_contended",
    ),
    ("wal.appended_bytes", "wal.appended_bytes"),
    ("wal.records", "wal.records"),
    ("wal.flushes", "wal.flushes"),
    ("wal.fsyncs", "wal.fsyncs"),
    ("wal.fsync_batched", "wal.fsync_batched"),
];

fn span_s(from: Option<u64>, to: Option<u64>) -> f64 {
    match (from, to) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
        _ => 0.0,
    }
}

fn total<'a>(actions: impl Iterator<Item = &'a Lifecycle>, f: impl Fn(&Lifecycle) -> f64) -> f64 {
    actions.map(f).sum()
}

/// The S and T metrics of one traced repetition that ran for `run_s`;
/// `actions` are the lifecycles of `t.records`.
pub fn rep_metrics(t: &Traced, actions: &[Lifecycle], run_s: f64) -> Metrics {
    let mut m = Metrics::new();
    let c = |k: &str| t.counters.get(k).copied().unwrap_or(0.0);
    for (from, to) in COUNTERS {
        m.insert(to.to_string(), c(from));
    }
    m.insert("wal.fsync_s".into(), c("wal.fsync_us") / 1e6);
    m.insert(
        "fabric.wire_bytes_per_rep".into(),
        c("link.c1.tx_bytes") + c("link.c1.rx_bytes"),
    );
    m.insert(
        "core.id_rmw_per_action".into(),
        c("events.id_block.mints") / c("events.reserved").max(1.0),
    );
    m.insert("core.events_live_peak".into(), t.events_live_peak);

    let of = |k: ObsKind| actions.iter().filter(move |a| a.kind == k);
    // Transfers that used a DMA channel (host-alias ones are elided).
    let wire = || of(ObsKind::Transfer).filter(|a| a.card.is_some());
    let queue_wait = |a: &Lifecycle| span_s(a.dispatched, a.sink_start);
    let busy = |a: &Lifecycle| span_s(a.sink_start, a.completed);
    let sink_busy = total(of(ObsKind::Compute), busy);
    let xfers = of(ObsKind::Transfer).count() as f64;
    let streams = (2 * STREAMS) as f64;
    for (k, v) in [
        ("coi.queue_wait_s", total(of(ObsKind::Compute), queue_wait)),
        ("coi.sink_busy_s", sink_busy),
        ("coi.sink_busy_frac", sink_busy / (run_s * streams)),
        ("fabric.dma_queue_wait_s", total(wire(), queue_wait)),
        ("fabric.dma_busy_s", total(wire(), busy)),
        ("fabric.xfers", xfers),
        (
            "fabric.xfers_elided_frac",
            (xfers - wire().count() as f64) / xfers.max(1.0),
        ),
        (
            "core.deps_wait_s",
            total(actions.iter(), |a| {
                span_s(Some(a.enqueued), a.deps_resolved)
            }),
        ),
        (
            "core.dispatch_s",
            total(actions.iter(), |a| span_s(a.deps_resolved, a.dispatched)),
        ),
        ("core.actions_compute", of(ObsKind::Compute).count() as f64),
        ("core.actions_xfer", xfers),
        ("core.actions_sync", of(ObsKind::Sync).count() as f64),
        ("obs.records_per_rep", t.records.len() as f64),
    ] {
        m.insert(k.to_string(), v);
    }

    let calls = &t.calls;
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs / n as f64 * 1e6 };
    m.insert(
        "core.enqueue_us_single".into(),
        per(calls.single_compute_s, calls.single_computes),
    );
    m.insert(
        "core.enqueue_us_batched".into(),
        per(calls.batched_s, calls.batched_actions),
    );
    m.insert(
        "core.xfer_enqueue_us".into(),
        per(calls.single_xfer_s, calls.single_xfers),
    );
    m.insert("core.sync_blocked_s".into(), calls.sync_s);
    m.insert("core.enqueue_busy_frac".into(), calls.enqueue_s() / run_s);
    m
}

/// Median of each metric over the repetitions that reported it.
pub fn reduce(reps: &[Metrics]) -> Metrics {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in reps {
        for (k, v) in r {
            by_name.entry(k).or_default().push(*v);
        }
    }
    by_name
        .into_iter()
        .map(|(k, v)| (k.to_string(), median(&v)))
        .collect()
}
