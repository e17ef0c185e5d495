//! Virtual-time executor behaviour: out-of-order vs strict-FIFO schedules,
//! overlap verification through the obs drain, wait-any semantics, and the
//! sim/thread semantic agreement on a fixed scenario.

use bytes::Bytes;
use hs_machine::{Device, KernelKind, PlatformCfg};
use hs_obs::ObsKind;
use hstreams_core::{
    Access, BufProps, CostHint, CpuMask, DomainId, ExecMode, HStreams, Operand, OrderingMode,
};

fn gemm_hint(flops: f64) -> CostHint {
    CostHint::new(KernelKind::Dgemm, flops, 1000)
}

/// A pipelined pattern: per iteration, transfer a tile in and compute on the
/// previous one. Returns the virtual makespan.
fn pipelined_makespan(ordering: OrderingMode) -> f64 {
    let hs =
        HStreams::init_with_ordering(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim, ordering);
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(15)).expect("stream");
    let nbuf = 8usize;
    let bytes = 128 << 20;
    let bufs: Vec<_> = (0..nbuf)
        .map(|_| {
            let b = hs.buffer_create(bytes, BufProps::default());
            hs.buffer_instantiate(b, card).expect("inst");
            b
        })
        .collect();
    for b in &bufs {
        // Transfer tile i, then compute on it. Under OOO, tile i+1's
        // transfer overlaps tile i's compute; under strict FIFO nothing
        // overlaps within the stream.
        hs.xfer_to_sink(s, *b, 0..bytes).expect("h2d");
        hs.enqueue_compute(
            s,
            "work",
            Bytes::new(),
            &[Operand::new(*b, 0..bytes, Access::InOut)],
            gemm_hint(1.5e10),
        )
        .expect("compute");
    }
    hs.thread_synchronize().expect("sync");
    hs.now_secs()
}

#[test]
fn ooo_pipelines_transfers_under_compute() {
    let ooo = pipelined_makespan(OrderingMode::OutOfOrder);
    let strict = pipelined_makespan(OrderingMode::StrictFifo);
    assert!(
        ooo < strict * 0.92,
        "out-of-order must hide transfer time: {ooo:.4}s vs strict {strict:.4}s"
    );
}

/// Compute/transfer overlap of the scenario below, in virtual ns. The
/// schedule is deterministic, so a change to it or to the span fold shows
/// here as a different number.
const OVERLAP_NS: u64 = 10_344_441;

#[test]
fn trace_shows_compute_transfer_overlap() {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
    hs.obs_enable(true);
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(15)).expect("stream");
    let bytes = 64 << 20;
    let a = hs.buffer_create(bytes, BufProps::default());
    let b = hs.buffer_create(bytes, BufProps::default());
    hs.buffer_instantiate(a, card).expect("inst");
    hs.buffer_instantiate(b, card).expect("inst");
    hs.xfer_to_sink(s, a, 0..bytes).expect("h2d a");
    hs.enqueue_compute(
        s,
        "work",
        Bytes::new(),
        &[Operand::new(a, 0..bytes, Access::InOut)],
        gemm_hint(5e10),
    )
    .expect("compute");
    // Independent transfer of b: must overlap the compute on a.
    hs.xfer_to_sink(s, b, 0..bytes).expect("h2d b");
    hs.thread_synchronize().expect("sync");
    let records = hs.take_obs_records();
    let overlap = hs_obs::overlap_ns(
        &hs_obs::spans(&records),
        ObsKind::Compute,
        ObsKind::Transfer,
    );
    let wire = bytes as f64 / 6.5e9;
    assert!(
        overlap as f64 * 1e-9 > wire * 0.8,
        "b's transfer should ride under a's compute: overlap {overlap} ns, wire {wire:.4}s"
    );
    assert_eq!(overlap, OVERLAP_NS);
}

/// A sim-mode transfer occupies its card's DMA row for exactly the cost
/// model's price, which is what `sec3_overheads` reads §III's rows from.
#[test]
fn sim_transfer_span_is_the_cost_models_price() {
    let platform = PlatformCfg::hetero(Device::Hsw, 1);
    let cost = platform.cost_model();
    let link = platform.domains[1].link.expect("a card domain has a link");
    let hs = HStreams::init(platform, ExecMode::Sim);
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(1)).expect("stream");
    hs.obs_enable(true);
    for (bytes, h2d) in [(4 << 10, true), (128 << 10, false), (4 << 20, true)] {
        let b = hs.buffer_create(bytes, BufProps::default());
        hs.buffer_instantiate(b, card).expect("inst");
        let (from, to) = if h2d {
            (DomainId::HOST, card)
        } else {
            (card, DomainId::HOST)
        };
        let ev = hs.enqueue_xfer(s, b, 0..bytes, from, to).expect("xfer");
        hs.event_wait(ev).expect("wait");
        let records = hs.take_obs_records();
        let spans = hs_obs::spans(&records);
        let [span] = spans.as_slice() else {
            panic!("{bytes} B: expected one span, got {}", spans.len());
        };
        assert_eq!(span.row, hs_obs::Row::Dma { card: 1, h2d });
        let price = cost.transfer_dur(&link, bytes as u64, h2d);
        assert_eq!(span.end_ns - span.start_ns, price.0, "{bytes} B h2d={h2d}");
    }
}

#[test]
fn sim_event_wait_any_picks_earliest() {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    let s1 = hs
        .stream_create(DomainId(1), CpuMask::first(60))
        .expect("s1");
    let s2 = hs
        .stream_create(DomainId(2), CpuMask::first(15))
        .expect("s2");
    let buf = hs.buffer_create(1024, BufProps::default());
    hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
    hs.buffer_instantiate(buf, DomainId(2)).expect("inst");
    // Same flops on 60 cores vs 15 cores: s1 finishes first.
    let fast = hs
        .enqueue_compute(
            s1,
            "w",
            Bytes::new(),
            &[Operand::new(buf, 0..512, Access::In)],
            gemm_hint(1e11),
        )
        .expect("fast");
    let slow = hs
        .enqueue_compute(
            s2,
            "w",
            Bytes::new(),
            &[Operand::new(buf, 512..1024, Access::In)],
            gemm_hint(1e11),
        )
        .expect("slow");
    let idx = hs.event_wait_any(&[slow, fast]).expect("one fires");
    assert_eq!(idx, 1, "the 60-core stream wins");
    hs.thread_synchronize().expect("sync");
}

#[test]
fn sim_and_thread_agree_on_elision_counts() {
    // Same program in both modes must produce identical API statistics
    // (the semantic layer is shared; only time differs).
    let run = |mode: ExecMode| {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
        if matches!(mode, ExecMode::Sim) {
            hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        }
        if matches!(mode, ExecMode::Threads) {
            hs.register(
                "nop",
                std::sync::Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {}),
            );
        }
        let host = DomainId::HOST;
        let card = DomainId(1);
        let sh = hs.stream_create(host, CpuMask::first(2)).expect("sh");
        let sc = hs.stream_create(card, CpuMask::first(2)).expect("sc");
        let b = hs.buffer_create(4096, BufProps::default());
        hs.buffer_instantiate(b, card).expect("inst");
        hs.xfer_to_sink(sh, b, 0..4096).expect("elided");
        hs.xfer_to_sink(sc, b, 0..4096).expect("real");
        hs.enqueue_compute(
            sc,
            "nop",
            Bytes::new(),
            &[Operand::new(b, 0..4096, Access::In)],
            CostHint::trivial(),
        )
        .expect("compute");
        hs.xfer_to_source(sc, b, 0..4096).expect("d2h");
        hs.thread_synchronize().expect("sync");
        let m = hs.metrics().extra;
        (
            m["actions.transfer"],
            m["actions.transfer_elided"],
            m["actions.compute"],
            // Action-level API calls only: Threads mode makes one extra
            // `register` call that Sim mode does not need.
            m["api.calls"] - m.get("api.register").copied().unwrap_or(0.0),
        )
    };
    assert_eq!(run(ExecMode::Threads), run(ExecMode::Sim));
}

#[test]
fn sim_time_is_deterministic_across_runs() {
    let run = || pipelined_makespan(OrderingMode::OutOfOrder);
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual time must be exactly reproducible");
}

#[test]
fn wider_streams_compute_faster_in_sim() {
    let t = |cores: u32| {
        let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        let s = hs
            .stream_create(DomainId(1), CpuMask::first(cores))
            .expect("s");
        let b = hs.buffer_create(64, BufProps::default());
        hs.buffer_instantiate(b, DomainId(1)).expect("inst");
        hs.enqueue_compute(
            s,
            "w",
            Bytes::new(),
            &[Operand::new(b, 0..64, Access::InOut)],
            gemm_hint(1e11),
        )
        .expect("c");
        hs.thread_synchronize().expect("sync");
        hs.now_secs()
    };
    let full = t(60);
    let quarter = t(15);
    assert!(
        quarter > 3.5 * full,
        "stream width scales task time: 15 cores {quarter:.4}s vs 60 cores {full:.4}s"
    );
}
