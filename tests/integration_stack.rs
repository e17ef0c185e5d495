//! Cross-crate integration: the full layering stack of the paper's Fig. 1 —
//! application code → hStreams → COI-like layer → SCIF-like fabric — driven
//! end-to-end through the public APIs of each layer.

use bytes::Bytes;
use hs_coi::{CoiRuntime, EngineId, RunCtx};
use hs_fabric::{Fabric, NodeId, Pacer};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, CostHint, CpuMask, DomainId, ExecMode, HStreams, Operand, TaskCtx,
};
use std::sync::Arc;

#[test]
fn fabric_layer_alone_moves_data() {
    let fabric = Fabric::new(3);
    let host = fabric.register(NodeId::HOST, 4096);
    let card1 = fabric.register(NodeId(1), 4096);
    let card2 = fabric.register(NodeId(2), 4096);
    {
        let mem = fabric.window(host).expect("window");
        let mut g = mem.lock_range(0..4096, true).expect("lock");
        for (i, b) in g.as_mut_slice().iter_mut().enumerate() {
            *b = (i % 255) as u8;
        }
    }
    // Host -> card1 -> host -> card2 chain (cards never talk directly).
    fabric.dma_copy(host, 0, card1, 0, 4096).expect("h2c1");
    fabric.dma_copy(card1, 0, host, 0, 4096).expect("c1h");
    fabric.dma_copy(host, 0, card2, 0, 4096).expect("h2c2");
    let mem = fabric.window(card2).expect("window");
    let g = mem.lock_range(0..4096, false).expect("lock");
    assert!(g
        .as_slice()
        .iter()
        .enumerate()
        .all(|(i, b)| *b == (i % 255) as u8));
}

#[test]
fn coi_layer_runs_functions_and_survives_pipeline_churn() {
    let rt = CoiRuntime::new(2, Pacer::unpaced());
    rt.register(
        "bump",
        Arc::new(|ctx: &mut RunCtx| {
            for x in ctx.buf_mut(0) {
                *x = x.wrapping_add(1);
            }
        }),
    );
    for engine in [EngineId(1), EngineId(2)] {
        let win = rt.buffer_alloc(engine, 128, true);
        for round in 0..3 {
            // Fresh pipelines each round: creation/teardown must be clean.
            let pipe = rt.pipeline_create(engine, 2);
            pipe.run("bump", Bytes::new(), vec![(win.id(), 0..128, true)])
                .wait()
                .expect("bump");
            let _ = round;
        }
        let mem = rt.fabric().window(win.id()).expect("window");
        let g = mem.lock_range(0..128, false).expect("lock");
        assert!(g.as_slice().iter().all(|&b| b == 3));
        rt.buffer_free(engine, win);
    }
}

#[test]
fn hstreams_over_coi_over_fabric_round_trip_with_pool_reuse() {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Threads);
    hs.register(
        "negate",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x = -*x;
            }
        }),
    );
    // Create/destroy buffers repeatedly: pooled windows must recycle and
    // recycled data must not leak across buffers.
    for round in 0..4 {
        let card = DomainId(1 + (round % 2));
        let s = hs.stream_create(card, CpuMask::first(2)).expect("stream");
        let buf = hs.buffer_create(1024, BufProps::default());
        hs.buffer_instantiate(buf, card).expect("inst");
        let vals = vec![round as f64 + 1.0; 128];
        hs.buffer_write_f64(buf, 0, &vals).expect("write");
        hs.xfer_to_sink(s, buf, 0..1024).expect("h2d");
        hs.enqueue_compute(
            s,
            "negate",
            Bytes::new(),
            &[Operand::f64s(buf, 0, 128, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("compute");
        hs.xfer_to_source(s, buf, 0..1024).expect("d2h");
        hs.stream_synchronize(s).expect("sync");
        let mut out = vec![0.0; 128];
        hs.buffer_read_f64(buf, 0, &mut out).expect("read");
        assert!(
            out.iter().all(|&v| v == -(round as f64 + 1.0)),
            "round {round}"
        );
        hs.buffer_destroy(buf).expect("destroy");
    }
}

#[test]
fn many_streams_many_buffers_stress() {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Threads);
    hs.register(
        "inc",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x += 1.0;
            }
        }),
    );
    let streams = hs
        .app_init(&[(DomainId(0), 4), (DomainId(1), 4), (DomainId(2), 4)])
        .expect("app init");
    assert_eq!(streams.len(), 12);
    let mut bufs = Vec::new();
    for i in 0..24 {
        let b = hs.buffer_create(512, BufProps::default());
        let dom = hs
            .stream_domain(streams[i % streams.len()])
            .expect("domain");
        hs.buffer_instantiate(b, dom).expect("inst");
        hs.buffer_write_f64(b, 0, &[0.0; 64]).expect("write");
        bufs.push(b);
    }
    // Three waves of increments across all streams.
    for _wave in 0..3 {
        for (i, b) in bufs.iter().enumerate() {
            let s = streams[i % streams.len()];
            let dom = hs.stream_domain(s).expect("domain");
            if !dom.is_host() {
                hs.xfer_to_sink(s, *b, 0..512).expect("h2d");
            }
            hs.enqueue_compute(
                s,
                "inc",
                Bytes::new(),
                &[Operand::f64s(*b, 0, 64, Access::InOut)],
                CostHint::trivial(),
            )
            .expect("compute");
            if !dom.is_host() {
                hs.xfer_to_source(s, *b, 0..512).expect("d2h");
            }
        }
        hs.thread_synchronize().expect("sync");
    }
    for b in &bufs {
        let mut out = [0.0; 64];
        hs.buffer_read_f64(*b, 0, &mut out).expect("read");
        // Card buffers round-trip each wave (so +1 each); host too.
        assert!(out.iter().all(|&v| v == 3.0), "got {:?}", &out[..4]);
    }
}
