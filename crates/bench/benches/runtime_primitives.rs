//! Criterion microbenchmarks of the hStreams runtime primitives on the
//! real-thread executor: enqueue throughput, dependence analysis cost,
//! event signalling, host-as-target elision and transfer dispatch. These
//! quantify the library-layer overheads the paper's §III analyzes.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, CostHint, CpuMask, DomainId, ExecMode, HStreams, Operand, TaskCtx,
};
use std::sync::Arc;

fn runtime() -> HStreams {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.register("nop", Arc::new(|_ctx: &mut TaskCtx| {}));
    hs
}

fn bench_enqueue(c: &mut Criterion) {
    c.bench_function("enqueue_compute+sync (noop task, host stream)", |b| {
        let hs = runtime();
        let s = hs
            .stream_create(DomainId::HOST, CpuMask::first(2))
            .expect("stream");
        let buf = hs.buffer_create(64, BufProps::default());
        b.iter(|| {
            hs.enqueue_compute(
                s,
                "nop",
                Bytes::new(),
                &[Operand::f64s(buf, 0, 8, Access::InOut)],
                CostHint::trivial(),
            )
            .expect("enqueue");
            hs.stream_synchronize(s).expect("sync");
        });
    });
}

fn bench_dependence_analysis(c: &mut Criterion) {
    // Cost of find_deps with a long pending window: enqueue 256 independent
    // actions then one that conflicts with all of them.
    c.bench_function("dependence scan over 256 pending actions", |b| {
        b.iter_batched(
            || {
                let hs = runtime();
                let s = hs
                    .stream_create(DomainId::HOST, CpuMask::first(2))
                    .expect("stream");
                let big = hs.buffer_create(256 * 64, BufProps::default());
                hs.register(
                    "sleepy",
                    Arc::new(|_ctx: &mut TaskCtx| {
                        std::thread::sleep(std::time::Duration::from_millis(20))
                    }),
                );
                // A slow head task blocks the stream so the rest stay pending.
                let head = hs.buffer_create(8, BufProps::default());
                hs.enqueue_compute(
                    s,
                    "sleepy",
                    Bytes::new(),
                    &[Operand::f64s(head, 0, 1, Access::InOut)],
                    CostHint::trivial(),
                )
                .expect("head");
                for i in 0..256 {
                    hs.enqueue_compute(
                        s,
                        "nop",
                        Bytes::new(),
                        &[Operand::f64s(big, i * 8, 8, Access::InOut)],
                        CostHint::trivial(),
                    )
                    .expect("enqueue");
                }
                (hs, s, big)
            },
            |(hs, s, big)| {
                hs.enqueue_compute(
                    s,
                    "nop",
                    Bytes::new(),
                    &[Operand::f64s(big, 0, 256 * 8, Access::InOut)],
                    CostHint::trivial(),
                )
                .expect("scan");
                (hs, s)
            },
            BatchSize::PerIteration,
        );
    });
}

fn bench_event_signal(c: &mut Criterion) {
    c.bench_function("cross-stream event wait round trip", |b| {
        let hs = runtime();
        let s1 = hs
            .stream_create(DomainId::HOST, CpuMask::range(0, 1))
            .expect("s1");
        let s2 = hs
            .stream_create(DomainId::HOST, CpuMask::range(1, 1))
            .expect("s2");
        let buf = hs.buffer_create(64, BufProps::default());
        b.iter(|| {
            let e1 = hs
                .enqueue_compute(
                    s1,
                    "nop",
                    Bytes::new(),
                    &[Operand::f64s(buf, 0, 4, Access::InOut)],
                    CostHint::trivial(),
                )
                .expect("t1");
            hs.enqueue_event_wait(s2, &[e1]).expect("wait action");
            let e2 = hs
                .enqueue_compute(
                    s2,
                    "nop",
                    Bytes::new(),
                    &[Operand::f64s(buf, 4, 4, Access::InOut)],
                    CostHint::trivial(),
                )
                .expect("t2");
            hs.event_wait(e2).expect("done");
        });
    });
}

fn bench_transfers(c: &mut Criterion) {
    let mut g = c.benchmark_group("transfers");
    g.sample_size(20);
    for kb in [64usize, 1024, 8192] {
        g.bench_function(format!("h2d {kb} KB"), |b| {
            let hs = runtime();
            let s = hs
                .stream_create(DomainId(1), CpuMask::first(2))
                .expect("stream");
            let buf = hs.buffer_create(kb * 1024, BufProps::default());
            hs.buffer_instantiate(buf, DomainId(1)).expect("inst");
            b.iter(|| {
                hs.xfer_to_sink(s, buf, 0..kb * 1024).expect("xfer");
                hs.stream_synchronize(s).expect("sync");
            });
        });
    }
    g.bench_function("host-as-target elided transfer", |b| {
        let hs = runtime();
        let s = hs
            .stream_create(DomainId::HOST, CpuMask::first(2))
            .expect("stream");
        let buf = hs.buffer_create(8 << 20, BufProps::default());
        b.iter(|| {
            hs.xfer_to_sink(s, buf, 0..8 << 20).expect("xfer");
            hs.stream_synchronize(s).expect("sync");
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_enqueue, bench_dependence_analysis, bench_event_signal, bench_transfers
}
criterion_main!(benches);
