//! Streams are queues, not threads: an in-process runtime's sinks and DMA
//! queues share one pool of a worker per core, so sixteen streams cost the
//! process no more threads than two do.
//!
//! One `#[test]` on purpose: it counts every thread of the process, and
//! libtest runs a file's tests on parallel threads.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{Access, CostHint, DomainId, ExecMode, HStreams, Operand, TaskCtx};
use std::sync::Arc;

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn sixteen_in_process_streams_run_on_host_cores_plus_two_threads() {
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let before = os_threads();
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.register(
        "bump",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x += 1.0;
            }
        }),
    );
    let card = hs.domains()[1].id;
    let streams = hs
        .app_init(&[(DomainId::HOST, 8), (card, 8)])
        .expect("sixteen streams");
    assert_eq!(streams.len(), 16);
    // Every stream computes; the card's also move their operand both ways.
    let mut peak = os_threads();
    let mut bufs = Vec::new();
    for &s in &streams {
        let b = hs.buffer_create(64, Default::default());
        let on_card = hs.stream_domain(s).expect("stream") == card;
        if on_card {
            hs.buffer_instantiate(b, card).expect("instantiate");
            hs.enqueue_xfer(s, b, 0..64, DomainId::HOST, card)
                .expect("to the card");
        }
        let ops = [Operand::f64s(b, 0, 8, Access::InOut)];
        hs.enqueue_compute(s, "bump", Bytes::new(), &ops, CostHint::trivial())
            .expect("compute");
        if on_card {
            hs.enqueue_xfer(s, b, 0..64, card, DomainId::HOST)
                .expect("back to the host");
        }
        bufs.push(b);
        peak = peak.max(os_threads());
    }
    hs.thread_synchronize().expect("every action completes");
    peak = peak.max(os_threads());
    let mut got = [0.0; 8];
    for b in bufs {
        hs.buffer_read_f64(b, 0, &mut got).expect("read back");
        assert_eq!(got, [1.0; 8]);
    }
    assert!(
        peak - before <= host_cores + 2,
        "16 streams ran on {} threads beside the test's ({host_cores} cores)",
        peak - before
    );
}
