//! Quickstart: the canonical hStreams source-side program.
//!
//! Creates a platform with one (simulated) coprocessor card, registers a
//! task, creates a stream bound to part of the card, moves data in, runs
//! dependent compute actions that the runtime orders by FIFO + operand
//! overlap, moves data back and reads the result.
//!
//! Run with: `cargo run --release --example quickstart`

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{Access, BufProps, CostHint, CpuMask, ExecMode, HStreams, Operand, TaskCtx};
use std::sync::Arc;

fn main() {
    // Host (HSW) + 1 KNC-like card, real threads, data moved for real.
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);

    // Discover domains (the paper: domains are discoverable/enumerable).
    println!("domains:");
    for d in hs.domains() {
        println!(
            "  [{}] {:?} {:?}: {} cores, {} threads, {} GB",
            d.id.0,
            d.device,
            d.role,
            d.cores,
            d.threads,
            d.ram_bytes >> 30
        );
    }
    let card = hs.domains()[1].id;

    // Sink-side task, registered by name (runs on any domain).
    hs.register(
        "saxpy",
        Arc::new(|ctx: &mut TaskCtx| {
            let a = f64::from_le_bytes(ctx.args()[..8].try_into().expect("8-byte arg"));
            let (x, y) = ctx.buf_f64_pair_mut(0, 1);
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += a * xi;
            }
        }),
    );

    // A stream = a FIFO task queue whose sink is 4 cards cores.
    let s = hs.stream_create(card, CpuMask::first(4)).expect("stream");

    // Every call names a buffer by its id and a byte offset; instantiation
    // per domain is the tuner's explicit call.
    let n = 1024;
    let x = hs.buffer_create(n * 8, BufProps::labeled("x"));
    let y = hs.buffer_create(n * 8, BufProps::labeled("y"));
    for b in [x, y] {
        hs.buffer_instantiate(b, card).expect("instantiate");
    }
    hs.buffer_write_f64(x, 0, &vec![1.0; n]).expect("write x");
    hs.buffer_write_f64(y, 0, &vec![2.0; n]).expect("write y");

    // Enqueue: transfers + two dependent computes + transfer back. The
    // second compute overlaps nothing (RAW on y), the runtime knows.
    hs.xfer_to_sink(s, x, 0..n * 8).expect("h2d x");
    hs.xfer_to_sink(s, y, 0..n * 8).expect("h2d y");
    for a in [3.0f64, 10.0] {
        hs.enqueue_compute(
            s,
            "saxpy",
            Bytes::copy_from_slice(&a.to_le_bytes()),
            &[
                Operand::f64s(x, 0, n, Access::In),
                Operand::f64s(y, 0, n, Access::InOut),
            ],
            CostHint::trivial(),
        )
        .expect("compute");
    }
    hs.xfer_to_source(s, y, 0..n * 8).expect("d2h y");
    hs.stream_synchronize(s).expect("sync");

    let mut out = vec![0.0; n];
    hs.buffer_read_f64(y, 0, &mut out).expect("read");
    assert!(out.iter().all(|&v| v == 2.0 + 13.0));
    println!(
        "\ny[0..4] = {:?}  (expected 15.0 = 2 + (3+10)*1)",
        &out[..4]
    );
    let m = hs.metrics().extra;
    println!(
        "api calls: {} unique, {} total; transfers: {} ({} elided)",
        m["api.unique"], m["api.calls"], m["actions.transfer"], m["actions.transfer_elided"]
    );
}
