//! Remote domains end to end: a card as a separate process, killed -9.
//!
//! 1. Spawns an `hs-worker` process and connects card domain 1 to it over
//!    a Unix socket, then runs the Fig. 4 matmul both in-process and over
//!    the wire — the results must be **bit-identical**.
//! 2. Runs the Fig. 5 Cholesky against a fresh worker and `kill -9`s it
//!    mid-factorization: the runtime surfaces a literal `CardLost`,
//!    degrades card 1's streams to the host, replays the lost work from
//!    the recovery log, and still produces the fault-free checksum.
//!    The run's action lifecycle is exported as Chrome-trace JSON.
//!
//! Build the worker first, then run:
//! `cargo run --release --example remote_kill_recovery [out.json]`
//! (the worker binary is found next to the example, or via `HS_WORKER_BIN`).

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_apps::remote::WorkerProc;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, FaultPlan, HStreams};
use std::time::Duration;

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

fn remote_rt(w: &WorkerProc) -> HStreams {
    HStreams::init_remote(
        PlatformCfg::hetero(Device::Hsw, 1),
        ExecMode::Threads,
        &[(1, w.endpoint())],
    )
    .expect("connect to hs-worker")
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "TRACE_remote_recovery.json".to_string());
    if hs_apps::remote::worker_bin().is_none() {
        eprintln!(
            "hs-worker binary not found — build it first \
             (`cargo build --bin hs-worker`) or set HS_WORKER_BIN"
        );
        std::process::exit(1);
    }

    // --- 1. bit-identity over the wire ---
    let mut local = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    let lr = matmul::run(&mut local, &matmul_cfg()).expect("local matmul");
    let w = WorkerProc::spawn().expect("spawn hs-worker");
    let mut hs = remote_rt(&w);
    let rr = matmul::run(&mut hs, &matmul_cfg()).expect("remote matmul");
    assert_eq!(
        lr.checksum, rr.checksum,
        "remote matmul must be bit-identical to the in-process run"
    );
    println!(
        "matmul n=24, card 1 out-of-process: max err {:.2e}, checksum {:016x} == local",
        rr.max_err.expect("verified"),
        rr.checksum.expect("verified"),
    );
    let link = hs.metrics().extra;
    println!(
        "  wire: {:.0} reqs, {:.0} tx bytes, {:.0} rx bytes, rtt {:.1} us",
        link.get("link.c1.reqs").unwrap_or(&0.0),
        link.get("link.c1.tx_bytes").unwrap_or(&0.0),
        link.get("link.c1.rx_bytes").unwrap_or(&0.0),
        link.get("link.c1.rtt_us").unwrap_or(&0.0),
    );
    drop(hs);

    // --- 2. kill -9 mid-Cholesky, recover to the fault-free checksum ---
    let mut local = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    let reference = cholesky::run(&mut local, &chol_cfg())
        .expect("fault-free local run")
        .checksum
        .expect("verified");
    drop(local);

    let mut kill_after = Duration::from_millis(40);
    loop {
        let w = WorkerProc::spawn().expect("spawn hs-worker");
        let mut hs = remote_rt(&w);
        hs.chaos_install(FaultPlan::new(7)); // arm recovery log + auto-degrade
        hs.obs_enable(true);
        let killer = std::thread::spawn(move || {
            let mut w = w;
            std::thread::sleep(kill_after);
            w.kill9();
            w
        });
        let r = cholesky::run(&mut hs, &chol_cfg()).expect("degraded run completes");
        let _w = killer.join().expect("killer thread");
        assert_eq!(
            r.checksum.expect("verified"),
            reference,
            "degraded replay must reach the fault-free checksum"
        );
        if hs.degraded_cards() != vec![1] {
            // The run outpaced the kill; tighten the fuse and go again
            // (at zero the kill lands before the first remote op, which
            // still degrades — the loop terminates).
            kill_after /= 2;
            continue;
        }
        println!(
            "cholesky n=24: worker killed -9 after {kill_after:?}, card 1 degraded, \
             replayed to fault-free checksum {:016x} (max err {:.2e})",
            reference,
            r.max_err.expect("verified"),
        );
        let json = hs_obs::chrome::chrome_trace_json(&hs.take_obs_records());
        std::fs::write(&out, &json).expect("write trace");
        let check = hs_obs::chrome::validate(&json).expect("trace is well-formed");
        println!(
            "wrote {out}: {} spans on {} rows — open at chrome://tracing",
            check.spans, check.rows
        );
        break;
    }
}
