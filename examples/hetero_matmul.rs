//! Heterogeneous tiled matrix multiplication (the paper's Fig. 4 workload).
//!
//! Runs the same schedule twice:
//! 1. **real threads**, small matrix — every byte moves and every kernel
//!    computes; the product is verified against a reference;
//! 2. **virtual time**, paper-scale matrix — prints the Gflop/s the
//!    calibrated platform model attains, with and without load balancing.
//!
//! Run with: `cargo run --release --example hetero_matmul`

use hs_apps::matmul::{run, MatmulConfig};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn main() {
    // --- real mode: correctness ---
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Threads);
    let mut cfg = MatmulConfig::new(48, 12);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    let r = run(&mut hs, &cfg).expect("matmul");
    println!(
        "real mode, n=48 on host+2 cards: max |C - A*B| = {:.2e} (verified)",
        r.max_err.expect("verified")
    );

    // --- real mode, card 1 out-of-process: same bits over a real wire ---
    if hs_apps::remote::worker_bin().is_some() {
        let mut lhs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
        let mut rcfg = MatmulConfig::new(24, 6);
        rcfg.streams_per_card = 2;
        rcfg.streams_host = 2;
        rcfg.verify = true;
        let local = run(&mut lhs, &rcfg).expect("local matmul");
        let w = hs_apps::remote::WorkerProc::spawn().expect("spawn hs-worker");
        let mut rhs = HStreams::init_remote(
            PlatformCfg::hetero(Device::Hsw, 1),
            ExecMode::Threads,
            &[(1, w.endpoint())],
        )
        .expect("connect to hs-worker");
        let remote = run(&mut rhs, &rcfg).expect("remote matmul");
        assert_eq!(
            local.checksum, remote.checksum,
            "remote run must be bit-identical to the in-process run"
        );
        println!(
            "remote mode, n=24 with card 1 as an hs-worker process: checksum {:016x}, bit-identical to local",
            remote.checksum.expect("verified")
        );
    } else {
        println!("remote mode skipped: hs-worker binary not found (build with `cargo build --bin hs-worker`)");
    }

    // --- sim mode: paper-scale performance ---
    for (label, host, balance, platform) in [
        (
            "HSW + 2 KNC, balanced",
            true,
            true,
            PlatformCfg::hetero(Device::Hsw, 2),
        ),
        (
            "IVB + 2 KNC, balanced",
            true,
            true,
            PlatformCfg::hetero(Device::Ivb, 2),
        ),
        (
            "IVB + 2 KNC, naive split",
            true,
            false,
            PlatformCfg::hetero(Device::Ivb, 2),
        ),
        (
            "1 KNC offload only",
            false,
            true,
            PlatformCfg::offload(Device::Hsw, 1),
        ),
    ] {
        let mut cfg = MatmulConfig::new(16000, 800);
        cfg.host_participates = host;
        cfg.load_balance = balance;
        let mut hs = HStreams::init(platform, ExecMode::Sim);
        let r = run(&mut hs, &cfg).expect("matmul");
        println!("sim  mode, n=16000, {label:28}: {:7.0} GFlop/s", r.gflops);
    }
}
