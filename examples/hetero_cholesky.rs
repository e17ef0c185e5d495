//! Heterogeneous tiled Cholesky (the paper's Fig. 5 workload) and its
//! comparator schedules.
//!
//! Real mode factors a small SPD matrix on host + 2 cards and verifies
//! `L·Lᵀ = A`; sim mode compares the Fig. 7 implementations at one size.
//!
//! Run with: `cargo run --release --example hetero_cholesky`

use hs_apps::cholesky::{run, run_ompss, CholConfig, CholVariant};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn main() {
    // --- real mode: correctness across schedules ---
    for variant in [
        CholVariant::Hetero,
        CholVariant::Offload,
        CholVariant::MagmaLike,
    ] {
        let cards = if variant == CholVariant::Offload {
            1
        } else {
            2
        };
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, cards), ExecMode::Threads);
        let mut cfg = CholConfig::new(24, 6, variant);
        cfg.streams_per_card = 2;
        cfg.streams_host = 2;
        cfg.verify = true;
        let r = run(&mut hs, &cfg).expect("cholesky");
        println!(
            "real mode, n=24, {variant:?}: reconstruction error {:.2e}",
            r.max_err.expect("verified")
        );
    }

    // --- sim mode: who wins at n = 20000 ---
    println!();
    for (label, cards, variant) in [
        ("hStreams hetero, HSW+2KNC", 2, CholVariant::Hetero),
        ("MKL-AO-like,     HSW+2KNC", 2, CholVariant::MklAoLike),
        ("MAGMA-like,      HSW+2KNC", 2, CholVariant::MagmaLike),
        ("hStreams hetero, HSW+1KNC", 1, CholVariant::Hetero),
        ("pure offload,    1 KNC   ", 1, CholVariant::Offload),
    ] {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, cards), ExecMode::Sim);
        let r = run(&mut hs, &CholConfig::new(20000, 1250, variant)).expect("cholesky");
        println!("sim  mode, n=20000, {label}: {:6.0} GFlop/s", r.gflops);
    }
    let r = run_ompss(
        PlatformCfg::offload(Device::Hsw, 1),
        ExecMode::Sim,
        20000,
        1250,
        4,
        false,
    )
    .expect("ompss");
    println!(
        "sim  mode, n=20000, OmpSs port,      HSW+1KNC: {:6.0} GFlop/s",
        r.gflops
    );
}
