//! LU factorization placement (§VI): "DGETRF runs better on the host than
//! the coprocessor, and an untiled scheme works best for sizes smaller than
//! 4K."
//!
//! Real mode verifies the three LU schemes numerically; sim mode sweeps the
//! matrix size to locate the untiled-vs-tiled crossover.
//!
//! Run with: `cargo run --release --example lu_crossover`

use hs_apps::lu::{run, LuConfig, LuVariant};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn main() {
    // --- real mode: correctness ---
    for (variant, n, tile) in [
        (LuVariant::HostUntiled, 24, 24),
        (LuVariant::TiledHost, 24, 6),
        (LuVariant::TiledOffload, 20, 5),
    ] {
        let platform = if variant == LuVariant::TiledOffload {
            PlatformCfg::hetero(Device::Hsw, 1)
        } else {
            PlatformCfg::native(Device::Hsw)
        };
        let mut hs = HStreams::init(platform, ExecMode::Threads);
        let mut cfg = LuConfig::new(n, tile, variant);
        cfg.streams = 2;
        cfg.verify = true;
        let r = run(&mut hs, &cfg).expect("LU runs");
        println!(
            "real mode, {variant:?}, n={n}: reconstruction error {:.2e}",
            r.max_err.expect("verified")
        );
    }

    // --- sim mode: where does tiling start to pay? ---
    println!(
        "\n{:>7} {:>14} {:>12} {:>9}",
        "n", "untiled host", "tiled host", "winner"
    );
    for n in [1000usize, 2000, 3000, 4000, 6000, 10000] {
        let tile = (n / 12).clamp(200, 1500);
        let secs = |variant: LuVariant, t: usize| {
            let mut hs = HStreams::init(PlatformCfg::native(Device::Hsw), ExecMode::Sim);
            let mut cfg = LuConfig::new(n, t, variant);
            cfg.streams = 6;
            run(&mut hs, &cfg).expect("LU").secs
        };
        let untiled = secs(LuVariant::HostUntiled, n);
        let tiled = secs(LuVariant::TiledHost, tile);
        println!(
            "{n:>7} {untiled:>13.3}s {tiled:>11.3}s {:>9}",
            if untiled <= tiled { "untiled" } else { "tiled" }
        );
    }
    println!("\nThe paper's rule of thumb: untiled wins below ~4K; our measured\ncrossover sits in the same low-thousands region (see ablation_lu for detail).");
}
