//! Ablation — LU schemes vs matrix size (§VI: "At present, DGETRF runs
//! better on the host than the coprocessor, and an untiled scheme works
//! best for sizes smaller than 4K").
//!
//! Sweeps n and prints seconds for: untiled host DGETRF, tiled (block) LU
//! on host streams, and tiled LU offloaded to one card — locating both the
//! untiled/tiled crossover and the host-vs-card gap.

use hs_apps::lu::{run, LuConfig, LuVariant};
use hs_bench::{f, Table};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn secs(variant: LuVariant, n: usize, tile: usize) -> f64 {
    let platform = if variant == LuVariant::TiledOffload {
        PlatformCfg::hetero(Device::Hsw, 1)
    } else {
        PlatformCfg::native(Device::Hsw)
    };
    let mut hs = HStreams::init(platform, ExecMode::Sim);
    let mut cfg = LuConfig::new(n, tile, variant);
    cfg.streams = 6;
    run(&mut hs, &cfg).expect("LU runs").secs
}

fn main() {
    let mut t = Table::new(vec![
        "n",
        "untiled host (s)",
        "tiled host (s)",
        "tiled 1KNC offload (s)",
        "best",
    ]);
    let mut crossover: Option<usize> = None;
    for n in [1000usize, 2000, 3000, 4000, 6000, 8000, 12000, 16000] {
        let tile = (n / 12).clamp(200, 1500);
        let untiled = secs(LuVariant::HostUntiled, n, n);
        let tiled_h = secs(LuVariant::TiledHost, n, tile);
        let tiled_c = secs(LuVariant::TiledOffload, n, tile);
        let best = if untiled <= tiled_h && untiled <= tiled_c {
            "untiled host"
        } else if tiled_h <= tiled_c {
            "tiled host"
        } else {
            "tiled offload"
        };
        if crossover.is_none() && tiled_h < untiled {
            crossover = Some(n);
        }
        t.row(vec![
            n.to_string(),
            f(untiled),
            f(tiled_h),
            f(tiled_c),
            best.to_string(),
        ]);
    }
    t.print("Ablation — LU scheme vs size (paper: untiled best < 4K; DGETRF better on host)");
    match crossover {
        Some(n) => println!("\nmeasured untiled→tiled crossover: n ≈ {n} (paper: ~4000)"),
        None => println!("\nno crossover inside the sweep"),
    }
}
