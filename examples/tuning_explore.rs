//! Design exploration from the tuner's chair: vary only the tuner-owned
//! knobs (stream count, tile size, target devices) while the algorithm code
//! stays untouched — the separation of concerns the paper leads with.
//!
//! Run with: `cargo run --release --example tuning_explore`
//!
//! Pass `--tune` to let `hs-tune` search the knob space instead of
//! sweeping it by hand: same graph, same cost model, but the closed loop
//! (coordinate descent + refinement over sim runs, cached on disk under
//! the target dir printed at the end) replaces the printed grid.

use hs_apps::matmul::{run, MatmulConfig};
use hs_apps::tuned;
use hs_machine::{Device, PlatformCfg};
use hs_tune::{SearchSpace, Tune};
use hstreams_core::{ExecMode, HStreams};

fn tune_mode(n: usize) {
    let mut template = MatmulConfig::new(n, 500);
    template.host_participates = false;
    let space = SearchSpace::new(
        vec![1, 2, 4, 6, 8],
        vec![1, 2, 4, 8, 14, 28],
        vec![400, 500, 600, 1000, 1500, 2000],
    );
    let cache = std::env::temp_dir().join("hs-tune-explore");
    let hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
    let out = hs
        .tune(tuned::matmul_spec(template.clone(), space, None).cache(&cache))
        .expect("tune");
    println!(
        "tuned matmul n = {n}: {:?}\n  explored {} candidates, cache {} ({})",
        out.config,
        out.explored,
        if out.cache_hit { "HIT" } else { "miss" },
        cache.display()
    );
    template = tuned::matmul_config(&template, &out.config);
    let mut sim = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
    let g = run(&mut sim, &template).expect("matmul").gflops;
    println!("  sim rate with the tuned config: {g:.0} GF/s");
}

fn main() {
    let n = 10000;
    if std::env::args().any(|a| a == "--tune") {
        tune_mode(n);
        return;
    }
    println!("tiled matmul, n = {n}, offloaded to 1 KNC — tuner knob sweep\n");
    println!("{:>8} {:>8} {:>12}", "streams", "tile", "GFlop/s");
    let mut best = (0.0f64, 0usize, 0usize);
    for streams in [1usize, 2, 4, 8] {
        for tile in [500usize, 1000, 2000] {
            let mut cfg = MatmulConfig::new(n, tile);
            cfg.host_participates = false;
            cfg.streams_per_card = streams;
            let mut hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
            let g = run(&mut hs, &cfg).expect("matmul").gflops;
            if g > best.0 {
                best = (g, streams, tile);
            }
            println!("{streams:>8} {tile:>8} {g:>12.0}");
        }
    }
    println!(
        "\nbest: {:.0} GF/s at {} streams x tile {} — found by editing two integers;\n\
         the task code (and its numerics) never changed.",
        best.0, best.1, best.2
    );

    // The same knobs, different target: add the host as a compute domain.
    let mut cfg = MatmulConfig::new(n, 500);
    cfg.streams_per_card = best.1.max(2);
    cfg.host_participates = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
    let g = run(&mut hs, &cfg).expect("matmul").gflops;
    println!("\nretarget: host joins as a compute domain (host-as-target streams): {g:.0} GF/s");
}
