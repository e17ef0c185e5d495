//! Ablation — the tuner's two knobs (§VI: "the best degree of tiling and
//! number of streams depends on the matrix size and algorithm. Users want
//! to be able to tune these easily, by changing just a few parameters").
//!
//! Sweeps stream count × tile size for a fixed-size matmul offloaded to one
//! card, exactly the design exploration the paper credits hStreams with
//! making easy. The table shows both interior optima: too few streams
//! starves concurrency, too many shrinks each stream's width; small tiles
//! pay efficiency and per-action overheads, huge tiles lose pipelining.

use hs_apps::matmul::{run, MatmulConfig};
use hs_bench::{f, Table};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

const N: usize = 12000;

fn gflops(streams: usize, tile: usize) -> f64 {
    let mut cfg = MatmulConfig::new(N, tile);
    cfg.host_participates = false;
    cfg.streams_per_card = streams;
    let mut hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
    run(&mut hs, &cfg).expect("matmul runs").gflops
}

fn main() {
    let tiles = [400usize, 600, 1000, 1500, 2400, 4000];
    let streams = [1usize, 2, 4, 6, 10];
    let mut t = Table::new(
        std::iter::once("streams \\ tile".to_string())
            .chain(tiles.iter().map(|x| x.to_string()))
            .collect(),
    );
    let mut best = (0.0f64, 0usize, 0usize);
    for &s in &streams {
        let mut row = vec![s.to_string()];
        for &tile in &tiles {
            let g = gflops(s, tile);
            if g > best.0 {
                best = (g, s, tile);
            }
            row.push(f(g));
        }
        t.row(row);
    }
    t.print(&format!(
        "Ablation — Gflop/s for matmul offload (1 KNC), n = {N}, by streams x tile"
    ));
    let worst = {
        let mut w = f64::INFINITY;
        for &s in &streams {
            for &tile in &tiles {
                w = w.min(gflops(s, tile));
            }
        }
        w
    };
    println!(
        "\nbest: {:.0} GF/s at {} streams x tile {}; worst corner {:.0} GF/s — a {:.1}x\n\
         spread from two one-line knobs, the design-exploration ease the paper credits\n\
         hStreams with (more streams pay off at small tiles, wide tiles at few streams).",
        best.0,
        best.1,
        best.2,
        worst,
        best.0 / worst
    );
}
