//! Closed-loop tuning vs the hand-picked grids (ROADMAP item 4).
//!
//! For matmul (the fig6/ablation grid shape) and Cholesky (the fig7
//! shape), this bench:
//!
//! 1. sweeps the hand-picked streams × tile grid in sim — the manual
//!    design exploration the other benches encode — recording the best
//!    and worst grid points;
//! 2. runs `hs-tune` over a search space containing that grid plus the
//!    mask-width axis, with wall-clock validation of the top-3 sim
//!    candidates at a scaled-down size (sim-vs-wall Spearman rank
//!    correlation recorded per row);
//! 3. re-measures the tuner's pick in sim at full size and **gates**:
//!    tuned ≥ best grid point (the tuner must not lose to the tables it
//!    replaces) and tuned > worst grid point strictly;
//! 4. tunes a second time against the same cache directory and gates
//!    that it's a cache hit that skips the search (`tune.cache_hit`).
//!
//! Writes `BENCH_tune.json` (refused under `HS_CHAOS_SEED`, like every
//! artifact). `HS_BENCH_SMOKE=1` shrinks problem sizes and grids for CI;
//! the smoke artifact carries `"smoke": 1` so it can't be mistaken for a
//! full-length run.

use hs_apps::cholesky::{CholConfig, CholVariant};
use hs_apps::matmul::MatmulConfig;
use hs_apps::tuned;
use hs_bench::{f, write_bench_json, JsonRecord, Table};
use hs_machine::{Device, PlatformCfg};
use hs_tune::{SearchSpace, Tune, TuneOutcome};
use hstreams_core::{ExecMode, HStreams};

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tune.json");

struct Workload {
    name: &'static str,
    n: usize,
    platform: PlatformCfg,
    grid_streams: Vec<u32>,
    grid_tiles: Vec<usize>,
    mask_widths: Vec<u32>,
    validate_n: usize,
}

/// Sim gflops of one (streams, tile, optional width) config.
fn run_sim(w: &Workload, streams: u32, tile: usize, width: Option<u32>) -> f64 {
    let mut hs = HStreams::init(w.platform.clone(), ExecMode::Sim);
    match w.name {
        "matmul" => {
            let mut cfg = MatmulConfig::new(w.n, tile);
            cfg.host_participates = false;
            cfg.streams_per_card = streams as usize;
            cfg.mask_width = width;
            hs_apps::matmul::run(&mut hs, &cfg).expect("matmul").gflops
        }
        _ => {
            let mut cfg = CholConfig::new(w.n, tile, CholVariant::Hetero);
            cfg.streams_per_card = streams as usize;
            cfg.mask_width = width;
            hs_apps::cholesky::run(&mut hs, &cfg)
                .expect("cholesky")
                .gflops
        }
    }
}

fn tune_once(w: &Workload, cache: &std::path::Path, hs: &HStreams) -> TuneOutcome {
    let space = SearchSpace::new(
        w.grid_streams.clone(),
        w.mask_widths.clone(),
        w.grid_tiles.clone(),
    );
    let spec = match w.name {
        "matmul" => {
            let mut template = MatmulConfig::new(w.n, w.grid_tiles[0]);
            template.host_participates = false;
            tuned::matmul_spec(template, space, Some(w.validate_n))
        }
        _ => {
            let template = CholConfig::new(w.n, w.grid_tiles[0], CholVariant::Hetero);
            tuned::cholesky_spec(template, space, Some(w.validate_n))
        }
    };
    hs.tune(spec.seed(42).top_k(3).cache(cache)).expect("tune")
}

fn main() {
    if std::env::var("HS_CHAOS_SEED").is_ok() {
        println!(
            "NOTICE: HS_CHAOS_SEED set — tuning measurements under fault injection \
             are meaningless; refusing to run (and BENCH_tune.json stays untouched)."
        );
        return;
    }
    let smoke = std::env::var("HS_BENCH_SMOKE").is_ok();
    let workloads = if smoke {
        vec![
            Workload {
                name: "matmul",
                n: 2400,
                platform: PlatformCfg::offload(Device::Hsw, 1),
                grid_streams: vec![1, 2, 4],
                grid_tiles: vec![300, 400, 600],
                mask_widths: vec![8, 15, 20, 30, 60],
                validate_n: 480,
            },
            Workload {
                name: "cholesky",
                n: 3000,
                platform: PlatformCfg::hetero(Device::Hsw, 1),
                grid_streams: vec![2, 4],
                grid_tiles: vec![375, 500, 750],
                mask_widths: vec![8, 15, 20, 30, 60],
                validate_n: 600,
            },
        ]
    } else {
        vec![
            Workload {
                name: "matmul",
                // The ablation_tuning grid: n = 12000 offload to 1 card.
                n: 12000,
                platform: PlatformCfg::offload(Device::Hsw, 1),
                grid_streams: vec![1, 2, 4, 6, 10],
                grid_tiles: vec![400, 600, 1000, 1500, 2400, 4000],
                // Includes every even-partition width the grid's default
                // masks produce on the 60-core card (60/streams), so the
                // tuner's space strictly contains the hand grid.
                mask_widths: vec![6, 10, 15, 20, 30, 60],
                validate_n: 960,
            },
            Workload {
                name: "cholesky",
                // The fig7 shape at n = 10000 (tile_for(n) = 625 sits
                // inside this tile axis), hetero host + 1 card.
                n: 10000,
                platform: PlatformCfg::hetero(Device::Hsw, 1),
                grid_streams: vec![2, 4, 6],
                grid_tiles: vec![500, 625, 1000, 1250],
                mask_widths: vec![6, 10, 15, 20, 30, 60],
                validate_n: 1000,
            },
        ]
    };

    let mut records = Vec::new();
    let mut table = Table::new(vec![
        "workload",
        "tuned GF/s",
        "grid best",
        "grid worst",
        "vs best",
        "explored",
        "rank corr",
        "cache 2nd",
    ]);

    for w in &workloads {
        // 1. The hand-picked grid (mask width at its default partition).
        let mut grid_best = f64::MIN;
        let mut grid_worst = f64::MAX;
        for &s in &w.grid_streams {
            for &t in &w.grid_tiles {
                let g = run_sim(w, s, t, None);
                grid_best = grid_best.max(g);
                grid_worst = grid_worst.min(g);
            }
        }

        // 2. The closed loop, fresh cache.
        let cache =
            std::env::temp_dir().join(format!("hs-bench-tune-{}-{}", w.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let hs = HStreams::init(w.platform.clone(), ExecMode::Sim);
        let out = tune_once(w, &cache, &hs);
        assert!(!out.cache_hit, "fresh cache cannot hit");

        // 3. Full-size sim rate of the pick, gated against the grid.
        let tuned_gflops = run_sim(
            w,
            out.config.streams_per_card,
            out.config.tile,
            Some(out.config.mask_width),
        );
        let ratio_best = tuned_gflops / grid_best;
        let rank_corr = out.rank_corr.unwrap_or(f64::NAN);

        // 4. Second run: must be served from the cache, search skipped.
        let hs2 = HStreams::init(w.platform.clone(), ExecMode::Sim);
        let again = tune_once(w, &cache, &hs2);
        let _ = std::fs::remove_dir_all(&cache);

        table.row(vec![
            w.name.to_string(),
            f(tuned_gflops),
            f(grid_best),
            f(grid_worst),
            format!("{ratio_best:.3}x"),
            format!("{}", out.explored),
            format!("{rank_corr:.3}"),
            format!(
                "{}",
                if again.cache_hit && again.explored == 0 {
                    "hit"
                } else {
                    "MISS"
                }
            ),
        ]);
        records.push(
            JsonRecord::new(format!("tune_{}", w.name), w.n, tuned_gflops)
                .with_config("tuned")
                .with_metrics(vec![
                    ("tuned_gflops".to_string(), tuned_gflops),
                    ("grid_best_gflops".to_string(), grid_best),
                    ("grid_worst_gflops".to_string(), grid_worst),
                    ("ratio_vs_grid_best".to_string(), ratio_best),
                    ("explored".to_string(), out.explored as f64),
                    ("rank_corr".to_string(), rank_corr),
                    (
                        "validated_k".to_string(),
                        if out.wall_secs.is_some() { 3.0 } else { 0.0 },
                    ),
                    (
                        "streams_per_card".to_string(),
                        out.config.streams_per_card as f64,
                    ),
                    ("mask_width".to_string(), out.config.mask_width as f64),
                    ("tile".to_string(), out.config.tile as f64),
                    (
                        "tune_cache_hit_second_run".to_string(),
                        f64::from(u8::from(again.cache_hit)),
                    ),
                    ("smoke".to_string(), if smoke { 1.0 } else { 0.0 }),
                ]),
        );
        println!(
            "{}: tuned {:?} -> {:.0} GF/s (grid best {:.0}, worst {:.0}, {:.3}x best), \
             {} candidates, rank corr {:.3}, second run {}",
            w.name,
            out.config,
            tuned_gflops,
            grid_best,
            grid_worst,
            ratio_best,
            out.explored,
            rank_corr,
            if again.cache_hit {
                "cache hit"
            } else {
                "CACHE MISS"
            }
        );

        // Gates (sim is deterministic: these are exact, not noisy).
        assert!(
            ratio_best >= 1.0,
            "{}: tuned config {:?} ({tuned_gflops:.0} GF/s) lost to the best \
             hand-picked grid point ({grid_best:.0} GF/s)",
            w.name,
            out.config
        );
        assert!(
            tuned_gflops > grid_worst,
            "{}: tuned config must strictly beat the worst grid corner",
            w.name
        );
        assert!(
            again.cache_hit && again.explored == 0,
            "{}: second tune must hit the cache and skip the search \
             (hit={}, explored={})",
            w.name,
            again.cache_hit,
            again.explored
        );
        assert_eq!(again.config, out.config, "a hit returns the stored config");
    }

    table.print("closed-loop tuning vs hand-picked grids (sim cost model)");
    write_bench_json(ARTIFACT, &records);
}
