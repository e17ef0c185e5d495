//! Fig. 6 — heterogeneous tiled matrix multiply, Gflop/s vs matrix size for
//! every platform configuration the paper plots, including the
//! with/without-load-balancing pair on IVB + 2 KNC.
//!
//! Paper asymptotes: HSW+2KNC 2599, HSW+1KNC 1622, 1 KNC (offload) 982,
//! HSW native 902, IVB+2KNC balanced 1878 / naive 1192 (1.58x), IVB+1KNC
//! 1165, IVB native 475.

use hs_apps::matmul::{run, MatmulConfig};
use hs_bench::{f, write_bench_json, JsonRecord, Table};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, FaultPlan, HStreams};

fn tile_for(n: usize) -> usize {
    (n / 20).clamp(400, 3000)
}

fn gflops(platform: PlatformCfg, n: usize, host: bool, balance: bool) -> f64 {
    let mut cfg = MatmulConfig::new(n, tile_for(n));
    cfg.host_participates = host;
    cfg.load_balance = balance;
    let mut hs = HStreams::init(platform, ExecMode::Sim);
    run(&mut hs, &cfg).expect("matmul runs").gflops
}

/// One traced run: lifecycle recording on, Chrome-trace JSON written to
/// `path`, and the run's metrics snapshot (queue depths, occupancy)
/// attached to its bench record.
fn traced_run(path: &str, n: usize, records: &mut Vec<JsonRecord>) {
    let mut cfg = MatmulConfig::new(n, tile_for(n));
    cfg.host_participates = true;
    cfg.load_balance = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    hs.obs_enable(true);
    let res = run(&mut hs, &cfg).expect("matmul runs");
    let trace = hs_obs::chrome::chrome_trace_json(&hs.take_obs_records());
    std::fs::write(path, &trace).unwrap_or_else(|e| panic!("writing trace {path}: {e}"));
    let spans = hs.stats().computes() + hs.stats().transfers() - hs.stats().transfers_elided();
    println!("wrote Chrome trace ({spans} expected spans) to {path}");
    records.push(
        JsonRecord::new("HSW+2KNC traced", n, res.gflops)
            .with_source_threads(1)
            .with_ordering("ooo")
            .with_metrics(hs.metrics().rows()),
    );
}

/// Chaos smoke (CI's `chaos-smoke` job): one real-mode matmul under the
/// fixed-shape smoke fault plan — a transient DMA fault absorbed by
/// retries plus a mid-run loss of card 1 absorbed by degradation. Asserts
/// completion and the fault-free checksum, and exports a lifecycle trace
/// for structural validation when `HS_TRACE` is set. Chaotic measurements
/// never reach `BENCH_fig6.json` (see `write_bench_json`).
fn chaos_smoke(seed: u64) {
    let mut cfg = MatmulConfig::new(48, 12);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.obs_enable(true);
    hs.chaos_install(FaultPlan::smoke(seed));
    let res = run(&mut hs, &cfg).expect("chaotic matmul must recover and complete");
    let err = res.max_err.expect("verified");
    assert!(
        err < 1e-10,
        "post-recovery checksum must equal the fault-free product: err {err}"
    );
    assert_eq!(
        hs.degraded_cards(),
        &[1],
        "the smoke plan kills card 1 mid-run"
    );
    let log = hs.chaos().injected_log();
    assert!(!log.is_empty(), "the smoke plan must inject");
    println!("\n=== chaos smoke (seed {seed}) ===");
    for line in &log {
        println!("  {line}");
    }
    println!(
        "recovered: max_err {err:.3e}, degraded cards {:?}",
        hs.degraded_cards()
    );
    // The trace artifact comes from a virtual-time run of the same plan
    // (like the tracing-smoke job): sim rows are serial resources, which
    // is what the structural validator checks.
    if let Ok(path) = std::env::var("HS_TRACE") {
        let mut cfg = MatmulConfig::new(600, 100);
        cfg.streams_per_card = 2;
        cfg.streams_host = 2;
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        hs.obs_enable(true);
        hs.chaos_install(FaultPlan::smoke(seed));
        run(&mut hs, &cfg).expect("chaotic sim matmul must recover");
        assert_eq!(hs.degraded_cards(), &[1], "sim run degrades too");
        let trace = hs_obs::chrome::chrome_trace_json(&hs.take_obs_records());
        std::fs::write(&path, &trace).unwrap_or_else(|e| panic!("writing trace {path}: {e}"));
        println!("wrote chaotic Chrome trace to {path}");
    }
}

fn main() {
    // HS_CHAOS_SEED switches the bench into fault-injection smoke mode:
    // the figure sweep is skipped (its numbers would be meaningless) and
    // the run instead proves the chaos plan is absorbed.
    if let Ok(seed) = std::env::var("HS_CHAOS_SEED") {
        let seed: u64 = seed
            .parse()
            .unwrap_or_else(|e| panic!("HS_CHAOS_SEED must be a u64: {e}"));
        chaos_smoke(seed);
        return;
    }
    let smoke = std::env::var("HS_BENCH_SMOKE").is_ok();
    let sizes: &[usize] = if smoke {
        &[2000]
    } else {
        &[2000, 5000, 10000, 16000, 22000, 30000]
    };
    let names = [
        "HSW+2KNC",
        "HSW+1KNC",
        "1KNC(off)",
        "HSW native",
        "IVB+2KNC bal",
        "IVB+2KNC naive",
        "IVB+1KNC",
        "IVB native",
    ];
    let mut t = Table::new({
        let mut h = vec!["n"];
        h.extend(names);
        h
    });
    let mut records = Vec::new();
    let mut last: Vec<f64> = Vec::new();
    for &n in sizes {
        let vals = vec![
            gflops(PlatformCfg::hetero(Device::Hsw, 2), n, true, true),
            gflops(PlatformCfg::hetero(Device::Hsw, 1), n, true, true),
            gflops(PlatformCfg::offload(Device::Hsw, 1), n, false, true),
            gflops(PlatformCfg::native(Device::Hsw), n, true, true),
            gflops(PlatformCfg::hetero(Device::Ivb, 2), n, true, true),
            gflops(PlatformCfg::hetero(Device::Ivb, 2), n, true, false),
            gflops(PlatformCfg::hetero(Device::Ivb, 1), n, true, true),
            gflops(PlatformCfg::native(Device::Ivb), n, true, true),
        ];
        for (name, v) in names.iter().zip(&vals) {
            records.push(
                JsonRecord::new(*name, n, *v)
                    .with_source_threads(1)
                    .with_ordering("ooo"),
            );
        }
        let mut row = vec![n.to_string()];
        row.extend(vals.iter().map(|v| f(*v)));
        t.row(row);
        last = vals;
    }
    t.print("Fig. 6 — hetero matmul Gflop/s vs n (measured, virtual time)");
    if let Ok(path) = std::env::var("HS_TRACE") {
        traced_run(&path, sizes[0], &mut records);
    }
    write_bench_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig6.json"),
        &records,
    );

    let paper = [2599.0, 1622.0, 982.0, 902.0, 1878.0, 1192.0, 1165.0, 475.0];
    let mut p = Table::new(vec!["config", "measured@30000", "paper peak", "ratio"]);
    let names = [
        "HSW+2KNC",
        "HSW+1KNC",
        "1KNC(off)",
        "HSW native",
        "IVB+2KNC bal",
        "IVB+2KNC naive",
        "IVB+1KNC",
        "IVB native",
    ];
    for i in 0..names.len() {
        p.row(vec![
            names[i].to_string(),
            f(last[i]),
            f(paper[i]),
            format!("{:.2}", last[i] / paper[i]),
        ]);
    }
    p.print("Fig. 6 — asymptote comparison");
    println!(
        "\nLoad-balancing gain on IVB+2KNC at n=30000: {:.2}x (paper: 1.58x)",
        last[4] / last[5]
    );
}
