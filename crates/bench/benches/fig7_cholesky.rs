//! Fig. 7 — Cholesky Gflop/s vs matrix size for the hStreams hetero code,
//! MKL-Automatic-Offload-like and MAGMA-like schedules, the OmpSs port, the
//! pure-offload configuration and the native host.
//!
//! Paper peaks: hStr HSW+2KNC 1971, MKL AO +2 1743, MAGMA +2 1637,
//! hStr HSW+1KNC 1373, MKL AO +1 1356, MAGMA +1 1015, OmpSs-hStr +1 949,
//! hStr 1 KNC (offload) 774, HSW native 733.

use hs_apps::cholesky::{run, run_ompss, CholConfig, CholVariant};
use hs_bench::{f, write_bench_json, JsonRecord, Table};
use hs_machine::{Device, KernelKind, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn tile_for(n: usize) -> usize {
    (n / 16).clamp(250, 2200)
}

fn gflops(platform: PlatformCfg, n: usize, variant: CholVariant) -> f64 {
    let mut hs = HStreams::init(platform, ExecMode::Sim);
    run(&mut hs, &CholConfig::new(n, tile_for(n), variant))
        .expect("cholesky runs")
        .gflops
}

/// "HSW native (MKL)": an untiled DPOTRF call on the whole host.
fn native_gflops(n: usize) -> f64 {
    let p = PlatformCfg::native(Device::Hsw);
    let cm = p.cost_model();
    let host = p.host();
    let fl = hs_linalg::flops::potrf(n);
    let secs = cm.kernel_secs(host.device, host.cores, KernelKind::Dpotrf, fl, n as u64);
    hs_linalg::flops::gflops(fl, secs)
}

fn ompss_gflops(n: usize) -> f64 {
    run_ompss(
        PlatformCfg::offload(Device::Hsw, 1),
        ExecMode::Sim,
        n,
        tile_for(n),
        4,
        false,
    )
    .expect("ompss runs")
    .gflops
}

fn main() {
    let sizes = [2000usize, 5000, 10000, 15000, 20000, 25000, 30000, 35000];
    let mut t = Table::new(vec![
        "n",
        "hStr H+2K",
        "AO H+2K",
        "MAGMA H+2K",
        "hStr H+1K",
        "AO H+1K",
        "MAGMA H+1K",
        "OmpSs H+1K",
        "hStr 1K off",
        "HSW native",
    ]);
    let short_names = [
        "hStr H+2K",
        "AO H+2K",
        "MAGMA H+2K",
        "hStr H+1K",
        "AO H+1K",
        "MAGMA H+1K",
        "OmpSs H+1K",
        "hStr 1K off",
        "HSW native",
    ];
    let mut records = Vec::new();
    let mut last = Vec::new();
    for &n in &sizes {
        let vals = vec![
            gflops(PlatformCfg::hetero(Device::Hsw, 2), n, CholVariant::Hetero),
            gflops(
                PlatformCfg::hetero(Device::Hsw, 2),
                n,
                CholVariant::MklAoLike,
            ),
            gflops(
                PlatformCfg::hetero(Device::Hsw, 2),
                n,
                CholVariant::MagmaLike,
            ),
            gflops(PlatformCfg::hetero(Device::Hsw, 1), n, CholVariant::Hetero),
            gflops(
                PlatformCfg::hetero(Device::Hsw, 1),
                n,
                CholVariant::MklAoLike,
            ),
            gflops(
                PlatformCfg::hetero(Device::Hsw, 1),
                n,
                CholVariant::MagmaLike,
            ),
            ompss_gflops(n),
            gflops(
                PlatformCfg::offload(Device::Hsw, 1),
                n,
                CholVariant::Offload,
            ),
            native_gflops(n),
        ];
        for (name, v) in short_names.iter().zip(&vals) {
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
    t.print("Fig. 7 — Cholesky Gflop/s vs n (measured, virtual time)");
    write_bench_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig7.json"),
        &records,
    );

    let paper = [
        1971.0, 1743.0, 1637.0, 1373.0, 1356.0, 1015.0, 949.0, 774.0, 733.0,
    ];
    let names = [
        "hStr HSW+2KNC",
        "MKL AO HSW+2KNC",
        "MAGMA HSW+2KNC",
        "hStr HSW+1KNC",
        "MKL AO HSW+1KNC",
        "MAGMA HSW+1KNC",
        "OmpSs-hStr HSW+1KNC",
        "hStr 1KNC offload",
        "HSW native (MKL)",
    ];
    let mut p = Table::new(vec![
        "implementation",
        "measured@35000",
        "paper peak",
        "ratio",
    ]);
    for i in 0..names.len() {
        p.row(vec![
            names[i].to_string(),
            f(last[i]),
            f(paper[i]),
            format!("{:.2}", last[i] / paper[i]),
        ]);
    }
    p.print("Fig. 7 — peak comparison");
    println!(
        "\nhStreams-vs-MKL-AO at peak: {:.2}x (paper ~1.10x: \"10% greater performance ... with four days of tuning\")",
        last[0] / last[1]
    );
}
