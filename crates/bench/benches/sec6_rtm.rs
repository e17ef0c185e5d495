//! §VI, Petrobras RTM — speedups of KNC offload over the HSW host baseline
//! for 1–4 ranks, with optimized and unoptimized kernels, and the benefit
//! of asynchronous pipelining over fully-synchronous offload.
//!
//! Paper: optimized speedup 1.52x (1 card) to 6.02x (4 ranks / 4 cards);
//! unoptimized 1.13x–4.53x; async pipelining benefit 3–10%.

use hs_apps::rtm::{run, RtmConfig, Scheme};
use hs_bench::{x, Table};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn cfg(scheme: Scheme, ranks: usize, optimized: bool) -> RtmConfig {
    RtmConfig {
        nx: 1024,
        ny: 1024,
        // Production-depth subdomains: the halo (2 x 4 planes) is a small
        // fraction of 640 interior planes, which is what puts the async
        // pipelining benefit in the paper's single-digit band.
        nz_per_rank: 640,
        ranks,
        steps: 150,
        scheme,
        optimized,
        verify: false,
    }
}

fn secs(platform: PlatformCfg, c: &RtmConfig) -> f64 {
    let mut hs = HStreams::init(platform, ExecMode::Sim);
    run(&mut hs, c).expect("rtm runs").secs
}

fn main() {
    // Baseline: ONE rank's subdomain on the HSW host (no offload). Speedup
    // for R ranks on R cards is throughput-relative: R x (t_base / t).
    let base_opt = secs(
        PlatformCfg::native(Device::Hsw),
        &cfg(Scheme::HostOnly, 1, true),
    );
    let base_unopt = secs(
        PlatformCfg::native(Device::Hsw),
        &cfg(Scheme::HostOnly, 1, false),
    );

    let mut t = Table::new(vec![
        "ranks",
        "opt async",
        "opt sync",
        "async benefit",
        "unopt async",
    ]);
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    for ranks in 1..=4usize {
        let plat = || PlatformCfg::hetero(Device::Hsw, ranks);
        let t_async = secs(plat(), &cfg(Scheme::AsyncPipelined, ranks, true));
        let t_sync = secs(plat(), &cfg(Scheme::SyncOffload, ranks, true));
        let t_unopt = secs(plat(), &cfg(Scheme::AsyncPipelined, ranks, false));
        let s_async = ranks as f64 * base_opt / t_async;
        let s_sync = ranks as f64 * base_opt / t_sync;
        let s_unopt = ranks as f64 * base_unopt / t_unopt;
        let benefit = t_sync / t_async - 1.0;
        rows.push((ranks, s_async, s_unopt, benefit));
        t.row(vec![
            ranks.to_string(),
            x(s_async),
            x(s_sync),
            format!("{:.1}%", benefit * 100.0),
            x(s_unopt),
        ]);
    }
    t.print("§VI RTM — speedup over one HSW host rank (measured)");

    let (_, s1, u1, _) = rows[0];
    let (_, s4, u4, _) = rows[3];
    let mut p = Table::new(vec!["metric", "measured", "paper"]);
    p.row(vec![
        "optimized, 1 card".to_string(),
        x(s1),
        "1.52x".to_string(),
    ]);
    p.row(vec![
        "optimized, 4 ranks/4 cards".to_string(),
        x(s4),
        "6.02x".to_string(),
    ]);
    p.row(vec![
        "unoptimized, 1 card".to_string(),
        x(u1),
        "1.13x".to_string(),
    ]);
    p.row(vec![
        "unoptimized, 4 ranks".to_string(),
        x(u4),
        "4.53x".to_string(),
    ]);
    let benefits: Vec<f64> = rows.iter().map(|r| r.3 * 100.0).collect();
    p.row(vec![
        "async pipelining benefit".to_string(),
        format!(
            "{:.1}%..{:.1}%",
            benefits.iter().cloned().fold(f64::INFINITY, f64::min),
            benefits.iter().cloned().fold(0.0, f64::max)
        ),
        "3%..10%".to_string(),
    ]);
    p.print("§VI RTM — comparison");
}
