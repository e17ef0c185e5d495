//! Fig. 9 — runtimes (s) for the Abaqus standalone hStreams test program
//! factorizing a single representative dense supernode.
//!
//! Paper: KNC offload 2.35 s (4 streams x 60 threads), HSW host-as-target
//! 2.24 s (3 x 9), IVB host-as-target 4.27 s (3 x 7); median of 5 runs.
//! (Virtual time is deterministic, so one run here *is* the median.)

use hs_apps::solver::{fig9_config, run_supernode};
use hs_bench::Table;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

const N: usize = 16000;
const TILE: usize = 2000;

fn run_dev(dev: Device) -> f64 {
    let platform = if dev == Device::Knc {
        PlatformCfg::offload(Device::Hsw, 1)
    } else {
        PlatformCfg::native(dev)
    };
    let mut hs = HStreams::init(platform, ExecMode::Sim);
    run_supernode(&mut hs, &fig9_config(dev, N, TILE))
        .expect("supernode factorizes")
        .secs
}

fn main() {
    let knc = run_dev(Device::Knc);
    let hsw = run_dev(Device::Hsw);
    let ivb = run_dev(Device::Ivb);

    let mut t = Table::new(vec![
        "target",
        "streams x cores",
        "measured (s)",
        "paper (s)",
    ]);
    t.row(vec![
        "KNC offload".to_string(),
        "4 x 15 (240 thr)".to_string(),
        format!("{knc:.2}"),
        "2.35".to_string(),
    ]);
    t.row(vec![
        "HSW host-as-target".to_string(),
        "3 x 9".to_string(),
        format!("{hsw:.2}"),
        "2.24".to_string(),
    ]);
    t.row(vec![
        "IVB host-as-target".to_string(),
        "3 x 7".to_string(),
        format!("{ivb:.2}"),
        "4.27".to_string(),
    ]);
    t.print(&format!(
        "Fig. 9 — standalone supernode factorization, n = {N}, tile = {TILE}"
    ));

    println!(
        "\nratios: KNC/HSW measured {:.2} (paper 1.05); IVB/HSW measured {:.2} (paper 1.91)",
        knc / hsw,
        ivb / hsw
    );
}
