//! Petrobras-like RTM: halo/bulk decomposition with pipelined transfers.
//!
//! Real mode propagates a small wavefield under all three schemes and
//! verifies each against the sequential reference; sim mode prints the
//! compute/transfer overlap a pipelined run achieves (folded from its obs
//! records) and the speedup over synchronous offload.
//!
//! Run with: `cargo run --release --example rtm_pipeline`

use hs_apps::rtm::{run, RtmConfig, Scheme};
use hs_machine::{Device, PlatformCfg};
use hs_obs::ObsKind;
use hstreams_core::{ExecMode, HStreams};

fn main() {
    // --- real mode: the three schemes agree with the reference ---
    for scheme in [
        Scheme::HostOnly,
        Scheme::SyncOffload,
        Scheme::AsyncPipelined,
    ] {
        let cfg = RtmConfig::small(scheme);
        let platform = if scheme == Scheme::HostOnly {
            PlatformCfg::native(Device::Hsw)
        } else {
            PlatformCfg::hetero(Device::Hsw, cfg.ranks)
        };
        let mut hs = HStreams::init(platform, ExecMode::Threads);
        let r = run(&mut hs, &cfg).expect("propagates");
        println!(
            "real mode, {scheme:?}: max wavefield deviation from reference {:.2e}",
            r.max_err.expect("verified")
        );
    }

    // --- sim mode: overlap + speedup ---
    let mk = |scheme| RtmConfig {
        nx: 1024,
        ny: 1024,
        nz_per_rank: 192,
        ranks: 2,
        steps: 40,
        scheme,
        optimized: true,
        verify: false,
    };
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    let t_sync = run(&mut hs, &mk(Scheme::SyncOffload)).expect("sync").secs;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    hs.obs_enable(true);
    let t_async = run(&mut hs, &mk(Scheme::AsyncPipelined))
        .expect("async")
        .secs;
    let records = hs.take_obs_records();
    let overlap = hs_obs::overlap_ns(
        &hs_obs::spans(&records),
        ObsKind::Compute,
        ObsKind::Transfer,
    );
    println!(
        "\nsim mode, 2 ranks on 2 cards, 40 steps:\n  synchronous offload: {t_sync:.3}s\n  async pipelined:     {t_async:.3}s  ({:.1}% faster)",
        (t_sync / t_async - 1.0) * 100.0
    );
    println!(
        "  compute/transfer overlap in the pipelined run: {:.3}s of {:.3}s",
        overlap as f64 * 1e-9,
        t_async
    );
}
