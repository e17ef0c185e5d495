//! Cross-application numerical integration: several applications sharing
//! one runtime, back-to-back factorizations reusing pooled buffers, and
//! every application verified against its reference on the real-thread
//! executor.

use hs_apps::cholesky::{run as chol, CholConfig, CholVariant};
use hs_apps::matmul::{run as matmul, MatmulConfig};
use hs_apps::rtm::{run as rtm, RtmConfig, Scheme};
use hs_apps::solver::{run_supernode, SupernodeConfig, SupernodeTarget};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

#[test]
fn matmul_then_cholesky_on_one_runtime() {
    // The paper's separation of concerns means one runtime instance hosts
    // many algorithm phases; buffers and streams must coexist.
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    let mut mm = MatmulConfig::new(20, 5);
    mm.streams_per_card = 2;
    mm.streams_host = 2;
    mm.verify = true;
    let r1 = matmul(&mut hs, &mm).expect("matmul");
    assert!(r1.max_err.expect("verified") < 1e-10);

    let mut cc = CholConfig::new(20, 5, CholVariant::Hetero);
    cc.streams_per_card = 2;
    cc.streams_host = 2;
    cc.verify = true;
    let r2 = chol(&mut hs, &cc).expect("cholesky");
    assert!(r2.max_err.expect("verified") < 1e-8);
}

#[test]
fn repeated_supernodes_reuse_cleanly() {
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    for round in 0..3 {
        let cfg = SupernodeConfig {
            n: 16,
            tile: 4,
            target: SupernodeTarget::CardOffload,
            streams: 2,
            cores_per_stream: 2,
            verify: true,
        };
        let r = run_supernode(&mut hs, &cfg).expect("supernode");
        assert!(
            r.max_err.expect("verified") < 1e-8,
            "round {round}: {:?}",
            r.max_err
        );
    }
}

#[test]
fn rtm_schemes_cross_agree_on_larger_grid() {
    // A deeper grid than the unit tests: 3 ranks, 8 steps.
    let mk = |scheme| RtmConfig {
        nx: 16,
        ny: 12,
        nz_per_rank: 10,
        ranks: 3,
        steps: 8,
        scheme,
        optimized: true,
        verify: true,
    };
    for scheme in [
        Scheme::HostOnly,
        Scheme::SyncOffload,
        Scheme::AsyncPipelined,
    ] {
        let platform = if scheme == Scheme::HostOnly {
            PlatformCfg::native(Device::Hsw)
        } else {
            PlatformCfg::hetero(Device::Hsw, 3)
        };
        let mut hs = HStreams::init(platform, ExecMode::Threads);
        let r = rtm(&mut hs, &mk(scheme)).expect("propagates");
        assert!(
            r.max_err.expect("verified") < 1e-10,
            "{scheme:?}: {:?}",
            r.max_err
        );
    }
}

#[test]
fn cholesky_all_variants_agree_on_same_matrix() {
    // Same seed => same SPD matrix; all schedules must factor it to the
    // same (numerically close) factor.
    let mut results = Vec::new();
    for (variant, cards) in [
        (CholVariant::Hetero, 2),
        (CholVariant::Offload, 1),
        (CholVariant::MklAoLike, 2),
        (CholVariant::MagmaLike, 2),
    ] {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, cards), ExecMode::Threads);
        let mut cfg = CholConfig::new(18, 6, variant);
        cfg.streams_per_card = 2;
        cfg.streams_host = 2;
        cfg.verify = true;
        let r = chol(&mut hs, &cfg).expect("factorizes");
        results.push((variant, r.max_err.expect("verified")));
    }
    for (variant, err) in results {
        assert!(err < 1e-8, "{variant:?} err {err}");
    }
}
