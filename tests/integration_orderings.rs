//! Ordering-mode integration: the full applications must stay numerically
//! correct under `StrictFifo` ordering (its dependence set is a superset of
//! the out-of-order one), and the sim-mode makespans must order sensibly
//! (strict never beats out-of-order on pipelined workloads).

use hs_apps::cholesky::{run as chol, CholConfig, CholVariant};
use hs_apps::matmul::{run as matmul, MatmulConfig};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams, OrderingMode};

#[test]
fn matmul_is_correct_under_strict_fifo() {
    let mut hs = HStreams::init_with_ordering(
        PlatformCfg::hetero(Device::Hsw, 2),
        ExecMode::Threads,
        OrderingMode::StrictFifo,
    );
    let mut cfg = MatmulConfig::new(20, 5);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    let r = matmul(&mut hs, &cfg).expect("strict matmul");
    assert!(r.max_err.expect("verified") < 1e-10);
}

#[test]
fn cholesky_is_correct_under_strict_fifo() {
    let mut hs = HStreams::init_with_ordering(
        PlatformCfg::hetero(Device::Hsw, 1),
        ExecMode::Threads,
        OrderingMode::StrictFifo,
    );
    let mut cfg = CholConfig::new(20, 5, CholVariant::Hetero);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    let r = chol(&mut hs, &cfg).expect("strict cholesky");
    assert!(r.max_err.expect("verified") < 1e-8);
}

#[test]
fn rtm_is_correct_under_strict_fifo() {
    use hs_apps::rtm::{run as rtm, RtmConfig, Scheme};
    let cfg = RtmConfig::small(Scheme::AsyncPipelined);
    let mut hs = HStreams::init_with_ordering(
        PlatformCfg::hetero(Device::Hsw, cfg.ranks),
        ExecMode::Threads,
        OrderingMode::StrictFifo,
    );
    let r = rtm(&mut hs, &cfg).expect("strict rtm");
    assert!(r.max_err.expect("verified") < 1e-11);
}

#[test]
fn sim_strict_never_beats_ooo_on_the_matmul_pipeline() {
    let run = |ordering: OrderingMode| {
        let mut hs = HStreams::init_with_ordering(
            PlatformCfg::offload(Device::Hsw, 1),
            ExecMode::Sim,
            ordering,
        );
        let mut cfg = MatmulConfig::new(8000, 500);
        cfg.host_participates = false;
        matmul(&mut hs, &cfg).expect("matmul").secs
    };
    let ooo = run(OrderingMode::OutOfOrder);
    let strict = run(OrderingMode::StrictFifo);
    assert!(
        ooo <= strict * 1.02,
        "out-of-order must not lose to strict FIFO: {ooo:.3}s vs {strict:.3}s"
    );
}

#[test]
fn sim_strict_never_beats_ooo_on_cholesky() {
    let run = |ordering: OrderingMode| {
        let mut hs = HStreams::init_with_ordering(
            PlatformCfg::offload(Device::Hsw, 1),
            ExecMode::Sim,
            ordering,
        );
        chol(&mut hs, &CholConfig::new(8000, 800, CholVariant::Offload))
            .expect("chol")
            .secs
    };
    let ooo = run(OrderingMode::OutOfOrder);
    let strict = run(OrderingMode::StrictFifo);
    assert!(
        ooo <= strict * 1.02,
        "out-of-order must not lose to strict FIFO: {ooo:.3}s vs {strict:.3}s"
    );
}
