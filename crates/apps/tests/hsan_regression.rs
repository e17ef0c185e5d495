//! Negative regression: the paper's pipelines, recorded live and fed to the
//! `hsan` happens-before analyzer, must produce **zero** findings — every
//! cross-stream dependence in matmul and Cholesky is explicitly
//! synchronized, all buffer lifecycles are sound, and the executors'
//! completion orders linearize the FIFO semantics.

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn assert_clean(hs: &mut HStreams, what: &str) {
    let trace = hs.recording_take().expect("recording was started");
    let report = hsan::check(&trace);
    assert!(
        report.is_clean(),
        "{what}: expected a clean report, got:\n{report}"
    );
    assert!(
        report.pairs_checked > 0,
        "{what}: the pipeline should exercise cross-stream conflicts"
    );
}

fn small_matmul() -> MatmulConfig {
    let mut cfg = MatmulConfig::new(24, 6);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    cfg
}

#[test]
fn matmul_pipeline_is_race_free_thread_mode() {
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Threads);
    hs.recording_start();
    let r = matmul::run(&mut hs, &small_matmul()).expect("matmul runs");
    assert!(r.max_err.expect("verified") < 1e-10);
    assert_clean(&mut hs, "matmul/threads");
}

#[test]
fn matmul_pipeline_is_race_free_sim_mode() {
    let mut cfg = MatmulConfig::new(2000, 500);
    cfg.verify = false;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    hs.recording_start();
    matmul::run(&mut hs, &cfg).expect("matmul runs");
    assert_clean(&mut hs, "matmul/sim");
}

#[test]
fn cholesky_hetero_is_race_free_thread_mode() {
    let mut cfg = CholConfig::new(24, 6, CholVariant::Hetero);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.recording_start();
    let r = cholesky::run(&mut hs, &cfg).expect("cholesky runs");
    assert!(r.max_err.expect("verified") < 1e-8);
    assert_clean(&mut hs, "cholesky-hetero/threads");
}

/// Task expansion on: with multi-core stream masks the compute kernels
/// partition tile rows across the pipelines' resident workgroups. The
/// recorded traces must stay clean, and each runtime's own spawn gauge must
/// prove the expansion path actually engaged (resident workers were
/// created by *its* streams, whatever sibling tests are doing).
#[test]
fn matmul_and_cholesky_race_free_with_expansion() {
    let spawned = |hs: &HStreams| hs.metrics().extra["wg.spawned_workers"];

    // Wide host streams: 2 streams over all host cores => width > 1 each.
    let mut mcfg = MatmulConfig::new(24, 6);
    mcfg.streams_per_card = 2;
    mcfg.streams_host = 2;
    mcfg.verify = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.recording_start();
    let r = matmul::run(&mut hs, &mcfg).expect("matmul runs");
    assert!(r.max_err.expect("verified") < 1e-10);
    assert_clean(&mut hs, "matmul/threads+expansion");
    assert!(
        spawned(&hs) > 0.0,
        "wide matmul streams must have spun up resident expansion workers"
    );
    drop(hs);

    let mut ccfg = CholConfig::new(24, 6, CholVariant::Hetero);
    ccfg.streams_per_card = 2;
    ccfg.streams_host = 2;
    ccfg.verify = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.recording_start();
    let r = cholesky::run(&mut hs, &ccfg).expect("cholesky runs");
    assert!(r.max_err.expect("verified") < 1e-8);
    assert_clean(&mut hs, "cholesky/threads+expansion");
    assert!(
        spawned(&hs) > 0.0,
        "wide Cholesky streams must have spun up resident expansion workers"
    );
}

#[test]
fn cholesky_variants_are_race_free_sim_mode() {
    for variant in [
        CholVariant::Hetero,
        CholVariant::Offload,
        CholVariant::MklAoLike,
        CholVariant::MagmaLike,
    ] {
        let cfg = CholConfig::new(2000, 500, variant);
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
        hs.recording_start();
        cholesky::run(&mut hs, &cfg).expect("cholesky runs");
        let trace = hs.recording_take().expect("recording was started");
        let report = hsan::check(&trace);
        assert!(
            report.is_clean(),
            "cholesky {variant:?}: expected clean, got:\n{report}"
        );
    }
}
