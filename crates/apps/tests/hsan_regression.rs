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
    let trace = hsan::ActionTrace::from_records(hs, &hs.take_obs_records());
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
    hs.obs_enable(true);
    let r = matmul::run(&mut hs, &small_matmul()).expect("matmul runs");
    assert!(r.max_err.expect("verified") < 1e-10);
    assert_clean(&mut hs, "matmul/threads");
}

#[test]
fn matmul_pipeline_is_race_free_sim_mode() {
    let mut cfg = MatmulConfig::new(2000, 500);
    cfg.verify = false;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    hs.obs_enable(true);
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
    hs.obs_enable(true);
    let r = cholesky::run(&mut hs, &cfg).expect("cholesky runs");
    assert!(r.max_err.expect("verified") < 1e-8);
    assert_clean(&mut hs, "cholesky-hetero/threads");
}

/// Wide streams: two streams over all host cores and two over the card, so
/// the kernels expand across however many lanes this machine gives a
/// stream (`wg.lanes`: one each on a small CI host, several on a large
/// one). The recorded traces must stay clean either way. That a kernel
/// really fans out when it has two lanes is pinned where the lane count can
/// be forced, through the explicit-lane pipeline constructor:
/// `expansion_engages_on_an_explicit_two_lane_pipeline` below and
/// `tests/lane_invariance.rs`.
#[test]
fn matmul_and_cholesky_race_free_with_expansion() {
    let lanes = |hs: &HStreams| hs.metrics().extra["wg.lanes"];

    let mut mcfg = MatmulConfig::new(24, 6);
    mcfg.streams_per_card = 2;
    mcfg.streams_host = 2;
    mcfg.verify = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.obs_enable(true);
    let r = matmul::run(&mut hs, &mcfg).expect("matmul runs");
    assert!(r.max_err.expect("verified") < 1e-10);
    assert_clean(&mut hs, "matmul/threads+expansion");
    assert!(lanes(&hs) >= 4.0, "four streams, at least a lane each");
    drop(hs);

    let mut ccfg = CholConfig::new(24, 6, CholVariant::Hetero);
    ccfg.streams_per_card = 2;
    ccfg.streams_host = 2;
    ccfg.verify = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.obs_enable(true);
    let r = cholesky::run(&mut hs, &ccfg).expect("cholesky runs");
    assert!(r.max_err.expect("verified") < 1e-8);
    assert_clean(&mut hs, "cholesky/threads+expansion");
    assert!(lanes(&hs) >= 4.0, "four streams, at least a lane each");
}

/// The expansion path itself, at a lane count the host cannot talk down: a
/// two-lane pipeline running one of the apps' own tile kernels opens a
/// parallel region every run.
#[test]
fn expansion_engages_on_an_explicit_two_lane_pipeline() {
    use hs_apps::kernels::{kernel_table, pack_dims};
    use hs_coi::{CoiRuntime, EngineId};

    let rt = CoiRuntime::new(0, hs_fabric::Pacer::unpaced());
    for (name, f) in kernel_table() {
        rt.register(name, f);
    }
    let pipe = rt.pipeline_create(EngineId::HOST, 2);
    // The benchmark's matmul tile: its Cholesky tile, 64, is less than two
    // lanes' worth of work and runs as one slab (`microkernel::expansion_rows`).
    let t = 128usize;
    let wins: Vec<_> = (0..3)
        .map(|_| rt.buffer_alloc(EngineId::HOST, t * t * 8, false))
        .collect();
    let bufs = |out: usize| {
        wins.iter()
            .enumerate()
            .map(|(i, w)| (w.id(), 0..t * t * 8, i == out))
            .collect::<Vec<_>>()
    };
    let dims = pack_dims(&[t as u32, t as u32, t as u32, 0]);
    for _ in 0..3 {
        pipe.run("tile_gemm_nn", dims.clone(), bufs(2))
            .wait()
            .expect("tile_gemm_nn runs");
    }
    assert_eq!(pipe.lanes(), 2);
    assert_eq!(
        pipe.workgroup().regions(),
        3,
        "a 128-row tile on two lanes fans out: one parallel region per run"
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
        hs.obs_enable(true);
        cholesky::run(&mut hs, &cfg).expect("cholesky runs");
        let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
        let report = hsan::check(&trace);
        assert!(
            report.is_clean(),
            "cholesky {variant:?}: expected clean, got:\n{report}"
        );
    }
}
