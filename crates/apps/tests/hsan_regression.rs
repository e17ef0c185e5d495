//! Negative regression: the paper's pipelines, recorded live and fed to the
//! `hsan` happens-before analyzer, must produce **zero** findings — every
//! cross-stream dependence in matmul and Cholesky is explicitly
//! synchronized, and the executors' completion orders linearize the FIFO
//! semantics. (Buffer lifetimes and waited events are checked by the
//! runtime at enqueue, `crates/core/tests/errors.rs`.)

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_apps::rtm::{self, RtmConfig, Scheme};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

/// The domains degraded to the host, by index.
fn degraded(hs: &HStreams) -> Vec<usize> {
    hs.domains()
        .iter()
        .filter(|d| d.degraded)
        .map(|d| d.id.0)
        .collect()
}

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

/// A card-loss replay trace: the card dies mid-factorization, the lost
/// actions re-run on the host behind their original events, and the fold
/// keeps each event's first lifecycle. Every wait still names a lower event
/// id — the invariant `hsan::hb` fills causal history by — and the trace
/// is clean: no race, no dangling wait, and, with an event keyed by its
/// first completion rather than its lost lifecycle's failure, no FIFO
/// violation.
/// RTM's pipelined scheme orders every cross-stream touch of a host field
/// with an edge: the first exchange's ghost copies wait on the neighbour's
/// initial h2d of that field, and each rank's results-home d2h waits on
/// the last exchange's copies that read or write its host field. Without
/// those edges this run reported 8 races.
#[test]
fn rtm_async_pipelined_is_race_free_sim_mode() {
    let cfg = RtmConfig {
        ranks: 3,
        ..RtmConfig::small(Scheme::AsyncPipelined)
    };
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 3), ExecMode::Sim);
    hs.obs_enable(true);
    rtm::run(&mut hs, &cfg).expect("rtm runs");
    assert_clean(&mut hs, "rtm-async/sim");
}

#[test]
fn card_loss_replay_trace_waits_point_backwards() {
    use hstreams_core::{FaultKind, FaultPlan, FaultSite};
    let mut cfg = CholConfig::new(24, 6, CholVariant::MklAoLike);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.chaos_install(
        FaultPlan::new(3).with_trigger(FaultSite::CardOp { card: 1, nth: 7 }, FaultKind::CardDead),
    )
    .expect("fault plan");
    hs.obs_enable(true);
    let r = cholesky::run(&mut hs, &cfg).expect("degraded factorization completes");
    assert_eq!(degraded(&hs), [1]);
    assert!(r.max_err.expect("verified") < 1e-8);
    let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    let waits: Vec<(u64, u64)> = trace
        .actions()
        .flat_map(|a| a.waits.iter().map(move |&w| (w, a.event)))
        .collect();
    assert!(!waits.is_empty(), "the factorization waits across streams");
    for (w, ev) in waits {
        assert!(w < ev, "event {ev} waits on {w}");
    }
    let report = hsan::check(&trace);
    assert!(report.is_clean(), "{report}");
}
