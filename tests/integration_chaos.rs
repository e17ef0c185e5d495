//! End-to-end chaos: the paper's applications must survive injected faults.
//!
//! Covers the ISSUE's acceptance scenarios at the application level — a
//! card dying mid-run degrades to the host and the run still produces the
//! correct result, and transient-only fault plans with a sufficient retry
//! budget are invisible to the caller.

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, FaultKind, FaultPlan, FaultSite, HStreams, RetryPolicy};
use proptest::prelude::*;

fn matmul_cfg(n: usize, tile: usize) -> MatmulConfig {
    let mut c = MatmulConfig::new(n, tile);
    c.streams_per_card = 2;
    c.streams_host = 2;
    c.verify = true;
    c
}

/// The domains degraded to the host, by index.
fn degraded(hs: &HStreams) -> Vec<usize> {
    hs.domains()
        .iter()
        .filter(|d| d.degraded)
        .map(|d| d.id.0)
        .collect()
}

/// Kill card 1 once its ~nth op is dispatched: mid-run for these shapes.
fn card_loss_plan(seed: u64, nth: u64) -> FaultPlan {
    FaultPlan::new(seed).with_trigger(FaultSite::CardOp { card: 1, nth }, FaultKind::CardDead)
}

/// Acceptance: matmul with a mid-run card loss completes and the result
/// matches the fault-free reference product — the checksum a fault-free
/// run verifies against.
#[test]
fn matmul_survives_mid_run_card_loss_with_correct_result() {
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Threads);
    hs.chaos_install(card_loss_plan(11, 9)).expect("fault plan");
    let r = matmul::run(&mut hs, &matmul_cfg(24, 6)).expect("degraded run completes");
    assert_eq!(degraded(&hs), &[1], "card 1 must have been degraded");
    assert!(
        r.max_err.expect("verified") < 1e-10,
        "post-degradation result must equal the fault-free product: err {:?}",
        r.max_err
    );
}

#[test]
fn matmul_survives_card_loss_in_sim_mode() {
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    hs.chaos_install(card_loss_plan(11, 9)).expect("fault plan");
    let mut cfg = matmul_cfg(600, 100);
    cfg.verify = false;
    matmul::run(&mut hs, &cfg).expect("sim degraded run completes");
    assert_eq!(degraded(&hs), &[1]);
}

/// Cholesky's dependence structure is much deeper than matmul's (panel →
/// column → trailing updates); card loss mid-factorization exercises
/// replay across long chains. `Hetero` waits once, at the end, so the
/// degradation runs inside that wait; `MklAoLike` waits every step, so the
/// card is lost under one step's wait and every later step enqueues
/// transfers that still name it.
#[test]
fn cholesky_survives_mid_run_card_loss_with_correct_result() {
    for variant in [CholVariant::Hetero, CholVariant::MklAoLike] {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
        hs.chaos_install(card_loss_plan(3, 7)).expect("fault plan");
        let mut cfg = CholConfig::new(24, 6, variant);
        cfg.streams_per_card = 2;
        cfg.streams_host = 2;
        cfg.verify = true;
        let r = cholesky::run(&mut hs, &cfg)
            .unwrap_or_else(|e| panic!("{variant:?}: degraded factorization fails: {e}"));
        assert_eq!(degraded(&hs), &[1], "{variant:?}");
        assert!(
            r.max_err.expect("verified") < 1e-8,
            "{variant:?}: L·Lt must still reconstruct A: err {:?}",
            r.max_err
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Satellite property: a transient-only fault plan plus a sufficient
    /// retry budget is invisible — matmul produces the fault-free result
    /// (threads) and completes deterministically (sim), for any seed.
    #[test]
    fn transient_faults_with_budget_are_invisible(seed in any::<u64>()) {
        let plan = || FaultPlan {
            dma_fault_rate: 0.2,
            compute_fault_rate: 0.1,
            retry: RetryPolicy::standard(10),
            ..FaultPlan::new(seed)
        };

        // Threads: numerically identical to the fault-free run.
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
        hs.chaos_install(plan()).expect("fault plan");
        let r = matmul::run(&mut hs, &matmul_cfg(18, 6)).expect("retries absorb the faults");
        prop_assert!(degraded(&hs).is_empty(), "no card death in a transient-only plan");
        prop_assert!(
            r.max_err.expect("verified") < 1e-10,
            "retried run must equal fault-free: err {:?}", r.max_err
        );

        // Sim: completes, and the same seed reproduces the same virtual
        // time (every backoff and injection is a pure function of it).
        let sim_run = || {
            let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
            let chaos = hs.chaos_install(plan()).expect("fault plan");
            let mut cfg = matmul_cfg(600, 100);
            cfg.verify = false;
            let secs = matmul::run(&mut hs, &cfg).expect("sim run completes").secs;
            let mut log = chaos.injected_log();
            log.sort();
            (secs, log)
        };
        let (secs_a, log_a) = sim_run();
        let (secs_b, log_b) = sim_run();
        prop_assert_eq!(log_a, log_b, "same seed, same injections");
        prop_assert_eq!(secs_a, secs_b, "same seed, same virtual timeline");
    }
}
