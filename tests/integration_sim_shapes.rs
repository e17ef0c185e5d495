//! Figure-shape regression tests: quick virtual-time runs asserting the
//! qualitative results every paper figure reports. The bench targets print
//! the full tables; these tests pin the *orderings and bands* so a
//! calibration or scheduler regression fails CI.

use hs_apps::cholesky::{run as chol, run_ompss, CholConfig, CholVariant};
use hs_apps::matmul::{run as matmul, MatmulConfig};
use hs_apps::rtm::{run as rtm, RtmConfig, Scheme};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn mm(platform: PlatformCfg, n: usize, tile: usize, host: bool, bal: bool) -> f64 {
    let mut cfg = MatmulConfig::new(n, tile);
    cfg.host_participates = host;
    cfg.load_balance = bal;
    let mut hs = HStreams::init(platform, ExecMode::Sim);
    matmul(&mut hs, &cfg).expect("matmul").gflops
}

fn ch(platform: PlatformCfg, n: usize, tile: usize, v: CholVariant) -> f64 {
    let mut hs = HStreams::init(platform, ExecMode::Sim);
    chol(&mut hs, &CholConfig::new(n, tile, v))
        .expect("chol")
        .gflops
}

#[test]
fn fig6_ordering_at_moderate_size() {
    let n = 12000;
    let t = 600;
    let hsw2 = mm(PlatformCfg::hetero(Device::Hsw, 2), n, t, true, true);
    let hsw1 = mm(PlatformCfg::hetero(Device::Hsw, 1), n, t, true, true);
    let knc1 = mm(PlatformCfg::offload(Device::Hsw, 1), n, t, false, true);
    let hswn = mm(PlatformCfg::native(Device::Hsw), n, t, true, true);
    let ivbn = mm(PlatformCfg::native(Device::Ivb), n, t, true, true);
    // The paper's Fig. 6 ordering.
    assert!(
        hsw2 > hsw1 && hsw1 > knc1 && knc1 > hswn && hswn > ivbn,
        "ordering: {hsw2:.0} > {hsw1:.0} > {knc1:.0} > {hswn:.0} > {ivbn:.0}"
    );
}

#[test]
fn fig6_load_balance_band() {
    let n = 14000;
    let t = 700;
    let bal = mm(PlatformCfg::hetero(Device::Ivb, 2), n, t, true, true);
    let naive = mm(PlatformCfg::hetero(Device::Ivb, 2), n, t, true, false);
    let gain = bal / naive;
    assert!(
        (1.25..2.1).contains(&gain),
        "paper reports 1.58x from load balancing; measured {gain:.2}x ({bal:.0} vs {naive:.0})"
    );
}

#[test]
fn fig7_ordering_at_moderate_size() {
    let n = 16000;
    let t = 1000;
    let hetero2 = ch(
        PlatformCfg::hetero(Device::Hsw, 2),
        n,
        t,
        CholVariant::Hetero,
    );
    let ao2 = ch(
        PlatformCfg::hetero(Device::Hsw, 2),
        n,
        t,
        CholVariant::MklAoLike,
    );
    let hetero1 = ch(
        PlatformCfg::hetero(Device::Hsw, 1),
        n,
        t,
        CholVariant::Hetero,
    );
    let off1 = ch(
        PlatformCfg::offload(Device::Hsw, 1),
        n,
        t,
        CholVariant::Offload,
    );
    assert!(
        hetero2 > ao2,
        "pipelined hetero beats bulk-synchronous AO: {hetero2:.0} vs {ao2:.0}"
    );
    assert!(
        hetero2 > hetero1 && hetero1 > off1,
        "scaling: {hetero2:.0} > {hetero1:.0} > {off1:.0}"
    );
}

#[test]
fn fig7_ompss_granularity_penalty_shrinks_with_size() {
    // §VI: "For small problem sizes, granularity issues and the overhead of
    // OmpSs fully dynamic task instantiation ... result in lower
    // performance" — the OmpSs-to-direct ratio must improve with n.
    let direct = |n: usize, t: usize| {
        ch(
            PlatformCfg::offload(Device::Hsw, 1),
            n,
            t,
            CholVariant::Offload,
        )
    };
    let ompss = |n: usize, t: usize| {
        run_ompss(
            PlatformCfg::offload(Device::Hsw, 1),
            ExecMode::Sim,
            n,
            t,
            4,
            false,
        )
        .expect("ompss")
        .gflops
    };
    let small_ratio = ompss(4800, 480) / direct(4800, 480);
    let large_ratio = ompss(16000, 1000) / direct(16000, 1000);
    assert!(
        large_ratio > small_ratio,
        "OmpSs relative performance improves with n: {small_ratio:.2} -> {large_ratio:.2}"
    );
    assert!(
        small_ratio < 0.95,
        "visible overhead at n=4800: {small_ratio:.2}"
    );
}

#[test]
fn sec6_rtm_bands() {
    let mk = |scheme, optimized| RtmConfig {
        nx: 512,
        ny: 512,
        nz_per_rank: 128,
        ranks: 1,
        steps: 60,
        scheme,
        optimized,
        verify: false,
    };
    let secs = |platform: PlatformCfg, cfg: &RtmConfig| {
        let mut hs = HStreams::init(platform, ExecMode::Sim);
        rtm(&mut hs, cfg).expect("rtm").secs
    };
    let host_opt = secs(
        PlatformCfg::native(Device::Hsw),
        &mk(Scheme::HostOnly, true),
    );
    let card_opt = secs(
        PlatformCfg::hetero(Device::Hsw, 1),
        &mk(Scheme::AsyncPipelined, true),
    );
    let s_opt = host_opt / card_opt;
    assert!(
        (1.25..1.8).contains(&s_opt),
        "optimized 1-card speedup ~1.52x, measured {s_opt:.2}"
    );
    let host_un = secs(
        PlatformCfg::native(Device::Hsw),
        &mk(Scheme::HostOnly, false),
    );
    let card_un = secs(
        PlatformCfg::hetero(Device::Hsw, 1),
        &mk(Scheme::AsyncPipelined, false),
    );
    let s_un = host_un / card_un;
    assert!(
        s_un < s_opt,
        "unoptimized speedup ({s_un:.2}) below optimized ({s_opt:.2}), as in the paper"
    );
}

#[test]
fn sec3_ompss_overhead_band() {
    // 15-50% overhead over direct hStreams for n = 4800..10000: same
    // placement (offload), OmpSs pays task instantiation plus synchronous
    // unpooled allocations stalling the card.
    for (n, t) in [(4800usize, 600usize), (8000, 600)] {
        let direct = {
            let mut hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
            chol(&mut hs, &CholConfig::new(n, t, CholVariant::Offload))
                .expect("direct")
                .secs
        };
        let ompss = run_ompss(
            PlatformCfg::offload(Device::Hsw, 1),
            ExecMode::Sim,
            n,
            t,
            4,
            false,
        )
        .expect("ompss")
        .secs;
        let overhead = ompss / direct - 1.0;
        assert!(
            (0.05..0.9).contains(&overhead),
            "n={n}: OmpSs overhead {:.0}% (paper band 15-50%)",
            overhead * 100.0
        );
    }
}
