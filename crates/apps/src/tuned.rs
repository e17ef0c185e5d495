//! Tuner glue: [`hs_tune::TuneSpec`] builders for the paper's apps.
//!
//! Each builder takes a *template* config (problem size, variant, flags)
//! and returns a spec whose runner overrides just the tuned knobs —
//! tile, streams per card, mask width — and runs the app's real schedule
//! on whatever runtime the tuner hands it (sim for search, threads for
//! validation). Validation runs the same schedule at a scaled-down
//! problem size (`validate_n`) — but with one deliberate asymmetry: the
//! probe holds the **tile fixed** across candidates (`probe_tile`) and
//! lets the wall clock arbitrate only streams and mask width. Tile
//! preference does not survive problem-size scaling (per-task wall time
//! changes cache regime, measured non-monotone at probe sizes), so a
//! scaled probe that varied the tile would overrule the calibrated cost
//! model with noise; the placement knobs, by contrast, shape the probe
//! and the full run the same way. Probe results are memoized per
//! (streams, width), so candidates that differ only in tile present
//! identical wall times and the tuner's demotion margin keeps the sim
//! pick.
//!
//! Replaces the hand-picked stream/tile tables: where a bench used to
//! read fig6/fig7 sweep rows, it now calls `hs.tune(tuned::matmul_spec(
//! template, space, validate_n))` and uses the returned config.

use crate::cholesky::CholConfig;
use crate::lu::LuConfig;
use crate::matmul::MatmulConfig;
use hs_tune::{SearchSpace, TuneSpec, TunedConfig, WorkloadSig};
use hstreams_core::HStreams;

/// Apply the tuned knobs to a matmul template.
pub fn matmul_config(template: &MatmulConfig, t: &TunedConfig) -> MatmulConfig {
    let mut c = template.clone();
    c.tile = t.tile;
    c.streams_per_card = t.streams_per_card as usize;
    c.streams_host = t.streams_per_card as usize;
    c.mask_width = Some(t.mask_width);
    c
}

/// The fixed probe tile: a 4×4-tile graph at the validation size, enough
/// tasks to exercise stream/mask placement without drowning in per-task
/// overhead. See the module docs for why this does not track `t.tile`.
fn probe_tile(vn: usize) -> usize {
    (vn / 4).max(4)
}

/// Per-(streams, width) probe memo: real runs until `cap` samples exist
/// for the key, then the cached minimum. Identical placement configs thus
/// return bit-identical seconds, so wall noise cannot separate them.
struct ProbeMemo {
    cap: usize,
    seen: std::collections::HashMap<(u32, u32), Vec<f64>>,
}

impl ProbeMemo {
    fn new() -> ProbeMemo {
        ProbeMemo {
            cap: hs_tune::WALL_PROBES,
            seen: std::collections::HashMap::new(),
        }
    }

    /// Record-or-replay: `run` is invoked only while the key is under its
    /// sample cap; the running minimum is returned either way.
    fn probe(&mut self, t: &TunedConfig, run: impl FnOnce() -> Option<f64>) -> Option<f64> {
        let samples = self
            .seen
            .entry((t.streams_per_card, t.mask_width))
            .or_default();
        if samples.len() < self.cap {
            if let Some(secs) = run() {
                samples.push(secs);
            }
        }
        samples.iter().copied().reduce(f64::min)
    }
}

/// The one spec builder behind the three apps. `template` arrives with
/// `verify` off, which is what the virtual-time search runs once `apply`
/// has set the tuned knobs. With a validation size, the wall-clock probe
/// runs the same template after `fit` has resized it to that `n` (and
/// switched on whatever seeds real-mode input), its tile held at
/// [`probe_tile`] (module docs) and its results memoized.
fn spec<C: Clone + 'static>(
    workload: WorkloadSig,
    template: C,
    space: SearchSpace,
    validate_n: Option<usize>,
    apply: fn(&C, &TunedConfig) -> C,
    fit: fn(&mut C, usize),
    run: fn(&mut HStreams, &C) -> Option<f64>,
) -> TuneSpec<'static> {
    let mut probe_t = template.clone();
    let spec = TuneSpec::new(workload, space, move |hs, t| run(hs, &apply(&template, t)));
    let Some(vn) = validate_n else {
        return spec;
    };
    fit(&mut probe_t, vn);
    let mut memo = ProbeMemo::new();
    spec.validate_with(move |hs, t| {
        let tile = probe_tile(vn);
        memo.probe(t, || run(hs, &apply(&probe_t, &TunedConfig { tile, ..*t })))
    })
}

/// A tuning spec for the Fig. 4 matmul schedule.
pub fn matmul_spec(
    mut template: MatmulConfig,
    space: SearchSpace,
    validate_n: Option<usize>,
) -> TuneSpec<'static> {
    template.verify = false;
    let sig = WorkloadSig::new("matmul", template.n as u64, 8);
    let fit = |c: &mut MatmulConfig, n| c.n = n;
    let run = |hs: &mut HStreams, c: &MatmulConfig| crate::matmul::run(hs, c).ok().map(|r| r.secs);
    spec(sig, template, space, validate_n, matmul_config, fit, run)
}

/// Apply the tuned knobs to a Cholesky template.
pub fn cholesky_config(template: &CholConfig, t: &TunedConfig) -> CholConfig {
    let mut c = template.clone();
    c.tile = t.tile;
    c.streams_per_card = t.streams_per_card as usize;
    c.mask_width = Some(t.mask_width);
    c
}

/// A tuning spec for the Fig. 5 Cholesky schedule (any variant).
pub fn cholesky_spec(
    mut template: CholConfig,
    space: SearchSpace,
    validate_n: Option<usize>,
) -> TuneSpec<'static> {
    template.verify = false;
    let sig = WorkloadSig::new("cholesky", template.n as u64, 8);
    // Real-mode potrf needs a seeded SPD matrix, and only the verify path
    // writes one; zeros are singular.
    let fit = |c: &mut CholConfig, n| (c.n, c.verify) = (n, true);
    let run = |hs: &mut HStreams, c: &CholConfig| crate::cholesky::run(hs, c).ok().map(|r| r.secs);
    spec(sig, template, space, validate_n, cholesky_config, fit, run)
}

/// Apply the tuned knobs to an LU template.
pub fn lu_config(template: &LuConfig, t: &TunedConfig) -> LuConfig {
    let mut c = template.clone();
    c.tile = t.tile;
    c.streams = t.streams_per_card as usize;
    c.mask_width = Some(t.mask_width);
    c
}

/// A tuning spec for the tiled LU schedules.
pub fn lu_spec(
    mut template: LuConfig,
    space: SearchSpace,
    validate_n: Option<usize>,
) -> TuneSpec<'static> {
    template.verify = false;
    let sig = WorkloadSig::new("lu", template.n as u64, 8);
    // Same as Cholesky: real-mode getrf pivots on zeros unless the verify
    // path seeds the matrix.
    let fit = |c: &mut LuConfig, n| (c.n, c.verify) = (n, true);
    let run = |hs: &mut HStreams, c: &LuConfig| crate::lu::run(hs, c).ok().map(|r| r.secs);
    spec(sig, template, space, validate_n, lu_config, fit, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::{Device, PlatformCfg};
    use hs_tune::Tune;
    use hstreams_core::{ExecMode, HStreams};

    fn small_space() -> SearchSpace {
        SearchSpace::new(vec![1, 2, 4], vec![2, 4, 8, 28], vec![150, 200, 300, 400])
    }

    #[test]
    fn matmul_spec_tunes_deterministically_on_the_real_schedule() {
        let mut template = crate::matmul::MatmulConfig::new(1200, 300);
        template.host_participates = false;
        let hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
        let a = hs
            .tune(matmul_spec(template.clone(), small_space(), None).seed(3))
            .expect("tunes");
        let b = hs
            .tune(matmul_spec(template, small_space(), None).seed(3))
            .expect("tunes");
        assert_eq!(a.config, b.config, "same seed, same spec, same pick");
        assert!(a.explored > 0);
    }

    #[test]
    fn lu_spec_runs_and_respects_feasibility() {
        let template = crate::lu::LuConfig::new(800, 200, crate::lu::LuVariant::TiledOffload);
        let hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
        let out = hs
            .tune(lu_spec(template, small_space(), None))
            .expect("tunes");
        let cores = hs.domains()[1].cores;
        assert!(out.config.mask_width * out.config.streams_per_card <= cores);
        assert!(out.config.tile <= 800);
    }
}
