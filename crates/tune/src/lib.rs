//! `hs-tune` — closed-loop auto-tuning of hStreams knobs.
//!
//! The paper's separation of workload partition from placement leaves
//! three free knobs per workload: **streams per card**, **CPU-mask width
//! per stream**, and **tile size**. Every app in this repo used to
//! hand-pick them from swept tables; this crate searches instead, using
//! the deterministic virtual-time executor (`ExecMode::Sim`) as a cost
//! model that runs the *actual task graph* — not a proxy formula — in
//! milliseconds of wall time per candidate.
//!
//! The loop (DESIGN.md §17):
//!
//! 1. **Cache probe.** Configs are keyed by ([`WorkloadSig`],
//!    [`MachineSig`]) and persisted through the WAL's CRC-framed blob
//!    machinery ([`TunerCache`]). A hit skips the search entirely.
//! 2. **Search.** Coordinate descent over the [`SearchSpace`] grid with a
//!    ±1-step neighborhood refinement at the optimum, memoized so no
//!    candidate simulates twice. Infeasible points (mask demand exceeding
//!    the target domain's cores, tile larger than the problem) cost
//!    nothing.
//! 3. **Validation.** The top-k candidates by sim cost re-run as short
//!    wall-clock measurements on the thread executor, and the Spearman
//!    rank correlation between the two orderings is reported as the cost
//!    model's calibration ([`TuneOutcome::rank_corr`]). Whether wall
//!    may *overrule* sim depends on what the wall is: on a host-only
//!    platform the thread executor IS the target machine, so a rival
//!    that is wall-faster by a clear margin ([`WALL_DEMOTION_MARGIN`])
//!    displaces the sim optimum — below the margin, short-probe noise
//!    would trade a calibrated model for a coin flip. On a platform with
//!    cards, the thread executor only *emulates* the card on host
//!    threads; its wall clock is not a measurement of the target, so
//!    validation is calibration-only and the sim optimum always wins.
//!    With no validator (or k < 2) the sim optimum wins — fully
//!    deterministic, which is what the determinism tests pin.
//! 4. **Persist.** The winner is stored back to the cache.
//!
//! Entry point: the [`Tune`] extension trait on `HStreams` —
//! `hs.tune(spec)` where the [`TuneSpec`] carries the workload signature,
//! the space, and a runner closure that builds the app's graph for a
//! given candidate config.

mod cache;
mod search;
mod sig;

pub use cache::TunerCache;
pub use sig::{MachineSig, WorkloadSig};

use hstreams_core::{ExecMode, HStreams, HsError, HsResult};
use search::{Grid, Memo, Pt};
use std::path::PathBuf;

/// How much wall-clock faster a validated rival must be before it
/// displaces the sim optimum (fractional: 0.05 = 5%). Below this, the
/// difference is within short-probe noise and the deterministic sim
/// ranking stands.
pub const WALL_DEMOTION_MARGIN: f64 = 0.05;

/// Wall probes per validated candidate; the minimum is kept. Wall noise
/// is one-sided (preemption only ever adds time), so min-of-n is the
/// robust estimator, as in the bench harness's interleaved pairs.
pub const WALL_PROBES: usize = 2;

/// A point in knob space: what the tuner chooses and the apps consume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunedConfig {
    /// Streams per card (and per host domain when it participates).
    pub streams_per_card: u32,
    /// Cores bound to each stream's sink mask.
    pub mask_width: u32,
    /// Tile side.
    pub tile: usize,
}

/// The candidate grid, one explicit axis per knob.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    pub streams_per_card: Vec<u32>,
    pub mask_widths: Vec<u32>,
    pub tiles: Vec<usize>,
}

impl SearchSpace {
    pub fn new(
        streams_per_card: Vec<u32>,
        mask_widths: Vec<u32>,
        tiles: Vec<usize>,
    ) -> SearchSpace {
        SearchSpace {
            streams_per_card,
            mask_widths,
            tiles,
        }
    }

    fn is_empty(&self) -> bool {
        self.streams_per_card.is_empty() || self.mask_widths.is_empty() || self.tiles.is_empty()
    }
}

/// A cost probe: builds and runs the workload's graph for `cfg` on the
/// provided (fresh, correctly-moded) runtime and returns elapsed seconds —
/// virtual seconds under sim, wall seconds under threads. `None` marks
/// the config infeasible for reasons the tuner cannot see (e.g. a tile
/// the app's layout rejects).
pub type Runner<'a> = Box<dyn FnMut(&mut HStreams, &TunedConfig) -> Option<f64> + 'a>;

/// Everything one tuning run needs. Build with [`TuneSpec::new`] and the
/// chained setters, then pass to [`Tune::tune`].
pub struct TuneSpec<'a> {
    workload: WorkloadSig,
    space: SearchSpace,
    seed: u64,
    top_k: usize,
    cache_dir: Option<PathBuf>,
    runner: Runner<'a>,
    validator: Option<Runner<'a>>,
}

impl<'a> TuneSpec<'a> {
    pub fn new(
        workload: WorkloadSig,
        space: SearchSpace,
        runner: impl FnMut(&mut HStreams, &TunedConfig) -> Option<f64> + 'a,
    ) -> TuneSpec<'a> {
        TuneSpec {
            workload,
            space,
            seed: 0,
            top_k: 3,
            cache_dir: None,
            runner: Box::new(runner),
            validator: None,
        }
    }

    /// Descent starting-point seed (default 0). Same seed + same spec ⇒
    /// same chosen config when no validator runs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// How many sim-ranked candidates to validate on the thread executor
    /// (default 3; values < 2, or a missing validator, skip validation).
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Cache learned configs under `dir` (created on demand).
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Wall-clock validation runner — typically the same graph builder at
    /// a scaled-down problem size so validation stays short.
    pub fn validate_with(
        mut self,
        v: impl FnMut(&mut HStreams, &TunedConfig) -> Option<f64> + 'a,
    ) -> Self {
        self.validator = Some(Box::new(v));
        self
    }
}

/// What a tuning run learned.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    pub config: TunedConfig,
    /// Served from the cache; no search ran.
    pub cache_hit: bool,
    /// Feasible candidates actually simulated.
    pub explored: usize,
    /// Sim cost of the chosen config (None on a cache hit).
    pub sim_secs: Option<f64>,
    /// Wall cost of the chosen config from validation (None when
    /// validation didn't run).
    pub wall_secs: Option<f64>,
    /// Spearman rank correlation, sim order vs wall order, over the
    /// validated candidates (None when validation didn't run).
    pub rank_corr: Option<f64>,
}

/// The `hs.tune(...)` entry point, as an extension trait so the tuner
/// stays an optional layer above `hstreams-core`.
pub trait Tune {
    /// Run the closed loop described at the crate root. The receiving
    /// runtime contributes its platform (machine signature, and the
    /// template for candidate runtimes); candidates run on *fresh*
    /// runtimes, so the receiver's own state — streams, buffers, enqueued
    /// work — is never touched.
    fn tune(&self, spec: TuneSpec<'_>) -> HsResult<TuneOutcome>;
}

impl Tune for HStreams {
    fn tune(&self, spec: TuneSpec<'_>) -> HsResult<TuneOutcome> {
        let TuneSpec {
            workload,
            space,
            seed,
            top_k,
            cache_dir,
            mut runner,
            mut validator,
        } = spec;
        if space.is_empty() {
            return Err(HsError::InvalidArg(
                "tune: every SearchSpace axis needs at least one candidate".into(),
            ));
        }
        let machine = MachineSig::of(self.platform());

        let cache = match &cache_dir {
            Some(dir) => Some(TunerCache::open(dir).map_err(|e| {
                HsError::ExecFailed(format!("tune: opening cache {}: {e}", dir.display()))
            })?),
            None => None,
        };
        if let Some(cache) = &cache {
            if let Some(config) = cache.load(&workload, &machine) {
                return Ok(TuneOutcome {
                    config,
                    cache_hit: true,
                    explored: 0,
                    sim_secs: None,
                    wall_secs: None,
                    rank_corr: None,
                });
            }
        }

        let grid = Grid {
            axes: [
                space.streams_per_card.iter().map(|v| *v as u64).collect(),
                space.mask_widths.iter().map(|v| *v as u64).collect(),
                space.tiles.iter().map(|v| *v as u64).collect(),
            ],
        };
        let cfg_of = |p: Pt| TunedConfig {
            streams_per_card: space.streams_per_card[p[0]],
            mask_width: space.mask_widths[p[1]],
            tile: space.tiles[p[2]],
        };
        let target_cores = machine.target_cores();
        let platform = self.platform().clone();
        let n = workload.n;
        let simulated = std::cell::Cell::new(0usize);
        let mut memo = Memo::new(|p: Pt| {
            let cfg = cfg_of(p);
            // Structural feasibility, costed for free: the per-domain mask
            // demand must fit the target domain, and a tile must fit the
            // problem. The runner may still reject for app-level reasons.
            if cfg.mask_width.saturating_mul(cfg.streams_per_card) > target_cores
                || cfg.tile as u64 > n
                || cfg.tile == 0
            {
                return None;
            }
            let mut sim = HStreams::init(platform.clone(), ExecMode::Sim);
            simulated.set(simulated.get() + 1);
            runner(&mut sim, &cfg)
        });
        let best = search::descend(&grid, seed, &mut memo);
        let ranked = memo.ranked();
        let explored = simulated.get();
        let Some(best) = best else {
            return Err(HsError::InvalidArg(format!(
                "tune: no feasible candidate in the search space (target domain \
                 has {target_cores} cores, workload n = {n})"
            )));
        };

        // Wall-clock validation of the sim ranking's head.
        let k = top_k.min(ranked.len());
        let mut wall_secs = None;
        let mut rank_corr = None;
        let mut winner = cfg_of(best);
        let mut winner_sim = ranked.iter().find(|(p, _)| *p == best).map(|(_, c)| *c);
        if k >= 2 {
            if let Some(v) = validator.as_mut() {
                let mut sims = Vec::new();
                let mut walls = Vec::new();
                let mut cfgs = Vec::new();
                for (p, sim_cost) in ranked.iter().take(k) {
                    let cfg = cfg_of(*p);
                    let mut best_wall: Option<f64> = None;
                    for _ in 0..WALL_PROBES {
                        let mut hs = HStreams::init(platform.clone(), ExecMode::Threads);
                        if let Some(secs) = v(&mut hs, &cfg) {
                            best_wall = Some(best_wall.map_or(secs, |b: f64| b.min(secs)));
                        }
                    }
                    if let Some(secs) = best_wall {
                        sims.push(*sim_cost);
                        walls.push(secs);
                        cfgs.push((cfg, *sim_cost));
                    }
                }
                if !walls.is_empty() {
                    // `cfgs`/`walls` are in sim order, so index 0 is the
                    // cost model's pick among the validated set. A rival
                    // must beat its wall time by the demotion margin —
                    // and only on a host-only platform, where the thread
                    // executor is the target machine rather than an
                    // emulation of a card (see the crate docs, step 3).
                    let mut bi = 0;
                    if machine.cards == 0 {
                        for (i, w) in walls.iter().enumerate().skip(1) {
                            if *w < walls[bi] * (1.0 - WALL_DEMOTION_MARGIN) {
                                bi = i;
                            }
                        }
                    }
                    winner = cfgs[bi].0;
                    winner_sim = Some(cfgs[bi].1);
                    wall_secs = Some(walls[bi]);
                    rank_corr = Some(search::spearman(&sims, &walls));
                }
            }
        }

        if let Some(cache) = &cache {
            // A failed store costs a future re-tune, nothing else.
            let _ = cache.store(&workload, &machine, &winner);
        }
        Ok(TuneOutcome {
            config: winner,
            cache_hit: false,
            explored,
            sim_secs: winner_sim,
            wall_secs,
            rank_corr,
        })
    }
}
