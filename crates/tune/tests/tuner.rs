//! Tuner determinism and cache correctness, on a synthetic streamed
//! workload (no dependence on `hs-apps`): `nt = n/tile` panel updates,
//! each an h2d transfer followed by a DGEMM-shaped compute, round-robin
//! across `streams_per_card` streams whose sinks take disjoint
//! `mask_width`-core masks. The sim cost model sees every knob: tile size
//! sets transfer/compute granularity, stream count sets overlap, mask
//! width sets per-kernel speed against the domain-capacity gate.

use bytes::Bytes;
use hs_machine::{Device, KernelKind, PlatformCfg};
use hs_tune::{MachineSig, SearchSpace, Tune, TuneSpec, TunedConfig, TunerCache, WorkloadSig};
use hstreams_core::{Access, BufProps, CostHint, CpuMask, DomainId, HStreams, Operand};
use std::path::PathBuf;
use std::sync::Arc;

const N: usize = 2400;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hs-tune-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn workload() -> WorkloadSig {
    WorkloadSig::new("synthetic-panel", N as u64, 8)
}

fn space() -> SearchSpace {
    SearchSpace::new(
        vec![1, 2, 4, 6],
        vec![1, 2, 4, 8, 15, 30],
        vec![100, 200, 300, 400, 600],
    )
}

/// Build and run the synthetic graph for one candidate. Works on either
/// executor; under sim the returned seconds are virtual and exactly
/// reproducible.
fn synth_runner(hs: &mut HStreams, cfg: &TunedConfig) -> Option<f64> {
    hs.register("unit", Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {}));
    let target = hs
        .domains()
        .iter()
        .skip(1)
        .map(|d| d.id)
        .next()
        .unwrap_or(DomainId::HOST);
    let cores = hs.domains()[target.0].cores;
    let w = cfg.mask_width;
    if w == 0 || w.saturating_mul(cfg.streams_per_card) > cores {
        return None;
    }
    let mut streams = Vec::new();
    for i in 0..cfg.streams_per_card {
        streams.push(hs.stream_create(target, CpuMask::range(i * w, w)).ok()?);
    }
    let nt = (N / cfg.tile).max(1);
    let panel_bytes = cfg.tile * 64 * 8;
    let t0 = hs.now_secs();
    let mut bufs = Vec::new();
    for _ in 0..nt {
        let buf = hs.buffer_create(panel_bytes, BufProps::default());
        if !target.is_host() {
            hs.buffer_instantiate(buf, target).ok()?;
        }
        bufs.push(buf);
    }
    for (t, buf) in bufs.iter().enumerate() {
        let s = streams[t % streams.len()];
        hs.enqueue_xfer(s, *buf, 0..panel_bytes, DomainId::HOST, target)
            .ok()?;
        hs.enqueue_compute(
            s,
            "unit",
            Bytes::new(),
            &[Operand::f64s(*buf, 0, panel_bytes / 8, Access::InOut)],
            CostHint::new(
                KernelKind::Dgemm,
                2.0 * (cfg.tile * cfg.tile) as f64 * N as f64,
                cfg.tile as u64,
            ),
        )
        .ok()?;
    }
    hs.thread_synchronize().ok()?;
    Some(hs.now_secs() - t0)
}

fn offload() -> HStreams {
    HStreams::init(
        PlatformCfg::offload(Device::Hsw, 1),
        hstreams_core::ExecMode::Sim,
    )
}

#[test]
fn same_seed_same_workload_same_config() {
    // No validator, no cache: the loop is sim-only and must be a pure
    // function of (spec, platform).
    let mut picks = Vec::new();
    for _ in 0..3 {
        let hs = offload();
        let out = hs
            .tune(TuneSpec::new(workload(), space(), synth_runner).seed(42))
            .expect("tunes");
        assert!(!out.cache_hit);
        assert!(out.explored > 0, "search must simulate candidates");
        assert!(out.sim_secs.is_some());
        picks.push(out.config);
    }
    assert_eq!(picks[0], picks[1], "same seed ⇒ identical config");
    assert_eq!(picks[1], picks[2], "same seed ⇒ identical config");
}

#[test]
fn chosen_config_beats_grid_corners() {
    // Not just deterministic — the pick must be good: no worse than every
    // corner of the grid (sim cost is exact, so this is a strict check).
    let hs = offload();
    let out = hs
        .tune(TuneSpec::new(workload(), space(), synth_runner).seed(7))
        .expect("tunes");
    let best = out.sim_secs.expect("sim cost recorded");
    let sp = space();
    for s in [sp.streams_per_card[0], *sp.streams_per_card.last().unwrap()] {
        for w in [sp.mask_widths[0], *sp.mask_widths.last().unwrap()] {
            for t in [sp.tiles[0], *sp.tiles.last().unwrap()] {
                let cfg = TunedConfig {
                    streams_per_card: s,
                    mask_width: w,
                    tile: t,
                };
                let mut sim = offload();
                if let Some(secs) = synth_runner(&mut sim, &cfg) {
                    assert!(
                        best <= secs + 1e-12,
                        "corner {cfg:?} ({secs}s) beats the tuned pick ({best}s)"
                    );
                }
            }
        }
    }
}

#[test]
fn cache_round_trip_skips_search() {
    let dir = tmpdir("roundtrip");
    let hs = offload();
    let first = hs
        .tune(
            TuneSpec::new(workload(), space(), synth_runner)
                .seed(1)
                .cache(&dir),
        )
        .expect("tunes");
    assert!(!first.cache_hit);
    assert!(first.explored > 0);

    let hs2 = offload();
    let second = hs2
        .tune(
            TuneSpec::new(workload(), space(), synth_runner)
                .seed(1)
                .cache(&dir),
        )
        .expect("tunes");
    assert!(second.cache_hit, "second run must be served from the cache");
    assert_eq!(second.explored, 0, "a hit never simulates");
    assert_eq!(second.config, first.config);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn machine_signature_mismatch_is_a_miss() {
    let dir = tmpdir("machine-miss");
    let hs = offload();
    let first = hs
        .tune(
            TuneSpec::new(workload(), space(), synth_runner)
                .seed(1)
                .cache(&dir),
        )
        .expect("tunes");

    // Same workload, different machine (2 cards): never a stale config —
    // the search runs again.
    let hs2 = HStreams::init(
        PlatformCfg::offload(Device::Hsw, 2),
        hstreams_core::ExecMode::Sim,
    );
    let out = hs2
        .tune(
            TuneSpec::new(workload(), space(), synth_runner)
                .seed(1)
                .cache(&dir),
        )
        .expect("tunes");
    assert!(!out.cache_hit, "different machine must not hit");
    assert!(out.explored > 0);

    // Direct cache check too: the entry only answers its own signatures.
    let cache = TunerCache::open(&dir).expect("open");
    let m1 = MachineSig::of(hs.platform());
    let m2 = MachineSig::of(hs2.platform());
    assert_eq!(cache.load(&workload(), &m1), Some(first.config));
    let mut other_workload = workload();
    other_workload.n += 1;
    assert_eq!(cache.load(&other_workload, &m1), None);
    assert_ne!(m1, m2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_blob_re_tunes_cleanly() {
    let dir = tmpdir("corrupt");
    let hs = offload();
    let first = hs
        .tune(
            TuneSpec::new(workload(), space(), synth_runner)
                .seed(1)
                .cache(&dir),
        )
        .expect("tunes");

    // Truncate the entry mid-payload: the CRC frame rejects it, the next
    // tune is a miss that searches and re-persists.
    let cache = TunerCache::open(&dir).expect("open");
    let entry = cache.entry_path(&workload(), &MachineSig::of(hs.platform()));
    let data = std::fs::read(&entry).expect("entry exists");
    std::fs::write(&entry, &data[..data.len() / 2]).expect("truncate");

    let hs2 = offload();
    let out = hs2
        .tune(
            TuneSpec::new(workload(), space(), synth_runner)
                .seed(1)
                .cache(&dir),
        )
        .expect("clean re-tune, not an error");
    assert!(!out.cache_hit, "truncated blob must read as a miss");
    assert_eq!(out.config, first.config, "re-tune relearns the same config");

    // And the cache healed: third run hits again.
    let hs3 = offload();
    let healed = hs3
        .tune(
            TuneSpec::new(workload(), space(), synth_runner)
                .seed(1)
                .cache(&dir),
        )
        .expect("tunes");
    assert!(healed.cache_hit, "re-tune must re-persist the entry");
    let _ = std::fs::remove_dir_all(&dir);
}
