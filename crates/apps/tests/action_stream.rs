//! The apps' action streams, pinned.
//!
//! `crates/apps` builds each tile-kernel call from one declaration beside
//! the kernel's sink function (`kernels.rs`: name, packed dims, operand
//! order and access, cost hint) and shares one single-domain right-looking
//! Cholesky schedule between `cholesky::run`'s Offload variant and
//! `solver::run_supernode`. Neither may change what the runtime sees. For
//! every app × variant, in sim mode with lifecycle records on, this file
//! pins:
//!
//! * an FNV-1a digest of the recorded trace's per-stream projections —
//!   kind, label, footprint and wait edges rewritten to (stream,
//!   within-stream index), the projection `hsan/tests/differential.rs`
//!   defines — followed by every action's virtual fire time, so a cost hint
//!   that moved shows even where it is off the critical path;
//! * the bits of the run's `secs`.
//!
//! `run_ompss` owns its runtime, so no recording can be started on it; its
//! `secs` (a function of every task's cost, placement and dependences) is
//! pinned alone.
//!
//! The constants were computed at commit db99cb9, before the kernel calls
//! moved into `kernels.rs`. A mismatch prints the whole table as it stands,
//! ready to paste after a *deliberate* schedule change. The RTM schemes are
//! pinned too: their transfers go through one helper.
//!
//! Same file: a source guard that keeps the calling convention in one
//! place — no `"tile_`/`"whole_` literal and no `pack_dims(` call in
//! `crates/apps/src` outside `kernels.rs`.

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::lu::{self, LuConfig, LuVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_apps::rtm::{self, RtmConfig, Scheme};
use hs_apps::solver::{self, SupernodeConfig, SupernodeTarget};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};
use std::path::Path;

/// 4×4 tiles, the last one uneven (dims 500, 500, 500, 300).
const N: usize = 1800;
const TILE: usize = 500;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of a recorded trace: per-stream projections, then fire times in
/// enqueue order.
fn digest(trace: &hsan::ActionTrace) -> u64 {
    let mut index_of: std::collections::HashMap<u64, (u32, usize)> = Default::default();
    let mut per_stream: Vec<Vec<String>> = vec![Vec::new(); trace.streams as usize];
    for a in trace.actions() {
        let idx = per_stream[a.stream as usize].len();
        index_of.insert(a.event, (a.stream, idx));
        let waits: Vec<(u32, usize)> = a
            .waits
            .iter()
            .map(|w| *index_of.get(w).expect("wait targets a recorded action"))
            .collect();
        per_stream[a.stream as usize].push(format!(
            "{:?} {} {:?} waits={:?}",
            a.kind, a.label, a.footprint, waits
        ));
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, lines) in per_stream.iter().enumerate() {
        fnv(&mut h, format!("stream {s}\n").as_bytes());
        for line in lines {
            fnv(&mut h, line.as_bytes());
            fnv(&mut h, b"\n");
        }
    }
    let fired: std::collections::HashMap<u64, u64> = trace.completions.iter().copied().collect();
    for a in trace.actions() {
        let t = fired.get(&a.event).expect("every action fired");
        fnv(&mut h, &t.to_le_bytes());
    }
    h
}

/// Run `app` on a fresh sim runtime under a recording; (digest, secs bits).
fn recorded(platform: PlatformCfg, app: impl FnOnce(&mut HStreams) -> f64) -> (u64, u64) {
    let mut hs = HStreams::init(platform, ExecMode::Sim);
    hs.obs_enable(true);
    let secs = app(&mut hs);
    let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    assert!(trace.actions().count() > 0, "the app enqueued something");
    (digest(&trace), secs.to_bits())
}

fn chol(variant: CholVariant, cards: usize) -> (u64, u64) {
    recorded(PlatformCfg::hetero(Device::Hsw, cards), |hs| {
        let mut cfg = CholConfig::new(N, TILE, variant);
        cfg.streams_per_card = 3;
        cfg.streams_host = 2;
        cholesky::run(hs, &cfg).expect("cholesky runs").secs
    })
}

fn tiled_lu(variant: LuVariant, platform: PlatformCfg) -> (u64, u64) {
    recorded(platform, |hs| {
        let mut cfg = LuConfig::new(N, TILE, variant);
        cfg.streams = 3;
        lu::run(hs, &cfg).expect("lu runs").secs
    })
}

fn supernode(target: SupernodeTarget, platform: PlatformCfg) -> (u64, u64) {
    recorded(platform, |hs| {
        let cfg = SupernodeConfig {
            n: N,
            tile: TILE,
            target,
            streams: 3,
            cores_per_stream: 4,
            verify: false,
        };
        solver::run_supernode(hs, &cfg)
            .expect("supernode runs")
            .secs
    })
}

fn stencil(scheme: Scheme, platform: PlatformCfg) -> (u64, u64) {
    recorded(platform, |hs| {
        let mut cfg = RtmConfig::small(scheme);
        cfg.ranks = 3;
        rtm::run(hs, &cfg).expect("rtm runs").secs
    })
}

/// (case, trace digest, `secs` bits) — computed at db99cb9, re-derived
/// when the apps' cross-stream waits became `ActionOpts::after` edges of
/// the tasks they guard instead of sync actions that gate the stream.
const PINNED: &[(&str, u64, u64)] = &[
    ("matmul", 0xfcc00f839f1e7eff, 0x3f8b45bc9a1c17dc),
    ("cholesky/hetero", 0x40e70e0780d916fa, 0x3f76f85c58d798bf),
    ("cholesky/offload", 0x06924a5675e4f1ca, 0x3f885222aef8f3bf),
    (
        "cholesky/mkl_ao_like",
        0x0d4bd83acd375c7a,
        0x3f77a47f844d34c5,
    ),
    (
        "cholesky/magma_like",
        0x84cc4c11befc26d1,
        0x3f75947d1c82b9fc,
    ),
    ("cholesky/ompss", 0x0000000000000000, 0x3f96dce57c4eb8a9),
    ("lu/tiled_host", 0xe651b986aafc5ec0, 0x3f8ac64799e9ede8),
    ("lu/tiled_offload", 0xc2d459312cb1142e, 0x3f9d8ada0e28e2a3),
    (
        "supernode/card_offload",
        0x9588dde0d82a2b90,
        0x3f979a026c8e4017,
    ),
    (
        "supernode/host_streams",
        0xff7e32f8f42caee5,
        0x3f87bf8964ba8c25,
    ),
    ("rtm/host_only", 0xbbfe0e2619b1740e, 0x3f42f901083dbc24),
    ("rtm/sync_offload", 0x68df198b839b9264, 0x3f5cb2da18a0f1e4),
    (
        "rtm/async_pipelined",
        0x7523c636eafd5329,
        0x3f54c4973804421e,
    ),
];

#[test]
fn every_app_enqueues_the_pinned_action_stream() {
    let ompss_secs = cholesky::run_ompss(
        PlatformCfg::hetero(Device::Hsw, 1),
        ExecMode::Sim,
        N,
        TILE,
        3,
        false,
    )
    .expect("ompss runs")
    .secs;
    let got: Vec<(&str, u64, u64)> = [
        (
            "matmul",
            recorded(PlatformCfg::hetero(Device::Hsw, 2), |hs| {
                let mut cfg = MatmulConfig::new(N, TILE);
                cfg.streams_per_card = 3;
                cfg.streams_host = 2;
                matmul::run(hs, &cfg).expect("matmul runs").secs
            }),
        ),
        ("cholesky/hetero", chol(CholVariant::Hetero, 2)),
        ("cholesky/offload", chol(CholVariant::Offload, 1)),
        ("cholesky/mkl_ao_like", chol(CholVariant::MklAoLike, 2)),
        ("cholesky/magma_like", chol(CholVariant::MagmaLike, 2)),
        ("cholesky/ompss", (0, ompss_secs.to_bits())),
        (
            "lu/tiled_host",
            tiled_lu(LuVariant::TiledHost, PlatformCfg::native(Device::Hsw)),
        ),
        (
            "lu/tiled_offload",
            tiled_lu(LuVariant::TiledOffload, PlatformCfg::hetero(Device::Hsw, 1)),
        ),
        (
            "supernode/card_offload",
            supernode(
                SupernodeTarget::CardOffload,
                PlatformCfg::offload(Device::Hsw, 1),
            ),
        ),
        (
            "supernode/host_streams",
            supernode(
                SupernodeTarget::HostStreams,
                PlatformCfg::native(Device::Hsw),
            ),
        ),
        (
            "rtm/host_only",
            stencil(Scheme::HostOnly, PlatformCfg::native(Device::Hsw)),
        ),
        (
            "rtm/sync_offload",
            stencil(Scheme::SyncOffload, PlatformCfg::hetero(Device::Hsw, 3)),
        ),
        (
            "rtm/async_pipelined",
            stencil(Scheme::AsyncPipelined, PlatformCfg::hetero(Device::Hsw, 3)),
        ),
    ]
    .into_iter()
    .map(|(name, (d, s))| (name, d, s))
    .collect();
    let table: String = got
        .iter()
        .map(|(name, d, s)| format!("    (\"{name}\", {d:#018x}, {s:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "one pin per case; got:\n{table}");
    for (g, p) in got.iter().zip(PINNED) {
        assert_eq!(g.0, p.0, "cases in pinned order");
        assert!(
            g.1 == p.1,
            "{}: trace digest moved (labels, footprints, waits or fire times); got:\n{table}",
            g.0
        );
        assert!(
            g.2 == p.2,
            "{}: secs moved: {} vs pinned {}; got:\n{table}",
            g.0,
            f64::from_bits(g.2),
            f64::from_bits(p.2)
        );
    }
}

/// A kernel's calling convention — its registered name and the order of its
/// packed dims — is written in `kernels.rs` and nowhere else in the crate.
#[test]
fn kernel_calling_conventions_live_in_kernels_rs_only() {
    const FORBIDDEN: &[&str] = &["\"tile_", "\"whole_", "pack_dims("];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    collect_rs(&src, &mut files);
    assert!(
        files.iter().any(|p| p.ends_with("kernels.rs")),
        "source scan found no kernels.rs — wrong directory?"
    );
    files.retain(|p| p.file_name().is_none_or(|n| n != "kernels.rs"));
    let mut violations = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        for (lineno, line) in text.lines().enumerate() {
            for pat in FORBIDDEN {
                if line.contains(pat) {
                    violations.push(format!(
                        "{}:{}: `{pat}`: {}",
                        path.display(),
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "a tile kernel is called through its constructor in kernels.rs \
         (name, dims order, operand order and cost hint live beside the sink \
         function):\n{}",
        violations.join("\n")
    );
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
