//! Tiled LU factorization — the third reference algorithm of the book
//! chapter the paper builds on (ref. \[32\]: "matrix multiply, Cholesky,
//! and LU").
//!
//! §VI uses LU to make a placement point: "At present, DGETRF runs better on
//! the host than the coprocessor, and an untiled scheme works best for sizes
//! smaller than 4K." This module implements:
//!
//! * [`LuVariant::HostUntiled`] — one whole-matrix DGETRF call on the host
//!   (with partial pivoting, via the `whole_getrf` kernel);
//! * [`LuVariant::TiledHost`] — right-looking *block* LU across host
//!   streams;
//! * [`LuVariant::TiledOffload`] — the same block LU offloaded to one card,
//!   tiles pipelined over PCIe.
//!
//! Block (tile) LU pivots only inside the diagonal tile, so real-mode
//! verification uses diagonally dominant matrices, where unpivoted block LU
//! is backward stable. The untiled variant uses full partial pivoting. The
//! `ablation_lu` bench sweeps n to show the paper's < 4K crossover.

use crate::kernels::{self, register_all};
use crate::tilebuf::TileBufs;
use crate::xfer_after;
use hs_linalg::dense::{max_abs_diff, random_diag_dominant, Matrix};
use hs_linalg::{flops, TileMap};
use hstreams_core::{BufferId, CpuMask, DomainId, Event, HStreams, HsResult};

/// Which LU scheme to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LuVariant {
    /// Whole-matrix DGETRF on the host (partial pivoting).
    HostUntiled,
    /// Block LU across host streams.
    TiledHost,
    /// Block LU offloaded to the first card.
    TiledOffload,
}

#[derive(Clone, Debug)]
pub struct LuConfig {
    pub n: usize,
    pub tile: usize,
    pub variant: LuVariant,
    pub streams: usize,
    pub verify: bool,
    /// Tuned per-stream sink mask width (cores per stream); `None` keeps
    /// the even partition of the target domain's cores.
    pub mask_width: Option<u32>,
}

impl LuConfig {
    pub fn new(n: usize, tile: usize, variant: LuVariant) -> LuConfig {
        LuConfig {
            n,
            tile,
            variant,
            streams: 4,
            verify: false,
            mask_width: None,
        }
    }
}

#[derive(Clone, Debug)]
pub struct LuResult {
    pub secs: f64,
    pub gflops: f64,
    pub max_err: Option<f64>,
}

/// Run an LU scheme on an initialized runtime.
pub fn run(hs: &mut HStreams, cfg: &LuConfig) -> HsResult<LuResult> {
    register_all(hs);
    let real = hs.mode() != hstreams_core::ExecMode::Sim;
    let n = cfg.n;

    match cfg.variant {
        LuVariant::HostUntiled => run_untiled(hs, cfg, real),
        LuVariant::TiledHost | LuVariant::TiledOffload => run_tiled(hs, cfg, real),
    }
    .map(|(secs, max_err)| LuResult {
        secs,
        gflops: flops::gflops(flops::getrf(n), secs),
        max_err,
    })
}

fn run_untiled(hs: &mut HStreams, cfg: &LuConfig, real: bool) -> HsResult<(f64, Option<f64>)> {
    let n = cfg.n;
    let host_cores = hs.domains()[0].cores;
    let s = hs.stream_create(DomainId::HOST, CpuMask::first(host_cores))?;
    let buf = hs.buffer_create(n * n * 8, Default::default());
    let a_ref = if real && cfg.verify {
        let a = random_diag_dominant(n, 61);
        hs.buffer_write_f64(buf, 0, a.as_slice())?;
        Some(a)
    } else {
        None
    };
    let t0 = hs.now_secs();
    kernels::whole_getrf(buf, n).enqueue(hs, s, &[])?;
    hs.stream_synchronize(s)?;
    let secs = hs.now_secs() - t0;
    let max_err = match a_ref {
        Some(a) => Some(verify_lu_buffer(hs, buf, &a, n)?),
        None => None,
    };
    Ok((secs, max_err))
}

fn run_tiled(hs: &mut HStreams, cfg: &LuConfig, real: bool) -> HsResult<(f64, Option<f64>)> {
    let map = TileMap::new(cfg.n, cfg.tile);
    let nt = map.nt;
    let offload = matches!(cfg.variant, LuVariant::TiledOffload);
    let target = if offload {
        let cards: Vec<DomainId> = hs.domains().iter().skip(1).map(|d| d.id).collect();
        *cards.first().ok_or_else(|| {
            hstreams_core::HsError::InvalidArg("tiled offload LU needs a card".into())
        })?
    } else {
        DomainId::HOST
    };
    let streams = crate::domain_streams(hs, target, cfg.streams, cfg.mask_width)?;

    let ta = TileBufs::create(hs, map, "LU");
    let a_ref = ta.seed(hs, real && cfg.verify, || random_diag_dominant(cfg.n, 61))?;
    if !target.is_host() {
        ta.instantiate_all(hs, target)?;
    }

    let t0 = hs.now_secs();
    // Stage all tiles in (elided on host).
    let mut tile_ev: Vec<Option<Event>> = vec![None; nt * nt];
    for i in 0..nt {
        for j in 0..nt {
            let s = streams[(i + j) % streams.len()];
            let ev = hs.enqueue_xfer(s, ta.buf(i, j), 0..ta.bytes(i, j), DomainId::HOST, target)?;
            if !target.is_host() {
                tile_ev[map.id(i, j)] = Some(ev);
            }
        }
    }
    // Right-looking block LU.
    let mut rr = 0usize;
    for k in 0..nt {
        let bk = map.dim(k);
        let s0 = streams[0];
        let diag_ev =
            kernels::lu_nopiv(ta.buf(k, k), bk).enqueue(hs, s0, &[tile_ev[map.id(k, k)]])?;
        tile_ev[map.id(k, k)] = Some(diag_ev);
        // Row panel (A_kj <- L^-1 A_kj) and column panel (A_ik <- A_ik U^-1).
        let mut row_ev: Vec<Option<Event>> = vec![None; nt];
        let mut col_ev: Vec<Option<Event>> = vec![None; nt];
        for j in k + 1..nt {
            let bj = map.dim(j);
            let s = streams[rr % streams.len()];
            rr += 1;
            let after = [Some(diag_ev), tile_ev[map.id(k, j)]];
            let ev =
                kernels::trsm_llu(ta.buf(k, k), ta.buf(k, j), bk, bj).enqueue(hs, s, &after)?;
            row_ev[j] = Some(ev);
            tile_ev[map.id(k, j)] = Some(ev);
        }
        for i in k + 1..nt {
            let bi = map.dim(i);
            let s = streams[rr % streams.len()];
            rr += 1;
            let after = [Some(diag_ev), tile_ev[map.id(i, k)]];
            let ev =
                kernels::trsm_runn(ta.buf(k, k), ta.buf(i, k), bi, bk).enqueue(hs, s, &after)?;
            col_ev[i] = Some(ev);
            tile_ev[map.id(i, k)] = Some(ev);
        }
        // Trailing update A_ij -= A_ik * A_kj.
        for i in k + 1..nt {
            let bi = map.dim(i);
            for j in k + 1..nt {
                let bj = map.dim(j);
                let s = streams[rr % streams.len()];
                rr += 1;
                let after = [col_ev[i], row_ev[j], tile_ev[map.id(i, j)]];
                let ev = kernels::gemm_sub(ta.buf(i, k), ta.buf(k, j), ta.buf(i, j), [bi, bj, bk])
                    .enqueue(hs, s, &after)?;
                tile_ev[map.id(i, j)] = Some(ev);
            }
        }
    }
    // Results home.
    if !target.is_host() {
        for i in 0..nt {
            for j in 0..nt {
                let s = streams[(i + j) % streams.len()];
                let (buf, range) = (ta.buf(i, j), 0..ta.bytes(i, j));
                let after = [tile_ev[map.id(i, j)]];
                xfer_after(hs, s, buf, range, target, DomainId::HOST, &after)?;
            }
        }
    }
    hs.thread_synchronize()?;
    let secs = hs.now_secs() - t0;

    let max_err = match a_ref {
        Some(a) => Some(reconstruct_lu_error(&ta.read_matrix(hs)?, &a, cfg.n)),
        None => None,
    };
    Ok((secs, max_err))
}

/// `max |L·U - A|` for an in-place unpivoted LU result.
fn reconstruct_lu_error(lu: &Matrix, a: &Matrix, n: usize) -> f64 {
    let mut l = Matrix::zeros(n, n);
    let mut u = Matrix::zeros(n, n);
    for r in 0..n {
        l.set(r, r, 1.0);
        for c in 0..n {
            if c < r {
                l.set(r, c, lu.at(r, c));
            } else {
                u.set(r, c, lu.at(r, c));
            }
        }
    }
    let rec = l.matmul_ref(&u);
    max_abs_diff(rec.as_slice(), a.as_slice())
}

/// Verify the untiled (pivoted) factorization by re-running the reference
/// DGETRF and comparing the stored factors (the kernel computes in place on
/// the buffer; pivots are deterministic, so factors must match exactly).
fn verify_lu_buffer(hs: &mut HStreams, buf: BufferId, a: &Matrix, n: usize) -> HsResult<f64> {
    let mut got = vec![0.0f64; n * n];
    hs.buffer_read_f64(buf, 0, &mut got)?;
    let mut expect = a.clone();
    hs_linalg::factor::dgetrf(expect.as_mut_slice(), n)
        .map_err(|e| hstreams_core::HsError::ExecFailed(e.to_string()))?;
    Ok(max_abs_diff(&got, expect.as_slice()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::{Device, PlatformCfg};
    use hstreams_core::ExecMode;

    fn check(variant: LuVariant, n: usize, tile: usize) {
        let platform = if variant == LuVariant::TiledOffload {
            PlatformCfg::hetero(Device::Hsw, 1)
        } else {
            PlatformCfg::native(Device::Hsw)
        };
        let mut hs = HStreams::init(platform, ExecMode::Threads);
        let mut cfg = LuConfig::new(n, tile, variant);
        cfg.streams = 2;
        cfg.verify = true;
        let r = run(&mut hs, &cfg).expect("LU runs");
        let err = r.max_err.expect("verified");
        assert!(err < 1e-8, "{variant:?} err={err}");
    }

    #[test]
    fn untiled_host_lu_is_correct() {
        check(LuVariant::HostUntiled, 24, 24);
    }

    #[test]
    fn tiled_host_lu_is_correct() {
        check(LuVariant::TiledHost, 24, 6);
    }

    #[test]
    fn tiled_offload_lu_is_correct() {
        check(LuVariant::TiledOffload, 20, 5);
    }

    #[test]
    fn tiled_lu_uneven_edge_tiles() {
        check(LuVariant::TiledHost, 22, 5);
    }

    fn sim_secs(variant: LuVariant, n: usize, tile: usize) -> f64 {
        let platform = if variant == LuVariant::TiledOffload {
            PlatformCfg::hetero(Device::Hsw, 1)
        } else {
            PlatformCfg::native(Device::Hsw)
        };
        let mut hs = HStreams::init(platform, ExecMode::Sim);
        let mut cfg = LuConfig::new(n, tile, variant);
        cfg.streams = 6;
        run(&mut hs, &cfg).expect("runs").secs
    }

    #[test]
    fn sim_dgetrf_runs_better_on_the_host() {
        // §VI: "At present, DGETRF runs better on the host than the
        // coprocessor" — the best host scheme beats the card offload.
        let host_untiled = sim_secs(LuVariant::HostUntiled, 16000, 16000);
        let host_tiled = sim_secs(LuVariant::TiledHost, 16000, 1340);
        let card_tiled = sim_secs(LuVariant::TiledOffload, 16000, 1340);
        let host_best = host_untiled.min(host_tiled);
        assert!(
            host_best < card_tiled,
            "host LU ({host_best:.2}s) must beat card offload ({card_tiled:.2}s)"
        );
    }

    #[test]
    fn sim_untiled_wins_small_tiled_wins_large() {
        // §VI: "an untiled scheme works best for sizes smaller than 4K".
        let small_untiled = sim_secs(LuVariant::HostUntiled, 2000, 2000);
        let small_tiled = sim_secs(LuVariant::TiledHost, 2000, 250);
        assert!(
            small_untiled < small_tiled,
            "below 4K untiled wins: {small_untiled:.4} vs {small_tiled:.4}"
        );
        let large_untiled = sim_secs(LuVariant::HostUntiled, 16000, 16000);
        let large_tiled = sim_secs(LuVariant::TiledHost, 16000, 1340);
        assert!(
            large_tiled < large_untiled,
            "well above 4K the tiled scheme wins: {large_tiled:.2} vs {large_untiled:.2}"
        );
    }
}
