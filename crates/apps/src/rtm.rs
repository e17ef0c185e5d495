//! Petrobras-like Reverse Time Migration: a 3-D 8th-order finite-difference
//! wave propagator with domain decomposition (§V–§VI).
//!
//! The grid is decomposed along z into `ranks` subdomains, each owned by a
//! device. Every timestep each subdomain updates its **halo** planes (the
//! first/last `R` interior planes, whose values neighbors need) and its
//! **bulk** (interior) planes, then exchanges halos with its neighbors
//! through the host (the paper's production code uses MPI on the host; the
//! exchange here is a host-side copy between the ranks' host buffers).
//!
//! Two offload schemes, exactly the §V comparison:
//!
//! * [`Scheme::SyncOffload`] — "fully-synchronous offload ... with no
//!   overlap of data and compute": whole-subdomain compute, barrier,
//!   transfers, barrier, exchange, barrier.
//! * [`Scheme::AsyncPipelined`] — halo computes first; their d2h transfers
//!   are queued *in the same stream* and start as soon as each halo is done
//!   (FIFO semantics + operands — no explicit dependence management), while
//!   the bulk compute proceeds out-of-order underneath. This is the scheme
//!   hStreams enables without extra streams or synchronization, unlike
//!   CUDA Streams.
//!
//! [`Scheme::HostOnly`] is the no-offload baseline. The `optimized` flag
//! models kernel tuning quality (§VI: optimized code speeds KNC up more
//! than the Xeons, which changes the comm-to-compute ratio and thereby the
//! pipelining benefit).

use crate::kernels::{dims, pack};
use bytes::Bytes;
use hs_linalg::flops;
use hs_machine::{Device, KernelKind};
use hstreams_core::{
    Access, BatchAction, BufProps, BufferId, CostHint, CpuMask, DomainId, Event, HStreams,
    HsResult, Operand, StreamId, TaskCtx,
};
use std::ops::Range;
use std::sync::Arc;

/// Stencil radius (8th order).
pub const R: usize = 4;

/// 8th-order central second-derivative coefficients.
const C0: f64 = -205.0 / 72.0;
const CK: [f64; 4] = [8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0];
/// Courant-ish factor (value irrelevant to scheduling; must be stable
/// enough to keep fields finite over the short runs we verify).
const VEL: f64 = 0.08;

/// Halo exchange / offload scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// All ranks computed by host streams (the paper's baseline).
    HostOnly,
    /// Offload with no compute/transfer overlap.
    SyncOffload,
    /// Asynchronous, pipelined overlap via FIFO semantics.
    AsyncPipelined,
}

/// Configuration of an RTM run.
#[derive(Clone, Debug)]
pub struct RtmConfig {
    pub nx: usize,
    pub ny: usize,
    /// Interior planes per rank.
    pub nz_per_rank: usize,
    pub ranks: usize,
    pub steps: usize,
    pub scheme: Scheme,
    /// Kernel tuning quality (§VI "optimized" vs "unoptimized" code).
    pub optimized: bool,
    /// Real mode: compare the final wavefield against the sequential
    /// reference propagator.
    pub verify: bool,
}

impl RtmConfig {
    pub fn small(scheme: Scheme) -> RtmConfig {
        RtmConfig {
            nx: 12,
            ny: 10,
            nz_per_rank: 12,
            ranks: 2,
            steps: 5,
            scheme,
            optimized: true,
            verify: true,
        }
    }
}

#[derive(Clone, Debug)]
pub struct RtmResult {
    pub secs: f64,
    /// Grid-point updates per second.
    pub mpoints_per_sec: f64,
    pub max_err: Option<f64>,
}

/// Kernel-tuning derate: unoptimized code runs this much slower. KNC
/// suffers most without tuning (vectorization is do-or-die on MIC), which
/// reproduces the paper's 1.13×–1.52× spread for one card.
pub fn opt_factor(device: Device, optimized: bool) -> f64 {
    if optimized {
        return 1.0;
    }
    match device {
        Device::Knc => 0.55,
        Device::K40x => 0.60,
        _ => 0.74,
    }
}

#[inline]
fn idx(nx: usize, ny: usize, x: usize, y: usize, z: usize) -> usize {
    (z * ny + y) * nx + x
}

/// One stencil update of planes `z0..z1` (alloc coordinates) given `cur`
/// starting at plane `z0 - R` and `prev`/`next` starting at plane `z0`.
/// Zero Dirichlet boundaries in x and y.
#[allow(clippy::too_many_arguments)]
fn stencil_planes(
    nx: usize,
    ny: usize,
    cur: &[f64],
    prev: &[f64],
    next: &mut [f64],
    planes: usize,
) {
    let plane = nx * ny;
    debug_assert_eq!(cur.len(), (planes + 2 * R) * plane);
    debug_assert_eq!(prev.len(), planes * plane);
    debug_assert_eq!(next.len(), planes * plane);
    let at = |b: &[f64], x: isize, y: isize, z: usize| -> f64 {
        if x < 0 || y < 0 || x >= nx as isize || y >= ny as isize {
            0.0
        } else {
            b[idx(nx, ny, x as usize, y as usize, z)]
        }
    };
    for zi in 0..planes {
        let zc = zi + R; // plane index within `cur`
        for y in 0..ny {
            for x in 0..nx {
                let c = cur[idx(nx, ny, x, y, zc)];
                let mut lap = 3.0 * C0 * c;
                for (k, ck) in CK.iter().enumerate() {
                    let k1 = (k + 1) as isize;
                    lap += ck
                        * (at(cur, x as isize - k1, y as isize, zc)
                            + at(cur, x as isize + k1, y as isize, zc)
                            + at(cur, x as isize, y as isize - k1, zc)
                            + at(cur, x as isize, y as isize + k1, zc)
                            + cur[idx(nx, ny, x, y, zc - (k + 1))]
                            + cur[idx(nx, ny, x, y, zc + k + 1)]);
                }
                let p = prev[idx(nx, ny, x, y, zi)];
                next[idx(nx, ny, x, y, zi)] = 2.0 * c - p + VEL * lap;
            }
        }
    }
}

/// Sink kernel: args = [nx, ny, planes]; operands = (cur In, prev In,
/// next Out) with the plane windows described above.
fn stencil_task(ctx: &mut TaskCtx) {
    let [nx, ny, planes] = dims(ctx);
    let cur: Vec<f64> = ctx.buf_f64(0).to_vec();
    let prev: Vec<f64> = ctx.buf_f64(1).to_vec();
    let next = ctx.buf_f64_mut(2);
    stencil_planes(nx, ny, &cur, &prev, next, planes);
}

/// Sink kernel: plain copy (halo exchange on the host). Operands (src In,
/// dst Out), equal lengths.
fn copy_task(ctx: &mut TaskCtx) {
    let (src, dst) = ctx.buf_f64_pair_mut(0, 1);
    dst.copy_from_slice(src);
}

fn register(hs: &mut HStreams) {
    hs.register("rtm_stencil", Arc::new(stencil_task));
    hs.register("rtm_copy", Arc::new(copy_task));
}

/// Initial wavefield: a deterministic separable bump centred in the global
/// grid (arbitrary but non-trivial everywhere).
fn source(nx: usize, ny: usize, nz_total: usize, x: usize, y: usize, gz: usize) -> f64 {
    let f = |v: usize, n: usize| {
        let t = v as f64 / n as f64 - 0.5;
        (-24.0 * t * t).exp()
    };
    f(x, nx) * f(y, ny) * f(gz, nz_total)
}

/// The sequential reference propagator on the undecomposed grid.
pub fn reference_propagate(cfg: &RtmConfig) -> Vec<f64> {
    let (nx, ny) = (cfg.nx, cfg.ny);
    let nz_total = cfg.nz_per_rank * cfg.ranks;
    let plane = nx * ny;
    // Pad with R zero planes on each side (zero Dirichlet in z).
    let alloc = (nz_total + 2 * R) * plane;
    let mut prev = vec![0.0; alloc];
    let mut cur = vec![0.0; alloc];
    let mut next = vec![0.0; alloc];
    for gz in 0..nz_total {
        for y in 0..ny {
            for x in 0..nx {
                cur[idx(nx, ny, x, y, gz + R)] = source(nx, ny, nz_total, x, y, gz);
            }
        }
    }
    for _ in 0..cfg.steps {
        let interior_prev = prev[R * plane..(R + nz_total) * plane].to_vec();
        let mut interior_next = vec![0.0; nz_total * plane];
        stencil_planes(nx, ny, &cur, &interior_prev, &mut interior_next, nz_total);
        next[R * plane..(R + nz_total) * plane].copy_from_slice(&interior_next);
        std::mem::swap(&mut prev, &mut cur);
        std::mem::swap(&mut cur, &mut next);
        // Keep ghost planes zero (Dirichlet).
        for v in cur[..R * plane].iter_mut() {
            *v = 0.0;
        }
        for v in cur[(R + nz_total) * plane..].iter_mut() {
            *v = 0.0;
        }
    }
    cur[R * plane..(R + nz_total) * plane].to_vec()
}

struct Rank {
    device: DomainId,
    stream: StreamId,
    /// Rotating field buffers; each holds (nz_per_rank + 2R) planes.
    fields: [BufferId; 3],
}

impl Rank {
    /// Move byte window `w` of field `f` between the rank's device and the
    /// host, in the rank's stream.
    fn xfer(&self, hs: &HStreams, f: usize, w: Range<usize>, to_host: bool) -> HsResult<Event> {
        let (from, to) = if to_host {
            (self.device, DomainId::HOST)
        } else {
            (DomainId::HOST, self.device)
        };
        hs.enqueue_xfer(self.stream, self.fields[f], w, from, to)
    }
}

/// Halo directions: towards rank `r + 1` and towards rank `r - 1`.
const DOWN: usize = 0;
const UP: usize = 1;

/// The halo hops out of rank `r`, downward then upward: (direction,
/// neighbour, byte window of `r`'s boundary planes, byte window of the
/// neighbour's ghost planes). `plane_bytes` is one plane; `nzl` the
/// interior planes per rank.
fn hops(
    r: usize,
    ranks: usize,
    nzl: usize,
    plane_bytes: usize,
) -> impl Iterator<Item = (usize, usize, Range<usize>, Range<usize>)> {
    let w = move |z0: usize, z1: usize| z0 * plane_bytes..z1 * plane_bytes;
    let down = (r + 1 < ranks).then(|| (DOWN, r + 1, w(nzl, nzl + R), w(0, R)));
    let up = (r > 0).then(|| (UP, r - 1, w(R, 2 * R), w(nzl + R, nzl + 2 * R)));
    [down, up].into_iter().flatten()
}

/// Run the decomposed propagator under a scheme. Returns timing and, in
/// real mode with `verify`, the max deviation from the reference.
pub fn run(hs: &mut HStreams, cfg: &RtmConfig) -> HsResult<RtmResult> {
    register(hs);
    let (nx, ny, nzl) = (cfg.nx, cfg.ny, cfg.nz_per_rank);
    let plane = nx * ny;
    let alloc_planes = nzl + 2 * R;
    let alloc_bytes = alloc_planes * plane * 8;
    let nz_total = nzl * cfg.ranks;
    let real = hs.mode() != hstreams_core::ExecMode::Sim;
    assert!(nzl >= 2 * R, "subdomain must be at least 2R planes deep");

    let cards: Vec<DomainId> = hs.domains().iter().skip(1).map(|d| d.id).collect();
    let offload = !matches!(cfg.scheme, Scheme::HostOnly);
    if offload {
        assert!(
            cards.len() >= cfg.ranks,
            "need one card per rank for offload schemes"
        );
    }

    // Host streams: one for exchange copies (+ host compute for HostOnly).
    let host_cores = hs.domains()[0].cores;
    let exchange_stream = hs.stream_create(DomainId::HOST, CpuMask::range(0, 2.min(host_cores)))?;
    let mut host_compute: Vec<StreamId> = Vec::new();
    if !offload {
        let per = (host_cores.saturating_sub(2) / cfg.ranks as u32).max(1);
        for r in 0..cfg.ranks {
            host_compute
                .push(hs.stream_create(DomainId::HOST, CpuMask::range(2 + r as u32 * per, per))?);
        }
    }

    // Per-rank state.
    let mut ranks = Vec::with_capacity(cfg.ranks);
    for r in 0..cfg.ranks {
        let (device, stream) = if offload {
            let card = cards[r];
            let cores = hs.domains()[card.0].cores;
            (card, hs.stream_create(card, CpuMask::first(cores))?)
        } else {
            (DomainId::HOST, host_compute[r])
        };
        let fields = [
            hs.buffer_create(alloc_bytes, BufProps::labeled(format!("r{r}p"))),
            hs.buffer_create(alloc_bytes, BufProps::labeled(format!("r{r}c"))),
            hs.buffer_create(alloc_bytes, BufProps::labeled(format!("r{r}n"))),
        ];
        if !device.is_host() {
            for f in fields {
                hs.buffer_instantiate(f, device)?;
            }
        }
        ranks.push(Rank {
            device,
            stream,
            fields,
        });
    }

    // Real mode: write the initial wavefield into the host copies.
    if real {
        for (r, rank) in ranks.iter().enumerate() {
            let mut cur0 = vec![0.0f64; alloc_planes * plane];
            // Interior planes AND ghost planes: a rank's ghosts start with
            // its neighbours' initial boundary values (the t=0 exchange).
            for za in 0..alloc_planes {
                let gz = r as isize * nzl as isize + za as isize - R as isize;
                if gz < 0 || gz >= nz_total as isize {
                    continue; // global Dirichlet ghosts stay zero
                }
                for y in 0..ny {
                    for x in 0..nx {
                        cur0[idx(nx, ny, x, y, za)] = source(nx, ny, nz_total, x, y, gz as usize);
                    }
                }
            }
            hs.buffer_write_f64(rank.fields[1], 0, &cur0)?;
        }
    }

    let t0 = hs.now_secs();
    // Ship the initial fields to the cards. shipped[r][f]: the h2d that
    // reads rank r's host copy of field f.
    let mut shipped: Vec<[Option<Event>; 3]> = vec![[None; 3]; cfg.ranks];
    if offload {
        for (rank, shipped) in ranks.iter().zip(&mut shipped) {
            for (f, ev) in shipped.iter_mut().enumerate() {
                *ev = Some(rank.xfer(hs, f, 0..alloc_bytes, false)?);
            }
        }
    }
    // touched[r]: the last exchange's copies that read or write rank r's
    // host field; its results-home d2h must not overtake them.
    let mut touched: Vec<Vec<Option<Event>>> = vec![Vec::new(); cfg.ranks];

    // Byte helpers (plane windows).
    let planes_bytes = |z0: usize, z1: usize| (z0 * plane * 8)..(z1 * plane * 8);
    let dev_of = |r: usize| ranks[r].device;

    // Cost hints (device list captured up front to keep `hs` free for
    // mutable use inside the step loop).
    let rank_devices: Vec<Device> = (0..cfg.ranks).map(|r| hs_device(hs, dev_of(r))).collect();
    let optimized = cfg.optimized;
    let hint = move |r: usize, z0: usize, z1: usize, halo: bool| {
        let points = ((z1 - z0) * plane) as u64;
        let kind = if halo {
            KernelKind::StencilHalo
        } else {
            KernelKind::StencilBulk
        };
        CostHint::new(
            kind,
            flops::stencil(points) / opt_factor(rank_devices[r], optimized),
            nx as u64,
        )
    };

    // Field rotation: indices into rank.fields for (prev, cur, next).
    let mut rot = [0usize, 1, 2];
    for step in 0..cfg.steps {
        let (pi, ci, ni) = (rot[0], rot[1], rot[2]);
        // Enqueue one compute covering planes [z0, z1) of the interior.
        let compute = |hs: &mut HStreams, r: usize, z0: usize, z1: usize, halo: bool| {
            let rank = &ranks[r];
            let ops = [
                Operand::new(rank.fields[ci], planes_bytes(z0 - R, z1 + R), Access::In),
                Operand::new(rank.fields[pi], planes_bytes(z0, z1), Access::In),
                Operand::new(rank.fields[ni], planes_bytes(z0, z1), Access::Out),
            ];
            // The task sees plane-windows: cur from z0-R, prev/next from z0.
            hs.enqueue_compute(
                rank.stream,
                "rtm_stencil",
                pack([nx, ny, z1 - z0]),
                &ops,
                hint(r, z0, z1, halo),
            )
        };

        match cfg.scheme {
            Scheme::SyncOffload => {
                // Whole-subdomain compute; nothing overlaps anything.
                for r in 0..cfg.ranks {
                    compute(hs, r, R, R + nzl, false)?;
                }
                hs.thread_synchronize()?;
                exchange(hs, cfg, &ranks, ni, exchange_stream, plane * 8)?;
            }
            Scheme::HostOnly | Scheme::AsyncPipelined => {
                // Halo slabs first; their transfers queue behind them in the
                // same stream (implicit FIFO deps); bulk overlaps.
                // d2h[r][dir]: r's boundary towards `dir` on its way to the host.
                let mut d2h: Vec<[Option<Event>; 2]> = vec![[None; 2]; cfg.ranks];
                for r in 0..cfg.ranks {
                    compute(hs, r, R, 2 * R, true)?;
                    compute(hs, r, nzl, nzl + R, true)?;
                    let rank = &ranks[r];
                    if offload {
                        // Only boundaries a neighbour consumes travel.
                        if r > 0 {
                            d2h[r][UP] = Some(rank.xfer(hs, ni, planes_bytes(R, 2 * R), true)?);
                        }
                        if r + 1 < cfg.ranks {
                            d2h[r][DOWN] =
                                Some(rank.xfer(hs, ni, planes_bytes(nzl, nzl + R), true)?);
                        }
                    }
                    compute(hs, r, 2 * R, nzl, false)?;
                }
                // Exchange: host copies between rank buffers (r's bottom
                // boundary -> (r+1)'s top ghost, r's top boundary -> (r-1)'s
                // bottom ghost), then ghost h2d. Each copy waits on the one
                // d2h it needs and, in the first step, on the neighbour's
                // initial h2d of the field whose ghosts it overwrites (later
                // steps are ordered after it through the neighbours'
                // computes).
                for t in &mut touched {
                    t.clear();
                }
                for r in 0..cfg.ranks {
                    for (dir, nb, boundary, ghost) in hops(r, cfg.ranks, nzl, plane * 8) {
                        // In HostOnly mode the producing compute is in a
                        // different (host) stream: wait on the rank stream.
                        let producer = if offload {
                            None
                        } else {
                            Some(hs.enqueue_marker(ranks[r].stream)?)
                        };
                        let shipped = if step == 0 { shipped[nb][ni] } else { None };
                        let cp = copy_between(
                            hs,
                            exchange_stream,
                            ranks[r].fields[ni],
                            boundary,
                            ranks[nb].fields[ni],
                            ghost.clone(),
                            &[d2h[r][dir], producer, shipped],
                        )?;
                        touched[r].push(Some(cp));
                        touched[nb].push(Some(cp));
                        if offload {
                            let nbr = &ranks[nb];
                            let (host, dev) = (DomainId::HOST, nbr.device);
                            let buf = nbr.fields[ni];
                            crate::xfer_after(hs, nbr.stream, buf, ghost, host, dev, &[Some(cp)])?;
                        }
                    }
                }
                if !offload {
                    // Host-only: the ghost writes land in host buffers that
                    // the next step's computes (other streams) read — order
                    // them explicitly.
                    let all: Vec<StreamId> = ranks.iter().map(|r| r.stream).collect();
                    let marker = hs.enqueue_marker(exchange_stream)?;
                    for s in all {
                        hs.enqueue_event_wait(s, &[marker])?;
                    }
                }
            }
        }
        rot.rotate_left(1);
    }

    // Results home to the host.
    let ci = rot[1];
    if offload {
        for (rank, touched) in ranks.iter().zip(&touched) {
            let (buf, dev) = (rank.fields[ci], rank.device);
            crate::xfer_after(
                hs,
                rank.stream,
                buf,
                0..alloc_bytes,
                dev,
                DomainId::HOST,
                touched,
            )?;
        }
    }
    hs.thread_synchronize()?;
    let secs = hs.now_secs() - t0;

    let max_err = if real && cfg.verify {
        let reference = reference_propagate(cfg);
        let mut worst = 0.0f64;
        for (r, rank) in ranks.iter().enumerate() {
            let mut field = vec![0.0f64; alloc_planes * plane];
            hs.buffer_read_f64(rank.fields[ci], 0, &mut field)?;
            for zl in 0..nzl {
                let gz = r * nzl + zl;
                for i in 0..plane {
                    let got = field[(zl + R) * plane + i];
                    let want = reference[gz * plane + i];
                    worst = worst.max((got - want).abs());
                }
            }
        }
        Some(worst)
    } else {
        None
    };

    let total_points = (nz_total * plane * cfg.steps) as f64;
    Ok(RtmResult {
        secs,
        mpoints_per_sec: total_points / secs / 1e6,
        max_err,
    })
}

/// Host-side exchange used by the bulk-synchronous offload scheme:
/// everything barriered, nothing overlapped.
fn exchange(
    hs: &mut HStreams,
    cfg: &RtmConfig,
    ranks: &[Rank],
    ni: usize,
    exchange_stream: StreamId,
    plane_bytes: usize,
) -> HsResult<()> {
    let nzl = cfg.nz_per_rank;
    let w = |z0: usize, z1: usize| z0 * plane_bytes..z1 * plane_bytes;
    for rank in ranks {
        rank.xfer(hs, ni, w(R, 2 * R), true)?;
        rank.xfer(hs, ni, w(nzl, nzl + R), true)?;
    }
    hs.thread_synchronize()?;
    for r in 0..cfg.ranks {
        for (_, nb, boundary, ghost) in hops(r, cfg.ranks, nzl, plane_bytes) {
            let (src, dst) = (ranks[r].fields[ni], ranks[nb].fields[ni]);
            copy_between(hs, exchange_stream, src, boundary, dst, ghost, &[])?;
        }
    }
    hs.thread_synchronize()?;
    for rank in ranks {
        rank.xfer(hs, ni, w(0, R), false)?;
        rank.xfer(hs, ni, w(nzl + R, nzl + 2 * R), false)?;
    }
    hs.thread_synchronize()
}

/// Copy `src[sr]` into `dst[dr]` on the exchange stream, ordered after
/// whichever of `after` exist: the d2h that brought `src[sr]` home (or, in
/// host-only mode, a marker on the producing host stream) and any earlier
/// reader of `dst[dr]`.
fn copy_between(
    hs: &mut HStreams,
    exchange_stream: StreamId,
    src: BufferId,
    sr: Range<usize>,
    dst: BufferId,
    dr: Range<usize>,
    after: &[Option<Event>],
) -> HsResult<Event> {
    assert_eq!(sr.len(), dr.len(), "halo windows must match");
    let copy = BatchAction::Compute {
        func: "rtm_copy".into(),
        args: Bytes::new(),
        operands: vec![
            Operand::new(src, sr, Access::In),
            Operand::new(dst, dr, Access::Out),
        ],
        cost: CostHint::trivial(),
    };
    crate::enqueue_after(hs, exchange_stream, copy, after)
}

fn hs_device(hs: &HStreams, d: DomainId) -> Device {
    hs.domains()[d.0].device
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::PlatformCfg;
    use hstreams_core::ExecMode;

    fn verify_scheme(scheme: Scheme, ranks: usize) {
        let mut cfg = RtmConfig::small(scheme);
        cfg.ranks = ranks;
        let platform = if matches!(scheme, Scheme::HostOnly) {
            PlatformCfg::native(Device::Hsw)
        } else {
            PlatformCfg::hetero(Device::Hsw, ranks)
        };
        let mut hs = HStreams::init(platform, ExecMode::Threads);
        let r = run(&mut hs, &cfg).expect("propagates");
        let err = r.max_err.expect("verified");
        assert!(err < 1e-11, "{scheme:?} ranks={ranks} err={err}");
    }

    #[test]
    fn host_only_matches_reference() {
        verify_scheme(Scheme::HostOnly, 2);
    }

    #[test]
    fn sync_offload_matches_reference() {
        verify_scheme(Scheme::SyncOffload, 2);
    }

    #[test]
    fn async_pipelined_matches_reference() {
        verify_scheme(Scheme::AsyncPipelined, 2);
    }

    #[test]
    fn async_pipelined_three_ranks_matches_reference() {
        verify_scheme(Scheme::AsyncPipelined, 3);
    }

    #[test]
    fn single_rank_needs_no_exchange() {
        verify_scheme(Scheme::AsyncPipelined, 1);
    }

    #[test]
    fn schemes_agree_with_each_other() {
        // All schemes are the same math: identical wavefields bit-for-bit is
        // not guaranteed (summation order within a task is fixed, so it
        // actually is) — assert tight agreement.
        let run_one = |scheme| {
            let mut cfg = RtmConfig::small(scheme);
            cfg.verify = true;
            let platform = if matches!(scheme, Scheme::HostOnly) {
                PlatformCfg::native(Device::Hsw)
            } else {
                PlatformCfg::hetero(Device::Hsw, cfg.ranks)
            };
            let mut hs = HStreams::init(platform, ExecMode::Threads);
            run(&mut hs, &cfg)
                .expect("propagates")
                .max_err
                .expect("verified")
        };
        assert!(run_one(Scheme::HostOnly) < 1e-11);
        assert!(run_one(Scheme::SyncOffload) < 1e-11);
        assert!(run_one(Scheme::AsyncPipelined) < 1e-11);
    }

    #[test]
    fn sim_async_beats_sync() {
        let mut cfg = RtmConfig {
            nx: 1024,
            ny: 1024,
            nz_per_rank: 128,
            ranks: 1,
            steps: 10,
            scheme: Scheme::SyncOffload,
            optimized: true,
            verify: false,
        };
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        let sync = run(&mut hs, &cfg).expect("sync").secs;
        cfg.scheme = Scheme::AsyncPipelined;
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        let async_ = run(&mut hs, &cfg).expect("async").secs;
        let benefit = sync / async_ - 1.0;
        assert!(
            benefit > 0.02,
            "pipelining must help: sync {sync:.3}s vs async {async_:.3}s ({benefit:.1}%)"
        );
    }

    #[test]
    fn sim_knc_beats_hsw_when_optimized() {
        // Enough steps to amortize the one-time field staging, as the
        // paper's weeks-long production jobs do.
        let cfg = RtmConfig {
            nx: 1024,
            ny: 1024,
            nz_per_rank: 128,
            ranks: 1,
            steps: 100,
            scheme: Scheme::AsyncPipelined,
            optimized: true,
            verify: false,
        };
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        let card = run(&mut hs, &cfg).expect("card").secs;
        let mut host_cfg = cfg.clone();
        host_cfg.scheme = Scheme::HostOnly;
        let mut hs = HStreams::init(PlatformCfg::native(Device::Hsw), ExecMode::Sim);
        let host = run(&mut hs, &host_cfg).expect("host").secs;
        let speedup = host / card;
        assert!(
            (1.2..1.8).contains(&speedup),
            "KNC-over-HSW ~1.52x expected, got {speedup:.2}"
        );
    }
}
