//! Heterogeneous tiled Cholesky — the Fig. 5 distribution — plus the
//! comparator schedules of Fig. 7.
//!
//! The hStreams hetero schedule, per §V:
//!
//! * **DPOTRF** runs on the host in a *machine-wide* stream; **DTRSMs** run
//!   on the host too. Their results are **broadcast to all cards**.
//! * Each **tile-row** is assigned to the host or one of the cards
//!   round-robin; every subsequent DSYRK/DGEMM for that row is round-robin'd
//!   across the owning domain's streams.
//! * The updated tiles of the **column adjacent to the DTRSM column** are
//!   sent from the cards back to the host each pass (they are the next
//!   panel). No card↔card transfers — each card interacts only with the
//!   host.
//!
//! Comparators:
//!
//! * [`CholVariant::Offload`] — everything on one card (the "hStr: 1 KNC
//!   (offload)" curve);
//! * [`CholVariant::MklAoLike`] — the same work split, but bulk-synchronous:
//!   a barrier after each trailing update, as per-BLAS-call automatic
//!   offload implies (no cross-step pipelining);
//! * [`CholVariant::MagmaLike`] — host factors the panel, cards do *all*
//!   trailing updates, lookahead through the dataflow (the MAGMA MIC port's
//!   structure);
//! * [`run_ompss`] — the OmpSs port (offload mode, one card), paying OmpSs
//!   per-task overheads and unpooled COI allocations.
//!
//! A note on the machine-wide stream: the host carries a full-width panel
//! stream *and* worker streams, whose CPU masks overlap (exactly what the
//! paper's tuners do). The virtual-time executor treats each stream as its
//! own server, so host capacity is briefly over-counted while a panel
//! overlaps updates; panels are a vanishing fraction of total flops, and
//! DESIGN.md records the approximation.

use crate::kernels::{self, register_all, Call};
use crate::tilebuf::TileBufs;
use crate::xfer_after;
use hs_linalg::dense::{max_abs_diff, random_spd, reconstruct_llt, zero_upper, Matrix};
use hs_linalg::{flops, TileMap};
use hs_machine::KernelKind;
use hs_ompss::{Backend, OmpSs};
use hstreams_core::{
    BufferId, CpuMask, DomainId, Event, ExecMode, HStreams, HsError, HsResult, StreamId,
};

/// Which Fig. 7 implementation to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CholVariant {
    /// hStreams hetero: host panels + host/card trailing updates (Fig. 5).
    Hetero,
    /// Pure offload to the first card; host only orchestrates.
    Offload,
    /// Bulk-synchronous hetero (MKL Automatic Offload shape).
    MklAoLike,
    /// Host panel + card-only trailing updates with dataflow lookahead
    /// (MAGMA shape).
    MagmaLike,
}

/// Configuration of one Cholesky run.
#[derive(Clone, Debug)]
pub struct CholConfig {
    pub n: usize,
    pub tile: usize,
    pub variant: CholVariant,
    /// Streams per card.
    pub streams_per_card: usize,
    /// Host worker streams (hetero variants).
    pub streams_host: usize,
    /// Real mode: factor a random SPD matrix and verify `L·Lᵀ = A`.
    pub verify: bool,
    /// Tuned per-stream sink mask width (cores per stream); `None` keeps
    /// the even partition of each domain's cores.
    pub mask_width: Option<u32>,
}

impl CholConfig {
    pub fn new(n: usize, tile: usize, variant: CholVariant) -> CholConfig {
        CholConfig {
            n,
            tile,
            variant,
            streams_per_card: 4,
            streams_host: 3,
            verify: false,
            mask_width: None,
        }
    }
}

#[derive(Clone, Debug)]
pub struct CholResult {
    pub secs: f64,
    pub gflops: f64,
    pub max_err: Option<f64>,
    /// FNV-1a over the factor's f64 bits, upper triangle zeroed (None when
    /// not verified). Equal checksums across transports ⇒ bit-identity.
    pub checksum: Option<u64>,
}

/// The trailing update of tile (i, j) by column k: SYRK on the diagonal,
/// GEMM below it. `t` names tile (row, col) in the caller's handle type.
fn trailing_update<H: Copy>(
    map: &TileMap,
    t: impl Fn(usize, usize) -> H,
    (i, j, k): (usize, usize, usize),
) -> Call<H> {
    let (bi, bj, bk) = (map.dim(i), map.dim(j), map.dim(k));
    if i == j {
        kernels::syrk(t(i, k), t(i, i), bi, bk)
    } else {
        kernels::gemm_nt(t(i, k), t(j, k), t(i, j), [bi, bj, bk])
    }
}

/// `max |L·Lᵀ - A|` and the factor's checksum, upper triangle zeroed.
fn verify_factor(mut l: Matrix, a: &Matrix, n: usize) -> (Option<f64>, Option<u64>) {
    zero_upper(l.as_mut_slice(), n);
    let r = reconstruct_llt(l.as_slice(), n);
    (
        Some(max_abs_diff(r.as_slice(), a.as_slice())),
        Some(crate::remote::checksum_f64s(l.as_slice())),
    )
}

/// Right-looking tiled factorization of `ta`'s lower triangle entirely on
/// the streams of one domain: the single-target schedule of
/// [`CholVariant::Offload`] and of the supernode solver, which differ only
/// in `diag`, the call that factors a diagonal tile. Tiles are staged in up
/// front, spread across the streams (pipelined with the first panel; the
/// transfers alias away when `target` is the host), and staged back out.
pub(crate) fn right_looking_on(
    hs: &HStreams,
    ta: &TileBufs,
    streams: &[StreamId],
    target: DomainId,
    diag: fn(BufferId, usize) -> Call<BufferId>,
) -> HsResult<()> {
    let map = &ta.map;
    let nt = map.nt;
    let mut tile_ev: Vec<Option<Event>> = vec![None; nt * nt];
    for i in 0..nt {
        for j in 0..=i {
            let s = streams[(i + j) % streams.len()];
            let ev = hs.enqueue_xfer(s, ta.buf(i, j), 0..ta.bytes(i, j), DomainId::HOST, target)?;
            tile_ev[map.id(i, j)] = Some(ev);
        }
    }
    let mut rr = 0usize;
    for k in 0..nt {
        let bk = map.dim(k);
        // The diagonal factor on stream 0.
        let s0 = streams[0];
        let diag_ev = diag(ta.buf(k, k), bk).enqueue(hs, s0, &[tile_ev[map.id(k, k)]])?;
        tile_ev[map.id(k, k)] = Some(diag_ev);
        // TRSMs round-robin across the streams.
        let mut trsm_ev: Vec<Option<Event>> = vec![None; nt];
        for i in k + 1..nt {
            let s = streams[rr % streams.len()];
            rr += 1;
            let after = [Some(diag_ev), tile_ev[map.id(i, k)]];
            let ev =
                kernels::trsm(ta.buf(k, k), ta.buf(i, k), map.dim(i), bk).enqueue(hs, s, &after)?;
            trsm_ev[i] = Some(ev);
            tile_ev[map.id(i, k)] = Some(ev);
        }
        // Trailing updates.
        for i in k + 1..nt {
            for j in k + 1..=i {
                let s = streams[rr % streams.len()];
                rr += 1;
                let after = [trsm_ev[i], trsm_ev[j], tile_ev[map.id(i, j)]];
                let ev =
                    trailing_update(map, |r, c| ta.buf(r, c), (i, j, k)).enqueue(hs, s, &after)?;
                tile_ev[map.id(i, j)] = Some(ev);
            }
        }
    }
    // The factor back to the host.
    for i in 0..nt {
        for j in 0..=i {
            let s = streams[(i + j) % streams.len()];
            let (buf, range) = (ta.buf(i, j), 0..ta.bytes(i, j));
            let after = [tile_ev[map.id(i, j)]];
            xfer_after(hs, s, buf, range, target, DomainId::HOST, &after)?;
        }
    }
    Ok(())
}

/// Run a Cholesky schedule on an initialized runtime.
pub fn run(hs: &mut HStreams, cfg: &CholConfig) -> HsResult<CholResult> {
    register_all(hs);
    let map = TileMap::new(cfg.n, cfg.tile);
    let nt = map.nt;
    let real = hs.mode() != ExecMode::Sim;

    // The cards in play: all of them, or the Offload variant's one.
    let offload = matches!(cfg.variant, CholVariant::Offload);
    let balanced = matches!(cfg.variant, CholVariant::Hetero | CholVariant::MklAoLike);
    let mut cards: Vec<DomainId> = hs.domains().iter().skip(1).map(|d| d.id).collect();
    if offload {
        cards.truncate(1);
        if cards.is_empty() {
            return Err(HsError::InvalidArg("offload variant needs a card".into()));
        }
    }

    // Row owners (Offload never consults them: every row lives on its card).
    let owners: Vec<DomainId> = if cards.is_empty() {
        vec![DomainId::HOST; nt]
    } else if balanced {
        // Row ownership balanced by device update rates (the paper's tuners
        // used plain round-robin because their host and card DGEMM rates
        // were near-equal; the balancing generalizes that). The host's
        // panel duty earns it no discount: at the sweep's tile counts the
        // remainder rounding already leaves it headroom.
        let cm = hs.platform().cost_model();
        let devices: Vec<DomainId> = [DomainId::HOST].into_iter().chain(cards.clone()).collect();
        let rate = |d: &DomainId| {
            let info = &hs.domains()[d.0];
            cm.kernel_gflops(info.device, info.cores, KernelKind::Dgemm, cfg.tile as u64)
        };
        let weights: Vec<f64> = devices.iter().map(rate).collect();
        let assignment = crate::matmul::assign_panels(nt, &weights);
        assignment.into_iter().map(|di| devices[di]).collect()
    } else {
        (0..nt).map(|i| cards[i % cards.len()]).collect()
    };

    // Streams, ids in creation order: a machine-wide host panel stream and
    // the host workers — neither in the Offload variant, whose panel runs
    // on its card — then each card's.
    let mut host_streams: Vec<StreamId> = Vec::new();
    if !offload {
        let host_cores = hs.domains()[0].cores;
        host_streams.push(hs.stream_create(DomainId::HOST, CpuMask::first(host_cores))?);
        if balanced {
            let (n, width) = (cfg.streams_host, cfg.mask_width);
            host_streams.extend(crate::domain_streams(hs, DomainId::HOST, n, width)?);
        }
    }
    let mut card_streams: Vec<Vec<StreamId>> = Vec::new();
    for card in &cards {
        let (n, width) = (cfg.streams_per_card, cfg.mask_width);
        card_streams.push(crate::domain_streams(hs, *card, n, width)?);
    }

    // One buffer per lower-triangle tile (upper tiles never touched),
    // instantiated where it will be touched: on the single offload card, or
    // on every card (broadcast targets + row ownership).
    let ta = TileBufs::create(hs, map, "A");
    let a_ref = ta.seed(hs, real && cfg.verify, || random_spd(cfg.n, 31))?;
    ta.instantiate_lower(hs, &cards)?;

    let t0 = hs.now_secs();
    let card_of = |d: DomainId| cards.iter().position(|c| *c == d);

    if offload {
        right_looking_on(hs, &ta, &card_streams[0], cards[0], kernels::potrf)?;
    } else {
        let panel_stream = host_streams[0];
        // MagmaLike has no host workers: its TRSMs share the panel stream.
        let host_workers = &host_streams[usize::from(balanced)..];
        // Hetero / MklAoLike / MagmaLike: host panel stream + distributed
        // trailing updates (Fig. 5).
        //
        // col_ev[i]: event after which the HOST copy of A[i][k_next] is
        // current (a card→host transfer or a host-side update).
        let mut col_ev: Vec<Option<Event>> = vec![None; nt];
        // upd_ev[tile id]: last update of the owner-domain copy.
        let mut upd_ev: Vec<Option<Event>> = vec![None; nt * nt];
        let mut host_rr = 0usize;
        let mut card_rr = vec![0usize; cards.len()];
        // Initial distribution: card-owned rows receive their tiles up
        // front (column 0 stays host-side — its DTRSM runs on the host).
        // These transfers pipeline with the first panel.
        for i in 1..nt {
            let owner = owners[i];
            if let Some(ci) = card_of(owner) {
                for j in 1..=i {
                    let streams = &card_streams[ci];
                    let s = streams[card_rr[ci] % streams.len()];
                    card_rr[ci] += 1;
                    let ev =
                        hs.enqueue_xfer(s, ta.buf(i, j), 0..ta.bytes(i, j), DomainId::HOST, owner)?;
                    upd_ev[map.id(i, j)] = Some(ev);
                }
            }
        }
        for k in 0..nt {
            let bk = map.dim(k);
            // Panel: POTRF + TRSMs on the machine-wide host stream, reading
            // host copies made current by col_ev.
            let potrf_ev =
                kernels::potrf(ta.buf(k, k), bk).enqueue(hs, panel_stream, &[col_ev[k]])?;
            // DTRSMs round-robin across the host worker streams ("each
            // subsequent compute ... is round-robin'd across the available
            // streams"); only DPOTRF uses the machine-wide stream. The L_kk
            // dependence is cross-stream here, so it rides an event.
            let mut trsm_ev: Vec<Option<Event>> = vec![None; nt];
            for i in k + 1..nt {
                let bi = map.dim(i);
                let s = host_workers[host_rr % host_workers.len()];
                host_rr += 1;
                let after = [col_ev[i], Some(potrf_ev)];
                let ev =
                    kernels::trsm(ta.buf(k, k), ta.buf(i, k), bi, bk).enqueue(hs, s, &after)?;
                trsm_ev[i] = Some(ev);
            }
            // Broadcast the L column to every card.
            let mut bcast_ev: Vec<Vec<Option<Event>>> = vec![vec![None; nt]; cards.len()];
            for (ci, card) in cards.iter().enumerate() {
                for i in k + 1..nt {
                    let streams = &card_streams[ci];
                    let s = streams[card_rr[ci] % streams.len()];
                    card_rr[ci] += 1;
                    let range = 0..map.dim(i) * bk * 8;
                    let ev = xfer_after(
                        hs,
                        s,
                        ta.buf(i, k),
                        range,
                        DomainId::HOST,
                        *card,
                        &[trsm_ev[i]],
                    )?;
                    bcast_ev[ci][i] = Some(ev);
                }
            }
            // Trailing updates on row owners; the (k+1) column returns to
            // the host for the next panel.
            for i in k + 1..nt {
                let bi = map.dim(i);
                let owner = owners[i];
                for j in k + 1..=i {
                    let bj = map.dim(j);
                    let (s, lik_ev, ljk_ev) = if owner.is_host() {
                        let s = host_workers[host_rr % host_workers.len()];
                        host_rr += 1;
                        (s, trsm_ev[i], trsm_ev[j])
                    } else {
                        let ci = card_of(owner).expect("owner is a card");
                        let streams = &card_streams[ci];
                        let s = streams[card_rr[ci] % streams.len()];
                        card_rr[ci] += 1;
                        (s, bcast_ev[ci][i], bcast_ev[ci][j])
                    };
                    let after = [lik_ev, ljk_ev, upd_ev[map.id(i, j)]];
                    let ev = trailing_update(&map, |r, c| ta.buf(r, c), (i, j, k))
                        .enqueue(hs, s, &after)?;
                    upd_ev[map.id(i, j)] = Some(ev);
                    // The (k+1)-column tile becomes next panel input.
                    if j == k + 1 {
                        col_ev[i] = if owner.is_host() {
                            Some(ev)
                        } else {
                            // Same stream as the update: FIFO + operands
                            // order the transfer after it implicitly.
                            Some(hs.enqueue_xfer(
                                s,
                                ta.buf(i, j),
                                0..bi * bj * 8,
                                owner,
                                DomainId::HOST,
                            )?)
                        };
                    }
                }
            }
            // MKL Automatic Offload: per-call semantics — a bulk barrier
            // after every trailing update (no cross-step pipelining).
            if matches!(cfg.variant, CholVariant::MklAoLike) {
                hs.thread_synchronize()?;
            }
        }
    }

    hs.thread_synchronize()?;
    let secs = hs.now_secs() - t0;

    let (max_err, checksum) = match a_ref {
        Some(a) => verify_factor(ta.read_matrix(hs)?, &a, cfg.n),
        None => (None, None),
    };

    Ok(CholResult {
        secs,
        gflops: flops::gflops(flops::cholesky_total(cfg.n), secs),
        max_err,
        checksum,
    })
}

/// The OmpSs port of tiled Cholesky (offload mode, one card), as evaluated
/// in Fig. 7: everything — POTRF included — runs on the MIC; dependences and
/// data movement are automatic; OmpSs overheads apply.
pub fn run_ompss(
    platform: hs_machine::PlatformCfg,
    mode: ExecMode,
    n: usize,
    tile: usize,
    streams_per_device: usize,
    verify: bool,
) -> HsResult<CholResult> {
    let mut o = OmpSs::new(platform, mode, Backend::HStreams, streams_per_device);
    for (name, f) in crate::kernels::kernel_table() {
        o.register(name, f);
    }
    let map = TileMap::new(n, tile);
    let nt = map.nt;
    let card = DomainId(1);

    // One data region per lower tile.
    let mut data = vec![None; nt * nt];
    for i in 0..nt {
        for j in 0..=i {
            data[map.id(i, j)] = Some(o.data_create(map.tile_bytes(i, j)));
        }
    }
    let d = |i: usize, j: usize| data[map.id(i, j)].expect("lower tile region");

    let a_ref = if verify {
        let a = random_spd(n, 77);
        let tiles = map.pack(&a);
        for i in 0..nt {
            for j in 0..=i {
                o.data_write_f64(d(i, j), 0, &tiles[map.id(i, j)])
                    .expect("host write");
            }
        }
        Some(a)
    } else {
        None
    };

    let t0 = o.now_secs();
    for k in 0..nt {
        let bk = map.dim(k);
        kernels::potrf(d(k, k), bk).task(&mut o, card)?;
        for i in k + 1..nt {
            kernels::trsm(d(k, k), d(i, k), map.dim(i), bk).task(&mut o, card)?;
        }
        for i in k + 1..nt {
            for j in k + 1..=i {
                trailing_update(&map, d, (i, j, k)).task(&mut o, card)?;
            }
        }
    }
    // Gather the factor back to the host inside the timed region (the
    // direct schedules pay their result transfers; so must OmpSs — its
    // automatic movement makes this a host-placed read task per tile).
    for i in 0..nt {
        for j in 0..=i {
            kernels::touch(d(i, j), map.dim(i) * map.dim(j)).task(&mut o, DomainId::HOST)?;
        }
    }
    o.taskwait()?;
    let secs = o.now_secs() - t0;

    let (max_err, checksum) = match a_ref {
        Some(a) => {
            let mut tiles = vec![Vec::new(); nt * nt];
            for i in 0..nt {
                for j in 0..nt {
                    let mut t = vec![0.0; map.dim(i) * map.dim(j)];
                    if j <= i {
                        o.data_read_f64(d(i, j), 0, &mut t).expect("read");
                    }
                    tiles[map.id(i, j)] = t;
                }
            }
            verify_factor(map.unpack(&tiles), &a, n)
        }
        None => (None, None),
    };

    Ok(CholResult {
        secs,
        gflops: flops::gflops(flops::cholesky_total(n), secs),
        max_err,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::{Device, PlatformCfg};

    fn check(variant: CholVariant, cards: usize, n: usize, tile: usize) {
        let platform = if cards == 0 {
            PlatformCfg::native(Device::Hsw)
        } else {
            PlatformCfg::hetero(Device::Hsw, cards)
        };
        let mut hs = HStreams::init(platform, ExecMode::Threads);
        let mut cfg = CholConfig::new(n, tile, variant);
        cfg.streams_per_card = 2;
        cfg.streams_host = 2;
        cfg.verify = true;
        let r = run(&mut hs, &cfg).expect("factorization runs");
        let err = r.max_err.expect("verified");
        assert!(err < 1e-8, "{variant:?} cards={cards} err={err}");
    }

    #[test]
    fn hetero_cholesky_correct_two_cards() {
        check(CholVariant::Hetero, 2, 24, 6);
    }

    #[test]
    fn hetero_cholesky_correct_one_card_uneven_tiles() {
        check(CholVariant::Hetero, 1, 22, 5);
    }

    #[test]
    fn offload_cholesky_correct() {
        check(CholVariant::Offload, 1, 20, 5);
    }

    #[test]
    fn mkl_ao_like_cholesky_correct() {
        check(CholVariant::MklAoLike, 2, 18, 6);
    }

    #[test]
    fn magma_like_cholesky_correct() {
        check(CholVariant::MagmaLike, 1, 20, 5);
    }

    #[test]
    fn host_only_hetero_cholesky_correct() {
        check(CholVariant::Hetero, 0, 16, 4);
    }

    #[test]
    fn ompss_cholesky_correct() {
        let r = run_ompss(
            PlatformCfg::hetero(Device::Hsw, 1),
            ExecMode::Threads,
            20,
            5,
            2,
            true,
        )
        .expect("ompss run");
        assert!(r.max_err.expect("verified") < 1e-8);
    }

    fn sim_gflops(variant: CholVariant, cards: usize) -> f64 {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, cards), ExecMode::Sim);
        let r = run(&mut hs, &CholConfig::new(12000, 750, variant));
        r.expect("factorization runs").gflops
    }

    #[test]
    fn sim_hetero_beats_offload() {
        let hetero = sim_gflops(CholVariant::Hetero, 1);
        let offload = sim_gflops(CholVariant::Offload, 1);
        assert!(
            hetero > offload * 1.2,
            "host+card ({hetero}) must clearly beat pure offload ({offload})"
        );
    }

    #[test]
    fn sim_hetero_beats_bulk_synchronous() {
        let hetero = sim_gflops(CholVariant::Hetero, 2);
        let ao = sim_gflops(CholVariant::MklAoLike, 2);
        assert!(
            hetero > ao,
            "pipelined hetero ({hetero}) must beat bulk-synchronous AO ({ao})"
        );
    }
}
