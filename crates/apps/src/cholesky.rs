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

use crate::kernels::{pack_dims, register_all};
use crate::tilebuf::TileBufs;
use bytes::Bytes;
use hs_linalg::dense::{max_abs_diff, random_spd, reconstruct_llt, zero_upper, Matrix};
use hs_linalg::{flops, TileMap};
use hs_machine::KernelKind;
use hs_ompss::{Backend, DataAccess, OmpSs};
use hstreams_core::{
    Access, CostHint, CpuMask, DomainId, Event, ExecMode, HStreams, HsResult, Operand, StreamId,
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

fn cost(kind: KernelKind, fl: f64, tile: usize) -> CostHint {
    CostHint::new(kind, fl, tile as u64)
}

/// Run a Cholesky schedule on an initialized runtime.
pub fn run(hs: &mut HStreams, cfg: &CholConfig) -> HsResult<CholResult> {
    register_all(hs);
    let map = TileMap::new(cfg.n, cfg.tile);
    let nt = map.nt;
    let real = hs.mode() != ExecMode::Sim;

    let cards: Vec<DomainId> = hs.domains().iter().skip(1).map(|d| d.id).collect();
    let first_card = cards.first().copied();

    // Row owners per variant.
    let owners: Vec<DomainId> = (0..nt)
        .map(|i| match cfg.variant {
            CholVariant::Offload => first_card.unwrap_or(DomainId::HOST),
            CholVariant::MagmaLike => {
                if cards.is_empty() {
                    DomainId::HOST
                } else {
                    cards[i % cards.len()]
                }
            }
            CholVariant::Hetero | CholVariant::MklAoLike => {
                // Row ownership balanced by device update rates, with the
                // host discounted for its panel duty (the paper's tuners
                // used plain round-robin because their host and card DGEMM
                // rates were near-equal; the balancing generalizes that).
                DomainId(0) // placeholder, replaced below
            }
        })
        .collect();
    let owners: Vec<DomainId> =
        if matches!(cfg.variant, CholVariant::Hetero | CholVariant::MklAoLike) && !cards.is_empty()
        {
            let cm = hs.platform().cost_model();
            let tile_n = cfg.tile as u64;
            let host_info = &hs.domains()[0];
            // Knob for shaving the host's row share when panel duty crowds its
            // workers; at the sweep's tile counts the remainder rounding already
            // leaves the host headroom, so no extra discount is applied.
            const HOST_PANEL_DISCOUNT: f64 = 1.0;
            let mut weights = vec![
                cm.kernel_gflops(host_info.device, host_info.cores, KernelKind::Dgemm, tile_n)
                    * HOST_PANEL_DISCOUNT,
            ];
            for card in &cards {
                let info = &hs.domains()[card.0];
                weights.push(cm.kernel_gflops(info.device, info.cores, KernelKind::Dgemm, tile_n));
            }
            let assignment = crate::matmul::assign_panels(nt, &weights);
            assignment
                .into_iter()
                .map(|di| {
                    if di == 0 {
                        DomainId::HOST
                    } else {
                        cards[di - 1]
                    }
                })
                .collect()
        } else {
            owners
        };

    // Streams: a machine-wide host panel stream + host workers + card
    // streams. In the Offload variant the panel runs on the card instead.
    let host_cores = hs.domains()[0].cores;
    let panel_stream: StreamId;
    let mut host_workers: Vec<StreamId> = Vec::new();
    let mut card_streams: Vec<Vec<StreamId>> = Vec::new();
    match cfg.variant {
        CholVariant::Offload => {
            let card = first_card.ok_or_else(|| {
                hstreams_core::HsError::InvalidArg("offload variant needs a card".into())
            })?;
            let streams = crate::domain_streams(hs, card, cfg.streams_per_card, cfg.mask_width)?;
            panel_stream = streams[0];
            card_streams = vec![streams];
        }
        _ => {
            panel_stream = hs.stream_create(DomainId::HOST, CpuMask::first(host_cores))?;
            if matches!(cfg.variant, CholVariant::Hetero | CholVariant::MklAoLike) {
                host_workers =
                    crate::domain_streams(hs, DomainId::HOST, cfg.streams_host, cfg.mask_width)?;
            }
            for card in &cards {
                card_streams.push(crate::domain_streams(
                    hs,
                    *card,
                    cfg.streams_per_card,
                    cfg.mask_width,
                )?);
            }
        }
    }
    if host_workers.is_empty() {
        host_workers.push(panel_stream);
    }

    // One buffer per lower-triangle tile (upper tiles never touched).
    let ta = TileBufs::create(hs, map, "A");
    let a_ref = if real && cfg.verify {
        let a = random_spd(cfg.n, 31);
        ta.write_matrix(hs, &a)?;
        Some(a)
    } else {
        None
    };

    // Instantiate lower tiles where they will be touched: on the single
    // offload card, or on every card (broadcast targets + row ownership).
    let offload = matches!(cfg.variant, CholVariant::Offload);
    for i in 0..nt {
        for j in 0..=i {
            if offload {
                if let Some(card) = first_card {
                    hs.buffer_instantiate(ta.buf(i, j), card)?;
                }
            } else {
                for card in &cards {
                    hs.buffer_instantiate(ta.buf(i, j), *card)?;
                }
            }
        }
    }

    let t0 = hs.now_secs();
    let card_of = |d: DomainId| cards.iter().position(|c| *c == d);

    if offload {
        let card = first_card.expect("offload variant has a card");
        let streams = &card_streams[0];
        // Ship the whole lower triangle to the card up front, tile by tile,
        // spread across streams (pipelined with the first panel).
        let mut tile_ev: Vec<Option<Event>> = vec![None; nt * nt];
        for i in 0..nt {
            for j in 0..=i {
                let s = streams[(i + j) % streams.len()];
                let ev =
                    hs.enqueue_xfer(s, ta.buf(i, j), 0..ta.bytes(i, j), DomainId::HOST, card)?;
                tile_ev[map.id(i, j)] = Some(ev);
            }
        }
        // Right-looking factorization entirely on the card.
        let mut rr = 0usize;
        for k in 0..nt {
            let bk = map.dim(k);
            // POTRF on stream 0 of the card.
            let s0 = streams[0];
            if let Some(e) = tile_ev[map.id(k, k)] {
                hs.enqueue_cross_wait(s0, &[e])?;
            }
            let potrf_ev = hs.enqueue_compute(
                s0,
                "tile_potrf",
                pack_dims(&[bk as u32]),
                &[Operand::f64s(ta.buf(k, k), 0, bk * bk, Access::InOut)],
                cost(KernelKind::Dpotrf, flops::potrf(bk), bk),
            )?;
            tile_ev[map.id(k, k)] = Some(potrf_ev);
            // TRSMs round-robin across the card's streams.
            let mut trsm_ev: Vec<Option<Event>> = vec![None; nt];
            for i in k + 1..nt {
                let bi = map.dim(i);
                let s = streams[rr % streams.len()];
                rr += 1;
                let mut waits = vec![potrf_ev];
                waits.extend(tile_ev[map.id(i, k)]);
                hs.enqueue_cross_wait(s, &waits)?;
                let ev = hs.enqueue_compute(
                    s,
                    "tile_trsm",
                    pack_dims(&[bi as u32, bk as u32]),
                    &[
                        Operand::f64s(ta.buf(k, k), 0, bk * bk, Access::In),
                        Operand::f64s(ta.buf(i, k), 0, bi * bk, Access::InOut),
                    ],
                    cost(KernelKind::Dtrsm, flops::trsm(bi, bk), bk),
                )?;
                trsm_ev[i] = Some(ev);
                tile_ev[map.id(i, k)] = Some(ev);
            }
            // Trailing updates.
            for i in k + 1..nt {
                let bi = map.dim(i);
                for j in k + 1..=i {
                    let bj = map.dim(j);
                    let s = streams[rr % streams.len()];
                    rr += 1;
                    let mut waits: Vec<Event> = Vec::new();
                    waits.extend(trsm_ev[i]);
                    waits.extend(trsm_ev[j]);
                    waits.extend(tile_ev[map.id(i, j)]);
                    if !waits.is_empty() {
                        hs.enqueue_cross_wait(s, &waits)?;
                    }
                    let ev = if i == j {
                        hs.enqueue_compute(
                            s,
                            "tile_syrk",
                            pack_dims(&[bi as u32, bk as u32]),
                            &[
                                Operand::f64s(ta.buf(i, k), 0, bi * bk, Access::In),
                                Operand::f64s(ta.buf(i, i), 0, bi * bi, Access::InOut),
                            ],
                            cost(KernelKind::Dsyrk, flops::syrk(bi, bk), bk),
                        )?
                    } else {
                        hs.enqueue_compute(
                            s,
                            "tile_gemm_nt",
                            pack_dims(&[bi as u32, bj as u32, bk as u32]),
                            &[
                                Operand::f64s(ta.buf(i, k), 0, bi * bk, Access::In),
                                Operand::f64s(ta.buf(j, k), 0, bj * bk, Access::In),
                                Operand::f64s(ta.buf(i, j), 0, bi * bj, Access::InOut),
                            ],
                            cost(KernelKind::Dgemm, flops::gemm(bi, bj, bk), bk),
                        )?
                    };
                    tile_ev[map.id(i, j)] = Some(ev);
                }
            }
        }
        // Final factor back to the host.
        for i in 0..nt {
            for j in 0..=i {
                let s = streams[(i + j) % streams.len()];
                if let Some(e) = tile_ev[map.id(i, j)] {
                    hs.enqueue_cross_wait(s, &[e])?;
                }
                hs.enqueue_xfer(s, ta.buf(i, j), 0..ta.bytes(i, j), card, DomainId::HOST)?;
            }
        }
    } else {
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
            let waits: Vec<Event> = col_ev[k].into_iter().collect();
            if !waits.is_empty() {
                hs.enqueue_cross_wait(panel_stream, &waits)?;
            }
            let _potrf_ev = hs.enqueue_compute(
                panel_stream,
                "tile_potrf",
                pack_dims(&[bk as u32]),
                &[Operand::f64s(ta.buf(k, k), 0, bk * bk, Access::InOut)],
                cost(KernelKind::Dpotrf, flops::potrf(bk), bk),
            )?;
            // DTRSMs round-robin across the host worker streams ("each
            // subsequent compute ... is round-robin'd across the available
            // streams"); only DPOTRF uses the machine-wide stream. The L_kk
            // dependence is cross-stream here, so it rides an event.
            let mut trsm_ev: Vec<Option<Event>> = vec![None; nt];
            for i in k + 1..nt {
                let bi = map.dim(i);
                let s = host_workers[host_rr % host_workers.len()];
                host_rr += 1;
                let mut waits: Vec<Event> = col_ev[i].into_iter().collect();
                waits.push(_potrf_ev);
                hs.enqueue_cross_wait(s, &waits)?;
                let ev = hs.enqueue_compute(
                    s,
                    "tile_trsm",
                    pack_dims(&[bi as u32, bk as u32]),
                    &[
                        Operand::f64s(ta.buf(k, k), 0, bk * bk, Access::In),
                        Operand::f64s(ta.buf(i, k), 0, bi * bk, Access::InOut),
                    ],
                    cost(KernelKind::Dtrsm, flops::trsm(bi, bk), bk),
                )?;
                trsm_ev[i] = Some(ev);
            }
            // Broadcast the L column to every card.
            let mut bcast_ev: Vec<Vec<Option<Event>>> = vec![vec![None; nt]; cards.len()];
            for (ci, card) in cards.iter().enumerate() {
                for i in k + 1..nt {
                    let streams = &card_streams[ci];
                    let s = streams[card_rr[ci] % streams.len()];
                    card_rr[ci] += 1;
                    hs.enqueue_cross_wait(s, &[trsm_ev[i].expect("trsm enqueued above")])?;
                    let bi = map.dim(i);
                    let ev =
                        hs.enqueue_xfer(s, ta.buf(i, k), 0..bi * bk * 8, DomainId::HOST, *card)?;
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
                    let mut waits: Vec<Event> = Vec::new();
                    waits.extend(lik_ev);
                    waits.extend(ljk_ev);
                    waits.extend(upd_ev[map.id(i, j)]);
                    if !waits.is_empty() {
                        hs.enqueue_cross_wait(s, &waits)?;
                    }
                    let ev = if i == j {
                        hs.enqueue_compute(
                            s,
                            "tile_syrk",
                            pack_dims(&[bi as u32, bk as u32]),
                            &[
                                Operand::f64s(ta.buf(i, k), 0, bi * bk, Access::In),
                                Operand::f64s(ta.buf(i, i), 0, bi * bi, Access::InOut),
                            ],
                            cost(KernelKind::Dsyrk, flops::syrk(bi, bk), bk),
                        )?
                    } else {
                        hs.enqueue_compute(
                            s,
                            "tile_gemm_nt",
                            pack_dims(&[bi as u32, bj as u32, bk as u32]),
                            &[
                                Operand::f64s(ta.buf(i, k), 0, bi * bk, Access::In),
                                Operand::f64s(ta.buf(j, k), 0, bj * bk, Access::In),
                                Operand::f64s(ta.buf(i, j), 0, bi * bj, Access::InOut),
                            ],
                            cost(KernelKind::Dgemm, flops::gemm(bi, bj, bk), bk),
                        )?
                    };
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

    let (max_err, checksum) = if let Some(a) = a_ref {
        let mut l = ta.read_matrix(hs)?;
        zero_upper(l.as_mut_slice(), cfg.n);
        let r = reconstruct_llt(l.as_slice(), cfg.n);
        (
            Some(max_abs_diff(r.as_slice(), a.as_slice())),
            Some(crate::remote::checksum_f64s(l.as_slice())),
        )
    } else {
        (None, None)
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
        o.task(
            "tile_potrf",
            pack_dims(&[bk as u32]),
            &[DataAccess::inout(d(k, k))],
            cost(KernelKind::Dpotrf, flops::potrf(bk), bk),
            card,
        )?;
        for i in k + 1..nt {
            let bi = map.dim(i);
            o.task(
                "tile_trsm",
                pack_dims(&[bi as u32, bk as u32]),
                &[DataAccess::input(d(k, k)), DataAccess::inout(d(i, k))],
                cost(KernelKind::Dtrsm, flops::trsm(bi, bk), bk),
                card,
            )?;
        }
        for i in k + 1..nt {
            let bi = map.dim(i);
            for j in k + 1..=i {
                let bj = map.dim(j);
                if i == j {
                    o.task(
                        "tile_syrk",
                        pack_dims(&[bi as u32, bk as u32]),
                        &[DataAccess::input(d(i, k)), DataAccess::inout(d(i, i))],
                        cost(KernelKind::Dsyrk, flops::syrk(bi, bk), bk),
                        card,
                    )?;
                } else {
                    o.task(
                        "tile_gemm_nt",
                        pack_dims(&[bi as u32, bj as u32, bk as u32]),
                        &[
                            DataAccess::input(d(i, k)),
                            DataAccess::input(d(j, k)),
                            DataAccess::inout(d(i, j)),
                        ],
                        cost(KernelKind::Dgemm, flops::gemm(bi, bj, bk), bk),
                        card,
                    )?;
                }
            }
        }
    }
    // Gather the factor back to the host inside the timed region (the
    // direct schedules pay their result transfers; so must OmpSs — its
    // automatic movement makes this a host-placed read task per tile).
    for i in 0..nt {
        for j in 0..=i {
            o.task(
                "tile_touch",
                Bytes::new(),
                &[DataAccess::input(d(i, j))],
                CostHint::trivial(),
                DomainId::HOST,
            )?;
        }
    }
    o.taskwait()?;
    let secs = o.now_secs() - t0;

    let (max_err, checksum) = if let Some(a) = a_ref {
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
        let mut l = map.unpack(&tiles);
        zero_upper(l.as_mut_slice(), n);
        let r = reconstruct_llt(l.as_slice(), n);
        (
            Some(max_abs_diff(r.as_slice(), a.as_slice())),
            Some(crate::remote::checksum_f64s(l.as_slice())),
        )
    } else {
        (None, None)
    };

    Ok(CholResult {
        secs,
        gflops: flops::gflops(flops::cholesky_total(n), secs),
        max_err,
        checksum,
    })
}

/// Reference factor for tests.
pub fn reference_factor(n: usize, seed: u64) -> Matrix {
    let a = random_spd(n, seed);
    let mut l = a.clone();
    hs_linalg::factor::dpotrf(l.as_mut_slice(), n).expect("SPD");
    zero_upper(l.as_mut_slice(), n);
    l
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

    #[test]
    fn sim_hetero_beats_offload() {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        let hetero = run(&mut hs, &CholConfig::new(12000, 750, CholVariant::Hetero))
            .expect("hetero")
            .gflops;
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        let offload = run(&mut hs, &CholConfig::new(12000, 750, CholVariant::Offload))
            .expect("offload")
            .gflops;
        assert!(
            hetero > offload * 1.2,
            "host+card ({hetero}) must clearly beat pure offload ({offload})"
        );
    }

    #[test]
    fn sim_hetero_beats_bulk_synchronous() {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
        let hetero = run(&mut hs, &CholConfig::new(12000, 750, CholVariant::Hetero))
            .expect("hetero")
            .gflops;
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
        let ao = run(
            &mut hs,
            &CholConfig::new(12000, 750, CholVariant::MklAoLike),
        )
        .expect("mkl-ao")
        .gflops;
        assert!(
            hetero > ao,
            "pipelined hetero ({hetero}) must beat bulk-synchronous AO ({ao})"
        );
    }
}
