//! Heterogeneous tiled matrix multiplication — the Fig. 4 distribution.
//!
//! Matrices A, B, C are divided into square tiles. **A is broadcast**, one
//! tile at a time, to the host (via host-as-target streams, where transfers
//! are optimized away) and to every card. **B and C are partitioned into
//! column panels**; each panel is assigned to one computational domain which
//! is responsible for its C updates. Panel updates are independent — no
//! card↔card communication. Tiling + multiple streams hide transfer latency:
//! a C-panel computation starts as soon as its first tiles arrive, instead
//! of waiting for whole matrices (the paper's contrast with traditional
//! offload).
//!
//! With `load_balance`, panels are assigned proportionally to each device's
//! DGEMM rate; otherwise evenly — reproducing the 1.58× gap the paper
//! reports for IVB + 2 KNC (Fig. 6).

use crate::kernels::{self, register_all};
use crate::tilebuf::TileBufs;
use hs_linalg::dense::{max_abs_diff, random};
use hs_linalg::{flops, TileMap};
use hs_machine::KernelKind;
use hstreams_core::{DomainId, Event, HStreams, HsResult, StreamId};

/// Configuration of one hetero matmul run.
#[derive(Clone, Debug)]
pub struct MatmulConfig {
    /// Matrix dimension (n×n).
    pub n: usize,
    /// Tile side.
    pub tile: usize,
    /// Streams per card (the paper's reference codes use 4).
    pub streams_per_card: usize,
    /// Streams on the host when it participates.
    pub streams_host: usize,
    /// Host-as-target streams join the compute (hetero) or the host only
    /// orchestrates (pure offload).
    pub host_participates: bool,
    /// Assign panels proportionally to device DGEMM rates.
    pub load_balance: bool,
    /// Real mode: check the product against the reference.
    pub verify: bool,
    /// Tuned per-stream sink mask width (cores per stream); `None` keeps
    /// the even partition of each domain's cores.
    pub mask_width: Option<u32>,
}

impl MatmulConfig {
    pub fn new(n: usize, tile: usize) -> MatmulConfig {
        MatmulConfig {
            n,
            tile,
            streams_per_card: 4,
            streams_host: 4,
            host_participates: true,
            load_balance: true,
            verify: false,
            mask_width: None,
        }
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct MatmulResult {
    pub secs: f64,
    pub gflops: f64,
    /// Real-mode verification error (None when not verified).
    pub max_err: Option<f64>,
    /// FNV-1a over the result matrix's f64 bits (None when not verified).
    /// Equal checksums across transports ⇒ bit-identical results.
    pub checksum: Option<u64>,
}

/// Assign `nt` panels to devices by weight (largest remainder).
pub fn assign_panels(nt: usize, weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty(), "at least one device");
    let total: f64 = weights.iter().sum();
    let ideal: Vec<f64> = weights.iter().map(|w| w / total * nt as f64).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let mut rem: Vec<(usize, f64)> = ideal
        .iter()
        .enumerate()
        .map(|(i, x)| (i, x - x.floor()))
        .collect();
    rem.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut left = nt - counts.iter().sum::<usize>();
    for (i, _) in rem {
        if left == 0 {
            break;
        }
        counts[i] += 1;
        left -= 1;
    }
    // Owner per panel, round-robin interleaved so early panels spread out.
    let mut owner = vec![0usize; nt];
    let mut cursor: Vec<usize> = counts.clone();
    let mut dev = 0;
    for o in owner.iter_mut() {
        while cursor[dev] == 0 {
            dev = (dev + 1) % counts.len();
        }
        *o = dev;
        cursor[dev] -= 1;
        dev = (dev + 1) % counts.len();
    }
    owner
}

/// Run the Fig. 4 schedule on an initialized runtime (any executor).
#[allow(clippy::needless_range_loop)] // tile indices address several arrays
pub fn run(hs: &mut HStreams, cfg: &MatmulConfig) -> HsResult<MatmulResult> {
    register_all(hs);
    let map = TileMap::new(cfg.n, cfg.tile);
    let nt = map.nt;
    let cm = hs.platform().cost_model();

    // Participating devices: cards always; host only in hetero mode (and
    // always when there are no cards at all).
    let cards: Vec<DomainId> = hs.domains().iter().skip(1).map(|d| d.id).collect();
    let mut devices: Vec<DomainId> = Vec::new();
    if cfg.host_participates || cards.is_empty() {
        devices.push(DomainId::HOST);
    }
    devices.extend(cards.iter().copied());

    // Streams per device.
    let real = hs.mode() != hstreams_core::ExecMode::Sim;
    let mut dev_streams: Vec<Vec<StreamId>> = Vec::new();
    for d in &devices {
        let n_streams = if d.is_host() {
            cfg.streams_host
        } else {
            cfg.streams_per_card
        };
        let streams = crate::domain_streams(hs, *d, n_streams, cfg.mask_width)?;
        dev_streams.push(streams);
    }

    // Panel ownership.
    let weights: Vec<f64> = devices
        .iter()
        .map(|d| {
            if cfg.load_balance {
                let info = &hs.domains()[d.0];
                cm.kernel_gflops(info.device, info.cores, KernelKind::Dgemm, cfg.tile as u64)
            } else {
                1.0
            }
        })
        .collect();
    let owner = assign_panels(nt, &weights);

    // Tile buffers.
    let ta = TileBufs::create(hs, map, "A");
    let tb = TileBufs::create(hs, map, "B");
    let tc = TileBufs::create(hs, map, "C");

    // Real-mode data + instantiation.
    let a_ref = ta.seed(hs, real && cfg.verify, || random(cfg.n, cfg.n, 101))?;
    let b_ref = tb.seed(hs, real && cfg.verify, || random(cfg.n, cfg.n, 202))?;
    // A broadcast: instantiate every A tile on every card. B/C panels only
    // on their owner.
    for card in &cards {
        ta.instantiate_all(hs, *card)?;
    }
    for j in 0..nt {
        let dev = devices[owner[j]];
        if !dev.is_host() {
            for i in 0..nt {
                hs.buffer_instantiate(tb.buf(i, j), dev)?;
                hs.buffer_instantiate(tc.buf(i, j), dev)?;
            }
        }
    }

    let t0 = hs.now_secs();

    // Broadcast A tile-by-tile to each card, spread across the card's
    // streams (host copies alias away). Per-tile events let any stream of
    // the card synchronize on exactly the tile it needs.
    let mut a_ev: Vec<Vec<Event>> = Vec::new(); // [device][tile id]
    for (di, dev) in devices.iter().enumerate() {
        let streams = &dev_streams[di];
        let mut evs = Vec::with_capacity(nt * nt);
        for i in 0..nt {
            for k in 0..nt {
                let s = streams[(i * nt + k) % streams.len()];
                evs.push(hs.enqueue_xfer(
                    s,
                    ta.buf(i, k),
                    0..ta.bytes(i, k),
                    DomainId::HOST,
                    *dev,
                )?);
            }
        }
        a_ev.push(evs);
    }

    // Per panel: B tiles in, then the (i, j, k) GEMM chains. The unit of
    // stream assignment is a C *tile row within the panel*, not the whole
    // panel — tiles of one panel spread across the owning device's streams,
    // so per-stream load stays balanced even when a device owns few panels
    // (the tuner freedom §II describes: streams are cheap, map work onto
    // them at tile granularity).
    // Distinct round-robin counters for transfers and for compute rows:
    // sharing one counter would skew row placement whenever the transfer
    // count per panel is not a multiple of the stream count.
    let mut dev_xfer_rr = vec![0usize; devices.len()];
    let mut dev_row_rr = vec![0usize; devices.len()];
    for j in 0..nt {
        let di = owner[j];
        let dev = devices[di];
        let streams = &dev_streams[di];
        let nj = map.dim(j);
        // B column tiles to the owner (cards only; host copies alias).
        let mut b_ev: Vec<Option<Event>> = vec![None; nt];
        for k in 0..nt {
            let s = streams[dev_xfer_rr[di] % streams.len()];
            dev_xfer_rr[di] += 1;
            let ev = hs.enqueue_xfer(s, tb.buf(k, j), 0..tb.bytes(k, j), DomainId::HOST, dev)?;
            if !dev.is_host() {
                b_ev[k] = Some(ev);
            }
        }
        for i in 0..nt {
            let mi = map.dim(i);
            let s = streams[dev_row_rr[di] % streams.len()];
            dev_row_rr[di] += 1;
            for k in 0..nt {
                let kk = map.dim(k);
                // A arrives via the card's stream 0, B via whichever stream
                // carried it; cross-stream consumers synchronize explicitly
                // ("if the predecessor is in the same domain but a different
                // stream, a synchronization action is needed"), here as
                // edges of the GEMM alone.
                let after = if dev.is_host() {
                    [None; 2]
                } else {
                    [Some(a_ev[di][i * nt + k]), b_ev[k]]
                };
                let (a, b, c) = (ta.buf(i, k), tb.buf(k, j), tc.buf(i, j));
                kernels::gemm_nn(a, b, c, [mi, nj, kk], cfg.tile, k == 0).enqueue(hs, s, &after)?;
            }
            hs.enqueue_xfer(s, tc.buf(i, j), 0..tc.bytes(i, j), dev, DomainId::HOST)?;
        }
    }

    hs.thread_synchronize()?;
    let secs = hs.now_secs() - t0;

    let (max_err, checksum) = match (a_ref, b_ref) {
        (Some(a), Some(b)) => {
            let c = tc.read_matrix(hs)?;
            let expect = a.matmul_ref(&b);
            (
                Some(max_abs_diff(c.as_slice(), expect.as_slice())),
                Some(crate::remote::checksum_f64s(c.as_slice())),
            )
        }
        _ => (None, None),
    };

    Ok(MatmulResult {
        secs,
        gflops: flops::gflops(flops::matmul_total(cfg.n), secs),
        max_err,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::{Device, PlatformCfg};
    use hstreams_core::ExecMode;

    fn real_cfg(n: usize, tile: usize) -> MatmulConfig {
        let mut c = MatmulConfig::new(n, tile);
        c.streams_per_card = 2;
        c.streams_host = 2;
        c.verify = true;
        c
    }

    #[test]
    fn hetero_matmul_is_numerically_correct() {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Threads);
        let r = run(&mut hs, &real_cfg(24, 6)).expect("runs");
        assert!(r.max_err.expect("verified") < 1e-10, "err {:?}", r.max_err);
    }

    #[test]
    fn host_only_matmul_is_numerically_correct() {
        let mut hs = HStreams::init(PlatformCfg::native(Device::Hsw), ExecMode::Threads);
        let r = run(&mut hs, &real_cfg(20, 5)).expect("runs");
        assert!(r.max_err.expect("verified") < 1e-10);
    }

    #[test]
    fn offload_only_matmul_is_numerically_correct() {
        let mut hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Threads);
        let mut cfg = real_cfg(18, 6);
        cfg.host_participates = false;
        let r = run(&mut hs, &cfg).expect("runs");
        assert!(r.max_err.expect("verified") < 1e-10);
    }

    #[test]
    fn uneven_tiles_still_correct() {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
        let r = run(&mut hs, &real_cfg(22, 5)).expect("runs");
        assert!(r.max_err.expect("verified") < 1e-10);
    }

    #[test]
    fn panel_assignment_is_proportional() {
        let owner = assign_panels(10, &[1.0, 2.0, 2.0]);
        let count = |d: usize| owner.iter().filter(|o| **o == d).count();
        assert_eq!(count(0), 2);
        assert_eq!(count(1), 4);
        assert_eq!(count(2), 4);
    }

    #[test]
    fn panel_assignment_covers_all() {
        for nt in [1usize, 3, 7, 16] {
            let owner = assign_panels(nt, &[1.0, 3.0]);
            assert_eq!(owner.len(), nt);
        }
    }

    #[test]
    fn sim_two_cards_beat_one() {
        let mut cfg = MatmulConfig::new(8000, 500);
        cfg.verify = false;
        let mut hs1 = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        let g1 = run(&mut hs1, &cfg).expect("1 card").gflops;
        let mut hs2 = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
        let g2 = run(&mut hs2, &cfg).expect("2 cards").gflops;
        assert!(g2 > g1 * 1.25, "2 cards {g2} vs 1 card {g1}");
    }

    #[test]
    fn sim_load_balancing_helps_weak_host() {
        // The paper's IVB + 2 KNC case: 1.58x from load balancing.
        let mut cfg = MatmulConfig::new(10000, 500);
        cfg.load_balance = false;
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Ivb, 2), ExecMode::Sim);
        let naive = run(&mut hs, &cfg).expect("naive").gflops;
        cfg.load_balance = true;
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Ivb, 2), ExecMode::Sim);
        let balanced = run(&mut hs, &cfg).expect("balanced").gflops;
        let ratio = balanced / naive;
        assert!(
            ratio > 1.3,
            "balancing must pay off substantially on IVB: {balanced} vs {naive} ({ratio:.2}x)"
        );
    }
}
