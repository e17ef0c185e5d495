//! Compute-path microbench, seven groups of rows:
//!
//! * `peak_fma/<isa>` — a register-only multiply-add chain on one lane, as
//!   each instantiation of the register kernel the CPU runs issues it
//!   (`hs_linalg::microkernel::Isa`: SSE2 multiply + add, 256-bit FMA,
//!   512-bit FMA): the ceiling the kernel rows are a `frac_of_peak` of. The
//!   host's clock moves by a third from one second to the next, so every
//!   row that carries a `frac_of_peak` measures the dispatched
//!   instantiation's chain right before it runs and divides by that (and by
//!   its lanes); the `peak_fma` row of that instantiation is the median of
//!   those.
//! * `gemm/*` — naive reference DGEMM vs the packed cache-blocked
//!   microkernel, single-lane and expanded across persistent workgroups
//!   (the row-slab partitioning and pack-once B panel the sink kernels use).
//! * `reference/n512`, `reference/n1024` — `Matrix::matmul_ref`, what every
//!   app run is verified against, against `naive::dgemm`, the loop whose bits
//!   it must keep: the two alternated in one run, each row with the oracle's
//!   rate, the speedup and whether every bit is equal.
//! * `potrf/t64`, `potrf/t128` of config `bare` — `factor::dpotrf` against
//!   `naive::dpotrf`, alternated on a burst of restored tiles, no pipeline
//!   around either: at a 64-tile a sink pipeline's per-task cost is a third
//!   of the factorization's, and it would sit in both rates.
//! * `expand/t128`, `expand/t64` — one whole tile through the apps' own
//!   `tile_gemm_nn` (matmul's kernel, tile 128) and `tile_gemm_nt`
//!   (Cholesky's, tile 64) on a sink pipeline, at 1 lane and at 2. Their
//!   `pre_pr/shared_out_tile` rows were measured on the commit before PR 14
//!   with that PR's `expand_gflops` (one output tile shared by a burst), at
//!   14 and 30 lanes: what a stream of half the modelled host (or card) ran
//!   as, when a mask's core count was used verbatim as a thread count.
//! * `syrk/*`, `trsm_rlt/*`, `potrf/*` at tiles 64 and 128 — Cholesky's
//!   other three tile kernels (`tile_syrk`, `tile_trsm`, `tile_potrf`), the
//!   same way. Their `pre_pr` rows are this file's `expand_gflops` on the
//!   parent of the PR that took SYRK and the TRSMs off their `MC`-sized
//!   scalar diagonal blocks (PR 21), at the same lanes on the same host and
//!   day — with the `expand` rows of that parent beside them as the control
//!   (and `potrf/*`, which that PR left on its scalar loop) — and again on
//!   the parent of the PR that fused the register kernel and gave AVX-512F
//!   its own tile (PR 23).
//! * `workgroup/forkjoin` — one empty two-lane parallel region (µs).
//!
//! Every row carries `host_cores` and the revision measured. A row of the
//! current code that needs more lanes than the host has cores is omitted
//! and the reason printed: it would measure oversubscription, not
//! expansion. The 14- and 30-lane `pre_pr/*` rows are the labelled exception —
//! they record what that parent actually did on the recording host.
//!
//! Writes `BENCH_kernel_gemm.json` at the workspace root. `HS_BENCH_SMOKE=1`
//! is the minimal CI run (fewest samples, smallest GEMM size and
//! `reference/n1024` only);
//! `HS_BENCH_CHECK=1` gates, each within this one run so that the host's
//! speed cancels: `expand/t128` on 2 lanes at 0.8× its single-lane rate or
//! better (hosts with 2+ cores) — expansion may not cost more than it buys;
//! single-lane `syrk/t64` at 0.5× and `trsm_rlt/t64` at 0.3× the
//! single-lane `expand/t64` rate or better (the parent of PR 21: 0.31× and
//! 0.17×) — a triangular tile kernel may not fall back out of the packed
//! micro-kernel; every `reference/*` row bit-equal to the naive loop, and —
//! on an instantiation with 256-bit vectors or wider — `reference/n1024` at
//! 3× its rate or better and bare `potrf/t64` at 2× `naive::dpotrf` or
//! better: the verification product and the factorization may not fall back
//! toward the loops they replaced; and — in the smoke configuration, where
//! `Avx512f` is dispatched: the run the floor was recorded in — single-lane
//! `expand/t128` at [`PEAK_FLOOR`] of `peak_fma` or better: the register
//! kernel may not fall back to multiply + add on half-empty vectors (0.24 of
//! peak before PR 23).

use bytes::Bytes;
use criterion::{black_box, Criterion};
use hs_apps::kernels::{kernel_table, pack_dims};
use hs_bench::{f, git_rev, median_secs, median_secs_with, write_bench_json, JsonRecord, Table};
use hs_coi::{CoiRuntime, EngineId, Workgroup};
use hs_fabric::Pacer;
use hs_linalg::dense::{random, random_spd, zero_upper};
use hs_linalg::microkernel::{self, BSrc, Isa, PackedB};
use hs_linalg::{factor, flops, naive};

/// `pre_pr` rows: `(row, tile, lanes, Gflop/s)` of `expand_gflops` on an
/// earlier commit, full-length runs on the 2-core host that recorded the
/// artifact.
struct PrePr {
    rev: &'static str,
    /// The rows' `config`: `pre_pr`, with a suffix where the method differed.
    config: &'static str,
    host_cores: f64,
    rows: &'static [(&'static str, usize, usize, f64)],
}

/// The parent of PR 14: a mask's core count used as a thread count. Measured
/// with the `expand_gflops` of that PR, where the tasks of a burst shared one
/// output tile: a sixteenth of today's working set, so these rows stand
/// beside the `expand/*` rows of now as a record, not as a like-for-like pair
/// (`PRE_TRIANGULAR` has that pair), and their `config` says so.
const PRE_LANES: PrePr = PrePr {
    rev: "b284a91",
    config: "pre_pr/shared_out_tile",
    host_cores: 2.0,
    rows: &[
        ("expand", 128, 14, 11.27),
        ("expand", 128, 30, 6.33),
        ("expand", 64, 14, 4.64),
        ("expand", 64, 30, 1.29),
    ],
};

/// The parent of PR 21, with this file's `expand_gflops`: SYRK and the TRSMs
/// scalar below `MC`-sized tiles; the `expand` rows are the control (GEMM's
/// code did not change) and so are the `potrf` rows (scalar then as now: 1 %
/// of a Cholesky, kept in view). Medians of five runs alternated with the
/// change's. The host woke a parked thread in ~40 µs that day
/// (`workgroup/forkjoin`) and not the ~7 µs of the PR 14 recording, which
/// costs every row here a fixed per-task price on both sides: rows of one day
/// compare, rows across days do not.
const PRE_TRIANGULAR: PrePr = PrePr {
    rev: "975afa8",
    config: "pre_pr",
    host_cores: 2.0,
    rows: &[
        ("expand", 128, 1, 16.92),
        ("expand", 128, 2, 18.68),
        ("expand", 64, 1, 10.86),
        ("expand", 64, 2, 8.60),
        ("syrk", 64, 1, 3.33),
        ("syrk", 64, 2, 3.87),
        ("trsm_rlt", 64, 1, 1.82),
        ("trsm_rlt", 64, 2, 2.65),
        ("potrf", 64, 1, 1.51),
        ("potrf", 64, 2, 1.47),
        ("syrk", 128, 1, 5.02),
        ("syrk", 128, 2, 7.53),
        ("trsm_rlt", 128, 1, 3.43),
        ("trsm_rlt", 128, 2, 5.39),
        ("potrf", 128, 1, 2.38),
        ("potrf", 128, 2, 2.17),
    ],
};

/// The `HS_BENCH_CHECK` floor on single-lane `expand/t128` as a fraction of
/// the dispatched instantiation's `peak_fma`: 0.8× the lowest of ten
/// `HS_BENCH_SMOKE=1` runs of the code as committed on the recording host,
/// which dispatches `Avx512f` — 0.37–0.62, median 0.43, in an hour when
/// `workgroup/forkjoin` read ~38 µs (the row goes through a sink pipeline,
/// whose wake-ups a busy neighbour stretches and the chain does not see); the
/// parent read 0.24–0.27. Armed only where it was measured: in the smoke
/// configuration, and for `Avx512f` — no `Avx2Fma` or `Baseline` host has
/// recorded its fraction, so they print it, unasserted, until one has.
const PEAK_FLOOR: f64 = 0.29;

/// Register-only multiply-add chains, `acc = acc·x + y` on independent
/// accumulators (enough of them to cover the unit's latency on both ports),
/// one per instantiation of the register kernel. Each returns a value that
/// depends on every accumulator, so nothing is dead code.
#[cfg(target_arch = "x86_64")]
mod chain {
    use std::arch::x86_64::*;

    /// Twelve 128-bit accumulators, multiply then add: 48 flops per
    /// iteration.
    #[target_feature(enable = "sse2")]
    pub fn baseline(iters: usize) -> f64 {
        let (x, y) = (_mm_set1_pd(1.000_000_001), _mm_set1_pd(1e-9));
        let mut acc = [_mm_set1_pd(1.0); 12];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm_add_pd(_mm_mul_pd(*a, x), y);
            }
        }
        let sum = acc.into_iter().reduce(|s, a| _mm_add_pd(s, a));
        _mm_cvtsd_f64(sum.expect("twelve accumulators"))
    }

    /// Twelve 256-bit accumulators, fused: 96 flops per iteration.
    #[target_feature(enable = "avx2,fma")]
    pub fn avx2fma(iters: usize) -> f64 {
        let (x, y) = (_mm256_set1_pd(1.000_000_001), _mm256_set1_pd(1e-9));
        let mut acc = [_mm256_set1_pd(1.0); 12];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm256_fmadd_pd(*a, x, y);
            }
        }
        let sum = acc.into_iter().reduce(|s, a| _mm256_add_pd(s, a));
        _mm256_cvtsd_f64(sum.expect("twelve accumulators"))
    }

    /// Sixteen 512-bit accumulators, fused: 256 flops per iteration.
    #[target_feature(enable = "avx512f")]
    pub fn avx512f(iters: usize) -> f64 {
        let (x, y) = (_mm512_set1_pd(1.000_000_001), _mm512_set1_pd(1e-9));
        let mut acc = [_mm512_set1_pd(1.0); 16];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm512_fmadd_pd(*a, x, y);
            }
        }
        let sum = acc.into_iter().reduce(|s, a| _mm512_add_pd(s, a));
        _mm512_reduce_add_pd(sum.expect("sixteen accumulators"))
    }
}

/// Gflop/s of `isa`'s multiply-add chain on this thread: the median of a few
/// ~0.3 ms bursts, short enough to sit beside the row it normalises.
fn peak_fma_gflops(isa: Isa) -> f64 {
    assert!(isa.detected(), "this CPU does not run {isa:?}");
    const ITERS: usize = 100_000;
    #[cfg(target_arch = "x86_64")]
    let (flops, run): (f64, fn(usize) -> f64) = match isa {
        Isa::Baseline => (48.0, |iters| {
            // SAFETY: sse2 is part of the x86-64 baseline.
            unsafe { chain::baseline(iters) }
        }),
        Isa::Avx2Fma => (96.0, |iters| {
            // SAFETY: `detected` above checked avx2 and fma at run time.
            unsafe { chain::avx2fma(iters) }
        }),
        Isa::Avx512f => (256.0, |iters| {
            // SAFETY: `detected` above checked avx512f at run time.
            unsafe { chain::avx512f(iters) }
        }),
    };
    #[cfg(not(target_arch = "x86_64"))]
    let (flops, run): (f64, fn(usize) -> f64) = (24.0, |iters| {
        let mut acc = [1.0f64; 12];
        for _ in 0..iters {
            for a in &mut acc {
                *a = *a * 1.000_000_001 + 1e-9;
            }
        }
        acc.iter().sum()
    });
    let secs = median_secs((1, 9), || {
        black_box(run(black_box(ITERS)));
    });
    flops * ITERS as f64 / secs / 1e9
}

/// The parent of PR 23, with this file's `expand_gflops`: the register kernel
/// one auto-vectorised 4×8 body, multiply + add in 256-bit registers under
/// AVX2, expansion without a floor. Medians of seven full-length runs
/// alternated with the change's (the third such set, the one made with the
/// code as committed), in the hour `BENCH_kernel_gemm.json` was recorded
/// (`workgroup/forkjoin` ~41 µs on both sides, as for `PRE_TRIANGULAR`).
const PRE_FUSED: PrePr = PrePr {
    rev: "95b5845",
    config: "pre_pr",
    host_cores: 2.0,
    rows: &[
        ("expand", 128, 1, 17.5),
        ("expand", 128, 2, 18.6),
        ("expand", 64, 1, 9.38),
        ("expand", 64, 2, 8.10),
        ("syrk", 64, 1, 5.80),
        ("syrk", 64, 2, 4.59),
        ("trsm_rlt", 64, 1, 6.96),
        ("trsm_rlt", 64, 2, 4.87),
        ("potrf", 64, 1, 1.63),
        ("potrf", 64, 2, 1.49),
        ("syrk", 128, 1, 12.2),
        ("syrk", 128, 2, 12.5),
        ("trsm_rlt", 128, 1, 12.3),
        ("trsm_rlt", 128, 2, 13.8),
        ("potrf", 128, 1, 1.65),
        ("potrf", 128, 2, 1.77),
    ],
};

/// Deterministic fill so every variant multiplies identical matrices.
fn fill(seed: u64, v: &mut [f64]) {
    let mut s = seed;
    for x in v.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

/// Median seconds of `oracle` and of `kernel` on `state` over `rounds`
/// rounds that alternate them, each run after `setup`: the host's speed
/// moves from one second to the next, and two runs taken side by side share
/// it.
fn paired_secs<S>(
    rounds: usize,
    state: &mut S,
    setup: impl Fn(&mut S),
    oracle: impl Fn(&mut S),
    kernel: impl Fn(&mut S),
) -> (f64, f64) {
    let mut secs = [Vec::with_capacity(rounds), Vec::with_capacity(rounds)];
    for _ in 0..rounds {
        for (side, run) in [&oracle as &dyn Fn(&mut S), &kernel]
            .into_iter()
            .enumerate()
        {
            setup(state);
            let t = std::time::Instant::now();
            run(state);
            secs[side].push(t.elapsed().as_secs_f64());
        }
    }
    let [oracle, kernel] = secs.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    });
    (oracle, kernel)
}

/// Row-slab expansion across a workgroup — the sink kernels'
/// partitioning (see `hs_apps::kernels`), driven directly for the bench.
fn gemm_expanded(wg: &Workgroup, a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    let bp = PackedB::pack(BSrc::Normal { b, ldb: n }, n, n);
    let rows = microkernel::expansion_rows(n, wg.width(), flops::gemm(n, n, n));
    wg.par_chunks_mut(c, rows * n, |idx, slab| {
        let (row0, nrows) = (idx * rows, slab.len() / n);
        let a_rows = &a[row0 * n..(row0 + nrows) * n];
        microkernel::gemm_prepacked(1.0, a_rows, n, &bp, 0.0, slab, n, nrows);
    });
}

/// Tasks per timed sample of [`expand_gflops`]: a stream with work queued
/// pays the cross-thread wake-up once per burst, not once per task.
const BURST: usize = 16;

/// One tile kernel of the apps' table and a `t`-sized tile's worth of
/// operands for it.
struct TileRun {
    /// Row name without the tile (`expand`, `syrk`, ...).
    row: &'static str,
    kernel: &'static str,
    tile: usize,
    dims: Vec<u32>,
    inputs: Vec<Vec<f64>>,
    /// The in/out operand as every task finds it.
    out: Vec<f64>,
    flops: f64,
}

impl TileRun {
    /// `expand/t{t}`: the GEMM of matmul (`tile_gemm_nn`) or of Cholesky
    /// (`tile_gemm_nt`).
    fn gemm(kernel: &'static str, t: usize) -> TileRun {
        let tile = |seed: u64| {
            let mut v = vec![0.0; t * t];
            fill(0x51ab + seed, &mut v);
            v
        };
        TileRun {
            row: "expand",
            kernel,
            tile: t,
            dims: vec![t as u32, t as u32, t as u32, 1],
            inputs: vec![tile(0), tile(1)],
            out: tile(2),
            flops: flops::gemm(t, t, t),
        }
    }

    /// Cholesky's other three kernels on a `t`-sized tile.
    fn triangular(t: usize) -> [TileRun; 3] {
        let spd = random_spd(t, 4).into_vec();
        let mut l = spd.clone();
        factor::dpotrf(&mut l, t).expect("random_spd is positive definite");
        zero_upper(&mut l, t);
        let run = |row, kernel, dims: &[usize], inputs, out, flops| TileRun {
            row,
            kernel,
            tile: t,
            dims: dims.iter().map(|&d| d as u32).collect(),
            inputs,
            out,
            flops,
        };
        let a = random(t, t, 3).into_vec();
        let b = random(t, t, 5).into_vec();
        [
            run(
                "syrk",
                "tile_syrk",
                &[t, t],
                vec![a],
                b.clone(),
                flops::syrk(t, t),
            ),
            run(
                "trsm_rlt",
                "tile_trsm",
                &[t, t],
                vec![l],
                b,
                flops::trsm(t, t),
            ),
            run("potrf", "tile_potrf", &[t], vec![], spd, flops::potrf(t)),
        ]
    }

    fn name(&self) -> String {
        format!("{}/t{}", self.row, self.tile)
    }
}

/// Gflop/s of `run`'s kernel on a sink pipeline of `lanes` lanes: median
/// over the samples of a burst's first enqueue → last completion, per task.
/// Every task of a burst has an in/out tile of its own, restored before each
/// sample: the triangular kernels work in place, and a tile solved or
/// factored over and over drifts out of the range it is timed for.
fn expand_gflops(run: &TileRun, lanes: usize, n: (usize, usize)) -> f64 {
    let rt = CoiRuntime::new(0, Pacer::unpaced());
    for (kernel, f) in kernel_table() {
        rt.register(kernel, f);
    }
    let pipe = rt.pipeline_create(EngineId::HOST, lanes);
    let window = |data: &[f64]| {
        let win = rt.buffer_alloc(EngineId::HOST, data.len() * 8, false);
        write_window(&rt, &win, data);
        win
    };
    let inputs: Vec<_> = run.inputs.iter().map(|d| window(d)).collect();
    let outs: Vec<_> = (0..BURST).map(|_| window(&run.out)).collect();
    let bytes = run.out.len() * 8;
    let dims: Bytes = pack_dims(&run.dims);
    let secs = median_secs_with(
        n,
        || outs.iter().for_each(|w| write_window(&rt, w, &run.out)),
        || {
            let burst: Vec<_> = outs
                .iter()
                .map(|out| {
                    let mut bufs: Vec<_> =
                        inputs.iter().map(|w| (w.id(), 0..bytes, false)).collect();
                    bufs.push((out.id(), 0..bytes, true));
                    pipe.run(run.kernel, dims.clone(), bufs)
                })
                .collect();
            for done in burst {
                done.wait().expect("tile kernel");
            }
        },
    );
    run.flops * BURST as f64 / secs / 1e9
}

/// Overwrite a window's contents with `data`.
fn write_window(rt: &CoiRuntime, win: &hs_coi::PooledWindow, data: &[f64]) {
    let mem = rt.fabric().window(win.id()).expect("window exists");
    mem.lock_range(0..data.len() * 8, true)
        .expect("in bounds")
        .as_f64_mut_slice()
        .copy_from_slice(data);
}

fn main() {
    let smoke = std::env::var("HS_BENCH_SMOKE").is_ok();
    let check = std::env::var("HS_BENCH_CHECK").is_ok();
    let sizes: &[usize] = if smoke { &[256] } else { &[256, 512, 1024] };
    let samples = if smoke { 1 } else { 5 };
    let mut c = Criterion::default().sample_size(samples);
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rev = git_rev();
    let now = |r: JsonRecord, lanes: usize| {
        r.with_config("now")
            .with_git_rev(rev.clone())
            .with_metrics(vec![
                ("lanes".to_string(), lanes as f64),
                ("host_cores".to_string(), host_cores as f64),
            ])
    };
    let omit = |row: &str, lanes: usize| {
        println!(
            "omitted: {row} — {lanes} lanes on a {host_cores}-core host would measure \
             oversubscription, not expansion"
        );
    };
    let mut records = Vec::new();
    let isa = Isa::widest();
    println!(
        "register kernel: {} ({}x{} tile), of {:?} on this CPU",
        isa.name(),
        isa.tile().mr,
        isa.tile().nr,
        Isa::supported().map(Isa::name).collect::<Vec<_>>()
    );
    // Every reading of the dispatched instantiation's chain, one taken right
    // before each row that carries a `frac_of_peak`.
    let mut peaks = Vec::new();
    let mut peak_now = || {
        peaks.push(peak_fma_gflops(isa));
        *peaks.last().expect("just pushed")
    };
    let with_frac_of_peak = |mut r: JsonRecord, lanes: usize, peak: f64| {
        let frac = r.gflops / (lanes as f64 * peak);
        r.metrics.push(("frac_of_peak".to_string(), frac));
        r
    };

    // ---- gemm/*: the microkernel against the reference, and expanded.
    let mut pools = Vec::new();
    for w in [2usize, 4] {
        if w <= host_cores {
            pools.push(Workgroup::new(w, format!("bench-w{w}"), None));
        } else {
            omit(&format!("gemm/blocked+w{w}"), w);
        }
    }
    let mut header = vec!["n".to_string(), "naive".into(), "blocked".into()];
    header.extend(pools.iter().map(|wg| format!("blocked+w{}", wg.width())));
    let mut t = Table::new(header);
    let mut speedup = 0.0;
    for &n in sizes {
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n * n];
        fill(0x1234_5678 + n as u64, &mut a);
        fill(0x9abc_def0 + n as u64, &mut b);
        let mut cbuf = vec![0.0; n * n];
        let flops = 2.0 * (n as f64).powi(3);

        let mut gfs = Vec::new();
        c.bench_function(&format!("gemm/naive/{n}"), |bch| {
            bch.iter(|| naive::dgemm(1.0, &a, &b, 0.0, black_box(&mut cbuf), n, n, n));
        });
        gfs.push(("gemm/naive".to_string(), 1, c.last_mean_secs()));

        let peak = peak_now();
        c.bench_function(&format!("gemm/blocked/{n}"), |bch| {
            bch.iter(|| microkernel::dgemm(1.0, &a, &b, 0.0, black_box(&mut cbuf), n, n, n));
        });
        gfs.push(("gemm/blocked".to_string(), 1, c.last_mean_secs()));

        for wg in &pools {
            let w = wg.width();
            c.bench_function(&format!("gemm/blocked+w{w}/{n}"), |bch| {
                bch.iter(|| gemm_expanded(wg, &a, &b, black_box(&mut cbuf), n));
            });
            gfs.push((format!("gemm/blocked+w{w}"), w, c.last_mean_secs()));
        }

        let gfs: Vec<(String, usize, f64)> = gfs
            .into_iter()
            .map(|(name, lanes, secs)| (name, lanes, flops / secs.expect("timed") / 1e9))
            .collect();
        speedup = gfs[1].2 / gfs[0].2;
        let mut row = vec![n.to_string()];
        row.extend(gfs.iter().map(|g| f(g.2)));
        t.row(row);
        for (name, lanes, gf) in gfs {
            let r = now(JsonRecord::new(name.clone(), n, gf), lanes);
            records.push(if name.starts_with("gemm/blocked") {
                with_frac_of_peak(r, lanes, peak)
            } else {
                r
            });
        }
    }
    t.print("kernel_gemm — DGEMM Gflop/s (wall time, this machine)");
    println!(
        "\nblocked/naive at largest size: {speedup:.2}x  (acceptance floor: 3x single-thread at n=512)"
    );

    // ---- reference/*: the verification product against its oracle loop.
    let mut t = Table::new(vec!["n", "oracle", "matmul_ref", "speedup", "bits"]);
    let mut reference = Vec::new();
    for &n in if smoke { &[1024][..] } else { &[512, 1024][..] } {
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n * n];
        fill(0x7e57 + n as u64, &mut a);
        fill(0x0dd5 + n as u64, &mut b);
        let mut out = (vec![0.0; n * n], Vec::new());
        let (oracle, tiled) = paired_secs(
            if smoke { 3 } else { 5 },
            &mut out,
            |_| {},
            |(want, _)| naive::dgemm(1.0, &a, &b, 0.0, black_box(want), n, n, n),
            |(_, got)| *got = black_box(isa.matmul_ref(&a, &b, n, n, n)),
        );
        let (want, got) = out;
        let bit_equal = got
            .iter()
            .zip(&want)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        let flops = flops::gemm(n, n, n);
        let (oracle, tiled) = (flops / oracle / 1e9, flops / tiled / 1e9);
        let speedup = tiled / oracle;
        t.row(vec![
            n.to_string(),
            f(oracle),
            f(tiled),
            format!("{speedup:.2}x"),
            if bit_equal { "equal" } else { "DIFFER" }.to_string(),
        ]);
        let mut r = now(JsonRecord::new(format!("reference/n{n}"), n, tiled), 1);
        r.metrics.extend([
            ("oracle_gflops".to_string(), oracle),
            ("speedup".to_string(), speedup),
            ("bit_equal".to_string(), f64::from(u8::from(bit_equal))),
        ]);
        records.push(r);
        reference.push((n, speedup, bit_equal));
    }
    t.print(&format!(
        "kernel_gemm — Matrix::matmul_ref ({}) against naive::dgemm, Gflop/s",
        isa.name()
    ));

    // ---- potrf/* bare: the factorization against its oracle loop, no
    // pipeline around either.
    let mut t = Table::new(vec!["tile", "oracle", "dpotrf", "speedup"]);
    let mut potrf = Vec::new();
    for tile in [64usize, 128] {
        // A burst of tiles, each restored before every sample: the kernel
        // works in place.
        let spd = random_spd(tile, 4).into_vec();
        let mut burst = vec![spd.clone(); BURST];
        type Potrf = fn(&mut [f64], usize) -> Result<(), factor::FactorError>;
        let run = |f: Potrf| {
            move |burst: &mut Vec<Vec<f64>>| {
                for c in burst {
                    f(black_box(c), tile).expect("random_spd is positive definite");
                }
            }
        };
        let (oracle, kernel) = paired_secs(
            if smoke { 30 } else { 200 },
            &mut burst,
            |burst| burst.iter_mut().for_each(|c| c.copy_from_slice(&spd)),
            run(naive::dpotrf),
            run(factor::dpotrf),
        );
        let flops = flops::potrf(tile) * BURST as f64;
        let (oracle, kernel) = (flops / oracle / 1e9, flops / kernel / 1e9);
        let speedup = kernel / oracle;
        t.row(vec![
            tile.to_string(),
            f(oracle),
            f(kernel),
            format!("{speedup:.2}x"),
        ]);
        let mut r =
            now(JsonRecord::new(format!("potrf/t{tile}"), tile, kernel), 1).with_config("bare");
        r.metrics.extend([
            ("oracle_gflops".to_string(), oracle),
            ("speedup".to_string(), speedup),
        ]);
        records.push(r);
        potrf.push((tile, speedup));
    }
    t.print("kernel_gemm — dpotrf against naive::dpotrf, bare, Gflop/s");

    // ---- one tile through the apps' kernels on a sink pipeline.
    let n = if smoke { (5, 30) } else { (20, 200) };
    let mut t = Table::new(vec!["row", "kernel", "lanes", "Gflop/s", "rev"]);
    let mut runs = vec![
        TileRun::gemm("tile_gemm_nn", 128),
        TileRun::gemm("tile_gemm_nt", 64),
    ];
    runs.extend(TileRun::triangular(64));
    runs.extend(TileRun::triangular(128));
    // (row, lanes) -> Gflop/s of this run, and single-lane `expand/t128` over
    // the chain beside it, for the gates below.
    let mut rates = Vec::new();
    let mut t128_frac_of_peak = 0.0;
    for run in &runs {
        let row = run.name();
        for lanes in [1usize, 2] {
            if lanes > host_cores {
                omit(&row, lanes);
                continue;
            }
            // The chain on either side of the row: the clock may move while
            // the row runs.
            let before = peak_now();
            let gf = expand_gflops(run, lanes, n);
            let peak = (before + peak_now()) / 2.0;
            rates.push((row.clone(), lanes, gf));
            t.row(vec![
                row.clone(),
                run.kernel.to_string(),
                lanes.to_string(),
                f(gf),
                rev.clone(),
            ]);
            let r = now(JsonRecord::new(row.clone(), run.tile, gf), lanes);
            if run.row == "expand" {
                if (run.tile, lanes) == (128, 1) {
                    t128_frac_of_peak = gf / peak;
                }
                records.push(with_frac_of_peak(r, lanes, peak));
            } else {
                records.push(r);
            }
        }
        for pre in [&PRE_LANES, &PRE_TRIANGULAR, &PRE_FUSED] {
            let of_run = |r: &&(&str, usize, usize, f64)| (r.0, r.1) == (run.row, run.tile);
            for &(_, _, lanes, gf) in pre.rows.iter().filter(of_run) {
                t.row(vec![
                    row.clone(),
                    run.kernel.to_string(),
                    lanes.to_string(),
                    f(gf),
                    format!("{} ({})", pre.rev, pre.config),
                ]);
                records.push(
                    JsonRecord::new(row.clone(), run.tile, gf)
                        .with_config(pre.config)
                        .with_git_rev(pre.rev)
                        .with_metrics(vec![
                            ("lanes".to_string(), lanes as f64),
                            ("host_cores".to_string(), pre.host_cores),
                        ]),
                );
            }
        }
    }
    t.print("kernel_gemm — one tile through a sink pipeline, by lanes");

    // ---- peak_fma/*: the chains, one lane each.
    peaks.sort_by(f64::total_cmp);
    println!();
    for each in Isa::supported() {
        let gf = if each == isa {
            peaks[peaks.len() / 2]
        } else {
            peak_fma_gflops(each)
        };
        println!(
            "peak_fma/{}: {} Gflop/s on one lane{}",
            each.name(),
            f(gf),
            if each == isa {
                format!(
                    " (median of {} readings); expand/t128 on one lane is {:.2} of it",
                    peaks.len(),
                    t128_frac_of_peak
                )
            } else {
                String::new()
            }
        );
        let name = format!("peak_fma/{}", each.name());
        records.push(now(JsonRecord::new(name, 1, gf), 1));
    }

    // ---- workgroup/forkjoin: what opening a parallel region costs.
    if host_cores >= 2 {
        let wg = Workgroup::new(2, "bench-forkjoin", None);
        let us = 1e6
            * median_secs(n, || {
                wg.par_for(2, |i| {
                    black_box(i);
                })
            });
        println!("\nworkgroup/forkjoin: {us:.2} us per empty two-lane region");
        let mut r = now(JsonRecord::new("workgroup/forkjoin", 2, 0.0), 2);
        r.metrics.push(("us".to_string(), us));
        records.push(r);
    } else {
        omit("workgroup/forkjoin", 2);
    }

    if check {
        let rate = |row: &str, lanes| {
            rates
                .iter()
                .find(|r| r.0 == row && r.1 == lanes)
                .map(|r| r.2)
        };
        match (rate("expand/t128", 1), rate("expand/t128", 2)) {
            (Some(one), Some(two)) => {
                println!(
                    "floor gate: expand/t128 {two:.1} Gflop/s on 2 lanes \
                     (floor {:.1} = 0.8x the single-lane {one:.1})",
                    0.8 * one
                );
                assert!(
                    two >= 0.8 * one,
                    "expanding a 128-tile across 2 lanes costs more than it buys: \
                     {two:.1} < 0.8 x {one:.1} Gflop/s"
                );
            }
            _ => println!("floor gate: one core, nothing to expand across — not armed"),
        }
        if smoke && isa == Isa::Avx512f {
            println!(
                "floor gate: expand/t128 at {t128_frac_of_peak:.2} of peak_fma/{} on one lane \
                 (floor {PEAK_FLOOR})",
                isa.name()
            );
            assert!(
                t128_frac_of_peak >= PEAK_FLOOR,
                "the register kernel has fallen off its vector unit: a 128-tile GEMM runs at \
                 {t128_frac_of_peak:.2} of the {} chain's rate, floor {PEAK_FLOOR}",
                isa.name()
            );
        } else {
            println!(
                "floor gate: expand/t128 at {t128_frac_of_peak:.2} of peak_fma/{} on one lane — \
                 not armed (the floor was recorded in HS_BENCH_SMOKE runs of avx512f)",
                isa.name()
            );
        }
        // The speed floors hold where the vector unit is 256 bits or wider:
        // the baseline's SSE2 runs the reference product at 1.5-2x the loop
        // and `dpotrf` at ~2x, so there they are printed, not asserted. Bits
        // are asserted everywhere.
        let armed = isa.fused();
        let arming = if armed {
            ""
        } else {
            " — not armed on the baseline"
        };
        for &(n, speedup, bit_equal) in &reference {
            // The floor is on the benchmark's size; at 512 the kernel reads
            // 3.5-3.9x, too close to it to gate.
            let floored = n == 1024;
            println!(
                "floor gate: reference/n{n} Matrix::matmul_ref at {speedup:.2}x naive::dgemm \
                 ({}), bits {}",
                if floored {
                    format!("floor 3x{arming}")
                } else {
                    "reported".into()
                },
                if bit_equal { "equal" } else { "DIFFER" }
            );
            assert!(
                bit_equal,
                "Matrix::matmul_ref at n={n} differs in a bit from the naive loop it must equal"
            );
            assert!(
                !(armed && floored) || speedup >= 3.0,
                "Matrix::matmul_ref at n={n} has fallen back toward the naive loop: \
                 {speedup:.2}x < 3x"
            );
        }
        let (_, speedup) = *potrf.iter().find(|p| p.0 == 64).expect("t64 always runs");
        println!("floor gate: potrf/t64 bare at {speedup:.2}x naive::dpotrf (floor 2x{arming})");
        assert!(
            !armed || speedup >= 2.0,
            "dpotrf at a 64-tile has fallen back toward the left-looking loop: {speedup:.2}x < 2x"
        );
        let gemm = rate("expand/t64", 1).expect("single-lane rows always run");
        for (row, floor) in [("syrk/t64", 0.5), ("trsm_rlt/t64", 0.3)] {
            let gf = rate(row, 1).expect("single-lane rows always run");
            println!(
                "floor gate: {row} {gf:.1} Gflop/s (floor {:.1} = {floor}x expand/t64's {gemm:.1})",
                floor * gemm
            );
            assert!(
                gf >= floor * gemm,
                "{row} has fallen out of the packed micro-kernel: \
                 {gf:.1} < {floor} x {gemm:.1} Gflop/s"
            );
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel_gemm.json");
    write_bench_json(path, &records);
}
