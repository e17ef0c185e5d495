//! Compute-path microbench, three groups of rows:
//!
//! * `gemm/*` — naive reference DGEMM vs the packed cache-blocked
//!   microkernel, single-lane and expanded across persistent workgroups
//!   (the row-slab partitioning and pack-once B panel the sink kernels use).
//! * `expand/t128`, `expand/t64` — one whole tile through the apps' own
//!   `tile_gemm_nn` (matmul's kernel, tile 128) and `tile_gemm_nt`
//!   (Cholesky's, tile 64) on a sink pipeline, at 1 lane and at 2. The
//!   `pre_pr` rows were measured with this file's `expand_gflops` on the
//!   parent commit at 14 and 30 lanes: what a stream of half the modelled
//!   host (or card) ran as, when a mask's core count was used verbatim as a
//!   thread count.
//! * `workgroup/forkjoin` — one empty two-lane parallel region (µs).
//!
//! Every row carries `host_cores` and the revision measured. A row of the
//! current code that needs more lanes than the host has cores is omitted
//! and the reason printed: it would measure oversubscription, not
//! expansion. The `pre_pr` rows are the labelled exception — they record
//! what the parent actually did on the recording host.
//!
//! Writes `BENCH_kernel_gemm.json` at the workspace root. `HS_BENCH_SMOKE=1`
//! is the minimal CI run (fewest samples, smallest GEMM size only);
//! `HS_BENCH_CHECK=1` gates `expand/t128` on 2 lanes at 0.8× its single-lane
//! rate or better (hosts with 2+ cores) — expansion may not cost more than
//! it buys.

use bytes::Bytes;
use criterion::{black_box, Criterion};
use hs_apps::kernels::{kernel_table, pack_dims};
use hs_bench::{f, git_rev, median_secs, write_bench_json, JsonRecord, Table};
use hs_coi::{CoiRuntime, EngineId, Workgroup};
use hs_fabric::Pacer;
use hs_linalg::microkernel::{self, BSrc, PackedB};
use hs_linalg::naive;

/// This file's `expand/*` rows on the parent commit (`(tile, lanes,
/// Gflop/s)`), full-length run on the 2-core host that recorded the
/// artifact.
const PRE_PR_REV: &str = "b284a91";
const PRE_PR_CORES: f64 = 2.0;
const PRE_PR: &[(usize, usize, f64)] = &[
    (128, 14, 11.27),
    (128, 30, 6.33),
    (64, 14, 4.64),
    (64, 30, 1.29),
];

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

/// Row-slab expansion across a resident workgroup — the sink kernels'
/// partitioning (see `hs_apps::kernels`), driven directly for the bench.
fn gemm_expanded(wg: &Workgroup, a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    let bp = PackedB::pack(BSrc::Normal { b, ldb: n }, n, n);
    let rows = microkernel::expansion_rows(n, wg.width());
    wg.par_chunks_mut(c, rows * n, |idx, slab| {
        let (row0, nrows) = (idx * rows, slab.len() / n);
        let a_rows = &a[row0 * n..(row0 + nrows) * n];
        microkernel::gemm_prepacked(1.0, a_rows, n, &bp, 0.0, slab, n, nrows);
    });
}

/// Tasks per timed sample of [`expand_gflops`]: a stream with work queued
/// pays the cross-thread wake-up once per burst, not once per task.
const BURST: usize = 16;

/// Gflop/s of `t`-sized tiles through the apps' kernel `name` on a sink
/// pipeline of `lanes` lanes: median over the samples of a burst's first
/// enqueue → last completion, per task.
fn expand_gflops(name: &str, t: usize, lanes: usize, n: (usize, usize)) -> f64 {
    let rt = CoiRuntime::new(0, Pacer::unpaced());
    for (kernel, f) in kernel_table() {
        rt.register(kernel, f);
    }
    let pipe = rt.pipeline_create(EngineId::HOST, lanes);
    let bytes = t * t * 8;
    let wins: Vec<_> = (0..3u64)
        .map(|i| {
            let win = rt.buffer_alloc(EngineId::HOST, bytes, false);
            let mem = rt.fabric().window(win.id()).expect("window exists");
            let mut g = mem.lock_range(0..bytes, true).expect("in bounds");
            fill(0x51ab + i, g.as_f64_mut_slice());
            win
        })
        .collect();
    let dims: Bytes = pack_dims(&[t as u32, t as u32, t as u32, 1]);
    let secs = median_secs(n, || {
        let burst: Vec<_> = (0..BURST)
            .map(|_| {
                let bufs = wins
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (w.id(), 0..bytes, i == 2))
                    .collect();
                pipe.run(name, dims.clone(), bufs)
            })
            .collect();
        for done in burst {
            done.wait().expect("tile kernel");
        }
    });
    2.0 * (t as f64).powi(3) * BURST as f64 / secs / 1e9
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
            records.push(now(JsonRecord::new(name, n, gf), lanes));
        }
    }
    t.print("kernel_gemm — DGEMM Gflop/s (wall time, this machine)");
    println!(
        "\nblocked/naive at largest size: {speedup:.2}x  (acceptance floor: 3x single-thread at n=512)"
    );

    // ---- expand/*: one tile through the apps' kernels on a sink pipeline.
    let n = if smoke { (5, 30) } else { (20, 200) };
    let mut t = Table::new(vec!["row", "kernel", "lanes", "Gflop/s", "rev"]);
    let mut t128 = Vec::new();
    for (tile, kernel) in [(128usize, "tile_gemm_nn"), (64, "tile_gemm_nt")] {
        let row = format!("expand/t{tile}");
        for lanes in [1usize, 2] {
            if lanes > host_cores {
                omit(&row, lanes);
                continue;
            }
            let gf = expand_gflops(kernel, tile, lanes, n);
            if tile == 128 {
                t128.push((lanes, gf));
            }
            t.row(vec![
                row.clone(),
                kernel.to_string(),
                lanes.to_string(),
                f(gf),
                rev.clone(),
            ]);
            records.push(now(JsonRecord::new(row.clone(), tile, gf), lanes));
        }
        for &(_, lanes, gf) in PRE_PR.iter().filter(|r| r.0 == tile) {
            t.row(vec![
                row.clone(),
                kernel.to_string(),
                lanes.to_string(),
                f(gf),
                format!("{PRE_PR_REV} (pre_pr)"),
            ]);
            records.push(
                JsonRecord::new(row.clone(), tile, gf)
                    .with_config("pre_pr")
                    .with_git_rev(PRE_PR_REV)
                    .with_metrics(vec![
                        ("lanes".to_string(), lanes as f64),
                        ("host_cores".to_string(), PRE_PR_CORES),
                    ]),
            );
        }
    }
    t.print("kernel_gemm — one tile through a sink pipeline, by lanes");

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
        let rate = |lanes| t128.iter().find(|r| r.0 == lanes).map(|r| r.1);
        match (rate(1), rate(2)) {
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
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel_gemm.json");
    write_bench_json(path, &records);
}
