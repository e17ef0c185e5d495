//! Lane invariance of the expanding kernels: the bits a tile kernel writes
//! do not depend on how many OS threads its stream expands across. This is
//! what keeps remote runs bit-identical to in-process ones when the host
//! gives a card stream one lane and the worker gives it two (PR 8's
//! contract, `tests/remote_transport.rs`), and what lets the lanes rule
//! follow the machine without touching a checksum.
//!
//! Every expanding kernel runs on pipelines built with the explicit-lane
//! constructor (`CoiRuntime::pipeline_create`), over tiles smaller than one
//! register tile and ragged against the
//! register tile of the instantiation the kernels dispatch to
//! (`Isa::widest().tile()`): one either side of `NR` (= `TB`), a strip either
//! side of GEMM's `MC` = 64, one past a strip, a multiple of `MR` that is no
//! multiple of `NR`, and the benchmark's sizes. A lane is woken only for
//! ~16 µs of work or more (`microkernel::expansion_rows`), so under a
//! vectorising instantiation the tiles of 80 rows and fewer run as one slab
//! whatever the lanes; slabs are cut from 100 up — GEMM's at 100, every
//! kernel's at the benchmark's 128 (GEMM over up to five lanes), at 137 (one
//! past a strip of either width) and at 175 (ragged against both, every lane
//! count distinct). What a cut does at the smaller sizes is pinned kernel by
//! kernel in `hs-linalg`'s slab-composition tests, per instantiation.

use hs_apps::kernels::{kernel_table, pack_dims};
use hs_coi::{CoiRuntime, EngineId, Pipeline};
use hs_fabric::Pacer;
use hs_linalg::dense::{max_abs_diff, random, random_diag_dominant, random_spd, zero_upper};
use hs_linalg::microkernel::{Isa, Tile, MC};
use hs_linalg::{factor, naive};
use proptest::prelude::*;
use std::sync::Arc;

const LANES: [usize; 5] = [1, 2, 3, 5, 8];

/// Tile sizes, from the register tile the kernels run on this host.
fn tiles() -> Vec<usize> {
    let Tile { mr, nr } = Isa::widest().tile();
    let mut t = vec![6, 24, nr - 1, nr + 1, MC - mr, MC, MC + mr, MC + nr];
    t.extend([100, 128, 137, 175]);
    t
}

/// Run kernel `name` with `dims` as its args over `operands` (the last one
/// is the output, the others inputs) and return the output.
fn run(
    rt: &Arc<CoiRuntime>,
    pipe: &Pipeline,
    name: &str,
    dims: &[u32],
    operands: &[&[f64]],
) -> Vec<f64> {
    let wins: Vec<_> = operands
        .iter()
        .map(|data| {
            let win = rt.buffer_alloc(EngineId::HOST, data.len() * 8, false);
            let mem = rt.fabric().window(win.id()).expect("window exists");
            mem.lock_range(0..data.len() * 8, true)
                .expect("in bounds")
                .as_f64_mut_slice()
                .copy_from_slice(data);
            win
        })
        .collect();
    let out = wins.len() - 1;
    let bufs = wins
        .iter()
        .enumerate()
        .map(|(i, w)| (w.id(), 0..operands[i].len() * 8, i == out))
        .collect();
    pipe.run(name, pack_dims(dims), bufs)
        .wait()
        .unwrap_or_else(|e| panic!("{name} {dims:?} on {} lanes: {e}", pipe.lanes()));
    let mem = rt.fabric().window(wins[out].id()).expect("window exists");
    let got = mem
        .lock_range(0..operands[out].len() * 8, false)
        .expect("in bounds")
        .as_f64_slice()
        .to_vec();
    for win in wins {
        rt.buffer_free(EngineId::HOST, win);
    }
    got
}

/// One kernel invocation and what the sequential reference makes of it.
struct Case {
    name: &'static str,
    dims: Vec<u32>,
    inputs: Vec<Vec<f64>>,
    out0: Vec<f64>,
    oracle: Vec<f64>,
    tol: f64,
}

/// Every expanding kernel on a `t`-sized tile (`m` rows where the kernel
/// takes a row count of its own), inputs drawn from `seed`.
fn cases(t: usize, m: usize, seed: u64) -> Vec<Case> {
    let d = |v: &[usize]| v.iter().map(|&x| x as u32).collect::<Vec<u32>>();
    let a = random(m, t, seed).into_vec();
    let b = random(t, t, seed + 1).into_vec();
    let c0 = random(m, t, seed + 2).into_vec();
    let mut out = Vec::new();

    for (name, alpha, beta01) in [
        ("tile_gemm_nn", 1.0, Some(0u32)),
        ("tile_gemm_nn", 1.0, Some(1)),
        ("tile_gemm_sub", -1.0, None),
    ] {
        let mut oracle = c0.clone();
        let beta = if beta01 == Some(0) { 0.0 } else { 1.0 };
        naive::dgemm(alpha, &a, &b, beta, &mut oracle, m, t, t);
        let mut dims = d(&[m, t, t]);
        dims.extend(beta01);
        out.push(Case {
            name,
            dims,
            inputs: vec![a.clone(), b.clone()],
            out0: c0.clone(),
            oracle,
            tol: 1e-10,
        });
    }

    let mut oracle = c0.clone();
    naive::dgemm_nt(-1.0, &a, &b, 1.0, &mut oracle, m, t, t);
    out.push(Case {
        name: "tile_gemm_nt",
        dims: d(&[m, t, t]),
        inputs: vec![a.clone(), b.clone()],
        out0: c0.clone(),
        oracle,
        tol: 1e-10,
    });

    let spd = random_spd(t, seed + 3).into_vec();
    let mut oracle = spd.clone();
    naive::dsyrk_ln(&b, &mut oracle, t, t);
    out.push(Case {
        name: "tile_syrk",
        dims: d(&[t, t]),
        inputs: vec![b.clone()],
        out0: spd.clone(),
        oracle,
        tol: 1e-10,
    });

    let mut l = spd;
    factor::dpotrf(&mut l, t).expect("random_spd is positive definite");
    zero_upper(&mut l, t);
    let mut oracle = c0.clone();
    naive::dtrsm_rlt(&l, &mut oracle, m, t);
    out.push(Case {
        name: "tile_trsm",
        dims: d(&[m, t]),
        inputs: vec![l],
        out0: c0.clone(),
        oracle,
        tol: 1e-9,
    });

    let mut lu = random_diag_dominant(t, seed + 4).into_vec();
    factor::lu_nopiv(&mut lu, t).expect("diagonally dominant");
    let mut oracle = c0.clone();
    naive::dtrsm_runn(&lu, &mut oracle, m, t);
    out.push(Case {
        name: "tile_trsm_runn",
        dims: d(&[m, t]),
        inputs: vec![lu],
        out0: c0,
        oracle,
        tol: 1e-9,
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn expanding_kernels_write_the_same_bits_at_every_lane_count(seed in 0u64..100_000) {
        let rt = CoiRuntime::new(0, Pacer::unpaced());
        for (name, f) in kernel_table() {
            rt.register(name, f);
        }
        let pipes: Vec<Pipeline> = LANES
            .iter()
            .map(|&lanes| rt.pipeline_create(EngineId::HOST, lanes))
            .collect();
        for t in tiles() {
            // A ragged row count now and then: edge tiles of a matrix whose
            // size the tile does not divide.
            let m = t - (seed as usize + t) % 3;
            for case in cases(t, m, seed) {
                let mut operands: Vec<&[f64]> = case.inputs.iter().map(Vec::as_slice).collect();
                operands.push(&case.out0);
                let one = run(&rt, &pipes[0], case.name, &case.dims, &operands);
                let scale = case.oracle.iter().fold(1.0f64, |s, x| s.max(x.abs()));
                prop_assert!(
                    max_abs_diff(&one, &case.oracle) <= case.tol * scale,
                    "{} {:?}: off the naive oracle by {:e}",
                    case.name, case.dims, max_abs_diff(&one, &case.oracle)
                );
                for pipe in &pipes[1..] {
                    let got = run(&rt, pipe, case.name, &case.dims, &operands);
                    prop_assert!(
                        got.iter().zip(&one).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{} {:?}: {} lanes differ from 1 lane",
                        case.name, case.dims, pipe.lanes()
                    );
                }
            }
        }
        // Expansion did engage: the wide pipelines woke their pools.
        for pipe in &pipes[1..] {
            prop_assert_eq!(pipe.workgroup().spawned(), pipe.lanes() - 1);
        }
    }
}
