//! Differential tests: the packed cache-blocked microkernel path versus the
//! retained naive reference loops (`hs_linalg::naive`), across shapes chosen
//! to stress every edge case of the blocking scheme — dimensions below one
//! register tile, exact multiples of MR/NR/MC/KC, and off-by-one neighbours
//! of the block sizes — and the full alpha/beta special-case grid. The
//! triangular kernels (SYRK, the TRSMs, POTRF) run at *every* size from 1 to
//! 130: their diagonal is where a blocking boundary bites, and it moves with
//! n.
//!
//! Every instantiation of the register kernel the CPU runs
//! (`Isa::supported()`) is run explicitly, with the ragged sizes taken from
//! *its* register tile, against `naive` and against the others: GEMM and
//! SYRK elements do not depend on the tile, so the fused instantiations must
//! agree on them bit for bit (the baseline rounds twice per update and is
//! held to the tolerance; the solves split their triangle by `TB` and are
//! per-instantiation). A host without AVX-512F, or without FMA, runs the
//! same suite through what it has.
//!
//! Since `blas3` lost its small-operand fork this is also the suite that
//! stands behind every tiny tile an application can enqueue: the packed
//! path is the only path, at every size.

use hs_linalg::dense::{max_abs_diff, random_spd, reconstruct_llt, zero_upper};
use hs_linalg::factor::dpotrf;
use hs_linalg::microkernel::{BSrc, Isa, Tile, KC, MC, NC};
use hs_linalg::{microkernel, naive};

/// Deterministic pseudo-random fill (no rand dep): splitmix64 mapped to
/// [-1, 1).
fn fill(seed: u64, v: &mut [f64]) {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    for x in v.iter_mut() {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        *x = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
}

/// Relative max-norm error between two buffers: NaN if either holds a NaN,
/// so a NaN result never passes `<= TOL`.
fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    let scale = want.iter().fold(1.0f64, |m, x| m.max(x.abs()));
    max_abs_diff(got, want) / scale
}

const TOL: f64 = 1e-10;

/// Sizes that straddle `tile`'s register block — every size up to one past
/// `NR` (= `TB`), which takes in `MR` ± 1 on the way, then around two strips
/// — and the cache blocks (`MC`; a `KC` is in the corners).
fn dims(tile: Tile) -> Vec<usize> {
    let Tile { mr, nr } = tile;
    assert!(mr < nr, "the ranges below assume it");
    let mut d: Vec<usize> = (1..=nr + 1).collect();
    d.extend([2 * nr - 1, 2 * nr, 2 * nr + 1]);
    d.extend([MC - 1, MC, MC + 1, 96, 127, 129]);
    d
}

/// Adversarial (m, n, k) corners: degenerate, one register tile, one past it
/// with k one past KC, one past MC everywhere, and the two long-and-thin
/// extremes.
fn corners(tile: Tile) -> [(usize, usize, usize); 6] {
    [
        (1, 1, 1),
        (tile.mr, tile.nr, 1),
        (tile.mr + 1, tile.nr + 1, KC + 1),
        (MC + 1, MC + 1, MC + 1),
        (3, 129, 127),
        (129, 3, 31),
    ]
}

/// A reduced (m, n, k) grid over `dims`: full cross-product is too slow, so
/// pair each m with rotated n/k picks plus the adversarial corners.
fn shapes(tile: Tile) -> Vec<(usize, usize, usize)> {
    let d = dims(tile);
    let mut out = Vec::new();
    for (i, &m) in d.iter().enumerate() {
        let n = d[(i * 7 + 3) % d.len()];
        let k = d[(i * 11 + 5) % d.len()];
        out.push((m, n, k));
    }
    out.extend(corners(tile));
    out
}

/// The shapes of every supported instantiation's tile, once each: what a
/// cross-instantiation comparison runs, so that each instantiation meets
/// the others' awkward sizes as well as its own.
fn all_shapes(of: fn(Tile) -> Vec<(usize, usize, usize)>) -> Vec<(usize, usize, usize)> {
    let mut out: Vec<_> = Isa::supported().flat_map(|isa| of(isa.tile())).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `run(isa)` for every instantiation the CPU has: each result within `TOL`
/// of `want`, and — where `tile_free` says an element's arithmetic does not
/// depend on the register tile — the fused ones equal bit for bit.
fn check_every_isa(what: &str, want: &[f64], tile_free: bool, run: impl Fn(Isa) -> Vec<f64>) {
    let mut fused: Option<(Isa, Vec<f64>)> = None;
    for isa in Isa::supported() {
        let got = run(isa);
        let e = rel_err(&got, want);
        assert!(e <= TOL, "{what} on {isa:?}: rel err {e:.3e}");
        if !(tile_free && isa.fused()) {
            continue;
        }
        match &fused {
            None => fused = Some((isa, got)),
            Some((first, bits)) => assert!(
                got.iter()
                    .zip(bits)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{what}: {isa:?} and {first:?} both fuse, and differ"
            ),
        }
    }
}

const COEFFS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];

#[test]
fn gemm_blocked_matches_naive() {
    for (m, n, k) in all_shapes(shapes) {
        let mut a = vec![0.0; m * k];
        let mut b = vec![0.0; k * n];
        let mut c0 = vec![0.0; m * n];
        fill(1 + (m * 1000 + n * 10 + k) as u64, &mut a);
        fill(2 + (m * 1000 + n * 10 + k) as u64, &mut b);
        fill(3 + (m * 1000 + n * 10 + k) as u64, &mut c0);
        for alpha in COEFFS {
            for beta in COEFFS {
                let mut want = c0.clone();
                naive::dgemm(alpha, &a, &b, beta, &mut want, m, n, k);
                let what = format!("gemm m={m} n={n} k={k} alpha={alpha} beta={beta}");
                check_every_isa(&what, &want, true, |isa| {
                    let mut got = c0.clone();
                    let b = BSrc::Normal { b: &b, ldb: n };
                    isa.gemm_strided(alpha, &a, k, b, beta, &mut got, n, m, n, k);
                    got
                });
            }
        }
    }
}

#[test]
fn gemm_nt_blocked_matches_naive() {
    for (m, n, k) in all_shapes(shapes) {
        let mut a = vec![0.0; m * k];
        let mut bt = vec![0.0; n * k];
        let mut c0 = vec![0.0; m * n];
        fill(11 + (m * 1000 + n * 10 + k) as u64, &mut a);
        fill(12 + (m * 1000 + n * 10 + k) as u64, &mut bt);
        fill(13 + (m * 1000 + n * 10 + k) as u64, &mut c0);
        for alpha in COEFFS {
            for beta in COEFFS {
                let mut want = c0.clone();
                naive::dgemm_nt(alpha, &a, &bt, beta, &mut want, m, n, k);
                let what = format!("gemm_nt m={m} n={n} k={k} alpha={alpha} beta={beta}");
                check_every_isa(&what, &want, true, |isa| {
                    let mut got = c0.clone();
                    let b = BSrc::Trans { bt: &bt, ldbt: k };
                    isa.gemm_strided(alpha, &a, k, b, beta, &mut got, n, m, n, k);
                    got
                });
            }
        }
    }
}

/// Every size a triangular kernel can meet a blocking boundary at: below
/// one micro-tile, ragged against MR, NR and the solves' diagonal block,
/// through GEMM's MC = 64 and out past two of them. Nothing in these kernels
/// switches algorithm with size, so no n may be skipped on that account.
const DENSE: std::ops::RangeInclusive<usize> = 1..=130;

/// A triangular kernel's sweep as (order of the triangle, the operand's other
/// dimension, k): every order in `DENSE` with the rotated picks `shapes`
/// pairs its m with, then `corners` either way round (the kernels disagree
/// on which dimension the triangle has), then one ragged shape past NC and
/// KC — SYRK's panel and k-slab loops, which no 130 reaches.
fn triangular_shapes(tile: Tile) -> Vec<(usize, usize, usize)> {
    let d = dims(tile);
    let mut out: Vec<_> = DENSE
        .map(|n| (n, d[(n * 7 + 3) % d.len()], d[(n * 11 + 5) % d.len()]))
        .collect();
    for (m, n, k) in corners(tile) {
        out.extend([(m, n, k), (n, m, k)]);
    }
    out.push((NC + 13, 21, KC + 5));
    out
}

/// A well-conditioned triangular operand: random entries, dominant diagonal.
fn triangular(seed: u64, n: usize) -> Vec<f64> {
    let mut t = vec![0.0; n * n];
    fill(seed, &mut t);
    for i in 0..n {
        t[i * n + i] = 2.0 + i as f64 * 0.01;
    }
    t
}

#[test]
fn syrk_blocked_matches_naive() {
    for (n, _, k) in all_shapes(triangular_shapes) {
        let mut a = vec![0.0; n * k];
        let mut c0 = vec![0.0; n * n];
        fill(21 + (n * 1000 + k) as u64, &mut a);
        fill(22 + (n * 1000 + k) as u64, &mut c0);
        let mut want = c0.clone();
        naive::dsyrk_ln(&a, &mut want, n, k);
        check_every_isa(&format!("syrk n={n} k={k}"), &want, true, |isa| {
            let mut got = c0.clone();
            isa.dsyrk_ln_rows(&a, &mut got, 0, n, n, k);
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(
                        got[i * n + j].to_bits(),
                        c0[i * n + j].to_bits(),
                        "syrk n={n} k={k} on {isa:?}: ({i},{j}) is above the diagonal"
                    );
                }
            }
            got
        });
    }
}

#[test]
fn syrk_rows_slab_matches_whole() {
    // The expansion entry point: computing the update in row slabs must
    // agree with the one-shot lower-triangular update.
    // The last two cross KC (a second k-slab's subtraction) and NC (a second
    // panel of the right operand, offset into the slab).
    let beyond = (NC + 13, KC + 5);
    for (n, k) in [
        (13usize, 7usize),
        (64, 33),
        (97, 65),
        (129, 16),
        (5, 257),
        beyond,
    ] {
        let mut a = vec![0.0; n * k];
        let mut c0 = vec![0.0; n * n];
        fill(31 + (n * 1000 + k) as u64, &mut a);
        fill(32 + (n * 1000 + k) as u64, &mut c0);
        let mut want = c0.clone();
        naive::dsyrk_ln(&a, &mut want, n, k);
        for isa in Isa::supported() {
            let mr = isa.tile().mr;
            for rows in [1usize, mr, mr + 1, MC, 100] {
                let mut got = c0.clone();
                let mut row0 = 0;
                while row0 < n {
                    let nrows = rows.min(n - row0);
                    let slab = &mut got[row0 * n..(row0 + nrows) * n];
                    isa.dsyrk_ln_rows(&a, slab, row0, nrows, n, k);
                    row0 += nrows;
                }
                let e = rel_err(&got, &want);
                assert!(
                    e <= TOL,
                    "syrk_rows n={n} k={k} rows={rows} on {isa:?}: rel err {e:.3e}"
                );
            }
        }
    }
}

#[test]
fn trsm_rlt_blocked_matches_naive() {
    for (n, m, _) in all_shapes(triangular_shapes) {
        let l = triangular(41 + (m * 1000 + n) as u64, n);
        let mut b0 = vec![0.0; m * n];
        fill(42 + (m * 1000 + n) as u64, &mut b0);
        let mut want = b0.clone();
        naive::dtrsm_rlt(&l, &mut want, m, n);
        check_every_isa(&format!("trsm_rlt m={m} n={n}"), &want, false, |isa| {
            let mut got = b0.clone();
            isa.dtrsm_rlt(&l, &mut got, m, n);
            got
        });
    }
}

#[test]
fn trsm_llu_blocked_matches_naive() {
    for (m, n, _) in all_shapes(triangular_shapes) {
        let mut lu = vec![0.0; m * m];
        fill(51 + (m * 1000 + n) as u64, &mut lu);
        let mut b0 = vec![0.0; m * n];
        fill(52 + (m * 1000 + n) as u64, &mut b0);
        let mut want = b0.clone();
        naive::dtrsm_llu(&lu, &mut want, m, n);
        check_every_isa(&format!("trsm_llu m={m} n={n}"), &want, false, |isa| {
            let mut got = b0.clone();
            isa.dtrsm_llu(&lu, &mut got, m, n);
            got
        });
    }
}

#[test]
fn trsm_runn_blocked_matches_naive() {
    for (n, m, _) in all_shapes(triangular_shapes) {
        let u = triangular(61 + (m * 1000 + n) as u64, n);
        let mut b0 = vec![0.0; m * n];
        fill(62 + (m * 1000 + n) as u64, &mut b0);
        let mut want = b0.clone();
        naive::dtrsm_runn(&u, &mut want, m, n);
        check_every_isa(&format!("trsm_runn m={m} n={n}"), &want, false, |isa| {
            let mut got = b0.clone();
            isa.dtrsm_runn(&u, &mut got, m, n);
            got
        });
    }
}

#[test]
fn right_side_trsm_row_slabs_compose_to_the_whole_solve_bit_for_bit() {
    // What task expansion does to B: a row's solve involves no other row,
    // so slabs that straddle micro-tiles any which way change no bit.
    type Trsm = fn(Isa, &[f64], &mut [f64], usize, usize);
    let kernels: [(&str, Trsm); 2] = [("trsm_rlt", Isa::dtrsm_rlt), ("trsm_runn", Isa::dtrsm_runn)];
    for isa in Isa::supported() {
        let Tile { mr, nr } = isa.tile();
        for (name, trsm) in kernels {
            for (m, n) in [(137usize, 64usize), (137, 37), (90, 130)] {
                let t = triangular(71 + n as u64, n);
                let mut b0 = vec![0.0; m * n];
                fill(72 + (m * 1000 + n) as u64, &mut b0);
                let mut whole = b0.clone();
                trsm(isa, &t, &mut whole, m, n);
                for pieces in [vec![nr + 3, MC - mr, mr + 2, m], vec![mr; m / mr + 1]] {
                    let mut b = b0.clone();
                    let mut row0 = 0;
                    for nrows in pieces {
                        let nrows = nrows.min(m - row0);
                        trsm(isa, &t, &mut b[row0 * n..(row0 + nrows) * n], nrows, n);
                        row0 += nrows;
                    }
                    assert_eq!(row0, m);
                    assert!(
                        b.iter()
                            .zip(&whole)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{name} m={m} n={n} on {isa:?}: slabs differ from the whole solve"
                    );
                }
            }
        }
    }
}

#[test]
fn potrf_reconstructs_at_every_size() {
    for n in DENSE {
        let a = random_spd(n, 80 + n as u64);
        let mut l = a.as_slice().to_vec();
        dpotrf(&mut l, n).expect("random_spd is positive definite");
        zero_upper(&mut l, n);
        let e = rel_err(reconstruct_llt(&l, n).as_slice(), a.as_slice());
        assert!(e <= TOL, "potrf n={n}: L·Lᵀ off A by {e:.3e}");
    }
}

#[test]
fn zero_dims_are_noops() {
    let a: Vec<f64> = vec![];
    let b: Vec<f64> = vec![];
    let mut c: Vec<f64> = vec![];
    microkernel::dgemm(1.0, &a, &b, 1.0, &mut c, 0, 0, 0);
    let mut c1 = vec![5.0; 6];
    // k == 0: C := beta * C.
    microkernel::dgemm(1.0, &a, &b, 0.5, &mut c1, 2, 3, 0);
    assert_eq!(c1, vec![2.5; 6]);
}
