//! The two kernels that must equal their oracle loops bit for bit, not just
//! within rounding, on every instantiation of the register kernel the CPU
//! runs (`Isa::supported()`):
//!
//! * `Matrix::matmul_ref` — what every app run is verified against — is
//!   `naive::dgemm(1.0, a, b, 0.0, zeros, ..)`: per element +0.0, then
//!   `a[i][k]·b[k][j]` added for k ascending, a multiply then an add, a zero
//!   of A skipped. So an inf or a NaN of B behind a zero of A stays out.
//! * `factor::dpotrf`, right-looking, is `naive::dpotrf`, the left-looking
//!   loop it replaced: the same lower triangle, the same failing pivot, the
//!   strict upper triangle neither read nor written.
//!
//! IEEE 754 leaves open which payload a sum of two NaNs carries, so the NaN
//! these inputs hold is the x86 default NaN, the one an inf − inf makes:
//! every NaN a sum can meet then has the same bits.

use hs_linalg::dense::{random_spd, Matrix};
use hs_linalg::factor::{self, FactorError};
use hs_linalg::microkernel::Isa;
use hs_linalg::naive;

/// splitmix64 mapped to [-1, 1).
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

fn random(seed: u64, len: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    fill(seed, &mut v);
    v
}

const NAN: f64 = f64::from_bits(0xfff8_0000_0000_0000);

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (at, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {at}, {x} vs {y}");
    }
}

/// `isa.matmul_ref(a, b)` against the oracle, bit for bit.
fn check_matmul(a: &[f64], b: &[f64], (m, n, k): (usize, usize, usize), what: &str) {
    let mut want = vec![0.0; m * n];
    naive::dgemm(1.0, a, b, 0.0, &mut want, m, n, k);
    for isa in Isa::supported() {
        let got = isa.matmul_ref(a, b, m, n, k);
        assert_bits(&got, &want, &format!("{what} m={m} n={n} k={k} on {isa:?}"));
    }
}

/// Around every register tile's edges (8 and 16 ± 1), with a 130×67×129
/// that is ragged against all of them.
const DIMS: [usize; 9] = [0, 1, 7, 8, 9, 15, 16, 17, 33];

#[test]
fn matmul_ref_is_the_naive_loop_at_every_shape() {
    let mut shapes: Vec<_> = DIMS
        .iter()
        .flat_map(|&m| DIMS.iter().flat_map(move |&n| DIMS.map(|k| (m, n, k))))
        .collect();
    shapes.push((130, 67, 129));
    for (m, n, k) in shapes {
        let seed = (m * 10_000 + n * 100 + k) as u64;
        let a = random(seed, m * k);
        let b = random(seed + 1, k * n);
        check_matmul(&a, &b, (m, n, k), "dense");
    }
}

#[test]
fn matmul_ref_is_the_naive_loop_past_a_panel_and_a_slab() {
    // Past the packed panel's width (`NC`) and depth (`KC`): a block of C is
    // stored and reloaded between slabs.
    let (m, n, k) = (19, 300, 600);
    let a = random(7, m * k);
    let b = random(8, k * n);
    check_matmul(&a, &b, (m, n, k), "past NC and KC");
}

#[test]
fn matmul_ref_keeps_the_zero_skip() {
    for (m, n, k) in [(9, 17, 33), (40, 33, 70), (130, 67, 129), (33, 20, 300)] {
        // Lower and upper triangular A: whole steps of a block are zero, and
        // the block's first zero splits it.
        let mut lower = random(11, m * k);
        let mut upper = lower.clone();
        for i in 0..m {
            for p in 0..k {
                if p > i {
                    lower[i * k + p] = 0.0;
                } else if p < i {
                    upper[i * k + p] = 0.0;
                }
            }
        }
        let b = random(12, k * n);
        check_matmul(&lower, &b, (m, n, k), "lower-triangular A");
        check_matmul(&upper, &b, (m, n, k), "upper-triangular A");

        // Zero rows, zero columns, a sprinkling of zeros of both signs, and
        // behind the zeros of A a B holding inf and NaN: the zero skip is
        // what keeps them out of a row (0·inf is NaN), wherever the other
        // rows of its block are not zero.
        let mut a = random(13, m * k);
        let mut b = random(14, k * n);
        for (at, x) in a.iter_mut().enumerate() {
            let (i, p) = (at / k, at % k);
            if i % 5 == 0 || p % 3 == 0 || at % 7 == 3 {
                *x = if at % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        for (at, x) in b.iter_mut().enumerate() {
            let (p, j) = (at / n, at % n);
            if p % 3 == 0 || (p % 3 == 1 && j % 4 == 0) {
                *x = [f64::INFINITY, f64::NEG_INFINITY, NAN][j % 3];
            }
        }
        check_matmul(&a, &b, (m, n, k), "zeros of A in front of inf and NaN");

        // Where A is not zero an inf or a NaN goes through: inf·x, inf − inf,
        // NaN + x, on both sides.
        let mut a = random(15, m * k);
        let mut b = random(16, k * n);
        for (at, x) in a.iter_mut().enumerate() {
            match at % 97 {
                5 => *x = f64::INFINITY,
                6 => *x = NAN,
                7 => *x = 0.0,
                _ => {}
            }
        }
        for (at, x) in b.iter_mut().enumerate() {
            match at % 89 {
                1 => *x = f64::NEG_INFINITY,
                2 => *x = NAN,
                _ => {}
            }
        }
        check_matmul(&a, &b, (m, n, k), "inf and NaN on both sides");
    }
}

#[test]
fn matrix_matmul_ref_is_the_naive_loop() {
    let a = Matrix::from_vec(33, 17, random(21, 33 * 17));
    let b = Matrix::from_vec(17, 9, random(22, 17 * 9));
    let mut want = vec![0.0; 33 * 9];
    naive::dgemm(1.0, a.as_slice(), b.as_slice(), 0.0, &mut want, 33, 9, 17);
    let c = a.matmul_ref(&b);
    assert_eq!((c.rows, c.cols), (33, 9));
    assert_bits(c.as_slice(), &want, "Matrix::matmul_ref");
}

/// An SPD matrix whose strict upper triangle is NaN: a kernel that read it
/// would spread it, one that wrote it would change its bits.
fn spd_with_nan_upper(n: usize, seed: u64) -> Vec<f64> {
    let mut a = random_spd(n, seed).into_vec();
    for i in 0..n {
        for j in i + 1..n {
            a[i * n + j] = NAN;
        }
    }
    a
}

#[test]
fn dpotrf_is_the_left_looking_loop_at_every_size() {
    for n in (1..=70).chain([128]) {
        let a = spd_with_nan_upper(n, 300 + n as u64);
        let mut want = a.clone();
        naive::dpotrf(&mut want, n).expect("random_spd is positive definite");
        for isa in Isa::supported() {
            let mut got = a.clone();
            isa.dpotrf(&mut got, n)
                .expect("random_spd is positive definite");
            assert_bits(&got, &want, &format!("dpotrf n={n} on {isa:?}"));
        }
        let mut got = a.clone();
        factor::dpotrf(&mut got, n).expect("random_spd is positive definite");
        assert_bits(&got, &want, &format!("factor::dpotrf n={n}"));
    }
}

#[test]
fn dpotrf_fails_at_the_left_looking_loops_pivot() {
    for n in [1usize, 2, 9, 33, 70] {
        for (bad, value) in [
            (0, -1.0),
            (n / 2, 0.0),
            (n - 1, -1e-3),
            (n / 3, NAN),
            (n - 1, f64::INFINITY),
        ] {
            let mut a = spd_with_nan_upper(n, 400 + n as u64);
            a[bad * n + bad] = value;
            let mut oracle = a.clone();
            let want = naive::dpotrf(&mut oracle, n);
            assert!(
                matches!(want, Err(FactorError::NotPositiveDefinite(_))),
                "n={n}: a[{bad}][{bad}] = {value} must fail"
            );
            for isa in Isa::supported() {
                let mut got = a.clone();
                assert_eq!(
                    isa.dpotrf(&mut got, n),
                    want,
                    "n={n} a[{bad}][{bad}] on {isa:?}"
                );
            }
        }
        // Indefinite without a bad diagonal element: [[1, 2], [2, 1]] in the
        // trailing corner.
        if n >= 2 {
            let mut a = spd_with_nan_upper(n, 500 + n as u64);
            let (p, q) = (n - 2, n - 1);
            let big = a[p * n + p].max(a[q * n + q]);
            a[q * n + p] = 2.0 * big;
            let mut oracle = a.clone();
            let want = naive::dpotrf(&mut oracle, n);
            assert_eq!(want, Err(FactorError::NotPositiveDefinite(q)), "n={n}");
            for isa in Isa::supported() {
                let mut got = a.clone();
                assert_eq!(isa.dpotrf(&mut got, n), want, "n={n} on {isa:?}");
            }
        }
    }
}
