//! Level-3 BLAS kernels on row-major tiles.
//!
//! These are the kernels the tiled algorithms enqueue as hStreams compute
//! tasks: `dgemm` (the workhorse), `dsyrk_ln` (symmetric rank-k update,
//! lower) and `dtrsm_rlt` (triangular solve, right/lower/transpose — the
//! Cholesky panel solve). Each checks its operand dimensions and runs the
//! packed cache-blocked path in [`crate::microkernel`], whatever the size.
//! [`crate::naive`] is the oracle for the differential tests in
//! `tests/blocked_vs_naive.rs`, and nothing else.

use crate::microkernel;

/// `C = alpha * A(m×k) * B(k×n) + beta * C(m×n)` — row-major, no transposes.
#[allow(clippy::too_many_arguments)] // the BLAS signature is the interface
pub fn dgemm(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k, "A dims");
    assert_eq!(b.len(), k * n, "B dims");
    assert_eq!(c.len(), m * n, "C dims");
    microkernel::dgemm(alpha, a, b, beta, c, m, n, k);
}

/// Symmetric rank-k update, lower: `C = C - A·Aᵀ` restricted to the lower
/// triangle of the n×n tile `C`, with `A` n×k row-major.
pub fn dsyrk_ln(a: &[f64], c: &mut [f64], n: usize, k: usize) {
    assert_eq!(a.len(), n * k, "A dims");
    assert_eq!(c.len(), n * n, "C dims");
    microkernel::dsyrk_ln(a, c, n, k);
}

/// Triangular solve, right/lower/transposed: `B = B · L⁻ᵀ` where `L` is the
/// lower-triangular n×n Cholesky factor of the diagonal tile and `B` is
/// m×n. This is the panel update of tiled Cholesky:
/// `A_ik ← A_ik · L_kk⁻ᵀ`.
pub fn dtrsm_rlt(l: &[f64], b: &mut [f64], m: usize, n: usize) {
    assert_eq!(l.len(), n * n, "L dims");
    assert_eq!(b.len(), m * n, "B dims");
    microkernel::dtrsm_rlt(l, b, m, n);
}

/// Triangular solve, left/lower/unit: `B = L⁻¹·B` with `L` m×m unit lower
/// (from [`crate::factor::lu_nopiv`]) and `B` m×n — the block-LU row-panel
/// update `A_kj ← L_kk⁻¹ A_kj`.
pub fn dtrsm_llu(l: &[f64], b: &mut [f64], m: usize, n: usize) {
    assert_eq!(l.len(), m * m, "L dims");
    assert_eq!(b.len(), m * n, "B dims");
    microkernel::dtrsm_llu(l, b, m, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{max_abs_diff, random, random_spd, Matrix};
    use crate::factor::dpotrf;

    #[test]
    fn dgemm_matches_reference() {
        let (m, n, k) = (7, 9, 5);
        let a = random(m, k, 1);
        let b = random(k, n, 2);
        let mut c = random(m, n, 3);
        let expect = {
            let mut e = c.clone();
            let ab = a.matmul_ref(&b);
            for i in 0..m * n {
                e.as_mut_slice()[i] = 2.0 * ab.as_slice()[i] + 0.5 * e.as_slice()[i];
            }
            e
        };
        dgemm(
            2.0,
            a.as_slice(),
            b.as_slice(),
            0.5,
            c.as_mut_slice(),
            m,
            n,
            k,
        );
        assert!(max_abs_diff(c.as_slice(), expect.as_slice()) < 1e-12);
    }

    #[test]
    fn dgemm_beta_zero_overwrites_garbage() {
        let (m, n, k) = (3, 4, 2);
        let a = random(m, k, 4);
        let b = random(k, n, 5);
        let mut c = vec![f64::NAN; m * n];
        // beta = 0 must not propagate NaN from the old C... a strict BLAS
        // would special-case; ours documents that beta=0.0 multiplies, so
        // pre-fill with zeros instead. This test pins the documented
        // behaviour: scale-by-zero of finite garbage.
        for x in c.iter_mut() {
            *x = 1e300;
        }
        dgemm(1.0, a.as_slice(), b.as_slice(), 0.0, &mut c, m, n, k);
        let expect = a.matmul_ref(&b);
        assert!(max_abs_diff(&c, expect.as_slice()) < 1e-10);
    }

    #[test]
    fn dsyrk_matches_gemm_on_lower_triangle() {
        let (n, k) = (6, 5);
        let a = random(n, k, 9);
        let c0 = random_spd(n, 10);
        let mut c = c0.clone();
        dsyrk_ln(a.as_slice(), c.as_mut_slice(), n, k);
        let full = {
            let mut f = c0.clone();
            let at = Matrix::from_vec(n, k, a.as_slice().to_vec()).transpose();
            dgemm(
                -1.0,
                a.as_slice(),
                at.as_slice(),
                1.0,
                f.as_mut_slice(),
                n,
                n,
                k,
            );
            f
        };
        for i in 0..n {
            for j in 0..=i {
                assert!(
                    (c.at(i, j) - full.at(i, j)).abs() < 1e-12,
                    "lower triangle updated"
                );
            }
            for j in i + 1..n {
                assert_eq!(c.at(i, j), c0.at(i, j), "upper triangle untouched");
            }
        }
    }

    #[test]
    fn dtrsm_inverts_multiplication() {
        // Build L from an SPD factor, compute B·Lᵀ, then solve back.
        let n = 8;
        let m = 5;
        let mut l = random_spd(n, 11);
        dpotrf(l.as_mut_slice(), n).expect("SPD factors");
        crate::dense::zero_upper(l.as_mut_slice(), n);
        let b0 = random(m, n, 12);
        // X = B0 · Lᵀ  (so that X · L⁻ᵀ == B0).
        let lt = Matrix::from_vec(n, n, l.as_slice().to_vec()).transpose();
        let mut x = b0.matmul_ref(&lt);
        dtrsm_rlt(l.as_slice(), x.as_mut_slice(), m, n);
        assert!(max_abs_diff(x.as_slice(), b0.as_slice()) < 1e-9);
    }

    #[test]
    fn dtrsm_llu_inverts_left_multiply() {
        // X = L * B0; solving must recover B0.
        let (m, n) = (6usize, 5usize);
        let mut lu = crate::dense::random_diag_dominant(m, 17);
        crate::factor::lu_nopiv(lu.as_mut_slice(), m).expect("factors");
        let mut l = Matrix::zeros(m, m);
        for r in 0..m {
            l.set(r, r, 1.0);
            for c in 0..r {
                l.set(r, c, lu.at(r, c));
            }
        }
        let b0 = random(m, n, 18);
        let mut x = l.matmul_ref(&b0);
        dtrsm_llu(lu.as_slice(), x.as_mut_slice(), m, n);
        assert!(max_abs_diff(x.as_slice(), b0.as_slice()) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "A dims")]
    fn dgemm_rejects_bad_dims() {
        let mut c = vec![0.0; 4];
        dgemm(1.0, &[0.0; 3], &[0.0; 4], 0.0, &mut c, 2, 2, 2);
    }
}
