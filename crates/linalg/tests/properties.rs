//! Property tests of the linear-algebra kernels: random shapes and random
//! (seeded) matrices against the naive references and algebraic identities.

use hs_linalg::blas3::{dgemm, dsyrk_ln, dtrsm_rlt};
use hs_linalg::dense::{max_abs_diff, random, random_spd, zero_upper, Matrix};
use hs_linalg::factor::{dgetrf, dpotrf};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn dgemm_matches_reference_on_random_shapes(
        m in 1usize..12, n in 1usize..12, k in 1usize..12, seed in 0u64..1000,
    ) {
        let a = random(m, k, seed);
        let b = random(k, n, seed + 1);
        let mut c = Matrix::zeros(m, n);
        dgemm(1.0, a.as_slice(), b.as_slice(), 0.0, c.as_mut_slice(), m, n, k);
        let expect = a.matmul_ref(&b);
        prop_assert!(max_abs_diff(c.as_slice(), expect.as_slice()) < 1e-12);
    }

    #[test]
    fn cholesky_reconstructs_random_spd(n in 1usize..24, seed in 0u64..1000) {
        let a = random_spd(n, seed);
        let mut l = a.clone();
        prop_assert!(dpotrf(l.as_mut_slice(), n).is_ok());
        zero_upper(l.as_mut_slice(), n);
        let r = hs_linalg::dense::reconstruct_llt(l.as_slice(), n);
        prop_assert!(max_abs_diff(r.as_slice(), a.as_slice()) < 1e-7 * (n as f64 + 1.0));
    }

    #[test]
    fn trsm_is_inverse_of_multiply(m in 1usize..10, n in 1usize..10, seed in 0u64..500) {
        let mut l = random_spd(n, seed);
        prop_assert!(dpotrf(l.as_mut_slice(), n).is_ok());
        zero_upper(l.as_mut_slice(), n);
        let b0 = random(m, n, seed + 4);
        let lt = Matrix::from_vec(n, n, l.as_slice().to_vec()).transpose();
        let mut x = b0.matmul_ref(&lt);
        dtrsm_rlt(l.as_slice(), x.as_mut_slice(), m, n);
        prop_assert!(max_abs_diff(x.as_slice(), b0.as_slice()) < 1e-8);
    }

    #[test]
    fn syrk_matches_explicit_product(n in 1usize..12, k in 1usize..12, seed in 0u64..500) {
        let a = random(n, k, seed);
        let c0 = random_spd(n, seed + 5);
        let mut c = c0.clone();
        dsyrk_ln(a.as_slice(), c.as_mut_slice(), n, k);
        let at = Matrix::from_vec(n, k, a.as_slice().to_vec()).transpose();
        let aat = a.matmul_ref(&at);
        for i in 0..n {
            for j in 0..=i {
                let expect = c0.at(i, j) - aat.at(i, j);
                prop_assert!((c.at(i, j) - expect).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn lu_reconstructs_with_pivoting(n in 1usize..16, seed in 0u64..500) {
        let a = random(n, n, seed.wrapping_mul(7) + 1);
        let mut lu = a.clone();
        let piv = match dgetrf(lu.as_mut_slice(), n) {
            Ok(p) => p,
            Err(_) => return Ok(()), // singular random draw: skip
        };
        let mut l = Matrix::zeros(n, n);
        let mut u = Matrix::zeros(n, n);
        for r in 0..n {
            l.set(r, r, 1.0);
            for c in 0..n {
                if c < r { l.set(r, c, lu.at(r, c)); } else { u.set(r, c, lu.at(r, c)); }
            }
        }
        let mut pa = a.clone();
        for (k, &p) in piv.iter().enumerate() {
            if p != k {
                for c in 0..n {
                    let (x, y) = (pa.at(k, c), pa.at(p, c));
                    pa.set(k, c, y);
                    pa.set(p, c, x);
                }
            }
        }
        let r = l.matmul_ref(&u);
        prop_assert!(max_abs_diff(r.as_slice(), pa.as_slice()) < 1e-9 * (n as f64 + 1.0));
    }
}
