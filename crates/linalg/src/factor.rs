//! Factorization kernels: Cholesky (DPOTRF), LU with partial pivoting
//! (DGETRF) and LU without pivoting (the block-LU diagonal kernel).

/// Errors from factorization kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorError {
    /// Leading minor `k` is not positive definite (DPOTRF).
    NotPositiveDefinite(usize),
    /// Exactly singular pivot at column `k` (DGETRF / block LU).
    SingularPivot(usize),
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotPositiveDefinite(k) => {
                write!(f, "matrix not positive definite at pivot {k}")
            }
            FactorError::SingularPivot(k) => write!(f, "singular pivot at column {k}"),
        }
    }
}
impl std::error::Error for FactorError {}

/// In-place lower Cholesky of a row-major n×n matrix. On success the lower
/// triangle holds `L` (the strict upper triangle is left untouched —
/// callers that need a clean `L` zero it, as LAPACK callers do). On failure
/// the index is the first pivot that is not positive; the lower triangle is
/// then partly updated.
///
/// Right-looking ([`crate::microkernel::Isa::dpotrf`]), with the bits of the
/// left-looking loop it replaced ([`crate::naive::dpotrf`]) on every
/// instantiation: each element takes its subtractions in k order, a multiply
/// then a subtract, before its one division.
pub fn dpotrf(a: &mut [f64], n: usize) -> Result<(), FactorError> {
    crate::microkernel::Isa::widest().dpotrf(a, n)
}

/// In-place LU with partial pivoting of a row-major n×n matrix. Returns the
/// pivot vector (`piv[k]` = row swapped into position `k` at step `k`).
/// After return, `a` holds `L` (unit diagonal, below) and `U` (on/above).
pub fn dgetrf(a: &mut [f64], n: usize) -> Result<Vec<usize>, FactorError> {
    assert_eq!(a.len(), n * n, "A dims");
    let mut piv = Vec::with_capacity(n);
    for k in 0..n {
        // Partial pivot: the largest |a[i][k]| for i >= k.
        let mut p = k;
        let mut best = a[k * n + k].abs();
        for i in k + 1..n {
            let v = a[i * n + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 || !best.is_finite() {
            return Err(FactorError::SingularPivot(k));
        }
        piv.push(p);
        if p != k {
            for c in 0..n {
                a.swap(k * n + c, p * n + c);
            }
        }
        let pivot = a[k * n + k];
        for i in k + 1..n {
            let lik = a[i * n + k] / pivot;
            a[i * n + k] = lik;
            for c in k + 1..n {
                a[i * n + c] -= lik * a[k * n + c];
            }
        }
    }
    Ok(piv)
}

/// In-place LU **without pivoting** (block-LU diagonal kernel). Valid for
/// diagonally dominant blocks, as block (tile) LU requires; returns the
/// column of the first vanishing pivot otherwise. After return, `a` holds
/// unit-`L` below and `U` on/above the diagonal.
pub fn lu_nopiv(a: &mut [f64], n: usize) -> Result<(), FactorError> {
    assert_eq!(a.len(), n * n, "A dims");
    for k in 0..n {
        let pivot = a[k * n + k];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(FactorError::SingularPivot(k));
        }
        for i in k + 1..n {
            let lik = a[i * n + k] / pivot;
            a[i * n + k] = lik;
            for c in k + 1..n {
                a[i * n + c] -= lik * a[k * n + c];
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{max_abs_diff, random_spd, reconstruct_llt, zero_upper, Matrix};

    #[test]
    fn dpotrf_reconstructs() {
        for n in [1usize, 2, 5, 16, 33] {
            let a = random_spd(n, n as u64);
            let mut l = a.clone();
            dpotrf(l.as_mut_slice(), n).expect("SPD factors");
            zero_upper(l.as_mut_slice(), n);
            let r = reconstruct_llt(l.as_slice(), n);
            let err = max_abs_diff(r.as_slice(), a.as_slice());
            assert!(err < 1e-8 * n as f64, "n={n} err={err}");
        }
    }

    #[test]
    fn dpotrf_rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert_eq!(dpotrf(&mut a, 2), Err(FactorError::NotPositiveDefinite(1)));
    }

    #[test]
    fn dgetrf_reconstructs_with_pivots() {
        let n = 12;
        let a = crate::dense::random(n, n, 77);
        let mut lu = a.clone();
        let piv = dgetrf(lu.as_mut_slice(), n).expect("non-singular");
        // Build L and U.
        let mut l = Matrix::zeros(n, n);
        let mut u = Matrix::zeros(n, n);
        for r in 0..n {
            l.set(r, r, 1.0);
            for c in 0..n {
                if c < r {
                    l.set(r, c, lu.at(r, c));
                } else {
                    u.set(r, c, lu.at(r, c));
                }
            }
        }
        let pa = {
            // Apply the recorded row swaps to A in order.
            let mut m = a.clone();
            for (k, &p) in piv.iter().enumerate() {
                if p != k {
                    for c in 0..n {
                        let (x, y) = (m.at(k, c), m.at(p, c));
                        m.set(k, c, y);
                        m.set(p, c, x);
                    }
                }
            }
            m
        };
        let r = l.matmul_ref(&u);
        let err = max_abs_diff(r.as_slice(), pa.as_slice());
        assert!(err < 1e-10, "err={err}");
    }

    #[test]
    fn dgetrf_detects_singularity() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0]; // rank 1
        assert!(matches!(
            dgetrf(&mut a, 2),
            Err(FactorError::SingularPivot(1))
        ));
    }

    #[test]
    fn dgetrf_pivots_for_stability() {
        // Tiny leading pivot must be swapped away.
        let mut a = vec![1e-20, 1.0, 1.0, 1.0];
        let piv = dgetrf(&mut a, 2).expect("pivoting rescues this");
        assert_eq!(piv[0], 1, "row 1 swapped up");
    }

    #[test]
    fn lu_nopiv_reconstructs_diag_dominant() {
        let n = 10;
        let a = crate::dense::random_diag_dominant(n, 42);
        let mut lu = a.clone();
        lu_nopiv(lu.as_mut_slice(), n).expect("diag dominant factors");
        let mut l = Matrix::zeros(n, n);
        let mut u = Matrix::zeros(n, n);
        for r in 0..n {
            l.set(r, r, 1.0);
            for c in 0..n {
                if c < r {
                    l.set(r, c, lu.at(r, c));
                } else {
                    u.set(r, c, lu.at(r, c));
                }
            }
        }
        let rec = l.matmul_ref(&u);
        assert!(max_abs_diff(rec.as_slice(), a.as_slice()) < 1e-9);
    }

    #[test]
    fn lu_nopiv_detects_zero_pivot() {
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        assert_eq!(lu_nopiv(&mut a, 2), Err(FactorError::SingularPivot(0)));
    }
}
