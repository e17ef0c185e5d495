//! Reference (naive) kernels, retained verbatim when a fast path replaced
//! them: the level-3 loops of the original `blas3` module (see
//! [`crate::microkernel`]) and the left-looking Cholesky of `factor`.
//!
//! These loops are the *oracle* for differential testing: simple enough to
//! audit by eye, streaming-friendly loop orders (i-k-j with the `a[i][k]`
//! scalar hoisted), and bit-for-bit stable across refactors of the fast
//! path. Nothing but tests and benches calls them. Two fast paths must
//! match them bit for bit, not just within rounding: `dgemm(1.0, a, b, 0.0,
//! zeros, ..)` is `Matrix::matmul_ref`, and `dpotrf` is `factor::dpotrf`.

use crate::factor::FactorError;

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
    if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            let f = alpha * aik;
            if f == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj += f * bj;
            }
        }
    }
}

/// `C = alpha * A(m×k) * B(k×n)ᵀ + beta * C(m×n)` where `b` is stored as
/// n×k row-major (i.e. we multiply by its transpose).
#[allow(clippy::too_many_arguments)] // the BLAS signature is the interface
pub fn dgemm_nt(
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
    assert_eq!(b.len(), n * k, "B dims (stored n×k)");
    assert_eq!(c.len(), m * n, "C dims");
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut dot = 0.0;
            for (x, y) in arow.iter().zip(brow) {
                dot += x * y;
            }
            let cij = &mut c[i * n + j];
            *cij = alpha * dot + beta * *cij;
        }
    }
}

/// Symmetric rank-k update, lower: `C = C - A·Aᵀ` restricted to the lower
/// triangle of the n×n tile `C`, with `A` n×k row-major.
pub fn dsyrk_ln(a: &[f64], c: &mut [f64], n: usize, k: usize) {
    assert_eq!(a.len(), n * k, "A dims");
    assert_eq!(c.len(), n * n, "C dims");
    for i in 0..n {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..=i {
            let brow = &a[j * k..(j + 1) * k];
            let mut dot = 0.0;
            for (x, y) in arow.iter().zip(brow) {
                dot += x * y;
            }
            c[i * n + j] -= dot;
        }
    }
}

/// Triangular solve, right/lower/transposed: `B = B · L⁻ᵀ` where `L` is the
/// lower-triangular n×n Cholesky factor of the diagonal tile and `B` is m×n.
pub fn dtrsm_rlt(l: &[f64], b: &mut [f64], m: usize, n: usize) {
    assert_eq!(l.len(), n * n, "L dims");
    assert_eq!(b.len(), m * n, "B dims");
    for r in 0..m {
        let row = &mut b[r * n..(r + 1) * n];
        for j in 0..n {
            let mut v = row[j];
            for p in 0..j {
                v -= row[p] * l[j * n + p];
            }
            row[j] = v / l[j * n + j];
        }
    }
}

/// Triangular solve, left/lower/unit: `B = L⁻¹·B` with `L` m×m unit lower
/// (from [`crate::factor::lu_nopiv`]) and `B` m×n.
pub fn dtrsm_llu(l: &[f64], b: &mut [f64], m: usize, n: usize) {
    assert_eq!(l.len(), m * m, "L dims");
    assert_eq!(b.len(), m * n, "B dims");
    for r in 1..m {
        // Split at row r: rows < r are final, row r updates from them.
        let (done, rest) = b.split_at_mut(r * n);
        let row = &mut rest[..n];
        for p in 0..r {
            let lrp = l[r * m + p];
            if lrp == 0.0 {
                continue;
            }
            let prow = &done[p * n..(p + 1) * n];
            for (x, y) in row.iter_mut().zip(prow) {
                *x -= lrp * y;
            }
        }
    }
}

/// Triangular solve, right/upper/non-unit: `B = B·U⁻¹` with `U` n×n upper
/// (from [`crate::factor::lu_nopiv`]) and `B` m×n.
pub fn dtrsm_runn(u: &[f64], b: &mut [f64], m: usize, n: usize) {
    assert_eq!(u.len(), n * n, "U dims");
    assert_eq!(b.len(), m * n, "B dims");
    for r in 0..m {
        let row = &mut b[r * n..(r + 1) * n];
        for j in 0..n {
            let mut v = row[j];
            for p in 0..j {
                v -= row[p] * u[p * n + j];
            }
            row[j] = v / u[j * n + j];
        }
    }
}

/// In-place lower Cholesky, left-looking: column j takes all its
/// subtractions, in k order, when the sweep reaches it. The strict upper
/// triangle is never touched.
pub fn dpotrf(a: &mut [f64], n: usize) -> Result<(), FactorError> {
    assert_eq!(a.len(), n * n, "A dims");
    for j in 0..n {
        // d = a[j][j] - sum_k<j L[j][k]^2
        let mut d = a[j * n + j];
        for k in 0..j {
            let l = a[j * n + k];
            d -= l * l;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(FactorError::NotPositiveDefinite(j));
        }
        let djj = d.sqrt();
        a[j * n + j] = djj;
        for i in j + 1..n {
            let mut v = a[i * n + j];
            for k in 0..j {
                v -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = v / djj;
        }
    }
    Ok(())
}
