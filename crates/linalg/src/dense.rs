//! Row-major dense matrices and test-support generators.

use crate::microkernel::Isa;

/// A square or rectangular row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "data length must match dims");
        Matrix { rows, cols, data }
    }

    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `C = A * B` for verification: each element is the naive i-k-j loop's,
    /// bit for bit, on every instantiation of the register kernel — a
    /// multiply then an add per term in k order, a zero of A skipped — run
    /// register-tiled and split by rows across the host's cores
    /// ([`crate::microkernel::Isa::matmul_ref`]). Its oracle is
    /// `naive::dgemm(1.0, a, b, 0.0, zeros, ..)`. It is not
    /// [`crate::blas3::dgemm`], which fuses and blocks k into `KC` slabs: the
    /// check would then share its arithmetic with what it checks.
    pub fn matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let (m, n, k) = (self.rows, other.cols, self.cols);
        let data = Isa::widest().matmul_ref(&self.data, &other.data, m, n, k);
        Matrix::from_vec(m, n, data)
    }

    /// `C = A·Bᵀ` for verification, `other` holding B: the bits of
    /// `self.matmul_ref(&other.transpose())`, with Bᵀ read in place.
    pub fn matmul_ref_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let (m, n, k) = (self.rows, other.rows, self.cols);
        let data = Isa::widest().matmul_ref_nt(&self.data, &other.data, m, n, k);
        Matrix::from_vec(m, n, data)
    }

    /// An explicit transposed copy. The products read a transposed operand
    /// in place ([`Matrix::matmul_ref_nt`]); tests build their oracles'
    /// operands with this.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.at(r, c));
            }
        }
        t
    }
}

/// Deterministic pseudo-random values without external crates (xorshift64*).
/// Good enough for generating test matrices reproducibly.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1).wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in [-1, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Random matrix with entries in [-1, 1).
pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = XorShift::new(seed);
    let data = (0..rows * cols).map(|_| rng.next_f64()).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Random strictly diagonally dominant matrix (safe for unpivoted LU).
pub fn random_diag_dominant(n: usize, seed: u64) -> Matrix {
    let mut a = random(n, n, seed);
    for i in 0..n {
        let rowsum: f64 = (0..n).map(|j| a.at(i, j).abs()).sum();
        a.set(i, i, rowsum + 1.0);
    }
    a
}

/// Random symmetric positive-definite matrix: `B Bᵀ + n·I`.
pub fn random_spd(n: usize, seed: u64) -> Matrix {
    let b = random(n, n, seed);
    let mut a = b.matmul_ref_nt(&b);
    for i in 0..n {
        a.data[i * n + i] += n as f64;
    }
    a
}

/// Zero out the strict upper triangle of a square row-major matrix.
pub fn zero_upper(a: &mut [f64], n: usize) {
    for r in 0..n {
        for c in r + 1..n {
            a[r * n + c] = 0.0;
        }
    }
}

/// `L Lᵀ` for a lower-triangular row-major `L`.
pub fn reconstruct_llt(l: &[f64], n: usize) -> Matrix {
    Matrix::from_vec(n, n, Isa::widest().matmul_ref_nt(l, l, n, n, n))
}

/// `L D Lᵀ` for unit-lower-triangular `L` (diagonal of `l` holds D).
#[allow(clippy::needless_range_loop)]
pub fn reconstruct_ldlt(l: &[f64], n: usize) -> Matrix {
    let mut lm = Matrix::zeros(n, n);
    let mut d = vec![0.0; n];
    for r in 0..n {
        d[r] = l[r * n + r];
        lm.set(r, r, 1.0);
        for c in 0..r {
            lm.set(r, c, l[r * n + c]);
        }
    }
    let mut ld = lm.clone();
    for r in 0..n {
        for c in 0..n {
            let v = ld.at(r, c) * d[c];
            ld.set(r, c, v);
        }
    }
    ld.matmul_ref_nt(&lm)
}

/// Largest absolute element-wise difference — NaN if any difference is NaN
/// (a NaN on either side, or infinities of one sign on both), so a result
/// that holds a NaN never verifies.
///
/// Branch-free: a running max taken by a compare and a select, which passes
/// a NaN by, and a NaN flag beside it.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let (max, nan) = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold((0.0, false), |(m, nan), d| {
            (if d > m { d } else { m }, nan | d.is_nan())
        });
    if nan {
        f64::NAN
    } else {
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_ref_identity() {
        let a = random(5, 5, 1);
        let mut i5 = Matrix::zeros(5, 5);
        for i in 0..5 {
            i5.set(i, i, 1.0);
        }
        let c = a.matmul_ref(&i5);
        assert!(max_abs_diff(c.as_slice(), a.as_slice()) < 1e-15);
    }

    #[test]
    fn matmul_ref_known_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul_ref(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn max_abs_diff_sees_nan() {
        let want = [1.0, 2.0, 3.0];
        assert_eq!(max_abs_diff(&[1.0, 2.5, 3.0], &want), 0.5);
        // One NaN, first, middle or last, on either side; every entry NaN.
        for at in 0..3 {
            let mut got = want;
            got[at] = f64::NAN;
            assert!(max_abs_diff(&got, &want).is_nan(), "NaN at {at}");
            assert!(max_abs_diff(&want, &got).is_nan(), "NaN at {at}");
        }
        assert!(max_abs_diff(&[f64::NAN; 3], &want).is_nan());
        assert!(max_abs_diff(&[f64::INFINITY], &[f64::INFINITY]).is_nan());
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn transpose_round_trip() {
        let a = random(4, 7, 3);
        let t = a.transpose().transpose();
        assert_eq!(a, t);
    }

    #[test]
    fn spd_is_symmetric_with_dominant_diagonal() {
        let n = 12;
        let a = random_spd(n, 5);
        for r in 0..n {
            for c in 0..n {
                assert!((a.at(r, c) - a.at(c, r)).abs() < 1e-12, "symmetry");
            }
            assert!(a.at(r, r) >= n as f64 * 0.5, "diagonal dominance-ish");
        }
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_values_in_range() {
        let mut rng = XorShift::new(9);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn zero_upper_keeps_lower() {
        let mut a = random(4, 4, 2).into_vec();
        let before = a.clone();
        zero_upper(&mut a, 4);
        for r in 0..4 {
            for c in 0..4 {
                if c > r {
                    assert_eq!(a[r * 4 + c], 0.0);
                } else {
                    assert_eq!(a[r * 4 + c], before[r * 4 + c]);
                }
            }
        }
    }

    #[test]
    fn fro_norm_of_unit() {
        let mut a = Matrix::zeros(3, 3);
        a.set(1, 2, 3.0);
        a.set(2, 0, 4.0);
        assert!((a.fro_norm() - 5.0).abs() < 1e-12);
    }
}
