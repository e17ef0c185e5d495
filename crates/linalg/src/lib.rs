//! # hs-linalg — dense linear algebra substrate
//!
//! The paper's reference applications are tiled matrix multiplication and
//! tiled Cholesky factorization built on MKL BLAS/LAPACK kernels. This crate
//! provides those kernels in pure Rust so the applications compute real
//! numbers in real-thread mode:
//!
//! * [`blas3`] — `dgemm`, `dsyrk`, `dtrsm` on row-major tiles: dimension
//!   checks over the packed path;
//! * [`microkernel`] — the packed, cache-blocked (MC/KC/NC), register-blocked
//!   (MR×NR) GEMM fast path plus blocked SYRK/TRSM built on it;
//! * [`naive`] — the retained reference loops (differential-test oracle);
//! * [`factor`] — `dpotrf` (Cholesky, right-looking), `dgetrf` (LU with
//!   partial pivoting), `lu_nopiv` (the block-LU diagonal kernel);
//! * [`dense`] — a row-major matrix type with the verification products
//!   `matmul_ref` and `matmul_ref_nt` (Bᵀ read in place), SPD generators,
//!   norms;
//! * [`tiled`] — tile maps and pack/unpack between a full matrix and
//!   per-tile contiguous storage;
//! * [`flops`] — the standard flop counts used as sim-mode cost hints.
//!
//! The kernels favour clarity + cache-friendly loop orders over peak
//! performance; absolute speed comes from the calibrated simulator, while
//! these kernels establish *correctness* of every schedule the runtime
//! produces.

pub mod blas3;
pub mod dense;
pub mod factor;
pub mod flops;
pub mod microkernel;
pub mod naive;
pub mod tiled;

pub use blas3::{dgemm, dsyrk_ln, dtrsm_rlt};
pub use dense::Matrix;
pub use factor::{dgetrf, dpotrf};
pub use tiled::TileMap;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_cholesky_solves() {
        // Factor a small SPD matrix and verify L L^T = A.
        let n = 24;
        let a = dense::random_spd(n, 7);
        let mut l = a.clone();
        factor::dpotrf(l.as_mut_slice(), n).expect("SPD factors");
        dense::zero_upper(l.as_mut_slice(), n);
        let r = dense::reconstruct_llt(l.as_slice(), n);
        let err = dense::max_abs_diff(r.as_slice(), a.as_slice());
        assert!(err < 1e-9, "reconstruction error {err}");
    }
}
