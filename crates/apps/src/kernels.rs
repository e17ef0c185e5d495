//! Sink-side kernels shared by the applications, plus argument marshalling.
//!
//! hStreams marshals scalar arguments as bytes; these helpers pack/unpack
//! little-endian `u32` dimension lists the way the apps' kernels expect.
//!
//! Every data-parallel kernel *expands* across the executing stream's lanes
//! (paper §II, Fig. 3): the output tile's rows are partitioned into
//! micro-tile-aligned slabs and claimed dynamically by the stream's
//! resident [`hs_coi::Workgroup`] — row slabs of C (GEMM/SYRK) and of B
//! (the right-side TRSMs) are independent, so each lane runs the packed
//! blocked kernel on its slab. Sequential factorizations (POTRF, LDLᵀ, LU)
//! and the left-side TRSM (rows are coupled) stay single-lane.
//!
//! Lane invariance: which arithmetic an output element gets never depends
//! on the slab it falls in. A kernel picks its code path from the whole
//! tile's dimensions and every slab then runs that path, so the result is
//! bit-identical for every lane count — an in-process card at 1 lane and a
//! worker at 2 agree (`tests/lane_invariance.rs`, `tests/remote_transport.rs`).
//! Operands are read in place through [`TaskCtx::buf_f64_split`].

use bytes::Bytes;
use hs_coi::Workgroup;
use hs_linalg::factor::{dpotrf, ldlt};
use hs_linalg::microkernel::{self, BSrc, PackedB};
use hs_linalg::{blas3, naive};
use hstreams_core::{HStreams, TaskCtx, TaskFn};
use std::sync::Arc;

/// Partition the m×n output slab's rows across the stream's lanes and run
/// `f(row0, slab)` on each micro-tile-aligned row slab.
fn expand_rows(
    wg: &Workgroup,
    c: &mut [f64],
    m: usize,
    n: usize,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    if m == 0 || n == 0 {
        return;
    }
    let rows = microkernel::expansion_rows(m, wg.width());
    if rows >= m {
        f(0, c);
        return;
    }
    wg.par_chunks_mut(c, rows * n, |idx, slab| f(idx * rows, slab));
}

/// `C(m×n) += alpha · A(m×k) · B` with C's rows expanded across the lanes.
/// Tiles too small to be worth packing run the naive loops whole; the rest
/// pack B once, and every slab's micro-kernel sweep reads that one panel.
#[allow(clippy::too_many_arguments)] // the BLAS signature is the interface
fn gemm_expanded(
    wg: &Workgroup,
    alpha: f64,
    a: &[f64],
    b: BSrc<'_>,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    if blas3::gemm_is_small(m, n, k) {
        match b {
            BSrc::Normal { b, .. } => naive::dgemm(alpha, a, b, 1.0, c, m, n, k),
            BSrc::Trans { bt, .. } => naive::dgemm_nt(alpha, a, bt, 1.0, c, m, n, k),
        }
        return;
    }
    let bp = PackedB::pack(b, k, n);
    expand_rows(wg, c, m, n, |row0, slab| {
        let nrows = slab.len() / n;
        let a_rows = &a[row0 * k..(row0 + nrows) * k];
        microkernel::gemm_prepacked(alpha, a_rows, k, &bp, 1.0, slab, n, nrows);
    });
}

/// Pack u32 scalars as task args.
pub fn pack_dims(dims: &[u32]) -> Bytes {
    let mut v = Vec::with_capacity(dims.len() * 4);
    for d in dims {
        v.extend_from_slice(&d.to_le_bytes());
    }
    Bytes::from(v)
}

/// Unpack u32 scalars from task args.
pub fn unpack_dims(args: &[u8]) -> Vec<u32> {
    args.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect()
}

/// `tile_gemm_nn`: operands (A in, B in, C out/inout); args m, n, k, beta01.
/// `beta01 == 0` overwrites C (first accumulation step).
fn tile_gemm_nn(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let (m, n, k, beta) = (d[0] as usize, d[1] as usize, d[2] as usize, d[3]);
    let wg = ctx.workgroup().clone();
    let ([a, b], c) = ctx.buf_f64_split([0, 1], 2);
    if beta == 0 {
        c.fill(0.0);
    }
    gemm_expanded(&wg, 1.0, a, BSrc::Normal { b, ldb: n }, c, m, n, k);
}

/// `tile_gemm_nt`: `C -= A · Bᵀ`; operands (A in, B in, C inout); args m,n,k.
fn tile_gemm_nt(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let (m, n, k) = (d[0] as usize, d[1] as usize, d[2] as usize);
    let wg = ctx.workgroup().clone();
    let ([a, b], c) = ctx.buf_f64_split([0, 1], 2);
    gemm_expanded(&wg, -1.0, a, BSrc::Trans { bt: b, ldbt: k }, c, m, n, k);
}

/// `tile_syrk`: `C -= A·Aᵀ` (lower); operands (A in, C inout); args n, k.
fn tile_syrk(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let (n, k) = (d[0] as usize, d[1] as usize);
    let wg = ctx.workgroup().clone();
    let (a, c) = ctx.buf_f64_pair_mut(0, 1);
    expand_rows(&wg, c, n, n, |row0, slab| {
        microkernel::dsyrk_ln_rows(a, slab, row0, slab.len() / n, n, k);
    });
}

/// `tile_trsm`: `B = B · L⁻ᵀ`; operands (L in, B inout); args m, n.
/// Rows of B are independent in a right-side solve, so the slab expansion
/// applies verbatim.
fn tile_trsm(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let (m, n) = (d[0] as usize, d[1] as usize);
    let wg = ctx.workgroup().clone();
    let (l, b) = ctx.buf_f64_pair_mut(0, 1);
    expand_rows(&wg, b, m, n, |_row0, slab| {
        microkernel::dtrsm_rlt(l, slab, slab.len() / n, n);
    });
}

/// `tile_potrf`: in-place Cholesky of the diagonal tile; operands (A inout);
/// args n.
fn tile_potrf(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let n = d[0] as usize;
    let a = ctx.buf_f64_mut(0);
    dpotrf(a, n).expect("diagonal tile must stay positive definite");
    hs_linalg::dense::zero_upper(a, n);
}

/// `tile_ldlt`: in-place LDLᵀ of a supernode block; operands (A inout);
/// args n.
fn tile_ldlt(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let n = d[0] as usize;
    let a = ctx.buf_f64_mut(0);
    ldlt(a, n).expect("supernode pivots must stay non-singular");
}

/// `tile_lu_nopiv`: in-place unpivoted LU of the diagonal tile; operands
/// (A inout); args n.
fn tile_lu_nopiv(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let n = d[0] as usize;
    let a = ctx.buf_f64_mut(0);
    hs_linalg::factor::lu_nopiv(a, n).expect("block-LU diagonal tile must be non-singular");
}

/// `tile_trsm_llu`: `B = L⁻¹ B` (block-LU row panel); operands (LU in,
/// B inout); args m(=tile of L), n(cols of B).
fn tile_trsm_llu(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let (m, n) = (d[0] as usize, d[1] as usize);
    let (l, b) = ctx.buf_f64_pair_mut(0, 1);
    blas3::dtrsm_llu(l, b, m, n);
}

/// `tile_trsm_runn`: `B = B U⁻¹` (block-LU column panel); operands (LU in,
/// B inout); args m(rows of B), n(=tile of U). Right-side solve: rows of B
/// are independent, so the slab expansion applies.
fn tile_trsm_runn(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let (m, n) = (d[0] as usize, d[1] as usize);
    let wg = ctx.workgroup().clone();
    let (u, b) = ctx.buf_f64_pair_mut(0, 1);
    expand_rows(&wg, b, m, n, |_row0, slab| {
        microkernel::dtrsm_runn(u, slab, slab.len() / n, n);
    });
}

/// `tile_gemm_sub`: `C -= A·B`; operands (A in, B in, C inout); args m,n,k.
fn tile_gemm_sub(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let (m, n, k) = (d[0] as usize, d[1] as usize, d[2] as usize);
    let wg = ctx.workgroup().clone();
    let ([a, b], c) = ctx.buf_f64_split([0, 1], 2);
    gemm_expanded(&wg, -1.0, a, BSrc::Normal { b, ldb: n }, c, m, n, k);
}

/// `whole_getrf`: full-matrix LU with partial pivoting (the untiled
/// scheme); operands (A inout); args n. Pivots are recomputed by callers
/// that need them; this kernel validates the factorization path.
fn whole_getrf(ctx: &mut TaskCtx) {
    let d = unpack_dims(ctx.args());
    let n = d[0] as usize;
    let a = ctx.buf_f64_mut(0);
    hs_linalg::factor::dgetrf(a, n).expect("matrix must be non-singular");
}

/// `tile_touch`: reads its operand and does nothing — used to force a
/// region's valid copy to a domain (e.g. gather results to the host in a
/// dataflow runtime).
fn tile_touch(_ctx: &mut TaskCtx) {}

/// `sleep_ms`: sleeps for the little-endian `u32` milliseconds in its
/// args. A deterministic long-running kernel for the shutdown and
/// robustness tests (an Exec that is reliably in flight when a signal or
/// fault lands).
fn sleep_ms(ctx: &mut TaskCtx) {
    let ms = ctx
        .args()
        .get(..4)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
        .unwrap_or(0);
    std::thread::sleep(std::time::Duration::from_millis(ms as u64));
}

/// The full kernel table (name → function).
pub fn kernel_table() -> Vec<(&'static str, TaskFn)> {
    vec![
        ("tile_gemm_nn", Arc::new(tile_gemm_nn) as TaskFn),
        ("tile_gemm_nt", Arc::new(tile_gemm_nt) as TaskFn),
        ("tile_syrk", Arc::new(tile_syrk) as TaskFn),
        ("tile_trsm", Arc::new(tile_trsm) as TaskFn),
        ("tile_potrf", Arc::new(tile_potrf) as TaskFn),
        ("tile_ldlt", Arc::new(tile_ldlt) as TaskFn),
        ("tile_lu_nopiv", Arc::new(tile_lu_nopiv) as TaskFn),
        ("tile_trsm_llu", Arc::new(tile_trsm_llu) as TaskFn),
        ("tile_trsm_runn", Arc::new(tile_trsm_runn) as TaskFn),
        ("tile_gemm_sub", Arc::new(tile_gemm_sub) as TaskFn),
        ("whole_getrf", Arc::new(whole_getrf) as TaskFn),
        ("tile_touch", Arc::new(tile_touch) as TaskFn),
        ("sleep_ms", Arc::new(sleep_ms) as TaskFn),
    ]
}

/// Register every app kernel on a runtime (idempotent; names are stable).
pub fn register_all(hs: &mut HStreams) {
    for (name, f) in kernel_table() {
        hs.register(name, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_round_trip() {
        let b = pack_dims(&[3, 500, 0, u32::MAX]);
        assert_eq!(unpack_dims(&b), vec![3, 500, 0, u32::MAX]);
    }

    #[test]
    fn empty_args_unpack_empty() {
        assert!(unpack_dims(&[]).is_empty());
    }
}
