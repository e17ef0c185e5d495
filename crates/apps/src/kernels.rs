//! Sink-side kernels shared by the applications, each beside the one
//! declaration of how it is called.
//!
//! hStreams marshals scalar arguments as bytes; a kernel's dims travel as a
//! little-endian `u32` list. Each kernel is a pair: a constructor
//! (`potrf(a_kk, n)`, `trsm(l_kk, a_ik, m, n)`, ...) that returns the
//! [`Call`] — registered name, packed dims, operands, cost hint — and the
//! sink function that unpacks exactly that. The apps state *which* tiles a
//! task touches and where it runs; *how* the kernel is called is here.
//!
//! Every data-parallel kernel *expands* across the executing stream's lanes
//! (paper §II, Fig. 3): the output tile's rows are partitioned into
//! micro-tile-aligned slabs and claimed dynamically by the stream's
//! [`hs_coi::Workgroup`] — row slabs of C (GEMM/SYRK) and of B
//! (the right-side TRSMs) are independent, so each lane runs the packed
//! blocked kernel on its slab. Sequential factorizations (POTRF, LU)
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
use hs_linalg::factor::dpotrf;
use hs_linalg::microkernel::{self, BSrc, PackedB};
use hs_linalg::{blas3, flops};
use hs_machine::KernelKind;
use hs_ompss::{DataAccess, DataId, OmpSs};
use hstreams_core::Access::{self, In, InOut, Out};
use hstreams_core::{
    BatchAction, BufferId, CostHint, DomainId, Event, HStreams, HsResult, Operand, StreamId,
    TaskCtx, TaskFn,
};
use std::sync::Arc;

/// Partition the m×n output slab's rows across the stream's lanes and run
/// `f(row0, slab)` on each micro-tile-aligned row slab. `flops` is the whole
/// kernel's work: a tile too short to feed two lanes runs as one slab.
fn expand_rows(
    wg: &Workgroup,
    c: &mut [f64],
    m: usize,
    n: usize,
    flops: f64,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    if m == 0 || n == 0 {
        return;
    }
    let rows = microkernel::expansion_rows(m, wg.width(), flops);
    if rows >= m {
        f(0, c);
        return;
    }
    wg.par_chunks_mut(c, rows * n, |idx, slab| f(idx * rows, slab));
}

/// `C(m×n) += alpha · A(m×k) · B` with C's rows expanded across the lanes.
/// B is packed once, and every slab's micro-kernel sweep reads that one
/// panel.
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
    let bp = PackedB::pack(b, k, n);
    expand_rows(wg, c, m, n, flops::gemm(m, n, k), |row0, slab| {
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

/// A kernel's dims as its enqueue site packs them: the inverse of [`dims`].
pub(crate) fn pack<const N: usize>(dims: [usize; N]) -> Bytes {
    pack_dims(&dims.map(|d| d as u32))
}

/// A kernel's dims as its sink function reads them: the inverse of [`pack`].
pub(crate) fn dims<const N: usize>(ctx: &TaskCtx) -> [usize; N] {
    let d = unpack_dims(ctx.args());
    std::array::from_fn(|i| d[i] as usize)
}

/// One call of a tile kernel: its registered name, packed dims, operands
/// (handle, f64 count from element 0, access) and cost hint. Built only by
/// the constructor that stands beside the kernel's sink function, so the
/// calling convention — dims order, operand order, which operand is
/// written, which flop formula — is stated once, next to the code that
/// unpacks it. Generic over the operand handle: a [`BufferId`] call is
/// enqueued into a stream, a [`DataId`] call is submitted as an OmpSs task.
/// Operands are held inline until the call is enqueued.
pub struct Call<H> {
    name: &'static str,
    args: Bytes,
    /// `ops[..n]` are the operands; the rest repeats `ops[0]` as filler.
    ops: [(H, usize, Access); 3],
    n: usize,
    cost: CostHint,
}

impl<H: Copy> Call<H> {
    fn new<const N: usize>(
        name: &'static str,
        dims: [usize; N],
        operands: &[(H, usize, Access)],
        cost: CostHint,
    ) -> Call<H> {
        let mut ops = [operands[0]; 3];
        ops[..operands.len()].copy_from_slice(operands);
        Call {
            name,
            args: pack(dims),
            ops,
            n: operands.len(),
            cost,
        }
    }
}

impl Call<BufferId> {
    /// Enqueue the call into stream `s`, ordered after whichever of `after`
    /// exist: edges of this task alone ([`hstreams_core::ActionOpts::after`]).
    pub fn enqueue(self, hs: &HStreams, s: StreamId, after: &[Option<Event>]) -> HsResult<Event> {
        let operands = self.ops[..self.n]
            .iter()
            .map(|&(buf, count, access)| Operand::f64s(buf, 0, count, access))
            .collect();
        let action = BatchAction::Compute {
            func: self.name.into(),
            args: self.args,
            operands,
            cost: self.cost,
        };
        crate::enqueue_after(hs, s, action, after)
    }
}

impl Call<DataId> {
    /// Submit the call as an OmpSs task pinned to `device`.
    pub fn task(self, o: &mut OmpSs, device: DomainId) -> HsResult<()> {
        let accesses = self
            .ops
            .map(|(data, _, access)| DataAccess { data, access });
        o.task(self.name, self.args, &accesses[..self.n], self.cost, device)
    }
}

fn cost(kind: KernelKind, flops: f64, tile: usize) -> CostHint {
    CostHint::new(kind, flops, tile as u64)
}

/// `tile_gemm_nn`: operands (A in, B in, C out/inout); args m, n, k, beta01.
/// `beta01 == 0` overwrites C (`first`: the first accumulation step, C is
/// write-only). `tile` is the schedule's nominal tile side, which the cost
/// model's efficiency curve is keyed on even at an uneven edge.
pub fn gemm_nn<H: Copy>(
    a: H,
    b: H,
    c: H,
    [m, n, k]: [usize; 3],
    tile: usize,
    first: bool,
) -> Call<H> {
    let c_access = if first { Out } else { InOut };
    Call::new(
        "tile_gemm_nn",
        [m, n, k, usize::from(!first)],
        &[(a, m * k, In), (b, k * n, In), (c, m * n, c_access)],
        cost(KernelKind::Dgemm, flops::gemm(m, n, k), tile),
    )
}

fn tile_gemm_nn(ctx: &mut TaskCtx) {
    let [m, n, k, beta] = dims(ctx);
    let wg = ctx.workgroup().clone();
    let ([a, b], c) = ctx.buf_f64_split([0, 1], 2);
    if beta == 0 {
        c.fill(0.0);
    }
    gemm_expanded(&wg, 1.0, a, BSrc::Normal { b, ldb: n }, c, m, n, k);
}

/// `tile_gemm_nt`: `C -= A · Bᵀ`; operands (A in, B in, C inout); args m,n,k.
pub fn gemm_nt<H: Copy>(a: H, b: H, c: H, [m, n, k]: [usize; 3]) -> Call<H> {
    Call::new(
        "tile_gemm_nt",
        [m, n, k],
        &[(a, m * k, In), (b, n * k, In), (c, m * n, InOut)],
        cost(KernelKind::Dgemm, flops::gemm(m, n, k), k),
    )
}

fn tile_gemm_nt(ctx: &mut TaskCtx) {
    let [m, n, k] = dims(ctx);
    let wg = ctx.workgroup().clone();
    let ([a, b], c) = ctx.buf_f64_split([0, 1], 2);
    gemm_expanded(&wg, -1.0, a, BSrc::Trans { bt: b, ldbt: k }, c, m, n, k);
}

/// `tile_syrk`: `C -= A·Aᵀ` (lower); operands (A in, C inout); args n, k.
pub fn syrk<H: Copy>(a: H, c: H, n: usize, k: usize) -> Call<H> {
    Call::new(
        "tile_syrk",
        [n, k],
        &[(a, n * k, In), (c, n * n, InOut)],
        cost(KernelKind::Dsyrk, flops::syrk(n, k), k),
    )
}

fn tile_syrk(ctx: &mut TaskCtx) {
    let [n, k] = dims(ctx);
    let wg = ctx.workgroup().clone();
    let (a, c) = ctx.buf_f64_pair_mut(0, 1);
    expand_rows(&wg, c, n, n, flops::syrk(n, k), |row0, slab| {
        microkernel::dsyrk_ln_rows(a, slab, row0, slab.len() / n, n, k);
    });
}

/// `tile_trsm`: `B = B · L⁻ᵀ`; operands (L in, B inout); args m, n.
/// Rows of B are independent in a right-side solve, so the slab expansion
/// applies verbatim.
pub fn trsm<H: Copy>(l: H, b: H, m: usize, n: usize) -> Call<H> {
    Call::new(
        "tile_trsm",
        [m, n],
        &[(l, n * n, In), (b, m * n, InOut)],
        cost(KernelKind::Dtrsm, flops::trsm(m, n), n),
    )
}

fn tile_trsm(ctx: &mut TaskCtx) {
    let [m, n] = dims(ctx);
    let wg = ctx.workgroup().clone();
    let (l, b) = ctx.buf_f64_pair_mut(0, 1);
    expand_rows(&wg, b, m, n, flops::trsm(m, n), |_row0, slab| {
        microkernel::dtrsm_rlt(l, slab, slab.len() / n, n);
    });
}

/// `tile_potrf`: in-place Cholesky of the diagonal tile; operands (A inout);
/// args n.
pub fn potrf<H: Copy>(a: H, n: usize) -> Call<H> {
    let hint = cost(KernelKind::Dpotrf, flops::potrf(n), n);
    Call::new("tile_potrf", [n], &[(a, n * n, InOut)], hint)
}

/// The supernode solver's diagonal factor: the same `tile_potrf` kernel —
/// LLᵀ has LDLᵀ's dependence structure and leading flop term — costed as
/// the LDLᵀ it stands in for.
pub fn potrf_as_ldlt<H: Copy>(a: H, n: usize) -> Call<H> {
    Call {
        cost: cost(KernelKind::Ldlt, flops::ldlt(n), n),
        ..potrf(a, n)
    }
}

fn tile_potrf(ctx: &mut TaskCtx) {
    let [n] = dims(ctx);
    let a = ctx.buf_f64_mut(0);
    dpotrf(a, n).expect("diagonal tile must stay positive definite");
    hs_linalg::dense::zero_upper(a, n);
}

/// `tile_lu_nopiv`: in-place unpivoted LU of the diagonal tile; operands
/// (A inout); args n.
pub fn lu_nopiv<H: Copy>(a: H, n: usize) -> Call<H> {
    let hint = cost(KernelKind::Dgetrf, flops::getrf(n), n);
    Call::new("tile_lu_nopiv", [n], &[(a, n * n, InOut)], hint)
}

fn tile_lu_nopiv(ctx: &mut TaskCtx) {
    let [n] = dims(ctx);
    let a = ctx.buf_f64_mut(0);
    hs_linalg::factor::lu_nopiv(a, n).expect("block-LU diagonal tile must be non-singular");
}

/// `tile_trsm_llu`: `B = L⁻¹ B` (block-LU row panel); operands (LU in,
/// B inout); args m(=tile of L), n(cols of B).
pub fn trsm_llu<H: Copy>(lu: H, b: H, m: usize, n: usize) -> Call<H> {
    Call::new(
        "tile_trsm_llu",
        [m, n],
        &[(lu, m * m, In), (b, m * n, InOut)],
        cost(KernelKind::Dtrsm, flops::trsm(n, m), m),
    )
}

fn tile_trsm_llu(ctx: &mut TaskCtx) {
    let [m, n] = dims(ctx);
    let (l, b) = ctx.buf_f64_pair_mut(0, 1);
    blas3::dtrsm_llu(l, b, m, n);
}

/// `tile_trsm_runn`: `B = B U⁻¹` (block-LU column panel); operands (LU in,
/// B inout); args m(rows of B), n(=tile of U). Right-side solve: rows of B
/// are independent, so the slab expansion applies.
pub fn trsm_runn<H: Copy>(lu: H, b: H, m: usize, n: usize) -> Call<H> {
    Call::new(
        "tile_trsm_runn",
        [m, n],
        &[(lu, n * n, In), (b, m * n, InOut)],
        cost(KernelKind::Dtrsm, flops::trsm(m, n), n),
    )
}

fn tile_trsm_runn(ctx: &mut TaskCtx) {
    let [m, n] = dims(ctx);
    let wg = ctx.workgroup().clone();
    let (u, b) = ctx.buf_f64_pair_mut(0, 1);
    expand_rows(&wg, b, m, n, flops::trsm(m, n), |_row0, slab| {
        microkernel::dtrsm_runn(u, slab, slab.len() / n, n);
    });
}

/// `tile_gemm_sub`: `C -= A·B`; operands (A in, B in, C inout); args m,n,k.
pub fn gemm_sub<H: Copy>(a: H, b: H, c: H, [m, n, k]: [usize; 3]) -> Call<H> {
    Call::new(
        "tile_gemm_sub",
        [m, n, k],
        &[(a, m * k, In), (b, k * n, In), (c, m * n, InOut)],
        cost(KernelKind::Dgemm, flops::gemm(m, n, k), k),
    )
}

fn tile_gemm_sub(ctx: &mut TaskCtx) {
    let [m, n, k] = dims(ctx);
    let wg = ctx.workgroup().clone();
    let ([a, b], c) = ctx.buf_f64_split([0, 1], 2);
    gemm_expanded(&wg, -1.0, a, BSrc::Normal { b, ldb: n }, c, m, n, k);
}

/// `whole_getrf`: full-matrix LU with partial pivoting (the untiled
/// scheme); operands (A inout); args n. Pivots are recomputed by callers
/// that need them; this kernel validates the factorization path.
pub fn whole_getrf<H: Copy>(a: H, n: usize) -> Call<H> {
    let hint = cost(KernelKind::Dgetrf, flops::getrf(n), n);
    Call::new("whole_getrf", [n], &[(a, n * n, InOut)], hint)
}

fn whole_getrf_sink(ctx: &mut TaskCtx) {
    let [n] = dims(ctx);
    let a = ctx.buf_f64_mut(0);
    hs_linalg::factor::dgetrf(a, n).expect("matrix must be non-singular");
}

/// `tile_touch`: reads its `count`-element operand and does nothing — used
/// to force a region's valid copy to a domain (e.g. gather results to the
/// host in a dataflow runtime); no args.
pub fn touch<H: Copy>(a: H, count: usize) -> Call<H> {
    Call::new("tile_touch", [], &[(a, count, In)], CostHint::trivial())
}

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
        ("tile_lu_nopiv", Arc::new(tile_lu_nopiv) as TaskFn),
        ("tile_trsm_llu", Arc::new(tile_trsm_llu) as TaskFn),
        ("tile_trsm_runn", Arc::new(tile_trsm_runn) as TaskFn),
        ("tile_gemm_sub", Arc::new(tile_gemm_sub) as TaskFn),
        ("whole_getrf", Arc::new(whole_getrf_sink) as TaskFn),
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
